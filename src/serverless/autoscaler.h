#ifndef VELOCE_SERVERLESS_AUTOSCALER_H_
#define VELOCE_SERVERLESS_AUTOSCALER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "serverless/node_pool.h"
#include "serverless/proxy.h"

namespace veloce::serverless {

/// The autoscaler (Section 4.2.3): assigns each tenant a number of SQL
/// nodes from its recent CPU usage. Target capacity is
///     max(4 x avg CPU over 5 min,  1.33 x peak CPU over 5 min)
/// rounded up to whole nodes of the pool's shape (SqlNode::Options::vcpus,
/// 4 vCPUs by default) — a moving average for stability plus an
/// instantaneous maximum for responsiveness.
///
/// Metrics arrive by direct scrape every 3 seconds (the Section 4.3.2
/// optimization; the legacy Prometheus pipeline added 20-30 s of reaction
/// latency, reproducible via `scrape_interval`).
class Autoscaler {
 public:
  struct Options {
    Nanos scrape_interval = 3 * kSecond;
    Nanos window = 5 * kMinute;
    double avg_multiplier = 4.0;
    double peak_multiplier = 1.33;
    /// Suspend (scale to zero) after this long with zero usage and no
    /// client connections.
    Nanos suspend_after = 5 * kMinute;

    // --- automatic KV node scaling (future work, off by default) ----------
    /// When enabled via EnableKvScaling, add a KV node once cluster-wide
    /// KV utilization stays above this for a full window.
    double kv_scale_up_utilization = 0.8;
    int max_kv_nodes = 16;
  };

  /// Returns the tenant's *current* total SQL CPU usage in vCPUs.
  using CpuUsageFn = std::function<double(kv::TenantId)>;

  Autoscaler(sim::EventLoop* loop, SqlNodePool* pool, Proxy* proxy,
             CpuUsageFn usage_fn)
      : Autoscaler(loop, pool, proxy, std::move(usage_fn), Options()) {}
  Autoscaler(sim::EventLoop* loop, SqlNodePool* pool, Proxy* proxy,
             CpuUsageFn usage_fn, Options options);

  void WatchTenant(kv::TenantId tenant);
  void UnwatchTenant(kv::TenantId tenant);

  /// Begins periodic scraping/reconciliation.
  void Start();
  void Stop();

  /// One scrape+reconcile step (exposed so benches can drive manually).
  void Tick();

  /// Enables automatic KV (storage) node scaling — the paper's first
  /// future-work item (Section 8). `utilization_fn` reports cluster-wide
  /// KV CPU utilization in [0, 1]; when it stays above the threshold for a
  /// full scrape window, a node is added and replicas/leases rebalance
  /// onto it. Off unless called.
  void EnableKvScaling(kv::KVCluster* cluster,
                       std::function<double()> utilization_fn);
  int kv_nodes_added() const { return kv_nodes_added_; }

  /// The node count the current window implies for `tenant`.
  int TargetNodes(kv::TenantId tenant) const;
  double AvgUsage(kv::TenantId tenant) const;
  double PeakUsage(kv::TenantId tenant) const;
  /// Ready (non-draining) nodes currently assigned.
  int CurrentNodes(kv::TenantId tenant) const;
  bool suspended(kv::TenantId tenant) const;

 private:
  struct TenantState {
    std::deque<std::pair<Nanos, double>> samples;  // (time, vCPUs used)
    Nanos zero_since = -1;  ///< start of the current all-zero stretch
    bool suspended = false;
    int acquisitions_inflight = 0;
  };

  void Reconcile(kv::TenantId tenant, TenantState* state);

  sim::EventLoop* loop_;
  SqlNodePool* pool_;
  Proxy* proxy_;
  CpuUsageFn usage_fn_;
  Options options_;
  std::map<kv::TenantId, TenantState> tenants_;
  std::unique_ptr<sim::PeriodicTask> scraper_;
  kv::KVCluster* kv_cluster_ = nullptr;
  std::function<double()> kv_utilization_fn_;
  int kv_hot_scrapes_ = 0;
  int kv_nodes_added_ = 0;
};

}  // namespace veloce::serverless

#endif  // VELOCE_SERVERLESS_AUTOSCALER_H_
