#ifndef VELOCE_SERVERLESS_NODE_POOL_H_
#define VELOCE_SERVERLESS_NODE_POOL_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "serverless/kube_sim.h"
#include "sql/sql_node.h"
#include "tenant/controller.h"

namespace veloce::serverless {

/// Manages the region's SQL nodes: the pre-warmed pool, tenant stamping,
/// draining, and reuse (Sections 4.2.3 and 4.3.1).
///
/// Acquisition latency depends on the pool state and configuration:
///  * optimized (prewarm_process=true): warm nodes already run their
///    process with the TCP listener open — stamping writes the tenant's
///    certificate, the file watch fires, and the node finishes KV
///    initialization. Sub-second.
///  * unoptimized: the pod exists but the process must boot first, and the
///    client's early TCP connection attempts are RST'd and retried with
///    exponential backoff, roughly doubling observed latency (Section
///    6.5.1). Modeled as an extra penalty equal to the process start time.
class SqlNodePool {
 public:
  struct Options {
    size_t warm_pool_target = 4;
    bool prewarm_process = true;
    /// Certificate write + filesystem watch + KV connect, excluding the
    /// schema warmup reads (those depend on the region topology).
    Nanos stamp_latency = 120 * kMilli;
    /// Uniform jitter on the stamp step (cert distribution, fs watch
    /// wakeup, and KV connect times vary).
    Nanos stamp_jitter = 0;
    /// Idle draining nodes shut down after this long (paper: 10 minutes).
    Nanos drain_timeout = 10 * kMinute;
    sql::SqlNode::Options node_options;
    /// Pool telemetry (pod starts, per-path acquire latency, cold-start
    /// stage timings, warm/ready gauges). Null metrics = private registry.
    /// Set node_options.obs as well to instrument the SQL nodes themselves.
    obs::ObsContext obs;
    /// Seeds the stamp-jitter RNG; scenarios derive this from one scenario
    /// seed.
    uint64_t seed = 0xB00157ED;
  };

  SqlNodePool(sim::EventLoop* loop, KubeSim* kube,
              tenant::AuthorizedKvService* service, kv::KVCluster* cluster,
              tenant::TenantController* controller, Options options);

  using ReadyCallback = std::function<void(StatusOr<sql::SqlNode*>)>;

  /// Asynchronously acquires a ready SQL node for `tenant`. Prefers (1) a
  /// draining node of the same tenant (cheapest — instant un-drain), then
  /// (2) a pre-warmed node, then (3) a cold pod. The pool replenishes
  /// itself in the background. If the node dies (Unavailable) or fails its
  /// stamp (e.g. the tenant was destroyed) first, `on_ready` gets the error.
  void Acquire(kv::TenantId tenant, ReadyCallback on_ready);

  /// Marks a node draining; it is retired once its sessions are gone or
  /// the drain timeout passes. Draining nodes of the same tenant are reused
  /// by Acquire before warm ones. Here and in Remove/KillNode an id that is
  /// no longer active is ignored.
  void StartDraining(uint64_t node_id);

  /// Immediately retires the node (rolling upgrade / scale-to-zero end).
  void Remove(uint64_t node_id);

  /// Fault hook: abruptly kills the node's pod (KubeSim::KillPod), as if
  /// the container crashed mid-request; the node is retired like any other.
  void KillNode(uint64_t node_id);

  /// Invoked whenever a node leaves service — killed, drained out, removed,
  /// or failed to stamp — with the node, freed once the listener returns.
  /// The proxy hooks this to drop its pointers to the node and its sessions.
  void SetNodeFailureListener(std::function<void(sql::SqlNode*)> listener) {
    node_failure_listener_ = std::move(listener);
  }

  std::vector<sql::SqlNode*> NodesForTenant(kv::TenantId tenant) const;
  size_t warm_available() const { return warm_.size(); }
  size_t num_ready_nodes() const;
  /// The shape every node of this pool is built with.
  const sql::SqlNode::Options& node_options() const { return options_.node_options; }

  /// Refills the warm pool up to the target (runs automatically after each
  /// acquisition; exposed for tests).
  void Replenish();

 private:
  struct ManagedNode {
    std::unique_ptr<sql::SqlNode> node;
    PodId pod = 0;
  };

  /// Creates a pod and builds its SqlNode once the pod is up; with `boot`
  /// the process starts first, so the node arrives kWarm. `on_node` also
  /// gets the time the pod came up, and a null node if the pod was killed
  /// while it was created or booted.
  void StartNode(bool boot,
                 std::function<void(std::unique_ptr<ManagedNode>, Nanos)> on_node);
  /// The stamp step: after `delay` plus StampLatency(), records the stage
  /// and the path's acquire latency (since `t0`), then stamps the tenant.
  void Stamp(uint64_t node_id, kv::TenantId tenant, Nanos delay, Nanos t0,
             obs::HistogramMetric* acquire_h, ReadyCallback on_ready);
  /// The one way out of service: delete the pod unless it was killed,
  /// notify the listener, free the node, replenish.
  void Retire(std::unique_ptr<ManagedNode> managed, bool killed);
  /// The active node `node_id`; Unavailable once it is retired.
  StatusOr<sql::SqlNode*> Resolve(uint64_t node_id) const;
  void DrainPoll(uint64_t node_id, Nanos deadline);
  void OnPodFailure(PodId pod);
  Nanos StampLatency();
  void InitMetrics();

  sim::EventLoop* loop_;
  KubeSim* kube_;
  tenant::AuthorizedKvService* service_;
  kv::KVCluster* cluster_;
  tenant::TenantController* controller_;
  Options options_;
  Random rng_;
  uint64_t next_node_id_ = 1;
  /// A node's only owners: a retired node is freed, so closures that wait
  /// on the event loop hold node ids and Resolve() them.
  std::deque<std::unique_ptr<ManagedNode>> warm_;
  /// Nodes with a tenant (stamping, ready or draining), by node id. The
  /// node's own SqlNode::State says which.
  std::map<uint64_t, std::unique_ptr<ManagedNode>> active_;
  std::function<void(sql::SqlNode*)> node_failure_listener_;
  int replenish_inflight_ = 0;

  obs::RegistryRef metrics_;
  obs::Counter* pod_starts_c_ = nullptr;
  obs::Counter* node_failures_c_ = nullptr;
  obs::Counter* acquire_drain_c_ = nullptr;
  obs::Counter* acquire_warm_c_ = nullptr;
  obs::Counter* acquire_cold_c_ = nullptr;
  obs::HistogramMetric* acquire_warm_h_ = nullptr;  ///< warm-path latency
  obs::HistogramMetric* acquire_cold_h_ = nullptr;  ///< cold-path latency
  /// Cold-start stage breakdown (Section 4.3.1): pod create, process
  /// start, tenant stamp.
  obs::HistogramMetric* stage_pod_create_h_ = nullptr;
  obs::HistogramMetric* stage_process_start_h_ = nullptr;
  obs::HistogramMetric* stage_stamp_h_ = nullptr;
  /// Declared last: unregisters before the state it reads is destroyed.
  obs::MetricsRegistry::CallbackToken gauge_cb_;
};

}  // namespace veloce::serverless

#endif  // VELOCE_SERVERLESS_NODE_POOL_H_
