#ifndef VELOCE_SERVERLESS_CLUSTER_H_
#define VELOCE_SERVERLESS_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "admission/controller.h"
#include "billing/meter.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "serverless/autoscaler.h"
#include "serverless/kube_sim.h"
#include "serverless/node_pool.h"
#include "serverless/proxy.h"
#include "sim/sim_executor.h"
#include "tenant/controller.h"

namespace veloce::serverless {

/// Facade wiring the whole Serverless deployment of one region (Fig 4):
/// the shared KV cluster, the tenant control plane, KubeSim, the warm SQL
/// node pool, the proxy, and the autoscaler — all driven by one simulated
/// event loop. Examples and benches build on this.
class ServerlessCluster {
 public:
  struct Options {
    kv::KVClusterOptions kv;
    KubeSim::Options kube;
    SqlNodePool::Options pool;
    Proxy::Options proxy;
    Autoscaler::Options autoscaler;
    /// Proxy connection re-balance cadence (Section 4.2.2). 0 disables the
    /// periodic task (the default here, because a perpetual timer keeps the
    /// sim event queue non-empty; scale events still rebalance eagerly).
    Nanos proxy_rebalance_interval = 0;
    /// Telemetry injection. Null metrics/traces = the cluster owns a
    /// private MetricsRegistry and TraceCollector (see metrics()/traces()).
    /// The resolved context (clock = the sim loop's clock) is threaded into
    /// every layer: KV nodes + engines, SQL nodes, pool, proxy, billing.
    obs::ObsContext obs;
    /// Per-KV-node admission control, attached as a KV batch interceptor
    /// (synchronous AdmitSync path — no background tasks, so loop().Run()
    /// still drains). obs/instance/background_tasks are overridden per node;
    /// `admission.enabled = false` turns it off.
    admission::NodeAdmissionController::Options admission;
    /// Master randomness seed. Sub-seeds for every stochastic component
    /// (KubeSim pod jitter, pool stamp jitter, proxy failover jitter) are
    /// derived per stream via common/random.h DeriveSeed, so one seed
    /// reproduces the cluster's whole event trace. Scenario runs
    /// (src/scenario) set this from the scenario seed.
    uint64_t seed = 0xC0FFEE;
  };

  ServerlessCluster() : ServerlessCluster(Options()) {}
  explicit ServerlessCluster(Options options);

  sim::EventLoop* loop() { return &loop_; }

  // --- observability -------------------------------------------------------
  /// The shared registry every layer registers into (never null).
  obs::MetricsRegistry* metrics() { return obs_.metrics; }
  /// The shared request-trace ring buffer (never null).
  obs::TraceCollector* traces() { return obs_.traces; }
  /// The resolved telemetry context (sim clock + registry + collector);
  /// hand this to workloads/benches running against the cluster.
  const obs::ObsContext& obs() const { return obs_; }

  // --- admission -----------------------------------------------------------
  /// The admission controller guarding KV node `id` (null when the node was
  /// added after construction).
  admission::NodeAdmissionController* admission(kv::NodeId id) {
    auto it = admission_.find(id);
    return it == admission_.end() ? nullptr : it->second.get();
  }
  /// Feeds every node's fresh engine counters into its write token bucket
  /// (the paper's 15 s stats cadence, pull-based here so the sim event
  /// queue can drain).
  void CalibrateAdmission();

  kv::KVCluster* kv_cluster() { return kv_.get(); }
  tenant::TenantController* tenants() { return controller_.get(); }
  tenant::AuthorizedKvService* kv_service() { return service_.get(); }
  KubeSim* kube() { return &kube_; }
  SqlNodePool* pool() { return pool_.get(); }
  Proxy* proxy() { return proxy_.get(); }
  Autoscaler* autoscaler() { return autoscaler_.get(); }

  /// Creates a virtual cluster and registers it with the autoscaler.
  StatusOr<tenant::TenantMetadata> CreateTenant(const std::string& name);

  /// Synchronous convenience: connects through the proxy and runs the sim
  /// loop until the connection (incl. any cold start) completes.
  StatusOr<Proxy::Connection*> ConnectSync(kv::TenantId tenant,
                                           const std::string& client_ip = "10.0.0.1");

  // --- fault hooks (docs/ROBUSTNESS.md) ------------------------------------
  /// Synchronous convenience around Proxy::ExecuteWithFailover: runs the sim
  /// loop until the statement (incl. any failover backoff + node reacquire)
  /// completes. Pass idempotent=false for statements unsafe to replay.
  StatusOr<sql::ResultSet> ExecuteSync(Proxy::Connection* conn,
                                       const std::string& sql,
                                       bool idempotent = true);
  /// Abruptly kills the SQL node's pod mid-workload (fault injection); an
  /// unknown id is ignored. Its connections fail over on their next execute.
  void KillSqlNode(uint64_t node_id) { pool_->KillNode(node_id); }
  /// Simulated KV node crash-restart: tears the node's engine down without
  /// flushing and reopens it against the same Env, recovering state from
  /// the WALs. Acked (synced) writes must survive.
  Status CrashAndRestartKvNode(kv::NodeId id);

  /// Reports the tenant's current SQL CPU usage to the autoscaler's scrape
  /// path. Benches inject synthetic load curves here.
  void SetTenantCpuUsage(kv::TenantId tenant, double vcpus) {
    cpu_usage_[tenant] = vcpus;
  }

  // --- billing -------------------------------------------------------------
  billing::TenantMeter* meter() { return &meter_; }
  /// Scrapes every ready SQL node's feature counters and measured SQL CPU
  /// into the meter (resets the node-local counters). A retired node is
  /// harvested once more as it leaves service.
  void HarvestUsage();
  /// Convenience: harvest, then the tenant's usage in the open interval.
  billing::UsageReport TenantUsage(kv::TenantId tenant) {
    HarvestUsage();
    return meter_.Current(tenant);
  }

 private:
  /// Bills one node's usage since its last harvest.
  void HarvestNode(sql::SqlNode* node);

  Options options_;
  sim::EventLoop loop_;
  // Telemetry plumbing: declared before (so destroyed after) every
  // component that registers series or collect callbacks against it.
  obs::RegistryRef metrics_;
  std::unique_ptr<obs::TraceCollector> owned_traces_;
  obs::ObsContext obs_;  // resolved: sim clock + registry + collector
  /// Deterministic background flush/compaction for every KV engine: work
  /// runs as discrete events on loop_. Declared before kv_ so engines are
  /// destroyed first.
  std::unique_ptr<sim::SimExecutor> storage_executor_;
  std::unique_ptr<kv::KVCluster> kv_;
  tenant::CertificateAuthority ca_;
  std::unique_ptr<tenant::TenantController> controller_;
  std::unique_ptr<tenant::AuthorizedKvService> service_;
  KubeSim kube_;
  std::unique_ptr<SqlNodePool> pool_;
  std::unique_ptr<Proxy> proxy_;
  std::unique_ptr<Autoscaler> autoscaler_;
  billing::TenantMeter meter_;
  /// One simulated CPU + admission controller per KV node (Section 5.1),
  /// attached via the KV batch interceptor.
  std::vector<std::unique_ptr<sim::VirtualCpu>> admission_cpus_;
  std::map<kv::NodeId, std::unique_ptr<admission::NodeAdmissionController>> admission_;
  std::unique_ptr<sim::PeriodicTask> rebalancer_;
  std::map<kv::TenantId, double> cpu_usage_;
  std::map<uint64_t, Nanos> harvested_sql_cpu_;  // live node id -> already-billed
};

}  // namespace veloce::serverless

#endif  // VELOCE_SERVERLESS_CLUSTER_H_
