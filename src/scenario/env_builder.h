#ifndef VELOCE_SCENARIO_ENV_BUILDER_H_
#define VELOCE_SCENARIO_ENV_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kv/cluster.h"
#include "serverless/cluster.h"
#include "sql/sql_node.h"
#include "storage/fault_env.h"
#include "tenant/controller.h"

namespace veloce::scenario {

/// A complete single-tenant SQL-over-KV stack (no serverless control
/// plane) — what the real-clock efficiency/calibration benches drive.
/// Extracted from bench/bench_util.h so benches, scenarios, and
/// integration tests share one construction path.
struct SqlStack {
  std::unique_ptr<kv::KVCluster> cluster;
  tenant::CertificateAuthority ca;
  std::unique_ptr<tenant::TenantController> controller;
  std::unique_ptr<tenant::AuthorizedKvService> service;
  std::unique_ptr<sql::SqlNode> node;
  sql::Session* session = nullptr;
  kv::TenantId tenant = 0;
};

/// A full serverless deployment plus the storage fault plumbing under it.
/// When the builder was asked for a fault env, every KV engine's files
/// live behind `fault`, so scenarios can schedule storage faults / crash
/// simulations against the running cluster.
struct ServerlessEnv {
  /// Base filesystem under the fault env (destruction order: cluster
  /// first, then fault, then base — members are declared bottom-up).
  std::unique_ptr<storage::Env> base_env;
  std::unique_ptr<storage::FaultInjectionEnv> fault;  ///< null unless requested
  std::unique_ptr<serverless::ServerlessCluster> cluster;
};

/// A standalone multi-node KV cluster (no SQL / serverless layers) — the
/// noisy-neighbor harness shape: external clock/obs injection plus
/// pre-split per-tenant keyspaces.
struct KvEnv {
  std::unique_ptr<storage::Env> base_env;
  std::unique_ptr<storage::FaultInjectionEnv> fault;  ///< null unless requested
  std::unique_ptr<kv::KVCluster> cluster;
};

/// Fluent builder for every cluster shape the benches, scenarios, and
/// integration tests construct: KV node count, replication, regions,
/// executor choice, fault env, ObsContext, and one master seed. Each
/// Build*() consumes the current configuration (the builder may be reused
/// afterwards for another environment of the same shape).
class ScenarioEnvBuilder {
 public:
  ScenarioEnvBuilder& Seed(uint64_t seed);
  ScenarioEnvBuilder& KvNodes(int nodes);
  ScenarioEnvBuilder& Replication(int factor);
  /// Region names assigned round-robin across KV nodes (node i gets
  /// regions[i % regions.size()]).
  ScenarioEnvBuilder& Regions(std::vector<std::string> regions);
  ScenarioEnvBuilder& Obs(const obs::ObsContext& obs);
  /// Clock for the KV-only product (the serverless product always runs on
  /// its own sim loop's clock).
  ScenarioEnvBuilder& Clock(veloce::Clock* clock);
  /// Wraps every engine's filesystem in one shared FaultInjectionEnv
  /// (seeded from the master seed's "fault" stream).
  ScenarioEnvBuilder& WithFaultEnv(bool enabled = true);
  ScenarioEnvBuilder& WarmPool(size_t target);
  /// SQL execution mode for BuildSqlStack (colocated = Traditional,
  /// separate process = Serverless marshaling costs).
  ScenarioEnvBuilder& ProcessMode(sql::ProcessMode mode);
  /// Escape hatch for serverless options the fluent surface doesn't cover
  /// (autoscaler windows, kube latencies, proxy policy). Applied last, so
  /// it can override anything except the derived seeds.
  ScenarioEnvBuilder& Tune(
      std::function<void(serverless::ServerlessCluster::Options*)> fn);

  /// Full serverless deployment on its own sim loop: KV cluster + tenant
  /// control plane + KubeSim + warm pool + proxy + autoscaler, storage
  /// background work on a deterministic SimExecutor.
  ServerlessEnv BuildServerless();

  /// Standalone KV cluster wired to the injected clock/obs (the
  /// noisy-neighbor harness substrate).
  KvEnv BuildKv();

  /// Single-tenant SQL-over-KV stack (the figure benches' SQL harness).
  std::unique_ptr<SqlStack> BuildSqlStack();

 private:
  void ApplyEnv(storage::EngineOptions* engine,
                std::unique_ptr<storage::Env>* base,
                std::unique_ptr<storage::FaultInjectionEnv>* fault);

  uint64_t seed_ = 0xC10D;
  int kv_nodes_ = 3;
  int replication_ = 0;  // 0 = min(3, kv_nodes)
  std::vector<std::string> regions_;
  obs::ObsContext obs_;
  veloce::Clock* clock_ = nullptr;
  bool fault_env_ = false;
  size_t warm_pool_ = 4;
  sql::ProcessMode mode_ = sql::ProcessMode::kSeparateProcess;
  std::function<void(serverless::ServerlessCluster::Options*)> tune_;
};

/// Splits the tenant's keyspace at each table boundary (catalog table ids
/// start at 100) and spreads leases across the KV nodes — the paper's
/// "ranges are scattered randomly across the cluster". Shared by the
/// efficiency benches and the scenario workloads.
void ScatterRanges(SqlStack* stack, int num_tables);

}  // namespace veloce::scenario

#endif  // VELOCE_SCENARIO_ENV_BUILDER_H_
