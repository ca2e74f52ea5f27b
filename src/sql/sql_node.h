#ifndef VELOCE_SQL_SQL_NODE_H_
#define VELOCE_SQL_SQL_NODE_H_

#include <map>
#include <memory>
#include <string>

#include "common/clock.h"
#include "sql/catalog.h"
#include "sql/session.h"

namespace veloce::sql {

/// One tenant SQL "process" — the unit the serverless control plane scales.
///
/// Life cycle (Section 4.3.1):
///   kCold     allocated pod, no process running
///   kWarm     process started, TCP listener open, no tenant assigned —
///             the pre-warmed state that halves cold start latency
///   kReady    stamped with a tenant certificate, serving sessions
///   kDraining excess capacity: existing connections finish or migrate
///   (retired: the node is destroyed with its sessions)
///
/// Every SQL node is single-tenant; the cross-tenant sharing happens one
/// layer down, in the shared KV nodes.
class SqlNode {
 public:
  enum class State { kCold, kWarm, kReady, kDraining };

  struct Options {
    ProcessMode mode = ProcessMode::kSeparateProcess;
    int vcpus = 4;  ///< the paper's fixed SQL node shape (4 vCPU / 12 GB)
    /// Telemetry injection shared by the node's connector and sessions
    /// (series labelled sql_node=<id>); default no-op.
    obs::ObsContext obs;
  };

  SqlNode(uint64_t id, Options options, Clock* clock);

  uint64_t id() const { return id_; }
  State state() const { return state_; }
  int vcpus() const { return options_.vcpus; }
  kv::TenantId tenant_id() const {
    return connector_ != nullptr ? connector_->tenant_id() : 0;
  }

  /// kCold -> kWarm: the process boots and opens its listener before any
  /// tenant is known.
  Status StartProcess();

  /// kWarm -> kReady: tenant certificate "arrives on the filesystem"; the
  /// node connects to the KV layer as that tenant. `warmup_tables` are read
  /// from system.descriptor immediately (the blocking cold-start reads the
  /// multi-region optimization targets).
  Status StampTenant(tenant::AuthorizedKvService* service, kv::KVCluster* cluster,
                     tenant::TenantCert cert,
                     const std::vector<std::string>& warmup_tables = {});

  void StartDraining();
  /// kDraining -> kReady: the autoscaler reuses draining nodes before
  /// pulling from the warm pool (Section 4.2.3).
  void Undrain();

  StatusOr<Session*> NewSession();
  /// Restores a migrated session from its serialized form.
  StatusOr<Session*> RestoreSession(Slice serialized, uint64_t revival_token);
  Status CloseSession(uint64_t session_id);
  Session* GetSession(uint64_t session_id);
  size_t num_sessions() const { return sessions_.size(); }

  Catalog* catalog() { return catalog_.get(); }
  KvConnector* connector() { return connector_.get(); }

  /// Measured SQL-layer CPU consumed by this node (directly measurable in
  /// production because the process is single-tenant). Benches add via
  /// AddSqlCpu; sims charge their virtual CPUs and mirror here.
  void AddSqlCpu(Nanos cpu) { sql_cpu_ += cpu; }
  Nanos sql_cpu() const { return sql_cpu_; }

 private:
  const uint64_t id_;
  Options options_;
  Clock* clock_;
  State state_ = State::kCold;
  tenant::TenantCert cert_;
  std::unique_ptr<KvConnector> connector_;
  std::unique_ptr<Catalog> catalog_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  Nanos sql_cpu_ = 0;
};

}  // namespace veloce::sql

#endif  // VELOCE_SQL_SQL_NODE_H_
