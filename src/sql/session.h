#ifndef VELOCE_SQL_SESSION_H_
#define VELOCE_SQL_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sql/executor.h"
#include "sql/parser.h"

namespace veloce::sql {

/// A SQL session: the server-side state of one client connection —
/// settings, prepared statements, and the open transaction, if any.
///
/// Sessions are the unit of *dynamic session migration* (Section 4.2.4):
/// when idle (no open transaction) a session serializes to a compact blob
/// (settings + prepared statements + a revival token) that a new SQL node
/// can restore without client re-authentication.
class Session {
 public:
  /// `obs` enables per-statement telemetry: statement counters in
  /// obs.metrics and, when obs.traces is set, one TraceContext per
  /// statement (collected with per-stage durations: marshal,
  /// admission_queue, replication, storage).
  Session(uint64_t id, Catalog* catalog, KvConnector* connector,
          const obs::ObsContext& obs = {});

  uint64_t id() const { return id_; }

  /// Parses and executes one statement. BEGIN/COMMIT/ROLLBACK and SET are
  /// handled here; everything else goes to the executor under the current
  /// transaction (or an implicit one). A statement that fails inside an
  /// explicit transaction aborts it, as in CockroachDB and Postgres: its
  /// writes are rolled back, later statements fail until ROLLBACK or
  /// COMMIT ends the block, and COMMIT then fails too.
  StatusOr<ResultSet> Execute(const std::string& sql,
                              const std::vector<Datum>& params = {});

  Status Prepare(const std::string& name, const std::string& sql);
  StatusOr<ResultSet> ExecutePrepared(const std::string& name,
                                      const std::vector<Datum>& params = {});
  const std::map<std::string, std::string>& prepared_statements() const {
    return prepared_;
  }

  /// Stores a session setting. The ones the session acts on take effect
  /// here, read once: `kv_pushdown = on|off`, `vectorize = on|off|force`
  /// (docs/SQL_EXEC.md) and `txn_mode = fast|classic` (docs/TXN.md).
  void SetSetting(const std::string& name, const std::string& value);
  StatusOr<std::string> GetSetting(const std::string& name) const;
  const std::map<std::string, std::string>& settings() const { return settings_; }

  bool in_transaction() const { return txn_ != nullptr; }
  /// A session is migratable only while idle (no open transaction).
  bool idle() const { return !in_transaction(); }

  /// Cumulative statements executed (metrics).
  uint64_t statements_executed() const { return statements_executed_; }

  /// Engine that executed the most recent SELECT (tests/benches).
  const std::string& last_select_engine() const {
    return executor_.last_select_engine();
  }

  // --- migration ----------------------------------------------------------
  /// Serialized session state, embedding `revival_token` — the internal
  /// credential that lets the proxy resume the session on another node
  /// without client re-authentication.
  StatusOr<std::string> Serialize(uint64_t revival_token) const;
  /// Restores a session on a (new) node. Fails if the embedded token does
  /// not match `expected_token`.
  static StatusOr<std::unique_ptr<Session>> Restore(uint64_t id, Catalog* catalog,
                                                    KvConnector* connector,
                                                    Slice serialized,
                                                    uint64_t expected_token,
                                                    const obs::ObsContext& obs = {});

 private:
  StatusOr<ResultSet> ExecuteStmt(const std::string& sql,
                                  const std::vector<Datum>& params);
  StatusOr<ResultSet> RunStmt(const Statement& stmt, const std::vector<Datum>& params);

  uint64_t id_;
  Catalog* catalog_;
  KvConnector* connector_;
  obs::ObsContext obs_;
  obs::Counter* statements_c_ = nullptr;
  Executor executor_;
  std::map<std::string, std::string> settings_;
  std::map<std::string, std::string> prepared_;  // name -> SQL text
  kv::TxnOptions txn_options_;  // from `txn_mode`, for the next BEGIN
  std::unique_ptr<TenantTxn> txn_;
  bool txn_aborted_ = false;  // txn_ rolled back by a failed statement
  uint64_t statements_executed_ = 0;
};

}  // namespace veloce::sql

#endif  // VELOCE_SQL_SESSION_H_
