#include "sql/session.h"

#include <cctype>

#include "common/codec.h"

namespace veloce::sql {

Session::Session(uint64_t id, Catalog* catalog, KvConnector* connector,
                 const obs::ObsContext& obs)
    : id_(id),
      catalog_(catalog),
      connector_(connector),
      obs_(obs),
      executor_(catalog, connector, obs) {
  statements_c_ = obs_.metrics_or_noop()->counter(
      "veloce_sql_statements_total",
      {{"tenant", std::to_string(connector != nullptr ? connector->tenant_id() : 0)}});
}

StatusOr<ResultSet> Session::Execute(const std::string& sql,
                                     const std::vector<Datum>& params) {
  statements_c_->Inc();
  if (!obs_.tracing_enabled()) return ExecuteStmt(sql, params);
  // One trace per statement: stages below (marshal, admission_queue,
  // replication, storage_*) attach to it via the connector/transaction.
  obs::TraceContext trace(obs_.clock_or_real(), sql.substr(0, 96));
  connector_->set_current_trace(&trace);
  if (txn_ != nullptr) txn_->raw()->set_trace(&trace);
  StatusOr<ResultSet> result = ExecuteStmt(sql, params);
  connector_->set_current_trace(nullptr);
  // The statement may have opened or closed the transaction; re-read it.
  if (txn_ != nullptr) txn_->raw()->set_trace(nullptr);
  obs_.traces->Finish(trace);
  return result;
}

StatusOr<ResultSet> Session::ExecuteStmt(const std::string& sql,
                                         const std::vector<Datum>& params) {
  StatusOr<std::unique_ptr<Statement>> stmt = Parse(sql);
  StatusOr<ResultSet> result = stmt.ok() ? RunStmt(**stmt, params) : stmt.status();
  if (!result.ok() && txn_ != nullptr && !txn_aborted_) {
    // The failed statement may have left some of its writes in the txn;
    // drop them all now, and hold the block open until ROLLBACK or COMMIT.
    (void)txn_->Rollback();
    txn_aborted_ = true;
  }
  return result;
}

StatusOr<ResultSet> Session::RunStmt(const Statement& stmt,
                                     const std::vector<Datum>& params) {
  ++statements_executed_;
  const bool ends_block = stmt.kind == Statement::Kind::kTxn &&
                          stmt.txn.kind != TxnStmt::Kind::kBegin;
  if (txn_aborted_ && !ends_block) {
    return Status::InvalidArgument(
        "current transaction is aborted, commands ignored until end of "
        "transaction block");
  }
  switch (stmt.kind) {
    case Statement::Kind::kTxn:
      switch (stmt.txn.kind) {
        case TxnStmt::Kind::kBegin: {
          if (txn_ != nullptr) {
            return Status::InvalidArgument("transaction already open");
          }
          connector_->set_txn_options(txn_options_);
          txn_ = connector_->BeginTransaction();
          return ResultSet{};
        }
        case TxnStmt::Kind::kCommit: {
          if (txn_ == nullptr) {
            return Status::InvalidArgument("no transaction to commit");
          }
          if (txn_aborted_) {
            txn_.reset();
            txn_aborted_ = false;
            return Status::InvalidArgument(
                "transaction was aborted by a failed statement and rolled back");
          }
          Status s = txn_->Commit();
          txn_.reset();
          VELOCE_RETURN_IF_ERROR(s);
          return ResultSet{};
        }
        case TxnStmt::Kind::kRollback: {
          if (txn_ == nullptr) {
            return Status::InvalidArgument("no transaction to roll back");
          }
          Status s = txn_->Rollback();  // a no-op once aborted
          txn_.reset();
          txn_aborted_ = false;
          VELOCE_RETURN_IF_ERROR(s);
          return ResultSet{};
        }
      }
      return Status::Internal("unhandled txn statement");
    case Statement::Kind::kSet:
      SetSetting(stmt.set.name, stmt.set.value);
      return ResultSet{};
    default:
      return executor_.Execute(stmt, txn_.get(), &params);
  }
}

void Session::SetSetting(const std::string& name, const std::string& value) {
  settings_[name] = value;
  // Values arrive normalized by the lexer (`SET kv_pushdown = on` stores
  // "ON"), so they compare case-insensitively.
  std::string v = value;
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (name == "kv_pushdown") {
    // The paper's future-work push-down ships behind a session setting.
    executor_.set_pushdown_enabled(v == "on" || v == "true" || v == "1");
  } else if (name == "vectorize") {
    // Anything but off or force is on: vectorized when covered, row
    // otherwise (the default).
    executor_.set_engine(v == "off" || v == "false" || v == "0" ? ExecEngine::kRow
                         : v == "force"                         ? ExecEngine::kVectorized
                                                                : ExecEngine::kAuto);
  } else if (name == "txn_mode") {
    // The commit path of explicit transactions (docs/TXN.md); anything but
    // classic is fast: buffered writes, pipelining, 1PC, parallel commit.
    txn_options_ = v == "classic" ? kv::TxnOptions::Classic() : kv::TxnOptions{};
  }
}

Status Session::Prepare(const std::string& name, const std::string& sql) {
  // Validate eagerly so errors surface at prepare time.
  VELOCE_RETURN_IF_ERROR(Parse(sql).status());
  prepared_[name] = sql;
  return Status::OK();
}

StatusOr<ResultSet> Session::ExecutePrepared(const std::string& name,
                                             const std::vector<Datum>& params) {
  auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    return Status::NotFound("no prepared statement named " + name);
  }
  return Execute(it->second, params);
}

StatusOr<std::string> Session::GetSetting(const std::string& name) const {
  auto it = settings_.find(name);
  if (it == settings_.end()) return Status::NotFound("no setting " + name);
  return it->second;
}

StatusOr<std::string> Session::Serialize(uint64_t revival_token) const {
  if (!idle()) {
    return Status::InvalidArgument("cannot serialize a session with an open txn");
  }
  std::string out;
  PutFixed64(&out, revival_token);
  PutVarint64(&out, settings_.size());
  for (const auto& [key, value] : settings_) {
    PutLengthPrefixed(&out, key);
    PutLengthPrefixed(&out, value);
  }
  PutVarint64(&out, prepared_.size());
  for (const auto& [name, sql] : prepared_) {
    PutLengthPrefixed(&out, name);
    PutLengthPrefixed(&out, sql);
  }
  return out;
}

StatusOr<std::unique_ptr<Session>> Session::Restore(uint64_t id, Catalog* catalog,
                                                    KvConnector* connector,
                                                    Slice serialized,
                                                    uint64_t expected_token,
                                                    const obs::ObsContext& obs) {
  uint64_t token = 0;
  if (!GetFixed64(&serialized, &token)) {
    return Status::Corruption("bad serialized session");
  }
  if (token != expected_token) {
    return Status::Unauthorized("revival token mismatch");
  }
  auto session = std::make_unique<Session>(id, catalog, connector, obs);
  uint64_t num_settings = 0;
  if (!GetVarint64(&serialized, &num_settings)) {
    return Status::Corruption("bad serialized session settings");
  }
  for (uint64_t i = 0; i < num_settings; ++i) {
    Slice key, value;
    if (!GetLengthPrefixed(&serialized, &key) ||
        !GetLengthPrefixed(&serialized, &value)) {
      return Status::Corruption("bad serialized setting");
    }
    session->SetSetting(key.ToString(), value.ToString());
  }
  uint64_t num_prepared = 0;
  if (!GetVarint64(&serialized, &num_prepared)) {
    return Status::Corruption("bad serialized prepared statements");
  }
  for (uint64_t i = 0; i < num_prepared; ++i) {
    Slice name, sql;
    if (!GetLengthPrefixed(&serialized, &name) || !GetLengthPrefixed(&serialized, &sql)) {
      return Status::Corruption("bad serialized prepared statement");
    }
    session->prepared_[name.ToString()] = sql.ToString();
  }
  return session;
}

}  // namespace veloce::sql
