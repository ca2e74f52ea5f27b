#include "sql/sql_node.h"

#include "sql/pushdown.h"

namespace veloce::sql {

SqlNode::SqlNode(uint64_t id, Options options, Clock* clock)
    : id_(id), options_(options), clock_(clock) {
  (void)clock_;
}

Status SqlNode::StartProcess() {
  if (state_ != State::kCold) {
    return Status::InvalidArgument("process already started");
  }
  state_ = State::kWarm;
  return Status::OK();
}

Status SqlNode::StampTenant(tenant::AuthorizedKvService* service,
                            kv::KVCluster* cluster, tenant::TenantCert cert,
                            const std::vector<std::string>& warmup_tables) {
  if (state_ != State::kWarm) {
    return Status::InvalidArgument("node is not in the pre-warmed state");
  }
  cert_ = cert;
  // Every SQL node ships the row codec the KV nodes use for push-down
  // evaluation (SQL and KV build from one binary, as in production).
  InstallPushdownHook(cluster);
  connector_ = std::make_unique<KvConnector>(service, cluster, cert, options_.mode,
                                             options_.obs, std::to_string(id_));
  catalog_ = std::make_unique<Catalog>(connector_.get());
  // Blocking cold-start reads: fetch the application schema (the paper's
  // system.descriptor reads). Missing tables are fine — a fresh tenant has
  // no schema yet.
  for (const auto& table : warmup_tables) {
    (void)catalog_->GetTable(table);
  }
  state_ = State::kReady;
  return Status::OK();
}

void SqlNode::StartDraining() {
  if (state_ == State::kReady) state_ = State::kDraining;
}

void SqlNode::Undrain() {
  if (state_ == State::kDraining) state_ = State::kReady;
}

StatusOr<Session*> SqlNode::NewSession() {
  if (state_ != State::kReady) {
    return Status::Unavailable("SQL node is not ready");
  }
  const uint64_t id = next_session_id_++;
  auto session = std::make_unique<Session>(id, catalog_.get(), connector_.get(),
                                           options_.obs);
  Session* ptr = session.get();
  sessions_[id] = std::move(session);
  return ptr;
}

StatusOr<Session*> SqlNode::RestoreSession(Slice serialized, uint64_t revival_token) {
  if (state_ != State::kReady) {
    return Status::Unavailable("SQL node is not ready");
  }
  const uint64_t id = next_session_id_++;
  VELOCE_ASSIGN_OR_RETURN(
      std::unique_ptr<Session> session,
      Session::Restore(id, catalog_.get(), connector_.get(), serialized,
                       revival_token, options_.obs));
  Session* ptr = session.get();
  sessions_[id] = std::move(session);
  return ptr;
}

Status SqlNode::CloseSession(uint64_t session_id) {
  if (sessions_.erase(session_id) == 0) {
    return Status::NotFound("no such session");
  }
  return Status::OK();
}

Session* SqlNode::GetSession(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

}  // namespace veloce::sql
