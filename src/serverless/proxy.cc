#include "serverless/proxy.h"

#include <algorithm>

namespace veloce::serverless {

Proxy::Proxy(sim::EventLoop* loop, SqlNodePool* pool, Options options)
    : loop_(loop),
      pool_(pool),
      options_(options),
      rng_(options.seed),
      metrics_(options.obs.metrics) {
  connections_c_ = metrics_->counter("veloce_serverless_connections_total");
  migrations_c_ = metrics_->counter("veloce_serverless_migrations_total");
  rejected_c_ = metrics_->counter("veloce_serverless_rejected_connects_total");
  auth_throttled_c_ = metrics_->counter("veloce_serverless_auth_throttled_total");
  failovers_c_ = metrics_->counter("veloce_serverless_failovers_total");
  failover_retries_c_ =
      metrics_->counter("veloce_serverless_failover_retries_total");
  budget_exhausted_c_ =
      metrics_->counter("veloce_serverless_retry_budget_exhausted_total");
  lease_redirects_c_ =
      metrics_->counter("veloce_serverless_lease_redirects_total");
  failover_backoff_h_ =
      metrics_->histogram("veloce_serverless_failover_backoff_ns");
  gauge_cb_ = metrics_->AddCollectCallback([this] {
    metrics_->gauge("veloce_serverless_open_connections")
        ->Set(static_cast<double>(connections_.size()));
  });
}

void Proxy::SetAllowlist(kv::TenantId tenant, std::vector<std::string> ips) {
  allowlists_[tenant] = std::set<std::string>(ips.begin(), ips.end());
}

void Proxy::AddToDenylist(kv::TenantId tenant, const std::string& ip) {
  denylists_[tenant].insert(ip);
}

void Proxy::RecordAuthFailure(const std::string& client_ip) {
  ThrottleState& state = throttle_[client_ip];
  ++state.failures;
  if (state.failures >= options_.auth_failures_before_throttle) {
    const int excess = state.failures - options_.auth_failures_before_throttle;
    const Nanos backoff = options_.auth_backoff_base
                          << std::min(excess, 16);  // exponential, capped
    state.blocked_until = loop_->Now() + backoff;
  }
}

void Proxy::RecordAuthSuccess(const std::string& client_ip) {
  throttle_.erase(client_ip);
}

bool Proxy::IsThrottled(const std::string& client_ip) const {
  auto it = throttle_.find(client_ip);
  return it != throttle_.end() && it->second.blocked_until > loop_->Now();
}

sql::SqlNode* Proxy::PickLeastConnections(
    const std::vector<sql::SqlNode*>& nodes) const {
  sql::SqlNode* best = nullptr;
  size_t best_count = 0;
  for (sql::SqlNode* node : nodes) {
    const size_t count = ConnectionsOnNode(node);
    if (best == nullptr || count < best_count) {
      best = node;
      best_count = count;
    }
  }
  return best;
}

void Proxy::PickOrAcquire(kv::TenantId tenant, SqlNodePool::ReadyCallback on_node) {
  const std::vector<sql::SqlNode*> nodes = pool_->NodesForTenant(tenant);
  if (nodes.empty()) {
    // Scale-from-zero: pull a node through the pool (the cold start path).
    pool_->Acquire(tenant, std::move(on_node));
    return;
  }
  on_node(PickLeastConnections(nodes));
}

Status Proxy::Attach(Connection* conn, sql::SqlNode* node) {
  VELOCE_ASSIGN_OR_RETURN(sql::Session * session, node->NewSession());
  conn->node = node;
  conn->session = session;
  return Status::OK();
}

void Proxy::Connect(kv::TenantId tenant, const std::string& client_ip,
                    std::function<void(StatusOr<Connection*>)> on_connected) {
  // Security gates first.
  if (IsThrottled(client_ip)) {
    auth_throttled_c_->Inc();
    on_connected(Status::ResourceExhausted("origin throttled after auth failures"));
    return;
  }
  auto deny = denylists_.find(tenant);
  if (deny != denylists_.end() && deny->second.count(client_ip)) {
    rejected_c_->Inc();
    on_connected(Status::Unauthorized("client IP denied"));
    return;
  }
  auto allow = allowlists_.find(tenant);
  if (allow != allowlists_.end() && !allow->second.empty() &&
      !allow->second.count(client_ip)) {
    rejected_c_->Inc();
    on_connected(Status::Unauthorized("client IP not in allowlist"));
    return;
  }

  PickOrAcquire(tenant, [this, tenant, on_connected = std::move(on_connected)](
                            StatusOr<sql::SqlNode*> node_or) mutable {
    auto conn = std::make_unique<Connection>();
    conn->tenant = tenant;
    const Status s = node_or.ok() ? Attach(conn.get(), *node_or) : node_or.status();
    if (!s.ok()) {
      on_connected(s);
      return;
    }
    conn->id = next_connection_id_++;
    Connection* raw = conn.get();
    connections_[raw->id] = std::move(conn);
    connections_c_->Inc();
    on_connected(raw);
  });
}

Status Proxy::Disconnect(uint64_t connection_id) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) return Status::NotFound("no such connection");
  Connection* conn = it->second.get();
  if (conn->session != nullptr) (void)conn->node->CloseSession(conn->session->id());
  connections_.erase(it);
  return Status::OK();
}

void Proxy::OnNodeFailure(sql::SqlNode* node) {
  // The node and its sessions are freed once this returns; null them out so
  // nothing (migration, disconnect, execute) dereferences them.
  for (auto& [id, conn] : connections_) {
    if (conn->node != node) continue;
    conn->node = nullptr;
    conn->session = nullptr;
  }
}

double& Proxy::BudgetRef(kv::TenantId tenant) {
  return retry_budget_.try_emplace(tenant, options_.retry_budget_initial)
      .first->second;
}

double Proxy::RetryBudget(kv::TenantId tenant) const {
  auto it = retry_budget_.find(tenant);
  return it == retry_budget_.end() ? options_.retry_budget_initial : it->second;
}

void Proxy::EarnRetryBudget(kv::TenantId tenant) {
  double& budget = BudgetRef(tenant);
  budget = std::min(options_.retry_budget_cap,
                    budget + options_.retry_budget_ratio);
}

bool Proxy::SpendRetryBudget(kv::TenantId tenant) {
  double& budget = BudgetRef(tenant);
  if (budget < 1.0) return false;
  budget -= 1.0;
  return true;
}

void Proxy::ExecuteWithFailover(Connection* conn, const std::string& sql,
                                bool idempotent,
                                std::function<void(StatusOr<sql::ResultSet>)> done) {
  ExecuteAttempt(conn->id, sql, idempotent, /*attempt=*/0, std::move(done));
}

void Proxy::ExecuteAttempt(uint64_t conn_id, const std::string& sql,
                           bool idempotent, int attempt,
                           std::function<void(StatusOr<sql::ResultSet>)> done) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    done(Status::NotFound("connection closed during failover"));
    return;
  }
  Connection* conn = it->second.get();
  const bool node_alive = conn->session != nullptr &&
                          conn->node->state() == sql::SqlNode::State::kReady;
  if (node_alive) {
    const bool in_txn = conn->session->in_transaction();
    auto result = conn->session->Execute(sql);
    if (result.ok()) {
      EarnRetryBudget(conn->tenant);
      done(std::move(result));
      return;
    }
    // Stale-lease (epoch mismatch) and stale-routing (range key mismatch)
    // rejections are emitted before the offending batch touches any
    // engine, so replaying them is safe even for non-idempotent work.
    // Redirect: short pause (enough for a liveness tick to move the lease
    // to a reachable replica), retry on the same session, no budget spent
    // — blind exponential backoff would punish the tenant for a
    // server-side routing change. Inside an explicit transaction the
    // failed statement has aborted the txn (and may have written before
    // the rejected batch), so the error goes back to the client, which
    // must ROLLBACK and retry the whole transaction.
    const Code code = result.status().code();
    if ((code == Code::kLeaseEpochMismatch ||
         code == Code::kRangeKeyMismatch) &&
        !in_txn && attempt < options_.failover_max_attempts) {
      lease_redirects_c_->Inc();
      loop_->Schedule(options_.redirect_backoff,
                      [this, conn_id, sql, idempotent, attempt,
                       done = std::move(done)]() mutable {
                        ExecuteAttempt(conn_id, sql, idempotent, attempt + 1,
                                       std::move(done));
                      });
      return;
    }
    // A request that reached the node and failed may have partially run;
    // only idempotent work is safe to replay, and only transient failures
    // are worth it. (A node that died *before* the attempt never saw the
    // request, so the pre-attempt path below retries unconditionally.)
    if (!idempotent || code != Code::kUnavailable) {
      done(std::move(result));
      return;
    }
  }
  if (attempt >= options_.failover_max_attempts) {
    done(Status::Unavailable("failover attempts exhausted (" +
                             std::to_string(attempt) + ")"));
    return;
  }
  if (!SpendRetryBudget(conn->tenant)) {
    budget_exhausted_c_->Inc();
    done(Status::ResourceExhausted("per-tenant retry budget exhausted"));
    return;
  }
  failover_retries_c_->Inc();
  Nanos backoff = options_.failover_backoff_base;
  for (int i = 0; i < attempt && backoff < options_.failover_backoff_max; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, options_.failover_backoff_max);
  if (options_.failover_jitter > 0) {
    const auto span = static_cast<uint64_t>(
        options_.failover_jitter * static_cast<double>(backoff));
    if (span > 0) backoff += static_cast<Nanos>(rng_.Uniform(span));
  }
  failover_backoff_h_->Record(backoff);
  const kv::TenantId tenant = conn->tenant;
  loop_->Schedule(backoff, [this, conn_id, tenant, sql, idempotent, attempt,
                            done = std::move(done)]() mutable {
    PickOrAcquire(tenant, [this, conn_id, sql, idempotent, attempt,
                           done = std::move(done)](
                              StatusOr<sql::SqlNode*> node_or) mutable {
      auto it = connections_.find(conn_id);
      if (it == connections_.end()) {
        done(Status::NotFound("connection closed during failover"));
        return;
      }
      if (node_or.ok() && Attach(it->second.get(), *node_or).ok()) {
        failovers_c_->Inc();
      }
      // Re-enter whether or not the reacquire worked: a failed one backs
      // off again until attempts or budget run out.
      ExecuteAttempt(conn_id, sql, idempotent, attempt + 1, std::move(done));
    });
  });
}

Status Proxy::MigrateConnection(Connection* conn, sql::SqlNode* target) {
  if (conn->node == target) return Status::OK();
  if (conn->session == nullptr) {
    return Status::Unavailable("session lost (node crashed)");
  }
  if (!conn->session->idle()) {
    return Status::Unavailable("session busy (open transaction)");
  }
  // Serialize with a fresh revival token; the token authenticates the
  // restore so the client needs no re-authentication.
  const uint64_t token = rng_.Next();
  VELOCE_ASSIGN_OR_RETURN(std::string blob, conn->session->Serialize(token));
  VELOCE_ASSIGN_OR_RETURN(sql::Session * restored,
                          target->RestoreSession(blob, token));
  (void)conn->node->CloseSession(conn->session->id());
  conn->node = target;
  conn->session = restored;
  ++conn->migrations;
  ++total_migrations_;
  migrations_c_->Inc();
  return Status::OK();
}

int Proxy::RebalanceTenant(kv::TenantId tenant) {
  const std::vector<sql::SqlNode*> ready = pool_->NodesForTenant(tenant);
  if (ready.empty()) return 0;
  int migrated = 0;
  // First: evacuate draining nodes (skip connections whose node retired).
  for (auto& [id, conn] : connections_) {
    if (conn->tenant != tenant || conn->node == nullptr) continue;
    if (conn->node->state() == sql::SqlNode::State::kReady) continue;
    sql::SqlNode* target = PickLeastConnections(ready);
    if (target != nullptr && MigrateConnection(conn.get(), target).ok()) {
      ++migrated;
    }
  }
  // Then: even out across ready nodes (move from the most to the least
  // loaded while the imbalance exceeds one connection).
  for (int iter = 0; iter < 256; ++iter) {
    sql::SqlNode* max_node = nullptr;
    sql::SqlNode* min_node = nullptr;
    size_t max_count = 0, min_count = 0;
    for (sql::SqlNode* node : ready) {
      const size_t count = ConnectionsOnNode(node);
      if (max_node == nullptr || count > max_count) {
        max_node = node;
        max_count = count;
      }
      if (min_node == nullptr || count < min_count) {
        min_node = node;
        min_count = count;
      }
    }
    if (max_node == nullptr || max_count <= min_count + 1) break;
    // Move one idle connection from max to min.
    bool moved = false;
    for (auto& [id, conn] : connections_) {
      if (conn->tenant != tenant || conn->node != max_node) continue;
      if (MigrateConnection(conn.get(), min_node).ok()) {
        ++migrated;
        moved = true;
        break;
      }
    }
    if (!moved) break;  // everything on the hot node is busy
  }
  return migrated;
}

int Proxy::RebalanceAll() {
  std::set<kv::TenantId> tenants;
  for (const auto& [id, conn] : connections_) tenants.insert(conn->tenant);
  int migrated = 0;
  for (kv::TenantId tenant : tenants) migrated += RebalanceTenant(tenant);
  return migrated;
}

size_t Proxy::ConnectionsForTenant(kv::TenantId tenant) const {
  size_t count = 0;
  for (const auto& [id, conn] : connections_) {
    if (conn->tenant == tenant) ++count;
  }
  return count;
}

size_t Proxy::ConnectionsOnNode(const sql::SqlNode* node) const {
  size_t count = 0;
  for (const auto& [id, conn] : connections_) {
    if (conn->node == node) ++count;
  }
  return count;
}

}  // namespace veloce::serverless
