#ifndef VELOCE_SERVERLESS_PROXY_H_
#define VELOCE_SERVERLESS_PROXY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "serverless/node_pool.h"

namespace veloce::serverless {

/// The routing proxy (Section 4.2.2). Clients connect here; the proxy
/// identifies the tenant from the startup message, enforces IP allow/deny
/// lists and auth-failure throttling, picks a SQL node by least
/// connections (resuming suspended tenants through the warm pool), and
/// transparently migrates idle sessions between nodes for rebalancing and
/// drains (Section 4.2.4).
class Proxy {
 public:
  struct Options {
    /// Failed-auth throttling: exponential backoff starting here.
    Nanos auth_backoff_base = kSecond;
    int auth_failures_before_throttle = 3;

    // ---- Failover policy (docs/ROBUSTNESS.md) ----
    /// Node-failure retries per ExecuteWithFailover call before giving up.
    int failover_max_attempts = 4;
    /// Backoff between failover attempts: exponential from the base, capped
    /// at the max, plus uniform jitter of `failover_jitter` x backoff so a
    /// node death does not produce a synchronized retry stampede.
    Nanos failover_backoff_base = 50 * kMilli;
    Nanos failover_backoff_max = 2 * kSecond;
    double failover_jitter = 0.5;
    /// Per-tenant retry budget (token bucket a la Finagle): every
    /// successful execute earns `retry_budget_ratio` tokens up to the cap,
    /// every failover retry spends one, and an empty budget fails fast —
    /// one tenant's dying node cannot retry-storm the region.
    double retry_budget_ratio = 0.1;
    double retry_budget_cap = 10.0;
    /// Tokens a tenant starts with (so its very first failure can retry).
    double retry_budget_initial = 5.0;
    /// Pause before redirecting after a lease-epoch-mismatch / stale-range
    /// rejection. These are definitive pre-apply rejections — the cluster
    /// names a new leaseholder as soon as liveness expires the old lease —
    /// so the redirect needs only enough delay for a heartbeat tick, not
    /// the full failover backoff, and spends no retry-budget tokens. A
    /// statement inside an explicit transaction is not redirected: its
    /// failure aborts the txn, so the client gets the error.
    Nanos redirect_backoff = 5 * kMilli;

    /// Proxy telemetry (connections, migrations, security rejections).
    /// Null metrics = private registry.
    obs::ObsContext obs;

    /// Seeds the proxy's RNG (failover jitter, revival tokens). Scenarios
    /// derive this from one scenario seed (common/random.h DeriveSeed) so
    /// identical seeds replay identical failover traces.
    uint64_t seed = 0xFACADE;
  };

  /// One proxied client connection. The session pointer moves when the
  /// proxy migrates the connection; clients keep using the Connection.
  struct Connection {
    uint64_t id = 0;
    kv::TenantId tenant = 0;
    sql::SqlNode* node = nullptr;
    sql::Session* session = nullptr;
    uint64_t migrations = 0;
  };

  Proxy(sim::EventLoop* loop, SqlNodePool* pool) : Proxy(loop, pool, Options()) {}
  Proxy(sim::EventLoop* loop, SqlNodePool* pool, Options options);

  /// Client connect: `client_ip` feeds the allow/deny and throttle checks.
  /// If the tenant has no SQL nodes (suspended / scaled to zero), the
  /// proxy triggers the cold-start flow through the pool.
  void Connect(kv::TenantId tenant, const std::string& client_ip,
               std::function<void(StatusOr<Connection*>)> on_connected);

  Status Disconnect(uint64_t connection_id);

  // --- failure handling -----------------------------------------------------
  /// Executes `sql` on the connection's current node. If the node has died
  /// (or an idempotent request fails with a transient Unavailable), the
  /// proxy fails over: jittered exponential backoff, reacquire a healthy
  /// node for the tenant (cold-starting one through the pool if none is
  /// left), open a fresh session, retry — bounded by failover_max_attempts
  /// and the tenant's retry budget. `done` fires exactly once. Asynchronous;
  /// callers pump the event loop.
  void ExecuteWithFailover(Connection* conn, const std::string& sql,
                           bool idempotent,
                           std::function<void(StatusOr<sql::ResultSet>)> done);

  /// SqlNodePool retirement hook: invalidates the sessions of every
  /// connection that lived on the retired node (killed, drained out,
  /// removed); they fail over on their next execute.
  void OnNodeFailure(sql::SqlNode* node);

  /// Remaining failover tokens for the tenant (tests/introspection).
  double RetryBudget(kv::TenantId tenant) const;

  // --- security controls ---------------------------------------------------
  /// Empty allowlist = all IPs allowed.
  void SetAllowlist(kv::TenantId tenant, std::vector<std::string> ips);
  void AddToDenylist(kv::TenantId tenant, const std::string& ip);
  /// Reported by the backend on bad credentials; throttles the origin.
  void RecordAuthFailure(const std::string& client_ip);
  void RecordAuthSuccess(const std::string& client_ip);
  bool IsThrottled(const std::string& client_ip) const;

  // --- migration & balancing ------------------------------------------------
  /// Migrates one idle connection to `target`. Busy sessions (open txn)
  /// are skipped (returns Unavailable); callers retry when idle.
  Status MigrateConnection(Connection* conn, sql::SqlNode* target);
  /// Moves connections off draining nodes and evens out counts across the
  /// tenant's ready nodes. Returns the number of migrations performed.
  int RebalanceTenant(kv::TenantId tenant);
  /// Rebalances every tenant that has proxied connections (the proxy's
  /// periodic re-balance pass, Section 4.2.2).
  int RebalanceAll();

  size_t ConnectionsForTenant(kv::TenantId tenant) const;
  size_t ConnectionsOnNode(const sql::SqlNode* node) const;
  uint64_t total_migrations() const { return total_migrations_; }
  uint64_t total_connections_served() const { return next_connection_id_ - 1; }

 private:
  sql::SqlNode* PickLeastConnections(const std::vector<sql::SqlNode*>& nodes) const;
  /// The tenant's least-connections ready node, else one the pool acquires
  /// (cold-starting it if needed).
  void PickOrAcquire(kv::TenantId tenant, SqlNodePool::ReadyCallback on_node);
  /// Opens a session on `node` and points the connection at it.
  Status Attach(Connection* conn, sql::SqlNode* node);
  /// One execute attempt; `attempt` counts failovers already taken. Looks
  /// the connection up by id because it can be closed across async hops.
  void ExecuteAttempt(uint64_t conn_id, const std::string& sql, bool idempotent,
                      int attempt,
                      std::function<void(StatusOr<sql::ResultSet>)> done);
  double& BudgetRef(kv::TenantId tenant);
  void EarnRetryBudget(kv::TenantId tenant);
  bool SpendRetryBudget(kv::TenantId tenant);

  sim::EventLoop* loop_;
  SqlNodePool* pool_;
  Options options_;
  Random rng_;
  std::map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_connection_id_ = 1;
  uint64_t total_migrations_ = 0;

  std::map<kv::TenantId, std::set<std::string>> allowlists_;
  std::map<kv::TenantId, std::set<std::string>> denylists_;
  struct ThrottleState {
    int failures = 0;
    Nanos blocked_until = 0;
  };
  std::map<std::string, ThrottleState> throttle_;
  std::map<kv::TenantId, double> retry_budget_;

  obs::RegistryRef metrics_;
  obs::Counter* connections_c_ = nullptr;
  obs::Counter* migrations_c_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;       ///< allow/deny list rejections
  obs::Counter* auth_throttled_c_ = nullptr; ///< connects refused by backoff
  obs::Counter* failovers_c_ = nullptr;          ///< successful re-attaches
  obs::Counter* failover_retries_c_ = nullptr;   ///< retry attempts taken
  obs::Counter* budget_exhausted_c_ = nullptr;   ///< fails fast on empty budget
  obs::Counter* lease_redirects_c_ = nullptr;    ///< stale-lease/range redirects
  obs::HistogramMetric* failover_backoff_h_ = nullptr;
  /// Declared last: unregisters before the state it reads is destroyed.
  obs::MetricsRegistry::CallbackToken gauge_cb_;
};

}  // namespace veloce::serverless

#endif  // VELOCE_SERVERLESS_PROXY_H_
