#include <gtest/gtest.h>

#include "common/logging.h"
#include "serverless/cluster.h"
#include "serverless/multiregion.h"
#include "sim/faulty_mesh.h"

namespace veloce::serverless {
namespace {

// ---------------------------------------------------------------------------
// KubeSim
// ---------------------------------------------------------------------------

TEST(KubeSimTest, PodCreationTakesConfiguredLatency) {
  sim::EventLoop loop;
  KubeSim kube(&loop, {.pod_create_latency = 2 * kSecond});
  Nanos ready_at = -1;
  kube.CreatePod([&](PodId) { ready_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(ready_at, 2 * kSecond);
  EXPECT_EQ(kube.num_pods(), 1u);
}

TEST(KubeSimTest, VmPacking) {
  sim::EventLoop loop;
  KubeSim kube(&loop, {.pods_per_vm = 4});
  for (int i = 0; i < 10; ++i) kube.CreatePod([](PodId) {});
  loop.Run();
  EXPECT_EQ(kube.num_pods(), 10u);
  EXPECT_EQ(kube.num_vms(), 3u);  // ceil(10/4)
}

TEST(KubeSimTest, ProcessStart) {
  sim::EventLoop loop;
  KubeSim kube(&loop, {});
  PodId pod = 0;
  kube.CreatePod([&](PodId id) { pod = id; });
  loop.Run();
  EXPECT_FALSE(kube.ProcessRunning(pod));
  bool started = false;
  kube.StartProcess(pod, [&] { started = true; });
  loop.Run();
  EXPECT_TRUE(started);
  EXPECT_TRUE(kube.ProcessRunning(pod));
}

// ---------------------------------------------------------------------------
// ServerlessCluster fixture
// ---------------------------------------------------------------------------

class ServerlessTest : public ::testing::Test {
 protected:
  ServerlessTest() {
    ServerlessCluster::Options opts;
    opts.kv.num_nodes = 3;
    cluster_ = std::make_unique<ServerlessCluster>(opts);
    auto meta = *cluster_->CreateTenant("app");
    tenant_ = meta.id;
  }

  std::unique_ptr<ServerlessCluster> cluster_;
  kv::TenantId tenant_;
};

TEST_F(ServerlessTest, WarmPoolProvisions) {
  EXPECT_EQ(cluster_->pool()->warm_available(), 4u);
}

TEST_F(ServerlessTest, ColdStartConnectServesQueries) {
  const Nanos start = cluster_->loop()->Now();
  auto conn = *cluster_->ConnectSync(tenant_);
  const Nanos cold_start = cluster_->loop()->Now() - start;
  // Pre-warmed path: sub-second cold start (the paper's headline).
  EXPECT_LT(cold_start, kSecond);
  EXPECT_GT(cold_start, 0);
  // The connection is live end to end.
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(conn->session->Execute("INSERT INTO t VALUES (1)").ok());
  auto rs = *conn->session->Execute("SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs.rows[0][0].int_value(), 1);
}

TEST_F(ServerlessTest, UnoptimizedColdStartIsSlower) {
  ServerlessCluster::Options slow_opts;
  slow_opts.pool.prewarm_process = false;
  ServerlessCluster slow(slow_opts);
  auto meta = *slow.CreateTenant("t");

  const Nanos s0 = slow.loop()->Now();
  ASSERT_TRUE(slow.ConnectSync(meta.id).ok());
  const Nanos unoptimized = slow.loop()->Now() - s0;

  const Nanos s1 = cluster_->loop()->Now();
  ASSERT_TRUE(cluster_->ConnectSync(tenant_).ok());
  const Nanos optimized = cluster_->loop()->Now() - s1;

  // Pre-warming the process cuts cold start by more than half (Fig 10a).
  EXPECT_GT(unoptimized, 2 * optimized);
}

TEST_F(ServerlessTest, SecondConnectionReusesNode) {
  auto c1 = *cluster_->ConnectSync(tenant_);
  const Nanos start = cluster_->loop()->Now();
  auto c2 = *cluster_->ConnectSync(tenant_);
  // No cold start: the tenant already has a node.
  EXPECT_LT(cluster_->loop()->Now() - start, 10 * kMilli);
  EXPECT_EQ(c1->node, c2->node);
}

TEST_F(ServerlessTest, LeastConnectionsBalancing) {
  // Give the tenant a second node, then connect repeatedly.
  auto c1 = *cluster_->ConnectSync(tenant_);
  bool got = false;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) {
    ASSERT_TRUE(n.ok());
    got = true;
  });
  cluster_->loop()->Run();
  ASSERT_TRUE(got);
  std::vector<Proxy::Connection*> conns = {c1};
  for (int i = 0; i < 5; ++i) conns.push_back(*cluster_->ConnectSync(tenant_));
  auto nodes = cluster_->pool()->NodesForTenant(tenant_);
  ASSERT_EQ(nodes.size(), 2u);
  const size_t a = cluster_->proxy()->ConnectionsOnNode(nodes[0]);
  const size_t b = cluster_->proxy()->ConnectionsOnNode(nodes[1]);
  EXPECT_EQ(a + b, 6u);
  EXPECT_LE(a > b ? a - b : b - a, 1u);  // even within one connection
}

TEST_F(ServerlessTest, IpAllowAndDenyLists) {
  cluster_->proxy()->SetAllowlist(tenant_, {"10.0.0.1", "10.0.0.2"});
  EXPECT_TRUE(cluster_->ConnectSync(tenant_, "10.0.0.1").ok());
  EXPECT_TRUE(cluster_->ConnectSync(tenant_, "1.2.3.4").status().IsUnauthorized());
  cluster_->proxy()->AddToDenylist(tenant_, "10.0.0.2");
  EXPECT_TRUE(cluster_->ConnectSync(tenant_, "10.0.0.2").status().IsUnauthorized());
}

TEST_F(ServerlessTest, AuthFailureThrottling) {
  Proxy* proxy = cluster_->proxy();
  EXPECT_FALSE(proxy->IsThrottled("6.6.6.6"));
  for (int i = 0; i < 3; ++i) proxy->RecordAuthFailure("6.6.6.6");
  EXPECT_TRUE(proxy->IsThrottled("6.6.6.6"));
  EXPECT_TRUE(
      cluster_->ConnectSync(tenant_, "6.6.6.6").status().IsResourceExhausted());
  // Backoff expires with time; another failure extends it exponentially.
  cluster_->loop()->RunFor(2 * kSecond);
  EXPECT_FALSE(proxy->IsThrottled("6.6.6.6"));
  proxy->RecordAuthSuccess("6.6.6.6");
  EXPECT_TRUE(cluster_->ConnectSync(tenant_, "6.6.6.6").ok());
}

TEST_F(ServerlessTest, SessionMigrationPreservesState) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)").ok());
  ASSERT_TRUE(conn->session->Execute("INSERT INTO t VALUES (1, 7)").ok());
  ASSERT_TRUE(conn->session->Execute("SET application_name = 'mig'").ok());
  ASSERT_TRUE(conn->session->Prepare("q", "SELECT v FROM t WHERE id = $1").ok());
  sql::SqlNode* source = conn->node;

  // Acquire a second node and migrate there.
  sql::SqlNode* target = nullptr;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) { target = *n; });
  cluster_->loop()->Run();
  ASSERT_NE(target, nullptr);
  ASSERT_TRUE(cluster_->proxy()->MigrateConnection(conn, target).ok());
  EXPECT_NE(conn->node, source);
  EXPECT_EQ(conn->node, target);
  EXPECT_EQ(conn->migrations, 1u);
  // Settings, prepared statements, and data access all survive.
  EXPECT_EQ(*conn->session->GetSetting("application_name"), "mig");
  auto rs = *conn->session->ExecutePrepared("q", {sql::Datum::Int(1)});
  EXPECT_EQ(rs.rows[0][0].int_value(), 7);
}

TEST_F(ServerlessTest, BusySessionNotMigrated) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(conn->session->Execute("BEGIN").ok());
  sql::SqlNode* target = nullptr;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) { target = *n; });
  cluster_->loop()->Run();
  EXPECT_EQ(cluster_->proxy()->MigrateConnection(conn, target).code(),
            Code::kUnavailable);
  ASSERT_TRUE(conn->session->Execute("COMMIT").ok());
  EXPECT_TRUE(cluster_->proxy()->MigrateConnection(conn, target).ok());
}

TEST_F(ServerlessTest, RebalanceEvacuatesDrainingNode) {
  auto conn = *cluster_->ConnectSync(tenant_);
  sql::SqlNode* first = conn->node;
  sql::SqlNode* second = nullptr;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) { second = *n; });
  cluster_->loop()->Run();
  ASSERT_NE(second, nullptr);
  cluster_->pool()->StartDraining(first->id());
  const int migrated = cluster_->proxy()->RebalanceTenant(tenant_);
  EXPECT_EQ(migrated, 1);
  EXPECT_EQ(conn->node, second);
  // The drained node eventually shuts down (sessions are gone).
  cluster_->loop()->RunFor(kMinute);
  EXPECT_EQ(cluster_->pool()->NodesForTenant(tenant_).size(), 1u);
}

TEST_F(ServerlessTest, DrainTimeoutRetiresNodeUnderOpenTxn) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "BEGIN").ok());
  const uint64_t drained = conn->node->id();
  const obs::Labels node_label = {{"sql_node", std::to_string(drained)}};
  obs::MetricsRegistry* m = cluster_->metrics();
  EXPECT_EQ(m->Value("veloce_serverless_node_sessions", node_label), 1.0);
  // The open transaction keeps the session from migrating, so the drain
  // timeout retires the node out from under the connection.
  cluster_->pool()->StartDraining(drained);
  cluster_->loop()->RunFor(11 * kMinute);
  EXPECT_EQ(conn->node, nullptr) << "retirement must drop the freed node";
  EXPECT_EQ(conn->session, nullptr) << "retirement must invalidate sessions";
  EXPECT_TRUE(cluster_->pool()->NodesForTenant(tenant_).empty());
  EXPECT_EQ(m->Value("veloce_serverless_node_sessions", node_label), 0.0);

  // The next statement fails over to a fresh node.
  auto rs = cluster_->ExecuteSync(conn, "SELECT 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_NE(conn->node, nullptr);
  EXPECT_NE(conn->node->id(), drained);
  EXPECT_EQ(conn->node->state(), sql::SqlNode::State::kReady);
}

TEST_F(ServerlessTest, FailedStampRetiresTheNodeAndItsPod) {
  ASSERT_TRUE(cluster_->tenants()->DestroyTenant(tenant_).ok());
  bool called = false;
  Status status;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) {
    called = true;
    status = n.status();
  });
  cluster_->loop()->Run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(status.ok());
  // The warm node taken for the stamp is gone with its pod; the pool
  // refilled, and no tenant-less node lingers in the active set.
  SqlNodePool* pool = cluster_->pool();
  EXPECT_EQ(pool->warm_available(), 4u);
  EXPECT_EQ(pool->num_ready_nodes(), 0u);
  EXPECT_EQ(cluster_->kube()->num_pods(),
            pool->warm_available() + pool->num_ready_nodes());
}

TEST(ServerlessPoolTest, KillWhileUnoptimizedProcessBootsFailsTheAcquire) {
  ServerlessCluster::Options opts;
  opts.pool.prewarm_process = false;
  ServerlessCluster cluster(opts);
  auto meta = *cluster.CreateTenant("app");
  bool called = false;
  Status status;
  cluster.pool()->Acquire(meta.id, [&](StatusOr<sql::SqlNode*> n) {
    called = true;
    status = n.status();
  });
  // The acquired warm pod (the first one created) dies while its process
  // boots.
  cluster.loop()->RunFor(100 * kMilli);
  cluster.kube()->KillPod(1);
  cluster.loop()->Run();
  ASSERT_TRUE(called);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cluster.kube()->num_pods(), cluster.pool()->warm_available());
}

TEST_F(ServerlessTest, PodKilledWhileCreatedLeavesNoGhostNode) {
  bool acquired = false;
  cluster_->pool()->Acquire(tenant_,
                            [&](StatusOr<sql::SqlNode*> n) { acquired = n.ok(); });
  // Taking a warm node started a replenish pod (the fifth); it dies while
  // it is still being created, so no node may be built on it.
  cluster_->loop()->RunFor(kMilli);
  cluster_->kube()->KillPod(5);
  cluster_->loop()->Run();
  ASSERT_TRUE(acquired);
  SqlNodePool* pool = cluster_->pool();
  EXPECT_EQ(pool->warm_available(), 4u);
  EXPECT_EQ(pool->num_ready_nodes(), 1u);
  EXPECT_EQ(cluster_->kube()->num_pods(),
            pool->warm_available() + pool->num_ready_nodes());
}

TEST(ServerlessPoolTest, ColdPodKilledWhileCreatedFailsTheAcquire) {
  ServerlessCluster::Options opts;
  opts.pool.warm_pool_target = 0;
  ServerlessCluster cluster(opts);
  auto meta = *cluster.CreateTenant("app");
  Status status;
  bool called = false;
  cluster.pool()->Acquire(meta.id, [&](StatusOr<sql::SqlNode*> n) {
    called = true;
    status = n.status();
  });
  cluster.loop()->RunFor(kMilli);
  cluster.kube()->KillPod(1);  // the cold pod, still being created
  cluster.loop()->Run();
  ASSERT_TRUE(called);
  EXPECT_EQ(status.code(), Code::kUnavailable);
  EXPECT_EQ(cluster.kube()->num_pods(), 0u);
  EXPECT_EQ(cluster.pool()->num_ready_nodes(), 0u);
}

TEST_F(ServerlessTest, KillDuringStampFailsTheAcquire) {
  Status status;
  bool called = false;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) {
    called = true;
    status = n.status();
  });
  // The acquired warm node (the first pod) dies inside its 120 ms stamp;
  // the stamp step finds its id gone instead of a freed node.
  cluster_->loop()->RunFor(50 * kMilli);
  cluster_->kube()->KillPod(1);
  cluster_->loop()->Run();
  ASSERT_TRUE(called);
  EXPECT_EQ(status.code(), Code::kUnavailable);
  SqlNodePool* pool = cluster_->pool();
  EXPECT_EQ(pool->num_ready_nodes(), 0u);
  EXPECT_EQ(cluster_->kube()->num_pods(),
            pool->warm_available() + pool->num_ready_nodes());
}

TEST_F(ServerlessTest, DrainReuseOfNodeThatDiesFailsTheAcquire) {
  auto conn = *cluster_->ConnectSync(tenant_);
  const uint64_t id = conn->node->id();
  cluster_->pool()->StartDraining(id);
  Status status;
  bool called = false;
  // Un-drains `id` now and hands it over on the next event; the node dies
  // in between.
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) {
    called = true;
    status = n.status();
  });
  cluster_->KillSqlNode(id);
  cluster_->loop()->Run();
  ASSERT_TRUE(called);
  EXPECT_EQ(status.code(), Code::kUnavailable);
  EXPECT_EQ(cluster_->metrics()->Value("veloce_serverless_acquires_total",
                                       {{"path", "drain"}}),
            1.0);
  EXPECT_EQ(conn->node, nullptr);
}

TEST_F(ServerlessTest, UnknownNodeIdsAreIgnored) {
  auto conn = *cluster_->ConnectSync(tenant_);
  const uint64_t retired = conn->node->id();
  cluster_->KillSqlNode(retired);
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "SELECT 1").ok());  // fails over
  cluster_->loop()->Run();  // let the warm pool refill
  SqlNodePool* pool = cluster_->pool();
  const uint64_t live = conn->node->id();
  const size_t pods = cluster_->kube()->num_pods();
  const size_t warm = pool->warm_available();
  const double failures =
      cluster_->metrics()->Sum("veloce_serverless_node_failures_total");
  // A retired id and one never handed out are both no-ops.
  for (uint64_t id : {retired, uint64_t{9999}}) {
    pool->StartDraining(id);
    pool->Remove(id);
    pool->KillNode(id);
    cluster_->KillSqlNode(id);
  }
  cluster_->loop()->Run();
  EXPECT_EQ(cluster_->kube()->num_pods(), pods);
  EXPECT_EQ(pool->warm_available(), warm);
  EXPECT_EQ(pool->num_ready_nodes(), 1u);
  EXPECT_EQ(cluster_->metrics()->Sum("veloce_serverless_node_failures_total"),
            failures);
  ASSERT_NE(conn->node, nullptr);
  EXPECT_EQ(conn->node->id(), live);
  EXPECT_TRUE(cluster_->ExecuteSync(conn, "SELECT 1").ok());
}

// ---------------------------------------------------------------------------
// Node failure: kill-mid-workload, proxy failover, retry budget
// ---------------------------------------------------------------------------

TEST_F(ServerlessTest, NodeDeathFailsOverWithoutLosingAckedWrites) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        conn->session->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  const uint64_t dead = conn->node->id();

  // Kill the SQL node out from under the connection, mid-workload.
  cluster_->KillSqlNode(dead);
  EXPECT_EQ(conn->node, nullptr) << "failure listener must drop the freed node";
  EXPECT_EQ(conn->session, nullptr) << "failure listener must invalidate sessions";

  // The next execute transparently fails over to a healthy node; every
  // acked write survives because SQL state lives in the shared KV cluster.
  auto rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 10);
  ASSERT_NE(conn->node, nullptr);
  EXPECT_NE(conn->node->id(), dead);
  EXPECT_EQ(conn->node->state(), sql::SqlNode::State::kReady);
  ASSERT_NE(conn->session, nullptr);

  // Failover completed within the retry budget and is visible in telemetry.
  obs::MetricsRegistry* m = cluster_->metrics();
  EXPECT_GE(m->Sum("veloce_serverless_failovers_total"), 1.0);
  EXPECT_GE(m->Sum("veloce_serverless_node_failures_total"), 1.0);
  EXPECT_LE(m->Sum("veloce_serverless_failover_retries_total"), 4.0);
  EXPECT_EQ(m->Sum("veloce_serverless_retry_budget_exhausted_total"), 0.0);
  EXPECT_GT(cluster_->proxy()->RetryBudget(tenant_), 0.0);

  // The connection keeps working (and the write path too).
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "INSERT INTO t VALUES (10)").ok());
  rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->rows[0][0].int_value(), 11);
}

TEST_F(ServerlessTest, NonIdempotentRetriesOnlyWhenNodeNeverSawTheRequest) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  cluster_->KillSqlNode(conn->node->id());
  // The node died before this statement was ever attempted, so replaying it
  // cannot double-apply — failover proceeds even for non-idempotent work.
  auto rs = cluster_->ExecuteSync(conn, "INSERT INTO t VALUES (1)",
                                  /*idempotent=*/false);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs->rows[0][0].int_value(), 1);
}

TEST_F(ServerlessTest, LeaseRedirectInsideExplicitTxnReturnsTheError) {
  sim::FaultyMesh mesh(0x1EA5E);
  kv::KVCluster* kv = cluster_->kv_cluster();
  kv->set_transport(&mesh);
  obs::MetricsRegistry* m = cluster_->metrics();
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "CREATE TABLE t (id INT PRIMARY KEY)").ok());
  kv->TickHeartbeats();  // arms epoch leases
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "BEGIN").ok());
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "INSERT INTO t VALUES (1)").ok());

  // Cut the tenant's leaseholder off and let its liveness lapse with no
  // heartbeat tick: its lease is stale, so the next batch is rejected with
  // LeaseEpochMismatch before it applies.
  const kv::NodeId holder = kv->LookupRange(kv::TenantPrefix(tenant_))->leaseholder;
  mesh.Isolate(holder, 3);
  cluster_->loop()->RunFor(4 * kSecond);
  auto rs = cluster_->ExecuteSync(conn, "INSERT INTO t VALUES (2)");
  ASSERT_FALSE(rs.ok());
  // The statement aborted the txn, so the proxy does not replay it on the
  // session: the client sees the rejection itself.
  EXPECT_EQ(rs.status().code(), Code::kLeaseEpochMismatch) << rs.status().ToString();
  EXPECT_EQ(m->Sum("veloce_serverless_lease_redirects_total"), 0.0);
  rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  EXPECT_EQ(rs.status().code(), Code::kInvalidArgument) << rs.status().ToString();
  ASSERT_TRUE(cluster_->ExecuteSync(conn, "ROLLBACK").ok());

  // Once a heartbeat tick moves the lease, the retried transaction commits.
  kv->TickHeartbeats();
  for (const char* stmt : {"BEGIN", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)",
                           "COMMIT"}) {
    rs = cluster_->ExecuteSync(conn, stmt);
    ASSERT_TRUE(rs.ok()) << stmt << ": " << rs.status().ToString();
  }
  rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 2);
  kv->set_transport(nullptr);  // the mesh dies before the cluster
}

TEST_F(ServerlessTest, EmptyRetryBudgetFailsFast) {
  ServerlessCluster::Options opts;
  opts.kv.num_nodes = 3;
  opts.proxy.retry_budget_initial = 0.0;  // tenant starts with no tokens
  opts.proxy.retry_budget_ratio = 0.0;    // and can never earn any
  ServerlessCluster cluster(opts);
  auto meta = *cluster.CreateTenant("broke");
  auto conn = *cluster.ConnectSync(meta.id);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());

  cluster.KillSqlNode(conn->node->id());
  auto rs = cluster.ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), Code::kResourceExhausted);
  EXPECT_GE(cluster.metrics()->Sum("veloce_serverless_retry_budget_exhausted_total"),
            1.0);
}

TEST_F(ServerlessTest, SuccessfulExecutesEarnRetryBudgetUpToCap) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  const double before = cluster_->proxy()->RetryBudget(tenant_);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t").ok());
  }
  const double after = cluster_->proxy()->RetryBudget(tenant_);
  EXPECT_GT(after, before);
  EXPECT_LE(after, 10.0);  // the default cap
}

TEST_F(ServerlessTest, DeadSessionCannotBeMigrated) {
  auto conn = *cluster_->ConnectSync(tenant_);
  sql::SqlNode* target = nullptr;
  cluster_->pool()->Acquire(tenant_, [&](StatusOr<sql::SqlNode*> n) { target = *n; });
  cluster_->loop()->Run();
  ASSERT_NE(target, nullptr);
  cluster_->KillSqlNode(conn->node->id());
  EXPECT_EQ(cluster_->proxy()->MigrateConnection(conn, target).code(),
            Code::kUnavailable);
}

TEST_F(ServerlessTest, KvNodeCrashRestartRecoversAckedWritesViaWalReplay) {
  auto conn = *cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        conn->session->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  // Crash-restart every KV node: engines are torn down without flushing and
  // reopened against the same Env, so state comes back from WAL replay.
  for (kv::NodeId id = 0; id < 3; ++id) {
    ASSERT_TRUE(cluster_->CrashAndRestartKvNode(id).ok()) << "node " << id;
  }
  auto rs = cluster_->ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 20);
}

// ---------------------------------------------------------------------------
// Autoscaler
// ---------------------------------------------------------------------------

TEST_F(ServerlessTest, AutoscalerTargetsFourTimesAverage) {
  cluster_->autoscaler()->Start();
  cluster_->SetTenantCpuUsage(tenant_, 2.5);
  // Let the 5-minute window fill.
  cluster_->loop()->RunFor(6 * kMinute);
  // avg = peak = 2.5 vCPU => target = max(10, 3.3) = 10 vCPUs = 3 nodes.
  EXPECT_EQ(cluster_->autoscaler()->TargetNodes(tenant_), 3);
  EXPECT_EQ(cluster_->autoscaler()->CurrentNodes(tenant_), 3);
}

TEST_F(ServerlessTest, AutoscalerReactsToSpikeViaPeak) {
  cluster_->autoscaler()->Start();
  cluster_->SetTenantCpuUsage(tenant_, 2.5);
  cluster_->loop()->RunFor(6 * kMinute);
  ASSERT_EQ(cluster_->autoscaler()->CurrentNodes(tenant_), 3);
  // Momentary spike to 11 vCPUs: 1.33*11 = 14.6 => 4 nodes (paper example).
  cluster_->SetTenantCpuUsage(tenant_, 11.0);
  cluster_->loop()->RunFor(10 * kSecond);
  EXPECT_EQ(cluster_->autoscaler()->TargetNodes(tenant_), 4);
  cluster_->loop()->RunFor(30 * kSecond);
  EXPECT_GE(cluster_->autoscaler()->CurrentNodes(tenant_), 4);
}

TEST_F(ServerlessTest, AutoscalerScalesDownAfterLoadDrops) {
  cluster_->autoscaler()->Start();
  cluster_->SetTenantCpuUsage(tenant_, 8.0);
  cluster_->loop()->RunFor(6 * kMinute);
  const int high = cluster_->autoscaler()->CurrentNodes(tenant_);
  EXPECT_GE(high, 3);
  cluster_->SetTenantCpuUsage(tenant_, 0.5);
  // The 5-minute window must age out the high samples.
  cluster_->loop()->RunFor(7 * kMinute);
  const int low = cluster_->autoscaler()->CurrentNodes(tenant_);
  EXPECT_LT(low, high);
  EXPECT_GE(low, 1);
}

TEST_F(ServerlessTest, ScaleToZeroAndColdResume) {
  cluster_->autoscaler()->Start();
  cluster_->SetTenantCpuUsage(tenant_, 1.0);
  cluster_->loop()->RunFor(2 * kMinute);
  EXPECT_GE(cluster_->autoscaler()->CurrentNodes(tenant_), 1);
  // Load stops entirely; after window + suspend_after the tenant suspends.
  cluster_->SetTenantCpuUsage(tenant_, 0.0);
  cluster_->loop()->RunFor(25 * kMinute);
  EXPECT_EQ(cluster_->pool()->NodesForTenant(tenant_).size(), 0u);
  EXPECT_TRUE(cluster_->autoscaler()->suspended(tenant_));
  // A new connection cold-starts from zero, sub-second.
  const Nanos start = cluster_->loop()->Now();
  auto conn = cluster_->ConnectSync(tenant_);
  ASSERT_TRUE(conn.ok());
  EXPECT_LT(cluster_->loop()->Now() - start, kSecond);
}

// ---------------------------------------------------------------------------
// Multi-region cold start model
// ---------------------------------------------------------------------------

TEST(MultiRegionTest, RegionAwareConfigIsLocalEverywhere) {
  sim::RegionTopology topo = sim::RegionTopology::PaperDefaults();
  ColdStartLatencyModel aware(&topo, {.region_aware = true});
  for (const auto& region : topo.regions()) {
    // All blocking accesses stay local-ish: well under 100ms of network.
    EXPECT_LT(aware.TotalNetworkLatency(region), 100 * kMilli) << region;
  }
}

TEST(MultiRegionTest, LeaseInAsiaPenalizesOtherRegions) {
  sim::RegionTopology topo = sim::RegionTopology::PaperDefaults();
  ColdStartLatencyModel unopt(&topo,
                              {.region_aware = false, .lease_region = "asia-southeast1"});
  ColdStartLatencyModel aware(&topo, {.region_aware = true});
  // In asia the unoptimized config is fine (leaseholders are local).
  EXPECT_LT(unopt.TotalNetworkLatency("asia-southeast1"), 100 * kMilli);
  // In europe/us it pays multiple cross-pacific round trips.
  EXPECT_GT(unopt.TotalNetworkLatency("europe-west1"), kSecond);
  EXPECT_GT(unopt.TotalNetworkLatency("us-central1"), 500 * kMilli);
  // The region-aware config wins by an order of magnitude there.
  EXPECT_GT(unopt.TotalNetworkLatency("europe-west1"),
            10 * aware.TotalNetworkLatency("europe-west1"));
}

TEST(MultiRegionTest, FollowerReadsKeepMetaLookupLocal) {
  sim::RegionTopology topo = sim::RegionTopology::PaperDefaults();
  ColdStartLatencyModel unopt(&topo, {.region_aware = false});
  EXPECT_LT(unopt.MetaLookupLatency("europe-west1"), kMilli);
}

}  // namespace
}  // namespace veloce::serverless
