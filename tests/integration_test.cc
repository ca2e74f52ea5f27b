// Cross-module integration suites: KV node scaling, full-stack multi-tenant
// scenarios, and serializability stress over the whole SQL->KV->storage
// path.

#include <gtest/gtest.h>

#include "common/logging.h"
#include "scenario/env_builder.h"
#include "serverless/cluster.h"
#include "workload/tpcc.h"

namespace veloce {
namespace {

// ---------------------------------------------------------------------------
// Dynamic KV node scaling (future-work extension)
// ---------------------------------------------------------------------------

class KvScalingTest : public ::testing::Test {
 protected:
  KvScalingTest() {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    cluster_ = std::make_unique<kv::KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
    // Seed data and split into several ranges.
    for (int i = 0; i < 60; ++i) {
      kv::BatchRequest put;
      put.tenant_id = 10;
      put.ts = cluster_->Now();
      char name[16];
      std::snprintf(name, sizeof(name), "row%03d", i);
      put.AddPut(kv::AddTenantPrefix(10, name), "v" + std::to_string(i));
      VELOCE_CHECK(cluster_->Send(put).ok());
    }
    for (int i = 10; i < 60; i += 10) {
      char name[16];
      std::snprintf(name, sizeof(name), "row%03d", i);
      VELOCE_CHECK_OK(cluster_->SplitRange(kv::AddTenantPrefix(10, name)));
    }
  }

  int CountRows() {
    kv::BatchRequest scan;
    scan.tenant_id = 10;
    scan.ts = cluster_->Now();
    scan.AddScan(kv::TenantPrefix(10), kv::TenantPrefixEnd(10), 0);
    auto resp = cluster_->Send(scan);
    VELOCE_CHECK(resp.ok());
    return static_cast<int>(resp->responses[0].rows.size());
  }

  std::unique_ptr<kv::KVCluster> cluster_;
};

TEST_F(KvScalingTest, AddNodeStartsEmpty) {
  const auto id = *cluster_->AddNode("us-central1");
  EXPECT_EQ(id, 3u);
  EXPECT_EQ(cluster_->num_nodes(), 4u);
  EXPECT_EQ(cluster_->CountLeases(id), 0);
  EXPECT_EQ(cluster_->node(id)->region(), "us-central1");
}

TEST_F(KvScalingTest, MoveReplicaTransfersDataAndLease) {
  const auto new_node = *cluster_->AddNode();
  // Find a range led by node 0 and move that replica to the new node.
  kv::RangeId target = 0;
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.tenant_id == 10 && desc.leaseholder == 0) {
      target = desc.range_id;
      break;
    }
  }
  ASSERT_NE(target, 0u);
  ASSERT_TRUE(cluster_->MoveReplica(target, 0, new_node).ok());
  // Descriptor updated; lease moved with the replica.
  bool found = false;
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.range_id != target) continue;
    found = true;
    EXPECT_TRUE(desc.HasReplica(new_node));
    EXPECT_FALSE(desc.HasReplica(0));
    EXPECT_EQ(desc.leaseholder, new_node);
  }
  EXPECT_TRUE(found);
  // All data still readable (some now served from the new node).
  EXPECT_EQ(CountRows(), 60);
}

TEST_F(KvScalingTest, MoveReplicaRejectsBadArgs) {
  const auto new_node = *cluster_->AddNode();
  const auto ranges = cluster_->Ranges();
  const kv::RangeId some_range = ranges.back().range_id;
  EXPECT_FALSE(cluster_->MoveReplica(9999, 0, new_node).ok());
  EXPECT_FALSE(cluster_->MoveReplica(some_range, new_node, 0).ok());  // no replica there
  EXPECT_FALSE(cluster_->MoveReplica(some_range, 0, 1).ok());  // target already has one
}

TEST_F(KvScalingTest, RebalanceSpreadsOntoNewNodes) {
  ASSERT_TRUE(cluster_->AddNode().ok());
  ASSERT_TRUE(cluster_->AddNode().ok());
  const int moves = *cluster_->RebalanceReplicas();
  EXPECT_GT(moves, 0);
  // New nodes now hold replicas; counts are within 1 of each other.
  std::vector<int> counts(cluster_->num_nodes(), 0);
  for (const auto& desc : cluster_->Ranges()) {
    for (kv::NodeId n : desc.replicas) counts[n]++;
  }
  const int min = *std::min_element(counts.begin(), counts.end());
  const int max = *std::max_element(counts.begin(), counts.end());
  EXPECT_LE(max - min, 1);
  EXPECT_EQ(CountRows(), 60);
  // Writes still replicate correctly after the move.
  kv::BatchRequest put;
  put.tenant_id = 10;
  put.ts = cluster_->Now();
  put.AddPut(kv::AddTenantPrefix(10, "row999"), "new");
  EXPECT_TRUE(cluster_->Send(put).ok());
  EXPECT_EQ(CountRows(), 61);
}

TEST(KvAutoscalingTest, AddsNodeOnSustainedOverload) {
  serverless::ServerlessCluster::Options opts;
  opts.kv.num_nodes = 3;
  opts.autoscaler.window = kMinute;  // shorter window for the test
  serverless::ServerlessCluster cluster(opts);
  auto meta = cluster.CreateTenant("heavy");
  VELOCE_CHECK(meta.ok());

  double kv_utilization = 0.5;
  cluster.autoscaler()->EnableKvScaling(cluster.kv_cluster(),
                                        [&] { return kv_utilization; });
  cluster.autoscaler()->Start();
  cluster.loop()->RunFor(3 * kMinute);
  EXPECT_EQ(cluster.autoscaler()->kv_nodes_added(), 0);  // not hot enough

  kv_utilization = 0.95;
  cluster.loop()->RunFor(90 * kSecond);
  EXPECT_EQ(cluster.autoscaler()->kv_nodes_added(), 1);
  EXPECT_EQ(cluster.kv_cluster()->num_nodes(), 4u);

  // Utilization recovers: no runaway additions.
  kv_utilization = 0.4;
  cluster.loop()->RunFor(5 * kMinute);
  EXPECT_EQ(cluster.autoscaler()->kv_nodes_added(), 1);
}

// ---------------------------------------------------------------------------
// Full-stack multi-tenant scenarios
// ---------------------------------------------------------------------------

TEST(FullStackTest, ThreeTenantsRunTpccConcurrentlyIsolated) {
  serverless::ServerlessCluster cluster;
  struct TenantRun {
    kv::TenantId id;
    serverless::Proxy::Connection* conn;
    std::unique_ptr<workload::TpccWorkload> tpcc;
  };
  std::vector<TenantRun> runs;
  for (int t = 0; t < 3; ++t) {
    auto meta = cluster.CreateTenant("tpcc" + std::to_string(t));
    VELOCE_CHECK(meta.ok());
    auto conn = cluster.ConnectSync(meta->id);
    VELOCE_CHECK(conn.ok());
    workload::TpccWorkload::Options opts;
    opts.warehouses = 1;
    opts.districts_per_warehouse = 1;
    opts.customers_per_district = 5;
    opts.items = 20;
    auto tpcc = std::make_unique<workload::TpccWorkload>(opts, 100 + t);
    ASSERT_TRUE(tpcc->Setup((*conn)->session).ok());
    runs.push_back({meta->id, *conn, std::move(tpcc)});
  }
  // Interleave transactions across tenants.
  for (int round = 0; round < 15; ++round) {
    for (auto& run : runs) {
      ASSERT_TRUE(run.tpcc->RunTransaction(run.conn->session).ok());
    }
  }
  // Each tenant sees exactly its own state: district counters advanced by
  // its own NewOrder count only.
  for (auto& run : runs) {
    auto rs = *run.conn->session->Execute(
        "SELECT d_next_o_id FROM district WHERE w_id = 1 AND d_id = 1");
    EXPECT_EQ(rs.rows[0][0].int_value(),
              1 + static_cast<int64_t>(run.tpcc->stats().new_orders));
    EXPECT_EQ(run.tpcc->stats().committed(), 15u);
  }
}

TEST(FullStackTest, LifecycleScaleUpMigrateScaleDownQueryThroughout) {
  serverless::ServerlessCluster cluster;
  auto meta = cluster.CreateTenant("lifecycle");
  VELOCE_CHECK(meta.ok());
  auto conn = *cluster.ConnectSync(meta->id);
  ASSERT_TRUE(conn->session->Execute(
      "CREATE TABLE log (id INT PRIMARY KEY, note STRING)").ok());
  int inserted = 0;
  auto insert = [&] {
    ASSERT_TRUE(conn->session
                    ->Execute("INSERT INTO log VALUES (" + std::to_string(inserted) +
                              ", 'x')")
                    .ok());
    ++inserted;
  };
  insert();

  // Scale up: two more nodes; rebalance moves the connection if needed.
  for (int i = 0; i < 2; ++i) {
    bool done = false;
    cluster.pool()->Acquire(meta->id, [&](StatusOr<sql::SqlNode*> n) {
      VELOCE_CHECK(n.ok());
      done = true;
    });
    cluster.loop()->Run();
    ASSERT_TRUE(done);
  }
  cluster.proxy()->RebalanceTenant(meta->id);
  insert();

  // Migrate explicitly to each other node and keep writing.
  for (sql::SqlNode* node : cluster.pool()->NodesForTenant(meta->id)) {
    if (node == conn->node) continue;
    ASSERT_TRUE(cluster.proxy()->MigrateConnection(conn, node).ok());
    insert();
  }

  // Scale down: drain everything but the connection's node.
  for (sql::SqlNode* node : cluster.pool()->NodesForTenant(meta->id)) {
    if (node != conn->node) cluster.pool()->StartDraining(node->id());
  }
  cluster.loop()->RunFor(kMinute);
  insert();

  auto rs = *conn->session->Execute("SELECT COUNT(*) FROM log");
  EXPECT_EQ(rs.rows[0][0].int_value(), inserted);
}

// ---------------------------------------------------------------------------
// End-to-end observability: one TPC-C-lite run must light up series from
// every layer of the shared registry, plus per-statement request traces.
// ---------------------------------------------------------------------------

TEST(FullStackTest, TpccRunProducesMetricsFromEveryLayer) {
  serverless::ServerlessCluster cluster;
  auto meta = cluster.CreateTenant("obs");
  VELOCE_CHECK(meta.ok());
  auto conn = *cluster.ConnectSync(meta->id);

  workload::TpccWorkload::Options opts;
  opts.warehouses = 1;
  opts.districts_per_warehouse = 1;
  opts.customers_per_district = 5;
  opts.items = 20;
  workload::TpccWorkload tpcc(opts, 7, cluster.obs());
  ASSERT_TRUE(tpcc.Setup(conn->session).ok());
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(tpcc.RunTransaction(conn->session).ok());
  cluster.HarvestUsage();
  (void)cluster.meter()->Cut(meta->id);

  obs::MetricsRegistry* metrics = cluster.metrics();
  // Storage: the engines ingested real write traffic through the WAL.
  EXPECT_GT(metrics->Sum("veloce_storage_ingest_bytes"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_storage_wal_bytes"), 0.0);
  // KV: batches routed through leaseholders.
  EXPECT_GT(metrics->Sum("veloce_kv_read_batches_total"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_kv_write_batches_total"), 0.0);
  // Admission: the batch interceptor admitted every batch.
  EXPECT_GT(metrics->Sum("veloce_admission_admitted_total"), 0.0);
  // Billing: the harvested interval produced eCPU and RU totals.
  EXPECT_GT(metrics->Sum("veloce_billing_ecpu_seconds_total"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_billing_request_units_total"), 0.0);
  // SQL + serverless control plane.
  EXPECT_GT(metrics->Sum("veloce_sql_statements_total"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_sql_marshal_cpu_ns_total"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_serverless_connections_total"), 0.0);
  EXPECT_GT(metrics->Sum("veloce_serverless_pod_starts_total"), 0.0);
  // The workload's own counters share the registry.
  EXPECT_EQ(metrics->Sum("veloce_workload_tpcc_txns_total"),
            static_cast<double>(tpcc.stats().committed()));

  // Concurrent write path: commits went through group commit (the histogram
  // records one sample per commit group), and the stall/queue-depth series
  // are registered even when idle.
  EXPECT_GT(metrics->Sum("veloce_storage_commit_group_size"), 0.0);
  bool saw_stall_seconds = false;
  bool saw_bg_queue_depth = false;
  for (const auto& sample : metrics->Snapshot()) {
    if (sample.name == "veloce_storage_write_stall_seconds_total") {
      saw_stall_seconds = true;
    }
    if (sample.name == "veloce_storage_bg_queue_depth") {
      saw_bg_queue_depth = true;
    }
  }
  EXPECT_TRUE(saw_stall_seconds);
  EXPECT_TRUE(saw_bg_queue_depth);
  // Tracing: every statement produced a trace carrying the marshal stage.
  EXPECT_GT(cluster.traces()->finished_total(), 0u);
  bool saw_marshal = false;
  for (const auto& trace : cluster.traces()->Slowest(32)) {
    for (const auto& event : trace.events) {
      if (event.name == "marshal") saw_marshal = true;
    }
  }
  EXPECT_TRUE(saw_marshal);
}

TEST(FullStackTest, NodeFailureProducesRobustnessTelemetry) {
  serverless::ServerlessCluster cluster;
  auto meta = cluster.CreateTenant("chaos");
  VELOCE_CHECK(meta.ok());
  auto conn = *cluster.ConnectSync(meta->id);
  ASSERT_TRUE(conn->session->Execute("CREATE TABLE t (id INT PRIMARY KEY)").ok());
  ASSERT_TRUE(conn->session->Execute("INSERT INTO t VALUES (1)").ok());

  cluster.KillSqlNode(conn->node->id());
  auto rs = cluster.ExecuteSync(conn, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 1);

  obs::MetricsRegistry* metrics = cluster.metrics();
  // Proxy failover: the node death, the retry, the successful re-attach,
  // and the backoff it waited all land in the shared registry.
  EXPECT_GE(metrics->Sum("veloce_serverless_node_failures_total"), 1.0);
  EXPECT_GE(metrics->Sum("veloce_serverless_failover_retries_total"), 1.0);
  EXPECT_GE(metrics->Sum("veloce_serverless_failovers_total"), 1.0);
  EXPECT_EQ(metrics->Sum("veloce_serverless_retry_budget_exhausted_total"), 0.0);
  // Engine fault-tolerance series: registered per KV node, all healthy here
  // (the degraded gauge exists and reads 0; no retries, no WAL truncation).
  bool saw_degraded_gauge = false;
  bool saw_backoff_histogram = false;
  for (const auto& sample : metrics->Snapshot()) {
    if (sample.name == "veloce_storage_degraded_mode") saw_degraded_gauge = true;
    if (sample.name == "veloce_serverless_failover_backoff_ns") {
      saw_backoff_histogram = true;
      EXPECT_GE(sample.value, 1.0);  // histogram count: >= 1 backoff taken
    }
  }
  EXPECT_TRUE(saw_degraded_gauge);
  EXPECT_TRUE(saw_backoff_histogram);
  EXPECT_EQ(metrics->Sum("veloce_storage_degraded_mode"), 0.0);
  EXPECT_EQ(metrics->Sum("veloce_storage_degraded_entries_total"), 0.0);
  EXPECT_EQ(metrics->Sum("veloce_storage_bg_retries_total"), 0.0);
  EXPECT_EQ(metrics->Sum("veloce_storage_wal_truncated_records_total"), 0.0);
}

// ---------------------------------------------------------------------------
// Serializability stress through the full SQL stack
// ---------------------------------------------------------------------------

TEST(SerializabilityStressTest, BankTransfersConserveMoney) {
  // The full SQL-over-KV stack through the same builder the scenario
  // harness and the figure benches use.
  auto stack = scenario::ScenarioEnvBuilder().KvNodes(3).BuildSqlStack();
  ASSERT_NE(stack, nullptr);

  // Two sessions interleave transfers between 10 accounts.
  sql::Session* s1 = stack->session;
  sql::Session* s2 = *stack->node->NewSession();
  ASSERT_TRUE(s1->Execute("CREATE TABLE acct (id INT PRIMARY KEY, bal INT)").ok());
  const int accounts = 10;
  const int64_t initial = 100;
  for (int i = 0; i < accounts; ++i) {
    ASSERT_TRUE(s1->Execute("INSERT INTO acct VALUES (" + std::to_string(i) +
                            ", " + std::to_string(initial) + ")").ok());
  }

  Random rng(77);
  int committed = 0, retried = 0;
  for (int i = 0; i < 120; ++i) {
    sql::Session* session = (i % 2 == 0) ? s1 : s2;
    const int from = static_cast<int>(rng.Uniform(accounts));
    int to = static_cast<int>(rng.Uniform(accounts));
    if (to == from) to = (to + 1) % accounts;
    const int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(20));
    // Transfer with bounded retries.
    bool ok = false;
    for (int attempt = 0; attempt < 6 && !ok; ++attempt) {
      if (!session->Execute("BEGIN").ok()) break;
      auto read = session->Execute("SELECT bal FROM acct WHERE id = " +
                                   std::to_string(from));
      Status s = read.status();
      if (s.ok() && read->rows[0][0].int_value() >= amount) {
        s = session->Execute("UPDATE acct SET bal = bal - " +
                             std::to_string(amount) + " WHERE id = " +
                             std::to_string(from)).status();
        if (s.ok()) {
          s = session->Execute("UPDATE acct SET bal = bal + " +
                               std::to_string(amount) + " WHERE id = " +
                               std::to_string(to)).status();
        }
      }
      if (s.ok()) {
        s = session->Execute("COMMIT").status();
        if (s.ok()) {
          ok = true;
          ++committed;
          break;
        }
      }
      if (session->in_transaction()) (void)session->Execute("ROLLBACK");
      ++retried;
    }
  }
  EXPECT_GT(committed, 60);
  // Invariant: total money conserved and no negative balances.
  auto rs = *s1->Execute("SELECT SUM(bal), MIN(bal) FROM acct");
  EXPECT_EQ(rs.rows[0][0].int_value(), initial * accounts);
  EXPECT_GE(rs.rows[0][1].int_value(), 0);
}

}  // namespace
}  // namespace veloce
