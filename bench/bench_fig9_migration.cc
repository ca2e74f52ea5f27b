// Reproduces Fig 9: connection migration due to rolling upgrades does not
// noticeably impact tenant throughput or latency, and aborts no
// transactions.
//
// A tenant with 3 SQL nodes and 24 long-lived connections runs a steady
// point-read/write mix. Mid-run, a rolling upgrade drains and replaces
// each node in turn; the proxy migrates every connection. We report
// per-interval throughput, statement latency, migrations, and errors.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "serverless/cluster.h"

int main() {
  using namespace veloce;
  bench::PrintHeader("Fig 9: impact of connection migration (rolling upgrade)");

  serverless::ServerlessCluster::Options opts;
  opts.kv.num_nodes = 3;
  serverless::ServerlessCluster cluster(opts);
  auto meta = cluster.CreateTenant("prod");
  VELOCE_CHECK(meta.ok());
  const kv::TenantId tenant = meta->id;

  // Provision 3 SQL nodes up front.
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    cluster.pool()->Acquire(tenant, [&](StatusOr<sql::SqlNode*> n) {
      VELOCE_CHECK(n.ok());
      done = true;
    });
    cluster.loop()->Run();
    VELOCE_CHECK(done);
  }

  // 24 long-lived connections.
  std::vector<serverless::Proxy::Connection*> conns;
  for (int i = 0; i < 24; ++i) {
    auto conn = cluster.ConnectSync(tenant);
    VELOCE_CHECK(conn.ok());
    conns.push_back(*conn);
  }
  cluster.proxy()->RebalanceTenant(tenant);

  // Schema + data.
  VELOCE_CHECK_OK(conns[0]->session->Execute(
      "CREATE TABLE kvrows (id INT PRIMARY KEY, v INT)").status());
  for (int i = 0; i < 200; ++i) {
    VELOCE_CHECK_OK(conns[0]->session->Execute(
        "INSERT INTO kvrows VALUES (" + std::to_string(i) + ", 0)").status());
  }

  Random rng(5);
  auto run_interval = [&](int statements) {
    Histogram latency;
    uint64_t errors = 0;
    for (int i = 0; i < statements; ++i) {
      auto* conn = conns[rng.Uniform(conns.size())];
      const int key = static_cast<int>(rng.Uniform(200));
      const Nanos t0 = RealClock::Instance()->Now();
      Status s;
      if (rng.Bernoulli(0.2)) {
        s = conn->session->Execute("UPDATE kvrows SET v = v + 1 WHERE id = " +
                                   std::to_string(key)).status();
      } else {
        s = conn->session->Execute("SELECT v FROM kvrows WHERE id = " +
                                   std::to_string(key)).status();
      }
      latency.Record(RealClock::Instance()->Now() - t0);
      if (!s.ok()) ++errors;
      cluster.loop()->RunFor(10 * kMilli);  // pacing in sim time
    }
    return std::make_pair(latency, errors);
  };

  std::printf("%-22s %10s %12s %12s %10s %12s\n", "phase", "stmts", "p50", "p99",
              "errors", "migrations");
  const int stmts_per_interval = 400;
  uint64_t migrations_before = cluster.proxy()->total_migrations();

  auto report = [&](const char* phase, const Histogram& latency, uint64_t errors) {
    const uint64_t migs = cluster.proxy()->total_migrations() - migrations_before;
    migrations_before = cluster.proxy()->total_migrations();
    std::printf("%-22s %10d %12s %12s %10llu %12llu\n", phase, stmts_per_interval,
                Histogram::FormatNanos(latency.P50()).c_str(),
                Histogram::FormatNanos(latency.P99()).c_str(),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(migs));
  };

  // Before the upgrade.
  auto [before_lat, before_err] = run_interval(stmts_per_interval);
  report("before upgrade", before_lat, before_err);

  // Rolling upgrade: drain each original node; the proxy migrates its
  // connections; a replacement node joins from the warm pool.
  auto nodes = cluster.pool()->NodesForTenant(tenant);
  for (size_t upgrade = 0; upgrade < nodes.size(); ++upgrade) {
    cluster.pool()->StartDraining(nodes[upgrade]);
    cluster.proxy()->RebalanceTenant(tenant);
    bool replaced = false;
    cluster.pool()->Acquire(tenant, [&](StatusOr<sql::SqlNode*> n) {
      VELOCE_CHECK(n.ok());
      replaced = true;
    });
    cluster.loop()->Run();
    VELOCE_CHECK(replaced);
    cluster.proxy()->RebalanceTenant(tenant);
    auto [lat, err] = run_interval(stmts_per_interval);
    report(("during upgrade " + std::to_string(upgrade + 1) + "/3").c_str(), lat, err);
  }

  // After.
  auto [after_lat, after_err] = run_interval(stmts_per_interval);
  report("after upgrade", after_lat, after_err);

  std::printf("\nshape check: errors/aborted txns = 0 in every phase; p50/p99 "
              "stable across the upgrade (paper: no noticeable impact); all %zu "
              "connections migrated at least once\n",
              conns.size());
  size_t migrated_conns = 0;
  for (auto* conn : conns) {
    if (conn->migrations > 0) ++migrated_conns;
  }
  std::printf("connections migrated: %zu/%zu\n", migrated_conns, conns.size());
  return 0;
}
