// "rolling-upgrade-under-chaos": the Fig 9 rolling SQL-node upgrade
// (drain each node, migrate its connections, replace it from the pool)
// while the storage layer is deliberately unlucky: transient flush faults
// from a shared FaultInjectionEnv plus KV node crash-restarts. The upgrade
// machinery and the storage self-healing must compose — connections
// survive, no statement fails, and the final row count matches the acked
// INSERTs exactly.

#include <cstdio>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "scenario/env_builder.h"
#include "scenario/scenarios.h"

namespace veloce::scenario {
namespace {

class RollingUpgradeChaos final : public Scenario {
 public:
  std::string_view name() const override {
    return "rolling-upgrade-under-chaos";
  }
  std::string_view description() const override {
    return "Fig 9 rolling upgrade with storage faults injected underneath";
  }

  void Run(ScenarioContext& ctx) override {
    const int sql_nodes = 3;
    const int n_conns = ctx.fast() ? 6 : 24;
    const int stmts_per_phase = ctx.fast() ? 60 : 200;
    const int seed_rows = ctx.fast() ? 50 : 200;

    ServerlessEnv env = ScenarioEnvBuilder()
                            .Seed(ctx.seed())
                            .KvNodes(3)
                            .WithFaultEnv()
                            .BuildServerless();
    serverless::ServerlessCluster& cluster = *env.cluster;
    auto meta = cluster.CreateTenant("prod");
    VELOCE_CHECK(meta.ok());
    const kv::TenantId tenant = meta->id;

    ctx.report()->AddParam("sql_nodes", sql_nodes);
    ctx.report()->AddParam("connections", n_conns);
    ctx.report()->AddParam("stmts_per_phase", stmts_per_phase);

    // Provision the tenant's SQL nodes up front (Fig 9 setup).
    for (int i = 0; i < sql_nodes; ++i) {
      bool done = false;
      cluster.pool()->Acquire(tenant, [&](StatusOr<sql::SqlNode*> n) {
        VELOCE_CHECK(n.ok());
        done = true;
      });
      cluster.loop()->Run();
      VELOCE_CHECK(done);
    }
    std::vector<serverless::Proxy::Connection*> conns;
    for (int i = 0; i < n_conns; ++i) {
      auto conn = cluster.ConnectSync(tenant);
      VELOCE_CHECK(conn.ok());
      conns.push_back(*conn);
    }
    cluster.proxy()->RebalanceTenant(tenant);

    VELOCE_CHECK_OK(conns[0]
                        ->session
                        ->Execute("CREATE TABLE kvrows (id INT PRIMARY KEY)")
                        .status());
    for (int i = 0; i < seed_rows; ++i) {
      VELOCE_CHECK_OK(
          conns[0]
              ->session->Execute("INSERT INTO kvrows VALUES (" +
                                 std::to_string(i) + ")")
              .status());
    }

    Timeline tl(cluster.loop(), ctx.log());
    Random rng(ctx.SubSeed("workload"));
    Histogram latency;
    int64_t acked = seed_rows, errors = 0, next_id = seed_rows;

    // One phase of paced mixed load (80% point reads, 20% inserts); the
    // sim advances 10ms per statement, so timeline chaos events interleave.
    auto run_phase = [&](const std::string& phase) {
      ctx.Log(tl.Elapsed(), "phase", phase);
      for (int i = 0; i < stmts_per_phase; ++i) {
        const Nanos t0 = cluster.loop()->Now();
        Status st;
        if (rng.Bernoulli(0.2)) {
          st = cluster
                   .ExecuteSync(conns[rng.Uniform(conns.size())],
                                "INSERT INTO kvrows VALUES (" +
                                    std::to_string(next_id) + ")",
                                /*idempotent=*/false)
                   .status();
          if (st.ok()) {
            ++acked;
            ++next_id;
          }
        } else {
          const int key = static_cast<int>(rng.Uniform(seed_rows));
          st = cluster
                   .ExecuteSync(conns[rng.Uniform(conns.size())],
                                "SELECT id FROM kvrows WHERE id = " +
                                    std::to_string(key),
                                /*idempotent=*/true)
                   .status();
        }
        latency.Record(cluster.loop()->Now() - t0);
        if (!st.ok()) {
          ++errors;
          ctx.Log(tl.Elapsed(), "stmt-failed", st.ToString());
        }
        cluster.loop()->RunFor(10 * kMilli);
      }
      // The acked count depends on the seeded read/write mix, so the
      // per-phase summaries make the trace visibly seed-dependent.
      char buf[96];
      std::snprintf(buf, sizeof(buf), "acked=%lld errors=%lld p99=%.2fms",
                    static_cast<long long>(acked),
                    static_cast<long long>(errors),
                    static_cast<double>(latency.P99()) / kMilli);
      ctx.Log(tl.Elapsed(), "phase-summary", buf);
    };

    // Chaos, scheduled against the load's sim-time pacing. Transient .sst
    // faults hit background flush/compaction outputs and self-heal via the
    // engine's backoff-retry; crash-restarts recover from the WALs.
    const Nanos phase_span = stmts_per_phase * 10 * kMilli;
    tl.At(phase_span / 2, "inject transient flush faults", [&env] {
      storage::FaultRule rule;
      rule.op = storage::FaultOp::kAppend;
      rule.path_substr = ".sst";
      rule.count = 2;
      env.fault->AddRule(rule);
    });
    int restarts_ok = 0;
    auto crash_restart = [&env, &cluster, &ctx, &tl,
                          &restarts_ok](kv::NodeId id) {
      // The transient fault has healed by reboot time; a rule that is
      // still armed would fail the WAL-replay recovery and leave the node
      // down (which the engine-null hardening turns into Unavailable, not
      // a crash — but this scenario asserts clean recoveries).
      env.fault->ClearRules();
      const Status s = cluster.CrashAndRestartKvNode(id);
      if (s.ok()) ++restarts_ok;
      ctx.Log(tl.Elapsed(), "kv-crash-restart",
              s.ok() ? "node " + std::to_string(id) + " recovered"
                     : s.ToString());
    };
    tl.At(phase_span + phase_span / 2, "crash-restart kv node 0",
          [&crash_restart] { crash_restart(0); });
    tl.At(2 * phase_span + phase_span / 2, "crash-restart kv node 2",
          [&crash_restart] { crash_restart(2); });

    run_phase("before upgrade");

    // The rolling upgrade itself: drain each original node, migrate its
    // connections, bring up a replacement, keep the load running.
    const uint64_t migrations_before = cluster.proxy()->total_migrations();
    // Ids, not pointers: a drained node is freed once it retires.
    std::vector<uint64_t> originals;
    for (sql::SqlNode* node : cluster.pool()->NodesForTenant(tenant)) {
      originals.push_back(node->id());
    }
    for (size_t upgrade = 0; upgrade < originals.size(); ++upgrade) {
      ctx.Log(tl.Elapsed(), "upgrade",
              "draining node " + std::to_string(upgrade + 1) + "/" +
                  std::to_string(originals.size()));
      cluster.pool()->StartDraining(originals[upgrade]);
      cluster.proxy()->RebalanceTenant(tenant);
      bool replaced = false;
      cluster.pool()->Acquire(tenant, [&](StatusOr<sql::SqlNode*> n) {
        VELOCE_CHECK(n.ok());
        replaced = true;
      });
      cluster.loop()->Run();
      VELOCE_CHECK(replaced);
      cluster.proxy()->RebalanceTenant(tenant);
      run_phase("during upgrade " + std::to_string(upgrade + 1));
    }
    run_phase("after upgrade");
    const uint64_t migrations =
        cluster.proxy()->total_migrations() - migrations_before;

    // Every connection must still be usable after three migrations' worth
    // of upgrades and the storage chaos.
    int64_t live_conns = 0;
    for (auto* conn : conns) {
      if (cluster.ExecuteSync(conn, "SELECT COUNT(*) FROM kvrows").ok()) {
        ++live_conns;
      }
    }
    auto count = cluster.ExecuteSync(conns[0], "SELECT COUNT(*) FROM kvrows");
    VELOCE_CHECK(count.ok());
    const double final_rows = count->rows[0][0].int_value();

    BenchReport* r = ctx.report();
    r->AddMetric("stmts_total",
                 static_cast<int64_t>(stmts_per_phase) * (sql_nodes + 2));
    r->AddMetric("errors", errors);
    r->AddMetric("writes_acked", acked);
    r->AddMetric("final_rows", final_rows);
    r->AddMetric("migrations", static_cast<int64_t>(migrations));
    r->AddMetric("live_connections", live_conns);
    r->AddMetric("stmt_p99_ms", static_cast<double>(latency.P99()) / kMilli);

    r->AssertEq("no_acked_write_loss", final_rows, static_cast<double>(acked),
                "row count matches acked INSERTs exactly");
    r->AssertEq("no_statement_errors", static_cast<double>(errors), 0,
                "migration + failover hide the chaos from clients");
    r->AssertEq("all_connections_survive", static_cast<double>(live_conns),
                n_conns, "no connection dropped by the upgrade");
    r->AssertGe("connections_migrated", static_cast<double>(migrations), 1,
                "the upgrade actually moved connections");
    r->AssertEq("kv_restarts_recovered", restarts_ok, 2,
                "both crash-restarts replayed their WALs cleanly");
    r->AssertLe("stmt_p99_ms", static_cast<double>(latency.P99()) / kMilli,
                500.0, "chaos does not blow up tail latency");
  }
};

}  // namespace

std::unique_ptr<Scenario> MakeRollingUpgradeChaos() {
  return std::make_unique<RollingUpgradeChaos>();
}

}  // namespace veloce::scenario
