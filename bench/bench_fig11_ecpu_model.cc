// Reproduces Fig 11: estimated Serverless CPU vs actual Dedicated CPU
// across 23 varied, held-out workloads. The paper's bar: ~80% of workloads
// estimate within +/-20% of actual.
//
// Phase 1 (calibration, mirrors Section 5.2.1): controlled KV-level tests
// that isolate each of the six input features; a least-squares solve over
// the feature matrix yields per-unit CPU costs, which become the
// sub-models of an EstimatedCpuModel.
//
// Phase 2 (evaluation): each workload runs twice —
//   * on a Dedicated (colocated) stack, measuring actual total CPU;
//   * on a Serverless stack, measuring SQL CPU directly (total minus the
//     KV side of the boundary) and *estimating* KV CPU from the feature
//     counters via the calibrated model.
// estimated = measured_sql_cpu + model(features) is compared to actual.

#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "billing/ecpu_model.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "kv/keys.h"
#include "scenario/env_builder.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"
#include "workload/ycsb.h"

namespace veloce {
namespace {

// --- tiny dense linear algebra for the 6x6 normal equations -----------------

bool SolveLeastSquares(const std::vector<std::array<double, 6>>& rows,
                       const std::vector<double>& y, std::array<double, 6>* coeff) {
  double ata[6][7] = {};
  for (size_t r = 0; r < rows.size(); ++r) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) ata[i][j] += rows[r][i] * rows[r][j];
      ata[i][6] += rows[r][i] * y[r];
    }
  }
  // Ridge term keeps the system well-conditioned (features correlate).
  for (int i = 0; i < 6; ++i) ata[i][i] += 1e-6 * (ata[i][i] + 1);
  for (int col = 0; col < 6; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 6; ++r) {
      if (std::fabs(ata[r][col]) > std::fabs(ata[pivot][col])) pivot = r;
    }
    if (std::fabs(ata[pivot][col]) < 1e-18) return false;
    for (int c = 0; c <= 6; ++c) std::swap(ata[col][c], ata[pivot][c]);
    for (int r = 0; r < 6; ++r) {
      if (r == col) continue;
      const double f = ata[r][col] / ata[col][col];
      for (int c = col; c <= 6; ++c) ata[r][c] -= f * ata[col][c];
    }
  }
  for (int i = 0; i < 6; ++i) (*coeff)[i] = std::max(0.0, ata[i][6] / ata[i][i]);
  return true;
}

std::array<double, 6> FeatureVector(const billing::IntervalFeatures& f) {
  return {f.read_batches, f.read_requests, f.read_bytes,
          f.write_batches, f.write_requests, f.write_bytes};
}

// --- calibration -------------------------------------------------------------

billing::EstimatedCpuModel Calibrate() {
  struct Config {
    bool write;
    int requests_per_batch;
    int value_bytes;
    bool scan;
    int batches;
  };
  // Controlled tests varying one dimension at a time (plus a mixed one).
  const Config configs[] = {
      {false, 1, 64, false, 3000},  {false, 16, 64, false, 400},
      {false, 1, 4096, false, 800}, {false, 1, 64, true, 300},
      {false, 1, 2048, true, 150},  {false, 1, 512, true, 250},
      {true, 1, 64, false, 3000},   {true, 16, 64, false, 400},
      {true, 1, 4096, false, 800},  {true, 8, 512, false, 500},
      {false, 8, 512, false, 500},
  };
  // Each calibration config runs on BOTH deployments. The model's target is
  // what the paper's is: "estimated CPU on a Serverless virtual cluster is
  // expected to roughly correspond to CPU consumption on a physical cluster
  // running on dedicated hardware" — so we fit
  //   model(features) ~= dedicated_total_cpu - serverless_sql_cpu.
  auto run_config = [](const Config& cfg, sql::ProcessMode mode,
                       billing::IntervalFeatures* features, double* total_cpu,
                       double* sql_cpu) {
    auto stack = scenario::ScenarioEnvBuilder().ProcessMode(mode).BuildSqlStack();
    sql::KvConnector* connector = stack->node->connector();
    Random rng(3);
    if (!cfg.write) {
      for (int i = 0; i < 2000; i += 50) {
        kv::BatchRequest req;
        for (int j = i; j < i + 50; ++j) {
          req.AddPut("cal/" + std::to_string(j),
                     rng.String(static_cast<size_t>(cfg.value_bytes)));
        }
        VELOCE_CHECK(connector->Send(req).ok());
      }
    }
    connector->ResetFeatures();
    const Nanos kv0 = connector->kv_cpu_nanos();
    const Nanos cpu0 = ThreadCpuNanos();
    uint64_t key = 0;
    for (int b = 0; b < cfg.batches; ++b) {
      if (cfg.write) {
        // SQL writes only in transactions, and the held-out workloads'
        // write features count those batches (intents and commit), so the
        // write configs write the same way: one transaction per batch.
        auto txn = connector->BeginTransaction();
        for (int r = 0; r < cfg.requests_per_batch; ++r) {
          VELOCE_CHECK_OK(txn->Put("cal/" + std::to_string(key++ % 2000),
                                   rng.String(static_cast<size_t>(cfg.value_bytes))));
        }
        VELOCE_CHECK_OK(txn->Commit());
        continue;
      }
      kv::BatchRequest req;
      if (cfg.scan) {
        req.AddScan("cal/", "cal0", 100);
      } else {
        for (int r = 0; r < cfg.requests_per_batch; ++r) {
          req.AddGet("cal/" + std::to_string(key++ % 2000));
        }
      }
      VELOCE_CHECK(connector->Send(req).ok());
    }
    *total_cpu = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
    const double kv_cpu =
        static_cast<double>(connector->kv_cpu_nanos() - kv0) / 1e9;
    *sql_cpu = *total_cpu - kv_cpu;
    *features = connector->features();
  };

  std::vector<std::array<double, 6>> rows;
  std::vector<double> cpu_secs;
  for (const Config& cfg : configs) {
    billing::IntervalFeatures features;
    double srvls_total = 0, srvls_sql = 0;
    run_config(cfg, sql::ProcessMode::kSeparateProcess, &features, &srvls_total,
               &srvls_sql);
    billing::IntervalFeatures dedicated_features;
    double dedicated_total = 0, dedicated_sql = 0;
    run_config(cfg, sql::ProcessMode::kColocated, &dedicated_features,
               &dedicated_total, &dedicated_sql);
    rows.push_back(FeatureVector(features));
    cpu_secs.push_back(std::max(0.0, dedicated_total - srvls_sql));
  }
  std::array<double, 6> coeff{};
  VELOCE_CHECK(SolveLeastSquares(rows, cpu_secs, &coeff));

  billing::EstimatedCpuModel model;
  for (int i = 0; i < 6; ++i) {
    // Flat sub-models from the solved per-unit costs (rate-dependence is
    // second-order at this scale; bench_fig5 demonstrates the curve).
    model.SetSubModel(static_cast<billing::Feature>(i),
                      billing::PiecewiseLinear({{1.0, coeff[static_cast<size_t>(i)]},
                                                {1e9, coeff[static_cast<size_t>(i)]}}));
  }
  std::printf("calibrated per-unit KV CPU costs:\n");
  for (int i = 0; i < 6; ++i) {
    std::printf("  %-15s %12.3f us/unit\n",
                std::string(billing::FeatureName(static_cast<billing::Feature>(i))).c_str(),
                coeff[static_cast<size_t>(i)] * 1e6);
  }
  return model;
}

// --- evaluation ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::function<void(sql::Session*)> run;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  // TPC-C variants (3).
  for (int w = 1; w <= 3; ++w) {
    out.push_back({"tpcc_w" + std::to_string(w), [w](sql::Session* s) {
                     workload::TpccWorkload::Options o;
                     o.warehouses = w;
                     o.districts_per_warehouse = 2;
                     o.customers_per_district = 10;
                     o.items = 30;
                     workload::TpccWorkload tpcc(o, 7 + static_cast<uint64_t>(w));
                     VELOCE_CHECK_OK(tpcc.Setup(s));
                     for (int i = 0; i < 60; ++i) VELOCE_CHECK_OK(tpcc.RunTransaction(s));
                   }});
  }
  // YCSB A-F plus two variants (8).
  using Mix = workload::YcsbWorkload::Mix;
  const std::pair<const char*, Mix> mixes[] = {
      {"ycsb_a", Mix::kA}, {"ycsb_b", Mix::kB}, {"ycsb_c", Mix::kC},
      {"ycsb_d", Mix::kD}, {"ycsb_e", Mix::kE}, {"ycsb_f", Mix::kF}};
  for (const auto& [name, mix] : mixes) {
    out.push_back({name, [mix](sql::Session* s) {
                     workload::YcsbWorkload::Options o;
                     o.mix = mix;
                     o.record_count = 200;
                     workload::YcsbWorkload ycsb(o, 21);
                     VELOCE_CHECK_OK(ycsb.Setup(s));
                     for (int i = 0; i < 150; ++i) VELOCE_CHECK_OK(ycsb.RunOp(s));
                   }});
  }
  out.push_back({"ycsb_a_uniform", [](sql::Session* s) {
                   workload::YcsbWorkload::Options o;
                   o.mix = Mix::kA;
                   o.record_count = 200;
                   o.zipf_theta = 0.5;
                   workload::YcsbWorkload ycsb(o, 22);
                   VELOCE_CHECK_OK(ycsb.Setup(s));
                   for (int i = 0; i < 150; ++i) VELOCE_CHECK_OK(ycsb.RunOp(s));
                 }});
  out.push_back({"ycsb_c_bigvals", [](sql::Session* s) {
                   workload::YcsbWorkload::Options o;
                   o.mix = Mix::kC;
                   o.record_count = 150;
                   o.field_bytes = 512;
                   workload::YcsbWorkload ycsb(o, 23);
                   VELOCE_CHECK_OK(ycsb.Setup(s));
                   for (int i = 0; i < 150; ++i) VELOCE_CHECK_OK(ycsb.RunOp(s));
                 }});
  // TPC-H (3): Q1 twice at different scales, Q9 (2 joins-heavy shapes).
  out.push_back({"tpch_q1", [](sql::Session* s) {
                   workload::TpchWorkload tpch({.lineitem_rows = 1500}, 9);
                   VELOCE_CHECK_OK(tpch.Setup(s));
                   for (int i = 0; i < 4; ++i) VELOCE_CHECK(tpch.RunQ1(s).ok());
                 }});
  out.push_back({"tpch_q1_large", [](sql::Session* s) {
                   workload::TpchWorkload tpch({.lineitem_rows = 3000}, 10);
                   VELOCE_CHECK_OK(tpch.Setup(s));
                   for (int i = 0; i < 3; ++i) VELOCE_CHECK(tpch.RunQ1(s).ok());
                 }});
  out.push_back({"tpch_q9", [](sql::Session* s) {
                   workload::TpchWorkload tpch({.lineitem_rows = 800}, 11);
                   VELOCE_CHECK_OK(tpch.Setup(s));
                   VELOCE_CHECK(tpch.RunQ9(s).ok());
                 }});
  // Imports (3).
  for (int bytes : {64, 512, 2048}) {
    out.push_back({"import_" + std::to_string(bytes) + "B", [bytes](sql::Session* s) {
                     VELOCE_CHECK_OK(workload::RunImport(s, "imp", 600, bytes, 31));
                   }});
  }
  // Hand-rolled SQL loops (6).
  out.push_back({"point_selects", [](sql::Session* s) {
                   VELOCE_CHECK(s->Execute("CREATE TABLE p (id INT PRIMARY KEY, v STRING)").ok());
                   for (int i = 0; i < 100; ++i) {
                     VELOCE_CHECK(s->Execute("INSERT INTO p VALUES (" + std::to_string(i) + ", 'v')").ok());
                   }
                   for (int i = 0; i < 600; ++i) {
                     VELOCE_CHECK(s->Execute("SELECT v FROM p WHERE id = " + std::to_string(i % 100)).ok());
                   }
                 }});
  out.push_back({"update_loop", [](sql::Session* s) {
                   VELOCE_CHECK(s->Execute("CREATE TABLE u (id INT PRIMARY KEY, v INT)").ok());
                   for (int i = 0; i < 50; ++i) {
                     VELOCE_CHECK(s->Execute("INSERT INTO u VALUES (" + std::to_string(i) + ", 0)").ok());
                   }
                   for (int i = 0; i < 400; ++i) {
                     VELOCE_CHECK(s->Execute("UPDATE u SET v = v + 1 WHERE id = " + std::to_string(i % 50)).ok());
                   }
                 }});
  out.push_back({"scan_heavy", [](sql::Session* s) {
                   VELOCE_CHECK_OK(workload::RunImport(s, "sc", 400, 256, 33));
                   for (int i = 0; i < 25; ++i) {
                     VELOCE_CHECK(s->Execute("SELECT COUNT(*) FROM sc").ok());
                   }
                 }});
  out.push_back({"wide_agg_scan", [](sql::Session* s) {
                   VELOCE_CHECK_OK(workload::RunImport(s, "wa", 500, 1024, 34));
                   for (int i = 0; i < 20; ++i) {
                     VELOCE_CHECK(s->Execute("SELECT COUNT(*), MIN(id), MAX(id) FROM wa").ok());
                   }
                 }});
  out.push_back({"txn_mix", [](sql::Session* s) {
                   VELOCE_CHECK(s->Execute("CREATE TABLE m (id INT PRIMARY KEY, v INT)").ok());
                   for (int i = 0; i < 50; ++i) {
                     VELOCE_CHECK(s->Execute("INSERT INTO m VALUES (" + std::to_string(i) + ", 0)").ok());
                   }
                   for (int i = 0; i < 120; ++i) {
                     VELOCE_CHECK(s->Execute("BEGIN").ok());
                     VELOCE_CHECK(s->Execute("SELECT v FROM m WHERE id = " + std::to_string(i % 50)).ok());
                     VELOCE_CHECK(s->Execute("UPDATE m SET v = v + 1 WHERE id = " + std::to_string(i % 50)).ok());
                     VELOCE_CHECK(s->Execute("COMMIT").ok());
                   }
                 }});
  out.push_back({"secondary_idx", [](sql::Session* s) {
                   VELOCE_CHECK(s->Execute("CREATE TABLE si (id INT PRIMARY KEY, grp INT, v STRING)").ok());
                   for (int i = 0; i < 200; ++i) {
                     VELOCE_CHECK(s->Execute("INSERT INTO si VALUES (" + std::to_string(i) + ", " +
                                             std::to_string(i % 10) + ", 'x')").ok());
                   }
                   VELOCE_CHECK(s->Execute("CREATE INDEX si_grp ON si (grp)").ok());
                   for (int i = 0; i < 200; ++i) {
                     VELOCE_CHECK(s->Execute("SELECT COUNT(*) FROM si WHERE grp = " +
                                             std::to_string(i % 10)).ok());
                   }
                 }});
  return out;
}

}  // namespace
}  // namespace veloce

int main() {
  using namespace veloce;
  bench::PrintHeader("Fig 11: estimated Serverless CPU vs actual Dedicated CPU");

  billing::EstimatedCpuModel model = Calibrate();

  std::vector<Workload> workloads = MakeWorkloads();
  std::printf("\nevaluating %zu held-out workloads:\n", workloads.size());
  std::printf("%-18s %14s %14s %10s\n", "workload", "actual CPU(s)",
              "estimated(s)", "est/actual");
  int within_20 = 0;
  for (const auto& workload : workloads) {
    // Actual: dedicated (colocated) run.
    double actual;
    {
      auto dedicated = scenario::ScenarioEnvBuilder()
                           .ProcessMode(sql::ProcessMode::kColocated)
                           .BuildSqlStack();
      const Nanos cpu0 = ThreadCpuNanos();
      workload.run(dedicated->session);
      actual = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
    }
    // Estimated: serverless run; SQL CPU measured, KV CPU modeled.
    double estimated;
    {
      auto serverless = scenario::ScenarioEnvBuilder()
                            .ProcessMode(sql::ProcessMode::kSeparateProcess)
                            .BuildSqlStack();
      sql::KvConnector* connector = serverless->node->connector();
      const Nanos cpu0 = ThreadCpuNanos();
      const Nanos kv0 = connector->kv_cpu_nanos();
      connector->ResetFeatures();
      workload.run(serverless->session);
      const double total = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
      const double kv_measured =
          static_cast<double>(connector->kv_cpu_nanos() - kv0) / 1e9;
      const double sql_measured = total - kv_measured;
      const double kv_estimated =
          model.EstimateKvCpuSeconds(connector->features(), /*secs=*/1.0);
      estimated = sql_measured + kv_estimated;
    }
    const double ratio = estimated / actual;
    if (ratio >= 0.8 && ratio <= 1.2) ++within_20;
    std::printf("%-18s %14.4f %14.4f %9.2f%s\n", workload.name.c_str(), actual,
                estimated, ratio, (ratio >= 0.8 && ratio <= 1.2) ? "" : "  *");
  }
  std::printf("\n%d/%zu workloads within +/-20%% (paper: ~80%%; the scan-heavy "
              "outliers overshoot because Serverless pays per-row marshaling "
              "that Dedicated avoids — the paper's largest outlier too)\n",
              within_20, workloads.size());
  return 0;
}
