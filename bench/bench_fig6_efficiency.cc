// Reproduces Fig 6: CPU usage and latency of TPC-C and two TPC-H queries in
// Serverless vs Traditional deployments.
//
// The Traditional deployment colocates SQL and KV in one process; the
// Serverless deployment separates them, so every KV batch is marshaled
// through the wire codec. Expectation (paper Section 6.1):
//   * TPC-C (OLTP): similar CPU and latency in both modes — OLTP plans use
//     the same remote KV APIs either way.
//   * TPC-H Q1 (full scan + aggregate): ~2.3x more CPU in Serverless —
//     every scanned row crosses the process boundary.
//   * TPC-H Q9 (index-join heavy): similar efficiency — dominated by
//     per-row point lookups that cost the same RPCs in both modes.
//
// With --pushdown, Q1 also runs with the future-work row-filter push-down
// enabled (ablation; see DESIGN.md Section 6).

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "scenario/env_builder.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace veloce {
namespace {

struct Measurement {
  double cpu_seconds = 0;
  Histogram latency;
};

Measurement RunTpcc(scenario::SqlStack* stack, int txns) {
  workload::TpccWorkload::Options opts;
  opts.warehouses = 2;
  opts.districts_per_warehouse = 2;
  opts.customers_per_district = 20;
  opts.items = 50;
  workload::TpccWorkload tpcc(opts, 7);
  VELOCE_CHECK_OK(tpcc.Setup(stack->session));
  scenario::ScatterRanges(stack, /*num_tables=*/7);
  Measurement m;
  const Nanos cpu0 = ThreadCpuNanos();
  for (int i = 0; i < txns; ++i) {
    const Nanos t0 = RealClock::Instance()->Now();
    VELOCE_CHECK_OK(tpcc.RunTransaction(stack->session));
    m.latency.Record(RealClock::Instance()->Now() - t0);
  }
  m.cpu_seconds = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
  return m;
}

Measurement RunTpchQuery(scenario::SqlStack* stack, workload::TpchWorkload* tpch,
                         bool q1, int iterations) {
  Measurement m;
  const Nanos cpu0 = ThreadCpuNanos();
  for (int i = 0; i < iterations; ++i) {
    const Nanos t0 = RealClock::Instance()->Now();
    auto rs = q1 ? tpch->RunQ1(stack->session) : tpch->RunQ9(stack->session);
    VELOCE_CHECK(rs.ok()) << rs.status().ToString();
    m.latency.Record(RealClock::Instance()->Now() - t0);
  }
  m.cpu_seconds = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
  return m;
}

void PrintRow(const char* workload, const Measurement& traditional,
              const Measurement& serverless) {
  std::printf("%-10s %14.3f %14.3f %10.2fx %14s %14s\n", workload,
              traditional.cpu_seconds, serverless.cpu_seconds,
              serverless.cpu_seconds / traditional.cpu_seconds,
              Histogram::FormatNanos(traditional.latency.P50()).c_str(),
              Histogram::FormatNanos(serverless.latency.P50()).c_str());
}

}  // namespace
}  // namespace veloce

int main(int argc, char** argv) {
  using namespace veloce;
  bool pushdown = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pushdown") == 0) pushdown = true;
  }

  bench::PrintHeader("Fig 6: Serverless vs Traditional efficiency");
  std::printf("%-10s %14s %14s %10s %14s %14s\n", "workload", "trad CPU(s)",
              "srvls CPU(s)", "ratio", "trad p50", "srvls p50");

  // --- TPC-C ---------------------------------------------------------------
  {
    auto traditional = scenario::ScenarioEnvBuilder()
                           .ProcessMode(sql::ProcessMode::kColocated)
                           .BuildSqlStack();
    auto serverless = scenario::ScenarioEnvBuilder()
                          .ProcessMode(sql::ProcessMode::kSeparateProcess)
                          .BuildSqlStack();
    const int txns = 300;
    Measurement t = RunTpcc(traditional.get(), txns);
    Measurement s = RunTpcc(serverless.get(), txns);
    PrintRow("TPC-C", t, s);
  }

  // --- TPC-H Q1 and Q9 -------------------------------------------------------
  workload::TpchWorkload::Options topts;
  topts.lineitem_rows = 4000;
  topts.orders = 800;
  {
    auto traditional = scenario::ScenarioEnvBuilder()
                           .ProcessMode(sql::ProcessMode::kColocated)
                           .BuildSqlStack();
    auto serverless = scenario::ScenarioEnvBuilder()
                          .ProcessMode(sql::ProcessMode::kSeparateProcess)
                          .BuildSqlStack();
    workload::TpchWorkload tpch_t(topts, 9), tpch_s(topts, 9);
    VELOCE_CHECK_OK(tpch_t.Setup(traditional->session));
    VELOCE_CHECK_OK(tpch_s.Setup(serverless->session));
    scenario::ScatterRanges(traditional.get(), /*num_tables=*/6);
    scenario::ScatterRanges(serverless.get(), /*num_tables=*/6);
    Measurement tq1 = RunTpchQuery(traditional.get(), &tpch_t, true, 10);
    Measurement sq1 = RunTpchQuery(serverless.get(), &tpch_s, true, 10);
    PrintRow("TPC-H Q1", tq1, sq1);
    Measurement tq9 = RunTpchQuery(traditional.get(), &tpch_t, false, 3);
    Measurement sq9 = RunTpchQuery(serverless.get(), &tpch_s, false, 3);
    PrintRow("TPC-H Q9", tq9, sq9);

    std::printf("\nexpected shape: TPC-C ratio ~1x, Q1 ratio >> 1x (paper: 2.3x), "
                "Q9 ratio ~1x\n");
  }

  if (pushdown) {
    std::printf("\n--pushdown requested: see bench_ablation_pushdown for the "
                "row-filter push-down ablation.\n");
  }
  return 0;
}
