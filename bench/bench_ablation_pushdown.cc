// Ablation: the paper's future-work row-filter and projection push-down
// (Section 8), implemented here behind `SET kv_pushdown = on`.
//
// A selective filter query over a wide table runs in both deployment modes
// with push-down off and on. Without push-down, Serverless marshals every
// scanned row across the SQL/KV boundary only to discard 90% of them and
// most of each row's bytes; with push-down, filtering and projection happen
// at the KV node, closing most of the Serverless gap for selective scans.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "scenario/env_builder.h"

namespace veloce {
namespace {

struct Run {
  double cpu_seconds;
  uint64_t marshaled_bytes;
};

Run Measure(sql::ProcessMode mode, bool pushdown) {
  auto stack = scenario::ScenarioEnvBuilder().ProcessMode(mode).BuildSqlStack();
  auto exec = [&](const std::string& sql) {
    auto result = stack->session->Execute(sql);
    VELOCE_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  exec("CREATE TABLE wide (id INT PRIMARY KEY, grp INT, a STRING, b STRING, c STRING)");
  Random rng(3);
  for (int i = 0; i < 2000; i += 25) {
    std::string stmt = "INSERT INTO wide VALUES ";
    for (int j = i; j < i + 25; ++j) {
      if (j > i) stmt += ", ";
      stmt += "(" + std::to_string(j) + ", " + std::to_string(j % 20) + ", '" +
              rng.String(100) + "', '" + rng.String(100) + "', '" + rng.String(100) +
              "')";
    }
    exec(stmt);
  }
  scenario::ScatterRanges(stack.get(), 1);
  if (pushdown) exec("SET kv_pushdown = on");

  const uint64_t marshal0 = stack->node->connector()->marshaled_bytes();
  const Nanos cpu0 = ThreadCpuNanos();
  for (int i = 0; i < 30; ++i) {
    auto rs = exec("SELECT id, grp FROM wide WHERE grp = 7");
    VELOCE_CHECK(rs.rows.size() == 100);
  }
  Run run;
  run.cpu_seconds = static_cast<double>(ThreadCpuNanos() - cpu0) / 1e9;
  run.marshaled_bytes = stack->node->connector()->marshaled_bytes() - marshal0;
  return run;
}

}  // namespace
}  // namespace veloce

int main() {
  using namespace veloce;
  bench::PrintHeader("Ablation: row-filter + projection push-down (future work)");
  std::printf("query: SELECT id, grp FROM wide WHERE grp = 7  (5%% selective, "
              "wide rows, 30 runs)\n\n");
  std::printf("%-14s %12s %14s %18s\n", "mode", "pushdown", "CPU (s)",
              "bytes marshaled");
  const Run trad_off = Measure(sql::ProcessMode::kColocated, false);
  const Run srvls_off = Measure(sql::ProcessMode::kSeparateProcess, false);
  const Run srvls_on = Measure(sql::ProcessMode::kSeparateProcess, true);
  std::printf("%-14s %12s %14.3f %18llu\n", "traditional", "off",
              trad_off.cpu_seconds,
              static_cast<unsigned long long>(trad_off.marshaled_bytes));
  std::printf("%-14s %12s %14.3f %18llu\n", "serverless", "off",
              srvls_off.cpu_seconds,
              static_cast<unsigned long long>(srvls_off.marshaled_bytes));
  std::printf("%-14s %12s %14.3f %18llu\n", "serverless", "on",
              srvls_on.cpu_seconds,
              static_cast<unsigned long long>(srvls_on.marshaled_bytes));
  std::printf("\nserverless CPU penalty vs traditional: %.2fx without pushdown, "
              "%.2fx with pushdown\n",
              srvls_off.cpu_seconds / trad_off.cpu_seconds,
              srvls_on.cpu_seconds / trad_off.cpu_seconds);
  std::printf("marshaled bytes reduced %.0fx by evaluating the filter and "
              "projection at the KV node\n",
              static_cast<double>(srvls_off.marshaled_bytes) /
                  static_cast<double>(srvls_on.marshaled_bytes ? srvls_on.marshaled_bytes : 1));
  return 0;
}
