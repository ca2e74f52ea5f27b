// Reproduces Fig 8: SQL nodes are scaled dynamically based on CPU
// utilization — capacity (nodes x 4 vCPU) hugs 4x the 5-minute average
// usage and reacts to spikes via the 1.33x-peak rule.
//
// A production-like load pattern (idle -> ramp -> plateau -> spike ->
// decay -> idle) plays against the autoscaler over ~3.5 hours of sim time.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "serverless/cluster.h"
#include "workload/load_pattern.h"

int main() {
  using namespace veloce;
  bench::PrintHeader("Fig 8: responsive autoscaling against variable load");

  serverless::ServerlessCluster::Options opts;
  opts.kv.num_nodes = 3;
  serverless::ServerlessCluster cluster(opts);
  auto meta = cluster.CreateTenant("variable");
  VELOCE_CHECK(meta.ok());
  const kv::TenantId tenant = meta->id;
  cluster.autoscaler()->Start();

  workload::LoadPattern pattern = workload::LoadPattern::ProductionLike();
  const Nanos total = pattern.TotalDuration();

  std::printf("%8s %12s %14s %12s %10s\n", "t(min)", "load vCPU", "capacity vCPU",
              "target vCPU", "nodes");
  double tracking_error_sum = 0;
  int tracked_points = 0;
  const Nanos start = cluster.loop()->Now();
  for (Nanos t = 0; t <= total; t += kMinute) {
    cluster.SetTenantCpuUsage(tenant, pattern.At(t));
    cluster.loop()->RunUntil(start + t);
    if (t % (5 * kMinute) == 0) {
      const int nodes = cluster.autoscaler()->CurrentNodes(tenant);
      const double capacity = nodes * 4.0;
      const double avg = cluster.autoscaler()->AvgUsage(tenant);
      const double target = 4.0 * avg;
      std::printf("%8lld %12.2f %14.1f %12.1f %10d\n",
                  static_cast<long long>(t / kMinute), pattern.At(t), capacity,
                  target, nodes);
      if (avg > 0.5) {
        tracking_error_sum += capacity / target;
        ++tracked_points;
      }
    }
  }
  const double mean_ratio =
      tracked_points > 0 ? tracking_error_sum / tracked_points : 0;
  std::printf("\nshape check: capacity/(4 x avg usage) averaged %.2f across "
              "active periods (paper: close alignment, ~1 node per avg vCPU; "
              "expect ~1.0-1.4 from node-granularity rounding)\n",
              mean_ratio);
  std::printf("scale-to-zero: final node count = %d (load pattern ends idle)\n",
              cluster.autoscaler()->CurrentNodes(tenant));
  return 0;
}
