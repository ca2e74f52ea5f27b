// "black-friday": a multi-region tenant's demand ramps 10x (the holiday
// traffic spike), plateaus long enough for the autoscaler's 5-minute
// window to converge, then decays back to baseline. A paced INSERT stream
// runs underneath the whole time so the no-acked-write-loss invariant is
// exercised across every scale event.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "scenario/env_builder.h"
#include "scenario/scenarios.h"
#include "workload/load_pattern.h"

namespace veloce::scenario {
namespace {

class BlackFriday final : public Scenario {
 public:
  std::string_view name() const override { return "black-friday"; }
  std::string_view description() const override {
    return "10x multi-region demand ramp tracked by the autoscaler";
  }

  void Run(ScenarioContext& ctx) override {
    const bool fast = ctx.fast();
    // Demand curve (vCPUs). The plateau must exceed the autoscaler's
    // 5-minute window so the 4x-average target converges on it.
    const double base_vcpus = fast ? 1.0 : 2.0;
    const double peak_vcpus = base_vcpus * 10;  // the 10x ramp
    const Nanos baseline = (fast ? 3 : 8) * kMinute;
    const Nanos ramp = (fast ? 1 : 2) * kMinute;
    const Nanos plateau = (fast ? 8 : 12) * kMinute;
    const Nanos decay = (fast ? 1 : 2) * kMinute;
    const Nanos tail = (fast ? 3 : 8) * kMinute;
    const Nanos total = baseline + ramp + plateau + decay + tail;

    ServerlessEnv env = ScenarioEnvBuilder()
                            .Seed(ctx.seed())
                            .KvNodes(3)
                            .Regions({"us-east1", "europe-west1", "asia-south1"})
                            .BuildServerless();
    serverless::ServerlessCluster& cluster = *env.cluster;
    auto meta = cluster.CreateTenant("shop");
    VELOCE_CHECK(meta.ok());
    const kv::TenantId tenant = meta->id;
    cluster.autoscaler()->Start();

    ctx.report()->AddParam("regions", 3);
    ctx.report()->AddParam("kv_nodes", 3);
    ctx.report()->AddParam("base_vcpus", base_vcpus);
    ctx.report()->AddParam("peak_vcpus", peak_vcpus);
    ctx.report()->AddParam("total_sim_minutes",
                           static_cast<double>(total) / kMinute);

    Timeline tl(cluster.loop(), ctx.log());

    workload::LoadPattern pattern(
        {{baseline, base_vcpus, base_vcpus},
         {ramp, base_vcpus, peak_vcpus},
         {plateau, peak_vcpus, peak_vcpus},
         {decay, peak_vcpus, base_vcpus},
         {tail, base_vcpus, base_vcpus}},
        /*noise=*/0.05, ctx.SubSeed("load"));
    double last_demand = base_vcpus;
    tl.DriveLoad(pattern, 5 * kSecond, "demand", [&](double vcpus) {
      last_demand = vcpus;
      cluster.SetTenantCpuUsage(tenant, vcpus);
    });

    // Capacity samples: (elapsed, demand, provisioned vCPUs).
    struct Sample {
      Nanos t;
      double demand;
      double provisioned;
    };
    std::vector<Sample> samples;
    const int node_vcpus = cluster.pool()->node_options().vcpus;
    tl.Every(15 * kSecond, total, "sample-capacity", [&] {
      const double provisioned =
          cluster.autoscaler()->CurrentNodes(tenant) * node_vcpus;
      samples.push_back({tl.Elapsed(), last_demand, provisioned});
      char buf[96];
      std::snprintf(buf, sizeof(buf), "demand=%.2f provisioned=%.0f",
                    last_demand, provisioned);
      ctx.Log(tl.Elapsed(), "capacity", buf);
    });

    // A paced write stream under the whole ramp. ExecuteSync steps the sim
    // loop, so timeline events interleave with the statements naturally.
    auto conn = cluster.ConnectSync(tenant);
    VELOCE_CHECK(conn.ok());
    VELOCE_CHECK_OK(
        cluster.ExecuteSync(*conn, "CREATE TABLE orders (id INT PRIMARY KEY)")
            .status());
    Histogram write_latency;
    int64_t acked = 0;
    const Nanos write_cadence = 10 * kSecond;
    for (Nanos t = write_cadence; t <= total; t += write_cadence) {
      cluster.loop()->RunUntil(tl.start() + t);
      const Nanos t0 = cluster.loop()->Now();
      auto st = cluster.ExecuteSync(
          *conn, "INSERT INTO orders VALUES (" + std::to_string(acked) + ")",
          /*idempotent=*/false);
      write_latency.Record(cluster.loop()->Now() - t0);
      if (st.ok()) {
        ++acked;
      } else {
        ctx.Log(tl.Elapsed(), "write-failed", st.status().ToString());
      }
    }
    cluster.loop()->RunUntil(tl.start() + total + 2 * kMinute);

    // --- measure ------------------------------------------------------------
    const Nanos plateau_start = baseline + ramp;
    const Nanos converged = plateau_start + 5 * kMinute;  // window filled
    const Nanos plateau_end = plateau_start + plateau;
    double plateau_demand = 0, plateau_prov = 0, base_prov = 0, peak_prov = 0;
    int plateau_n = 0, base_n = 0;
    for (const Sample& s : samples) {
      peak_prov = std::max(peak_prov, s.provisioned);
      if (s.t >= converged && s.t <= plateau_end) {
        plateau_demand += s.demand;
        plateau_prov += s.provisioned;
        ++plateau_n;
      }
      if (s.t >= kMinute && s.t <= baseline) {
        base_prov += s.provisioned;
        ++base_n;
      }
    }
    VELOCE_CHECK(plateau_n > 0 && base_n > 0);
    plateau_demand /= plateau_n;
    plateau_prov /= plateau_n;
    base_prov /= base_n;
    const double ratio = plateau_prov / plateau_demand;
    const double final_prov = samples.back().provisioned;

    auto count = cluster.ExecuteSync(*conn, "SELECT COUNT(*) FROM orders");
    VELOCE_CHECK(count.ok());
    const double final_rows = count->rows[0][0].int_value();

    BenchReport* r = ctx.report();
    r->AddMetric("writes_acked", acked);
    r->AddMetric("final_rows", final_rows);
    r->AddMetric("write_p99_ms", static_cast<double>(write_latency.P99()) / kMilli);
    r->AddMetric("plateau_avg_demand_vcpus", plateau_demand);
    r->AddMetric("plateau_avg_provisioned_vcpus", plateau_prov);
    r->AddMetric("baseline_avg_provisioned_vcpus", base_prov);
    r->AddMetric("peak_provisioned_vcpus", peak_prov);
    r->AddMetric("final_provisioned_vcpus", final_prov);
    r->AddMetric("capacity_ratio_plateau", ratio);

    r->AssertEq("no_acked_write_loss", final_rows, static_cast<double>(acked),
                "every acked INSERT visible at the end");
    r->AssertGe("capacity_ratio_plateau_ge", ratio, 3.0,
                "provisioned ~= 4x average demand (lower bound)");
    r->AssertLe("capacity_ratio_plateau_le", ratio, 5.5,
                "provisioned ~= 4x average demand (upper bound)");
    // Baseline rounds up to whole nodes (demand 1 vCPU still gets ~2
    // nodes), so the scale-up check compares peak capacity against the
    // 4x-average target the 10x demand implies, not against the baseline.
    r->AssertGe("scale_up_covers_peak", peak_prov, 0.9 * 4.0 * peak_vcpus,
                "peak capacity tracks the 10x demand ramp");
    r->AssertLe("scale_down_after_peak", final_prov, peak_prov / 2,
                "capacity released once demand decays");
    r->AssertLe("write_p99_ms", static_cast<double>(write_latency.P99()) / kMilli,
                1000.0, "writes stay responsive across scale events");
  }
};

}  // namespace

std::unique_ptr<Scenario> MakeBlackFriday() {
  return std::make_unique<BlackFriday>();
}

}  // namespace veloce::scenario
