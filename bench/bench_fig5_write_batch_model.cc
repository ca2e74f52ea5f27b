// Reproduces Fig 5: "Write batches per second determines CPU usage."
//
// The paper trains the estimated-CPU model's write-batch sub-model by
// varying only the write batch rate and observing that per-batch CPU cost
// falls as the rate rises (batching optimizations amortize fixed costs).
// Here the same effect is real and measurable: delivering a fixed row
// throughput in fewer, larger batches amortizes WAL framing, raft
// proposals, and range lookups. We sweep the batch rate needed to sustain
// a fixed row rate, measure CPU per batch, and fit the piecewise-linear
// sub-model the billing layer uses.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "billing/ecpu_model.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "kv/keys.h"
#include "scenario/env_builder.h"

namespace veloce {
namespace {

struct SweepPoint {
  double batches_per_sec;   // batch rate at the fixed row throughput
  double cpu_per_batch_us;  // measured KV CPU per batch
  double batches_per_vcpu;  // batches one vCPU sustains at this shape
};

SweepPoint MeasureBatchShape(scenario::SqlStack* stack, int requests_per_batch,
                             int total_rows, uint64_t* key_counter) {
  Random rng(42);
  const int batches = total_rows / requests_per_batch;
  const Nanos cpu_before = ThreadCpuNanos();
  for (int b = 0; b < batches; ++b) {
    kv::BatchRequest req;
    req.tenant_id = stack->tenant;
    req.ts = stack->cluster->Now();
    for (int r = 0; r < requests_per_batch; ++r) {
      req.AddPut(kv::AddTenantPrefix(stack->tenant,
                                     "fig5/" + std::to_string((*key_counter)++)),
                 rng.String(64));
    }
    auto resp = stack->cluster->Send(req);
    VELOCE_CHECK(resp.ok()) << resp.status().ToString();
  }
  const Nanos cpu = ThreadCpuNanos() - cpu_before;
  SweepPoint point;
  const double cpu_secs = static_cast<double>(cpu) / 1e9;
  point.cpu_per_batch_us = cpu_secs * 1e6 / batches;
  point.batches_per_vcpu = batches / cpu_secs;
  // Batch rate that delivers the fixed row throughput (rows/sec is pinned
  // by the sweep): normalize to 100K rows/sec as the reference load.
  point.batches_per_sec = 100000.0 / requests_per_batch;
  return point;
}

}  // namespace
}  // namespace veloce

int main() {
  using namespace veloce;
  bench::PrintHeader("Fig 5: write batches per second vs CPU usage");
  auto stack = scenario::ScenarioEnvBuilder()
                   .ProcessMode(sql::ProcessMode::kSeparateProcess)
                   .BuildSqlStack();

  // Sweep batch sizes from 256 rows/batch (few big batches) to 1 row/batch
  // (many small batches) at a fixed total row count.
  const int sizes[] = {256, 128, 64, 32, 16, 8, 4, 2, 1};
  const int total_rows = 40000;
  uint64_t key_counter = 0;
  std::vector<SweepPoint> points;
  std::printf("%18s %22s %22s\n", "write batches/sec", "CPU per batch (us)",
              "batches per vCPU-sec");
  for (int size : sizes) {
    const SweepPoint p =
        MeasureBatchShape(stack.get(), size, total_rows, &key_counter);
    points.push_back(p);
    std::printf("%18.0f %22.2f %22.0f\n", p.batches_per_sec, p.cpu_per_batch_us,
                p.batches_per_vcpu);
  }

  // Fit the piecewise-linear sub-model (CPU seconds per batch vs rate) the
  // billing layer consumes — the curve of Fig 5.
  std::vector<billing::PiecewiseLinear::Point> samples;
  for (const auto& p : points) {
    samples.push_back({p.batches_per_sec, p.cpu_per_batch_us / 1e6});
  }
  billing::PiecewiseLinear fit = billing::PiecewiseLinear::Fit(samples, 4);
  std::printf("\nfitted piecewise-linear write-batch sub-model (rate -> s/batch):\n");
  for (const auto& knot : fit.points()) {
    std::printf("  %10.0f batches/s -> %8.2f us/batch\n", knot.x, knot.y * 1e6);
  }
  const double low_rate_cost = fit.Eval(500);
  const double high_rate_cost = fit.Eval(80000);
  std::printf("\nshape check: cost(500/s)=%.2fus vs cost(80K/s)=%.2fus — "
              "%s (paper: higher batch rates are more CPU-efficient)\n",
              low_rate_cost * 1e6, high_rate_cost * 1e6,
              low_rate_cost > high_rate_cost ? "DECREASING ✓" : "NOT DECREASING ✗");
  return 0;
}
