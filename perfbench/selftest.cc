// Self-tests of the benchmark's own arithmetic and verification: percentile,
// median and sample-count rules, the probes and their scaling, the stream
// digest, and the shadow models, including corrupted results the
// verification must reject. Exits non-zero on the first failure. Run
// through `python3 perfbench/run.py --self-test`.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

void TestPercentiles() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(Percentile(v, 0.5) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Expect(Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(Percentile(v, 1.0) == 100, "p100 is the maximum");
  Expect(Percentile({7}, 0.5) == 7 && Percentile({7}, 0.99) == 7, "single sample");
  Expect(std::isnan(Percentile({}, 0.5)), "empty sample set has no percentile");
  // A failed operation misses every limit: it ranks above all real samples.
  std::vector<double> with_failures(98, 1.0);
  with_failures.push_back(perfbench::kFailedLatency);
  with_failures.push_back(perfbench::kFailedLatency);
  Expect(Percentile(with_failures, 0.5) == 1.0, "failures do not move p50");
  Expect(std::isinf(Percentile(with_failures, 0.99)), "2% failures reach p99");
}

void TestSampleCounts() {
  using perfbench::SupportsPercentile;
  Expect(SupportsPercentile(1000, 0.99), "1000 samples support p99");
  Expect(!SupportsPercentile(999, 0.99), "999 samples do not support p99");
  Expect(SupportsPercentile(20, 0.5), "20 samples support p50");
  Expect(!SupportsPercentile(19, 0.5), "19 samples do not support p50");
}

void TestMedian() {
  using perfbench::Median;
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  Expect(std::isnan(Median({})), "empty set has no median");
}

void TestProbe() {
  using perfbench::ProbeKernel;
  using perfbench::ProbeScale;
  Expect(ProbeKernel(1, 1000) == ProbeKernel(1, 1000), "probe kernel is pure");
  Expect(ProbeKernel(1, 1000) != ProbeKernel(1, 1001), "probe kernel depends on length");
  const perfbench::MapProbe map;
  Expect(map.Run(1) == map.Run(1) && map.Run(1) != map.Run(2), "map probe is pure");
  // A host running at half speed takes twice as long per slice: its raw
  // latencies halve and its raw throughput doubles after scaling.
  ProbeScale slow{2.0, 4.0};
  Expect(Near(slow.Latency(10.0), 5.0), "latency scaled to nominal speed");
  Expect(Near(slow.Throughput(1000.0), 2000.0), "throughput scaled to nominal speed");
  ProbeScale nominal{2.0, 2.0};
  Expect(nominal.Latency(3.0) == 3.0 && nominal.Throughput(3.0) == 3.0,
         "nominal host is unscaled");
}

void TestDigest() {
  perfbench::Digest a, b, c;
  a.Add("SELECT 1");
  a.Add(uint64_t{7});
  b.Add("SELECT 1");
  b.Add(uint64_t{7});
  c.Add("SELECT 2");
  c.Add(uint64_t{7});
  Expect(a.value() == b.value() && a.Hex() == b.Hex(), "equal streams, equal digest");
  Expect(a.value() != c.value(), "different streams, different digest");
  perfbench::Digest ab, ba;
  ab.Add("ab");
  ab.Add("c");
  ba.Add("a");
  ba.Add("bc");
  Expect(ab.value() != ba.value(), "digest separates statement boundaries");
}

void TestBankModel() {
  perfbench::BankModel m({100, 200, 300});
  Expect(m.rows() == 3 && m.total() == 600, "initial model");
  m.Add(0, -40);
  m.Add(2, 40);  // a transfer conserves the total
  Expect(m.total() == 600 && m.balance(0) == 60 && m.balance(2) == 340, "transfer");
  m.Add(1, 5);
  Expect(m.total() == 605, "update changes the total");
  m.Insert(3, 1000);
  Expect(m.rows() == 4 && m.total() == 1605, "insert grows count and total");
  m.Insert(5, 10);  // id 4 failed to insert: a gap, not a row
  Expect(m.rows() == 5 && m.total() == 1615, "gapped insert");
}

void TestQ1() {
  perfbench::Q1Model model;
  model.AddRow("A", "F", 10, 1000, 5, 19950101);
  model.AddRow("A", "F", 20, 2000, 0, 19980902);  // on the cutoff: included
  model.AddRow("N", "O", 30, 3000, 10, 19970101);
  model.AddRow("R", "F", 40, 4000, 0, 19980903);  // after the cutoff: excluded
  const perfbench::Q1Result& want = model.expected();
  Expect(want.size() == 2, "Q1 groups");
  const perfbench::Q1Group af = want.at({"A", "F"});
  Expect(af.sum_qty == 30 && af.sum_price == 3000 &&
             af.sum_disc_price == 1000 * 95 + 2000 * 100 && af.count == 2,
         "Q1 aggregates");
  Expect(perfbench::CompareQ1(want, want).empty(), "identical Q1 result accepted");

  perfbench::Q1Result corrupted = want;
  corrupted[{"N", "O"}].count += 1;
  Expect(!perfbench::CompareQ1(want, corrupted).empty(), "corrupted count rejected");
  corrupted = want;
  corrupted[{"A", "F"}].sum_disc_price -= 1;
  Expect(!perfbench::CompareQ1(want, corrupted).empty(), "corrupted sum rejected");
  corrupted = want;
  corrupted.erase({"N", "O"});
  Expect(!perfbench::CompareQ1(want, corrupted).empty(), "missing group rejected");
  corrupted = want;
  corrupted[{"R", "F"}] = perfbench::Q1Group{40, 4000, 400000, 1};
  Expect(!perfbench::CompareQ1(want, corrupted).empty(), "extra group rejected");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSampleCounts();
  TestMedian();
  TestProbe();
  TestDigest();
  TestBankModel();
  TestQ1();
  if (failures != 0) {
    std::printf("%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
