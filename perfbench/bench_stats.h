// Measurement and verification helpers of the end-to-end benchmark:
// latency summaries, the host-speed probe and its scaling, the operation
// stream digest, and the shadow models every result is checked against.
// Kept free of repository types so the self-tests link without the stack.
#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Latency of an operation that failed or was refused: it misses every
/// latency limit, so it sorts above every real sample.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in (0, 1]) of `samples`; NaN when empty.
double Percentile(std::vector<double> samples, double q);

/// Whether at least ten samples lie beyond percentile q, the rule for which
/// tail percentile a sample count can support.
bool SupportsPercentile(size_t samples, double q);

/// Median of `values` (mean of the two middle values for an even count).
double Median(std::vector<double> values);

/// One slice of the host-speed probe: a dependent chain of integer
/// multiply/xor/shift steps that lives in registers, allocates nothing
/// and calls no repository code. Returns the chain's final value so the
/// loop cannot be optimized away.
uint64_t ProbeKernel(uint64_t seed, uint64_t iterations);

/// Iterations of one probe slice.
inline constexpr uint64_t kProbeIterations = 1ull << 20;

/// The second host-speed probe: dependent lookups in an ordered map built
/// once, before any timing. Pointer chasing and branches over a fixed ~2 MB
/// working set is the kind of work the statement path does, and it slows
/// under the cache and TLB interference from other tenants of the host that
/// the register-only loop does not see.
class MapProbe {
 public:
  static constexpr int kEntries = 50000;
  static constexpr int kLookups = 30000;

  MapProbe();
  /// One slice of kLookups lookups; the result depends on every lookup.
  uint64_t Run(uint64_t seed) const;

 private:
  std::map<uint64_t, uint64_t> map_;
};

/// Probe normalization. A host that is momentarily slower takes longer per
/// probe slice; wall-clock metrics are scaled back to the nominal host
/// speed: latencies by nominal/measured, throughputs by measured/nominal.
struct ProbeScale {
  double nominal_ms = 1.0;
  double measured_ms = 1.0;

  double Latency(double raw) const { return raw * nominal_ms / measured_ms; }
  double Throughput(double raw) const { return raw * measured_ms / nominal_ms; }
};

/// 64-bit FNV-1a over the generated operation stream.
class Digest {
 public:
  void Add(const std::string& text);
  void Add(uint64_t value);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Shadow model of one tenant's `acct(id, balance)` table.
class BankModel {
 public:
  BankModel() = default;
  explicit BankModel(std::vector<int64_t> balances);

  size_t rows() const { return rows_; }
  int64_t total() const { return total_; }
  int64_t balance(size_t id) const { return balances_.at(id); }

  void Add(size_t id, int64_t delta);
  /// Adds row `id` (ids need not be contiguous: a failed insert leaves a
  /// gap that never counts as a row).
  void Insert(size_t id, int64_t balance);

 private:
  std::vector<int64_t> balances_;
  size_t rows_ = 0;
  int64_t total_ = 0;
};

/// One Q1-lite result group: (returnflag, linestatus) and its integer
/// aggregates, which compare exactly.
struct Q1Group {
  int64_t sum_qty = 0;
  int64_t sum_price = 0;
  int64_t sum_disc_price = 0;
  int64_t count = 0;

  bool operator==(const Q1Group&) const = default;
};
using Q1Result = std::map<std::pair<std::string, std::string>, Q1Group>;

/// Aggregate the generator computes while it produces lineitem rows.
class Q1Model {
 public:
  static constexpr int64_t kShipdateCutoff = 19980902;

  void AddRow(const std::string& flag, const std::string& status, int64_t qty,
              int64_t price, int64_t discount, int64_t shipdate);
  const Q1Result& expected() const { return groups_; }

 private:
  Q1Result groups_;
};

/// Empty when `got` equals the model, else a description of the first
/// difference.
std::string CompareQ1(const Q1Result& expected, const Q1Result& got);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
