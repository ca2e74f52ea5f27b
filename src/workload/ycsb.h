#ifndef VELOCE_WORKLOAD_YCSB_H_
#define VELOCE_WORKLOAD_YCSB_H_

#include <memory>
#include <string>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "sql/session.h"

namespace veloce::workload {

/// YCSB-lite: the standard core workloads A-F over a usertable with a
/// string key and four value fields, with zipfian key selection. Used as
/// varied load shapes for the estimated-CPU model evaluation (Fig 11).
class YcsbWorkload {
 public:
  enum class Mix { kA, kB, kC, kD, kE, kF };

  struct Options {
    Mix mix = Mix::kA;
    int record_count = 500;
    int field_bytes = 64;
    double zipf_theta = 0.99;
    int scan_limit = 20;
  };

  /// Snapshot view over the workload's `veloce_workload_ycsb_*` counters
  /// (see stats()).
  struct Stats {
    uint64_t reads = 0, updates = 0, inserts = 0, scans = 0, rmws = 0;
    uint64_t errors = 0;
  };

  /// `obs.metrics` receives the workload's counters (null = private
  /// registry, so stats() stays per-instance-correct either way).
  YcsbWorkload(Options options, uint64_t seed, const obs::ObsContext& obs = {});

  Status Setup(sql::Session* session);
  /// Runs one operation from the mix.
  Status RunOp(sql::Session* session);

  /// Current values of the workload counters, materialized as a snapshot.
  const Stats& stats() const;
  static std::string MixName(Mix mix);

 private:
  std::string Key(uint64_t n) const;
  uint64_t NextKeyIndex();

  Options options_;
  Random rng_;
  ZipfianGenerator zipf_;
  uint64_t inserted_;
  obs::RegistryRef metrics_;
  obs::Counter* reads_c_ = nullptr;
  obs::Counter* updates_c_ = nullptr;
  obs::Counter* inserts_c_ = nullptr;
  obs::Counter* scans_c_ = nullptr;
  obs::Counter* rmws_c_ = nullptr;
  obs::Counter* errors_c_ = nullptr;
  mutable Stats stats_snapshot_;
};

/// Bulk import: loads `rows` rows of ~`row_bytes` each into a fresh table
/// using multi-row inserts (the "data imports" workload of Fig 11).
Status RunImport(sql::Session* session, const std::string& table, int rows,
                 int row_bytes, uint64_t seed);

}  // namespace veloce::workload

#endif  // VELOCE_WORKLOAD_YCSB_H_
