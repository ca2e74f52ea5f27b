// Write-path microbenchmark for the concurrent LSM write path: group
// commit + immutable memtables + background flush/compaction.
//
// Runs the same workload (T writer threads, each committing fixed-size
// batches with WAL sync enabled) in two executor configurations:
//   group_commit    — no injected executor: flushes and compactions run on
//                     the engine's private inline executor, drained by the
//                     writers themselves after they commit
//   group_commit_bg — a 2-worker thread pool drains flushes and
//                     compactions off the commit path
// across {1, 2, 8} writer threads. Writers queue; the front writer leads,
// merges the group, and pays one WAL sync for everyone while the engine
// mutex is released. WAL sync latency is made realistic (~30us per fsync,
// roughly an NVMe flush) via an Env wrapper, since an in-memory sync is
// otherwise free and group commit would have nothing to amortize.
//
// Emits BENCH_write_path.json (scenario::BenchReport schema) and exits
// non-zero unless both gates hold:
//   multi_writer_speedup       — group_commit_bg at 8 threads vs its own
//                                1-thread rate (wall clock, >= 2x)
//   commit_group_size_mean_8t  — mean batches per group commit for
//                                group_commit_bg at 8 threads (>= 2)

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "scenario/report.h"
#include "storage/background.h"
#include "storage/engine.h"
#include "storage/env.h"

namespace veloce::storage {
namespace {

constexpr int kBatchesPerThread = 200;
constexpr int kOpsPerBatch = 4;
constexpr size_t kValueLen = 100;
constexpr auto kSyncLatency = std::chrono::microseconds(30);

/// WritableFile wrapper that charges a fixed latency per Sync, emulating a
/// device flush on top of the in-memory Env.
class SlowSyncFile : public WritableFile {
 public:
  explicit SlowSyncFile(std::unique_ptr<WritableFile> inner)
      : inner_(std::move(inner)) {}
  Status Append(Slice data) override { return inner_->Append(data); }
  Status Sync() override {
    std::this_thread::sleep_for(kSyncLatency);
    return inner_->Sync();
  }
  Status Close() override { return inner_->Close(); }
  uint64_t Size() const override { return inner_->Size(); }

 private:
  std::unique_ptr<WritableFile> inner_;
};

class SlowSyncEnv : public Env {
 public:
  SlowSyncEnv() : inner_(NewMemEnv()) {}
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* file) override {
    std::unique_ptr<WritableFile> raw;
    VELOCE_RETURN_IF_ERROR(inner_->NewWritableFile(fname, &raw));
    *file = std::make_unique<SlowSyncFile>(std::move(raw));
    return Status::OK();
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* file) override {
    return inner_->NewRandomAccessFile(fname, file);
  }
  Status DeleteFile(const std::string& fname) override {
    return inner_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return inner_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* out) override {
    return inner_->GetChildren(dir, out);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    return inner_->CreateDirIfMissing(dir);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return inner_->RenameFile(src, target);
  }

 private:
  std::unique_ptr<Env> inner_;
};

std::string Key(int thread, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%02d-key%06d", thread, i);
  return buf;
}

struct ModeResult {
  std::string mode;
  int threads = 0;
  double ops_per_sec = 0;
  uint64_t flushes = 0;
  uint64_t stalls = 0;
  double mean_group_size = 0;
};

ModeResult RunMode(const std::string& mode, int threads) {
  SlowSyncEnv env;
  std::unique_ptr<ThreadPoolExecutor> pool;
  EngineOptions options;
  options.env = &env;
  options.sync_wal = true;
  options.memtable_bytes = 256 << 10;
  if (mode == "group_commit_bg") {
    pool = std::make_unique<ThreadPoolExecutor>(2);
    options.background_executor = pool.get();
  }
  auto engine = *Engine::Open(options);

  const std::string value(kValueLen, 'v');
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        WriteBatch batch;
        for (int op = 0; op < kOpsPerBatch; ++op) {
          batch.Put(Key(t, b * kOpsPerBatch + op), value);
        }
        VELOCE_CHECK_OK(engine->Write(batch));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();

  const uint64_t total_ops =
      uint64_t{static_cast<uint64_t>(threads)} * kBatchesPerThread * kOpsPerBatch;
  VELOCE_CHECK(engine->LastSequence() == total_ops)
      << mode << "/" << threads << ": seq " << engine->LastSequence();
  // Spot-check durability-visible state before teardown.
  std::string got;
  VELOCE_CHECK_OK(engine->Get(Slice(Key(threads - 1, 0)), &got));

  ModeResult r;
  r.mode = mode;
  r.threads = threads;
  r.ops_per_sec = total_ops / (secs > 0 ? secs : 1e-9);
  r.flushes = engine->stats().num_flushes;
  r.stalls = engine->stats().write_stalls;
  r.mean_group_size =
      engine->metrics()->histogram("veloce_storage_commit_group_size")->Snapshot().Mean();
  return r;
}

}  // namespace
}  // namespace veloce::storage

int main() {
  using veloce::storage::ModeResult;
  using veloce::storage::RunMode;

  std::vector<ModeResult> results;
  double bg_1t = 0;
  double bg_8t = 0;
  double group_size_8t = 0;
  for (const char* mode : {"group_commit", "group_commit_bg"}) {
    for (const int threads : {1, 2, 8}) {
      ModeResult r = RunMode(mode, threads);
      std::printf("  %-16s threads=%d : %10.0f ops/sec  (flushes=%llu stalls=%llu"
                  " mean_group=%.2f)\n",
                  r.mode.c_str(), r.threads, r.ops_per_sec,
                  static_cast<unsigned long long>(r.flushes),
                  static_cast<unsigned long long>(r.stalls), r.mean_group_size);
      if (r.mode == "group_commit_bg" && r.threads == 1) bg_1t = r.ops_per_sec;
      if (r.mode == "group_commit_bg" && r.threads == 8) {
        bg_8t = r.ops_per_sec;
        group_size_8t = r.mean_group_size;
      }
      results.push_back(std::move(r));
    }
  }

  const double speedup = bg_1t > 0 ? bg_8t / bg_1t : 0;
  std::printf("\nmulti-writer speedup (group_commit_bg, 8 threads vs 1): %.2fx\n",
              speedup);
  std::printf("mean commit group size (group_commit_bg, 8 threads): %.2f\n",
              group_size_8t);

  veloce::scenario::BenchReport report("write_path");
  report.AddParam("batches_per_thread", veloce::storage::kBatchesPerThread);
  report.AddParam("ops_per_batch", veloce::storage::kOpsPerBatch);
  report.AddParam("sync_latency_us",
                  static_cast<int64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          veloce::storage::kSyncLatency)
                          .count()));
  report.AddMetric("multi_writer_speedup", speedup);
  report.AddMetric("commit_group_size_mean_8t", group_size_8t);
  for (const auto& r : results) {
    const std::string cfg = r.mode + "_" + std::to_string(r.threads) + "t";
    report.AddMetric("ops_per_sec__" + cfg, r.ops_per_sec);
    report.AddMetric("flushes__" + cfg, r.flushes);
    report.AddMetric("stalls__" + cfg, r.stalls);
  }
  report.Gate("multi_writer_speedup", speedup, 2.0);
  report.Gate("commit_group_size_mean_8t", group_size_8t, 2.0);

  auto path = report.WriteFile(".");
  VELOCE_CHECK(path.ok());
  std::printf("wrote %s\n", path->c_str());
  std::printf("%s\n", report.Summary().c_str());
  if (!report.passed()) {
    std::printf("WARNING: a write-path gate failed (8t/1t >= 2x, mean group >= 2)\n");
    return 1;
  }
  return 0;
}
