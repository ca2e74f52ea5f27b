// Out-of-program tracing for the benchmark's traced run. Spans are taken
// only around calls into the repository's public functions and seams: the
// root span is the benchmark's call that executes one SQL statement, and
// its children come from the storage::Env and kv::ReplicaTransport
// wrappers installed through EngineOptions::env and
// KVClusterOptions::transport. Spans stay in per-thread memory and are
// written out once, when the run ends.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kv/replica_transport.h"
#include "storage/env.h"

namespace perfbench {

int64_t NowNanos();

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;    ///< index of the parent span in the same thread, -1 = none
  uint64_t request = 0;   ///< statement id; 0 = work outside any statement
};

/// Process-wide span store. Disabled (the default) it records nothing and
/// each hook costs one relaxed atomic load.
class Tracer {
 public:
  static Tracer& Get();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens the root span of one statement on the calling thread.
  void BeginStatement(const char* name);
  void EndStatement();

  /// Records a span on the calling thread, as a child of the open
  /// statement if there is one.
  void Record(const char* name, int64_t start_ns, int64_t end_ns);

  /// Per-layer sums over every recorded statement.
  struct Totals {
    uint64_t statements = 0;
    int64_t root_ns = 0;
    int64_t storage_child_ns = 0;    ///< "storage.*" children of statements
    int64_t transport_child_ns = 0;  ///< "kv.*" children of statements
    uint64_t child_spans = 0;
    int64_t background_storage_ns = 0;  ///< storage spans outside statements
  };
  /// Call only once no thread can still record (tracing off and
  /// background work drained).
  Totals Summarize() const;

  /// Writes every span as one JSON object per line; returns false on error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct ThreadSpans {
    std::vector<Span> spans;
    int64_t open_root = -1;
    int thread_index = 0;
  };
  ThreadSpans* Local();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// Times one call into a layer as a span (no-op while tracing is off).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), start_(Tracer::Get().enabled() ? NowNanos() : -1) {}
  ~ScopedSpan() {
    if (start_ >= 0) Tracer::Get().Record(name_, start_, NowNanos());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t start_;
};

/// storage::Env wrapper: spans around file appends, syncs and reads.
class TracedEnv final : public veloce::storage::Env {
 public:
  explicit TracedEnv(std::unique_ptr<veloce::storage::Env> base)
      : base_(std::move(base)) {}

  veloce::Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<veloce::storage::WritableFile>* file) override;
  veloce::Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<veloce::storage::RandomAccessFile>* file) override;
  veloce::Status DeleteFile(const std::string& fname) override {
    return base_->DeleteFile(fname);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  veloce::Status GetChildren(const std::string& dir,
                             std::vector<std::string>* out) override {
    return base_->GetChildren(dir, out);
  }
  veloce::Status CreateDirIfMissing(const std::string& dir) override {
    return base_->CreateDirIfMissing(dir);
  }
  veloce::Status RenameFile(const std::string& src,
                            const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  std::unique_ptr<veloce::storage::Env> base_;
};

/// kv::ReplicaTransport wrapper: counts leaseholder→replica deliveries and
/// spans each delivery decision; behaves as the in-process passthrough.
class CountingTransport final : public veloce::kv::ReplicaTransport {
 public:
  veloce::kv::LinkDecision DeliverReplication(uint32_t from, uint32_t to,
                                              uint64_t log_index) override;
  bool DeliverHeartbeat(uint32_t from, uint32_t to) override {
    return base_.DeliverHeartbeat(from, to);
  }
  uint64_t deliveries() const { return deliveries_.load(std::memory_order_relaxed); }

 private:
  veloce::kv::PassthroughTransport base_;
  std::atomic<uint64_t> deliveries_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
