#include "tracing.h"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

using veloce::Slice;
using veloce::Status;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadSpans* Tracer::Local() {
  thread_local ThreadSpans* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> l(mu_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    local = threads_.back().get();
    local->thread_index = static_cast<int>(threads_.size()) - 1;
  }
  return local;
}

void Tracer::BeginStatement(const char* name) {
  if (!enabled()) return;
  ThreadSpans* t = Local();
  Span root;
  root.name = name;
  root.start_ns = NowNanos();
  root.request = next_request_.fetch_add(1, std::memory_order_relaxed);
  t->open_root = static_cast<int64_t>(t->spans.size());
  t->spans.push_back(root);
}

void Tracer::EndStatement() {
  if (!enabled()) return;
  ThreadSpans* t = Local();
  if (t->open_root < 0) return;
  t->spans[static_cast<size_t>(t->open_root)].end_ns = NowNanos();
  t->open_root = -1;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns) {
  ThreadSpans* t = Local();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  if (t->open_root >= 0) {
    s.parent = t->open_root;
    s.request = t->spans[static_cast<size_t>(t->open_root)].request;
  }
  t->spans.push_back(s);
}

Tracer::Totals Tracer::Summarize() const {
  Totals totals;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& t : threads_) {
    for (const Span& s : t->spans) {
      const int64_t d = s.end_ns - s.start_ns;
      const bool storage = std::strncmp(s.name, "storage.", 8) == 0;
      if (s.request == 0) {
        if (storage) totals.background_storage_ns += d;
      } else if (s.parent < 0) {
        ++totals.statements;
        totals.root_ns += d;
      } else {
        ++totals.child_spans;
        (storage ? totals.storage_child_ns : totals.transport_child_ns) += d;
      }
    }
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      // Span ids are "<thread>.<index>" so parents resolve across threads.
      std::fprintf(f,
                   "{\"id\":\"%d.%zu\",\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%s%d.%lld%s,\"request\":%llu}\n",
                   t->thread_index, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent < 0 ? "null" : "\"",
                   s.parent < 0 ? 0 : t->thread_index,
                   static_cast<long long>(s.parent < 0 ? 0 : s.parent),
                   s.parent < 0 ? "" : "\"",
                   static_cast<unsigned long long>(s.request));
    }
  }
  return std::fclose(f) == 0;
}

namespace {

class TracedWritableFile final : public veloce::storage::WritableFile {
 public:
  explicit TracedWritableFile(std::unique_ptr<veloce::storage::WritableFile> base)
      : base_(std::move(base)) {}
  Status Append(Slice data) override {
    ScopedSpan span("storage.append");
    return base_->Append(data);
  }
  Status Sync() override {
    ScopedSpan span("storage.sync");
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<veloce::storage::WritableFile> base_;
};

class TracedRandomAccessFile final : public veloce::storage::RandomAccessFile {
 public:
  explicit TracedRandomAccessFile(
      std::unique_ptr<veloce::storage::RandomAccessFile> base)
      : base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    ScopedSpan span("storage.read");
    return base_->Read(offset, n, out);
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<veloce::storage::RandomAccessFile> base_;
};

}  // namespace

Status TracedEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<veloce::storage::WritableFile>* file) {
  std::unique_ptr<veloce::storage::WritableFile> base;
  Status s = base_->NewWritableFile(fname, &base);
  if (s.ok()) *file = std::make_unique<TracedWritableFile>(std::move(base));
  return s;
}

Status TracedEnv::NewRandomAccessFile(
    const std::string& fname,
    std::unique_ptr<veloce::storage::RandomAccessFile>* file) {
  std::unique_ptr<veloce::storage::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(fname, &base);
  if (s.ok()) *file = std::make_unique<TracedRandomAccessFile>(std::move(base));
  return s;
}

veloce::kv::LinkDecision CountingTransport::DeliverReplication(uint32_t from,
                                                               uint32_t to,
                                                               uint64_t log_index) {
  ScopedSpan span("kv.replicate");
  deliveries_.fetch_add(1, std::memory_order_relaxed);
  return base_.DeliverReplication(from, to, log_index);
}

}  // namespace perfbench
