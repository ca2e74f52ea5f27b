#include "storage/engine.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/codec.h"
#include "common/logging.h"
#include "storage/background.h"

namespace veloce::storage {

namespace {

// Applies a WriteBatch to a memtable, assigning consecutive sequence numbers
// starting at base_seq.
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(MemTable* mem, SequenceNumber base_seq)
      : mem_(mem), seq_(base_seq) {}

  void Put(Slice key, Slice value) override {
    mem_->Add(seq_++, ValueType::kValue, key, value);
  }
  void Delete(Slice key) override {
    mem_->Add(seq_++, ValueType::kDeletion, key, Slice());
  }

  SequenceNumber next_seq() const { return seq_; }

 private:
  MemTable* mem_;
  SequenceNumber seq_;
};

}  // namespace

std::string Engine::TableFileName(uint64_t number) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06" PRIu64 ".sst", number);
  return options_.dir + buf;
}

std::string Engine::WalFileName(uint64_t number) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/wal-%06" PRIu64 ".log", number);
  return options_.dir + buf;
}

std::string Engine::ManifestFileName() const { return options_.dir + "/MANIFEST"; }

Engine::Engine(EngineOptions options)
    : options_(std::move(options)),
      versions_(options_.l0_compaction_trigger, options_.level_base_bytes),
      metrics_(options_.obs.metrics) {}

StatusOr<std::unique_ptr<Engine>> Engine::Open(EngineOptions options) {
  auto engine = std::unique_ptr<Engine>(new Engine(options));
  if (options.env == nullptr) {
    engine->owned_env_ = NewMemEnv();
    engine->env_ = engine->owned_env_.get();
  } else {
    engine->env_ = options.env;
  }
  VELOCE_RETURN_IF_ERROR(engine->env_->CreateDirIfMissing(options.dir));
  if (options.block_cache_bytes > 0) {
    engine->block_cache_ = std::make_unique<BlockCache>(options.block_cache_bytes);
  }
  engine->options_.l0_stall_files =
      std::max(options.l0_stall_files, options.l0_compaction_trigger);
  engine->executor_ = options.background_executor;
  if (options.background_executor == nullptr) {
    engine->inline_executor_ = std::make_unique<InlineExecutor>();
    engine->executor_ = engine->inline_executor_.get();
  }
  engine->bg_token_ = std::make_shared<BgToken>();
  engine->mem_ = std::make_shared<MemTable>();
  engine->InitMetrics();
  VELOCE_RETURN_IF_ERROR(engine->Recover());
  return engine;
}

void Engine::InitMetrics() {
  obs::Labels labels;
  if (!options_.metrics_instance.empty()) {
    labels.emplace_back("node", options_.metrics_instance);
  }
  ingest_bytes_c_ = metrics_->counter("veloce_storage_ingest_bytes", labels);
  wal_bytes_c_ = metrics_->counter("veloce_storage_wal_bytes", labels);
  flush_bytes_c_ = metrics_->counter("veloce_storage_flush_bytes", labels);
  compact_read_bytes_c_ = metrics_->counter("veloce_storage_compact_read_bytes", labels);
  compact_write_bytes_c_ =
      metrics_->counter("veloce_storage_compact_write_bytes", labels);
  flushes_c_ = metrics_->counter("veloce_storage_flushes_total", labels);
  compactions_c_ = metrics_->counter("veloce_storage_compactions_total", labels);
  // Point-read fast path: bloom and pruning effectiveness.
  bloom_checked_c_ = metrics_->counter("veloce_storage_bloom_checked_total", labels);
  bloom_useful_c_ = metrics_->counter("veloce_storage_bloom_useful_total", labels);
  bloom_false_positive_c_ =
      metrics_->counter("veloce_storage_bloom_false_positive_total", labels);
  tables_pruned_c_ =
      metrics_->counter("veloce_storage_read_tables_pruned_total", labels);
  // Write path: backpressure and group commit effectiveness. Stall seconds
  // is a Gauge fed with cumulative Add() because stalls are fractional.
  write_stalls_c_ = metrics_->counter("veloce_storage_write_stalls_total", labels);
  stall_seconds_g_ =
      metrics_->gauge("veloce_storage_write_stall_seconds_total", labels);
  commit_group_size_h_ =
      metrics_->histogram("veloce_storage_commit_group_size", labels);
  // Fault tolerance: degraded-mode state machine + background retry churn.
  degraded_g_ = metrics_->gauge("veloce_storage_degraded_mode", labels);
  degraded_entries_c_ =
      metrics_->counter("veloce_storage_degraded_entries_total", labels);
  degraded_exits_c_ =
      metrics_->counter("veloce_storage_degraded_exits_total", labels);
  bg_retries_c_ = metrics_->counter("veloce_storage_bg_retries_total", labels);
  bg_retry_backoff_h_ =
      metrics_->histogram("veloce_storage_bg_retry_backoff_ns", labels);
  wal_truncated_c_ =
      metrics_->counter("veloce_storage_wal_truncated_records_total", labels);
  // Pull-style gauges: L0/flush backlog and block-cache hit ratio inputs.
  obs::Gauge* l0 = metrics_->gauge("veloce_storage_l0_files", labels);
  obs::Gauge* bg_depth = metrics_->gauge("veloce_storage_bg_queue_depth", labels);
  obs::Gauge* imm = metrics_->gauge("veloce_storage_imm_memtables", labels);
  obs::Gauge* hits = metrics_->gauge("veloce_storage_block_cache_hits", labels);
  obs::Gauge* misses = metrics_->gauge("veloce_storage_block_cache_misses", labels);
  obs::Gauge* ratio = metrics_->gauge("veloce_storage_block_cache_hit_ratio", labels);
  // Per-shard series expose lock-contention hot spots in the sharded cache.
  std::vector<std::pair<obs::Gauge*, obs::Gauge*>> shard_gauges;
  if (block_cache_ != nullptr) {
    for (size_t i = 0; i < block_cache_->num_shards(); ++i) {
      obs::Labels shard_labels = labels;
      shard_labels.emplace_back("shard", std::to_string(i));
      shard_gauges.emplace_back(
          metrics_->gauge("veloce_storage_block_cache_shard_hits", shard_labels),
          metrics_->gauge("veloce_storage_block_cache_shard_misses", shard_labels));
    }
  }
  gauge_callback_ = metrics_->AddCollectCallback(
      [this, l0, bg_depth, imm, hits, misses, ratio,
       shard_gauges = std::move(shard_gauges)] {
        l0->Set(NumFilesAtLevel(0));
        bg_depth->Set(static_cast<double>(executor_->queue_depth()));
        imm->Set(static_cast<double>(imm_count_.load(std::memory_order_relaxed)));
        if (block_cache_ != nullptr) {
          const double h = static_cast<double>(block_cache_->hits());
          const double m = static_cast<double>(block_cache_->misses());
          hits->Set(h);
          misses->Set(m);
          ratio->Set(h + m > 0 ? h / (h + m) : 0);
          for (size_t i = 0; i < shard_gauges.size(); ++i) {
            shard_gauges[i].first->Set(
                static_cast<double>(block_cache_->shard_hits(i)));
            shard_gauges[i].second->Set(
                static_cast<double>(block_cache_->shard_misses(i)));
          }
        }
      });
}

const EngineStats& Engine::stats() const {
  stats_snapshot_.ingest_bytes = ingest_bytes_c_->value();
  stats_snapshot_.wal_bytes = wal_bytes_c_->value();
  stats_snapshot_.flush_bytes = flush_bytes_c_->value();
  stats_snapshot_.compact_read_bytes = compact_read_bytes_c_->value();
  stats_snapshot_.compact_write_bytes = compact_write_bytes_c_->value();
  stats_snapshot_.num_flushes = flushes_c_->value();
  stats_snapshot_.num_compactions = compactions_c_->value();
  stats_snapshot_.bloom_checked = bloom_checked_c_->value();
  stats_snapshot_.bloom_useful = bloom_useful_c_->value();
  stats_snapshot_.bloom_false_positive = bloom_false_positive_c_->value();
  stats_snapshot_.tables_pruned = tables_pruned_c_->value();
  stats_snapshot_.write_stalls = write_stalls_c_->value();
  stats_snapshot_.stall_seconds = stall_seconds_g_->value();
  return stats_snapshot_;
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutting_down_ = true;
  }
  // Taking the token mutex waits out an in-flight background task; queued
  // tasks that run later see !alive and no-op. Anything still buffered in
  // mem_/imm_ is covered by retained WALs and replays on reopen.
  std::lock_guard<std::mutex> tl(bg_token_->mu);
  bg_token_->alive = false;
}

Status Engine::Recover() {
  if (env_->FileExists(ManifestFileName())) {
    VELOCE_RETURN_IF_ERROR(LoadManifest());
  }
  // Replay any WALs present, in number order, into the memtable. A crash
  // can leave several: the active WAL plus one per sealed memtable that
  // was still waiting on its background flush.
  std::vector<std::string> children;
  VELOCE_RETURN_IF_ERROR(env_->GetChildren(options_.dir, &children));
  std::vector<std::string> wals;
  for (const auto& name : children) {
    if (name.rfind("wal-", 0) == 0) wals.push_back(name);
  }
  std::sort(wals.begin(), wals.end());
  for (const auto& name : wals) {
    VELOCE_RETURN_IF_ERROR(ReplayWal(options_.dir + "/" + name));
  }
  if (mem_->num_entries() > 0) {
    std::unique_lock<std::mutex> l(mu_);
    VELOCE_RETURN_IF_ERROR(FlushLocked(/*active=*/true, nullptr));
  }
  for (const auto& name : wals) {
    VELOCE_RETURN_IF_ERROR(env_->DeleteFile(options_.dir + "/" + name));
  }
  return NewWal();
}

Status Engine::ReplayWal(const std::string& fname) {
  std::string contents;
  VELOCE_RETURN_IF_ERROR(env_->ReadFileToString(fname, &contents));
  LogReader reader(std::move(contents));
  std::string record;
  bool corruption = false;
  while (reader.ReadRecord(&record, &corruption)) {
    Slice payload(record);
    uint64_t base_seq = 0;
    if (!GetFixed64(&payload, &base_seq)) {
      return Status::Corruption(
          "WAL record #" + std::to_string(reader.records_read()) +
          " (ending at offset " + std::to_string(reader.offset()) +
          ") missing sequence in " + fname);
    }
    WriteBatch batch;
    VELOCE_RETURN_IF_ERROR(batch.SetContents(payload));
    MemTableInserter inserter(mem_.get(), base_seq);
    VELOCE_RETURN_IF_ERROR(batch.Iterate(&inserter));
    if (inserter.next_seq() - 1 > last_seq_.load(std::memory_order_relaxed)) {
      last_seq_.store(inserter.next_seq() - 1, std::memory_order_relaxed);
    }
  }
  if (corruption) {
    // Damage with intact records after it cannot be a torn write — refusing
    // to continue beats silently dropping acked writes.
    return Status::Corruption(
        "corrupt WAL record #" + std::to_string(reader.records_read() + 1) +
        " at offset " + std::to_string(reader.offset()) + " in " + fname +
        " (mid-log damage, not a torn tail)");
  }
  if (reader.tail_truncated()) {
    // Torn tail: the final record never fully persisted, so it was never
    // acked as durable. Drop it and carry on.
    wal_truncated_c_->Inc();
    VLOG_WARN << "storage: dropped torn WAL tail in " << fname << " ("
              << reader.truncated_bytes() << " bytes after record #"
              << reader.records_read() << ", offset " << reader.offset() << ")";
  }
  return Status::OK();
}

Status Engine::NewWal() {
  wal_number_ = NewFileNumber();
  std::unique_ptr<WritableFile> file;
  VELOCE_RETURN_IF_ERROR(env_->NewWritableFile(WalFileName(wal_number_), &file));
  wal_ = std::make_unique<LogWriter>(std::move(file));
  return Status::OK();
}

Status Engine::WriteManifest() {
  return env_->WriteStringToFile(
      ManifestFileName(),
      Slice(versions_.EncodeManifest(next_file_number_.load(std::memory_order_relaxed),
                                     last_seq_.load(std::memory_order_relaxed))));
}

Status Engine::LoadManifest() {
  std::string contents;
  VELOCE_RETURN_IF_ERROR(env_->ReadFileToString(ManifestFileName(), &contents));
  uint64_t next_file = 0;
  SequenceNumber last_seq = 0;
  VELOCE_RETURN_IF_ERROR(versions_.LoadManifest(
      Slice(contents), &next_file, &last_seq,
      [this](FileMeta* meta) { return OpenTable(meta); }));
  next_file_number_.store(next_file, std::memory_order_relaxed);
  last_seq_.store(last_seq, std::memory_order_relaxed);
  return Status::OK();
}

Status Engine::Put(Slice key, Slice value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status Engine::Delete(Slice key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status Engine::Write(const WriteBatch& batch) {
  if (batch.Count() == 0) return Status::OK();
  // Validate the batch before it touches any engine state, so a malformed
  // batch leaves no WAL record, no memtable entries, and the sequence
  // counter unmoved (writes are all-or-nothing).
  {
    struct Validator : WriteBatch::Handler {
      void Put(Slice, Slice) override {}
      void Delete(Slice) override {}
    } validator;
    VELOCE_RETURN_IF_ERROR(batch.Iterate(&validator));
  }
  Status s;
  {
    std::unique_lock<std::mutex> l(mu_);
    Writer w(&batch);
    writers_.push_back(&w);
    while (!w.done && &w != writers_.front()) {
      w.cv.wait(l);
    }
    // Done already means a leader committed us as a follower.
    s = w.done ? w.status : WriteGroupCommit(l, &w);
  }
  DrainInlineExecutor();
  return s;
}

void Engine::DrainInlineExecutor() {
  if (inline_executor_) inline_executor_->RunQueued();
}

bool Engine::IsTransientError(const Status& s) {
  // I/O flakes and unreachable storage are worth retrying; corruption and
  // logic errors are not — retrying cannot repair damaged bytes.
  return s.code() == Code::kIOError || s.code() == Code::kUnavailable;
}

bool Engine::degraded() const {
  std::lock_guard<std::mutex> l(mu_);
  return !bg_error_.ok();
}

Status Engine::background_error() const {
  std::lock_guard<std::mutex> l(mu_);
  return bg_error_;
}

Status Engine::DegradedStatusLocked() const {
  if (bg_error_.ok()) return Status::OK();
  return Status::Unavailable("engine degraded (read-only): " +
                             bg_error_.ToString());
}

void Engine::EnterDegradedLocked(const Status& s) {
  if (!bg_error_.ok()) return;  // already degraded; keep the first cause
  bg_error_ = s;
  degraded_entries_c_->Inc();
  degraded_g_->Set(1);
  VLOG_WARN << "storage: entering read-only degraded mode: " << s.ToString();
}

Status Engine::HandleForegroundFailureLocked(Status s) {
  if (!s.ok() && !IsTransientError(s)) EnterDegradedLocked(s);
  return s;
}

Status Engine::Resume() {
  std::unique_lock<std::mutex> l(mu_);
  if (bg_error_.ok()) return Status::OK();
  // Degraded mode schedules no new work, but an in-flight task may still be
  // winding down; quiesce, then retry the work that failed ourselves. If
  // the fault has not cleared, stay degraded (with the fresh cause) so
  // reads keep working and Resume() can be tried again later.
  Status s = QuiesceAndFlushLocked(l, /*active=*/false);
  if (s.ok()) s = CompactOneStep(nullptr);
  if (!s.ok()) {
    bg_error_ = s;
    return DegradedStatusLocked();
  }
  bg_error_ = Status::OK();
  bg_retry_attempts_ = 0;
  degraded_exits_c_->Inc();
  degraded_g_->Set(0);
  VLOG_INFO << "storage: resumed from degraded mode";
  MaybeScheduleBackgroundLocked();
  return Status::OK();
}

Status Engine::WriteGroupCommit(std::unique_lock<std::mutex>& l, Writer* w) {
  Status s = DegradedStatusLocked();
  if (s.ok()) s = MakeRoomForWriteLocked(l);  // we stay the front writer

  // Merge queued followers into one group: one WAL record, one optional
  // sync, one memtable-insert pass for the whole group. Capped so a huge
  // group cannot hold its tail writers up for too long.
  Writer* last_writer = w;
  const WriteBatch* gbatch = w->batch;
  size_t group_size = 1;
  if (s.ok()) {
    constexpr size_t kMaxGroupBytes = 1 << 20;
    size_t bytes = gbatch->ByteSize();
    auto it = writers_.begin();
    ++it;  // skip self
    for (; it != writers_.end(); ++it) {
      Writer* follower = *it;
      if (bytes + follower->batch->ByteSize() > kMaxGroupBytes) break;
      if (gbatch == w->batch) {
        tmp_batch_.Clear();
        tmp_batch_.Append(*w->batch);
        gbatch = &tmp_batch_;
      }
      tmp_batch_.Append(*follower->batch);
      bytes += follower->batch->ByteSize();
      last_writer = follower;
      ++group_size;
    }
  }

  if (s.ok()) {
    const SequenceNumber base_seq = last_seq_.load(std::memory_order_relaxed) + 1;
    std::shared_ptr<MemTable> mem = mem_;
    LogWriter* wal = wal_.get();
    // Commit I/O runs with the engine unlocked: we remain the front writer,
    // so no one else appends to the WAL or rotates the memtable, while
    // reads and background flush/compaction proceed concurrently.
    l.unlock();
    std::string record;
    PutFixed64(&record, base_seq);
    record.append(gbatch->rep());
    s = wal->AddRecord(Slice(record));
    if (s.ok() && options_.sync_wal) s = wal->Sync();
    if (s.ok()) {
      wal_bytes_c_->Inc(record.size() + 8);  // payload + frame header
      ingest_bytes_c_->Inc(gbatch->PayloadBytes());
      MemTableInserter inserter(mem.get(), base_seq);
      s = gbatch->Iterate(&inserter);  // every batch was pre-validated
      if (s.ok()) {
        // Publish. Entries inserted above were invisible until this store:
        // readers snapshot last_seq_ and filter newer sequence numbers.
        last_seq_.store(base_seq + gbatch->Count() - 1, std::memory_order_release);
      }
    }
    l.lock();
  }
  commit_group_size_h_->Record(static_cast<int64_t>(group_size));

  // Pop the whole group, waking followers with the shared status.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != w) {
      ready->status = s;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();  // promote the next leader
  } else {
    writers_empty_cv_.notify_all();
  }
  return s;
}

Status Engine::MakeRoomForWriteLocked(std::unique_lock<std::mutex>& l) {
  Clock* clock = options_.obs.clock_or_real();
  bool stalled = false;
  Nanos stall_start = 0;
  Status s;
  while (s.ok()) {
    if (!bg_error_.ok()) {
      s = DegradedStatusLocked();
      break;
    }
    if (mem_->ApproximateMemoryUsage() < options_.memtable_bytes) break;
    const bool imm_full =
        static_cast<int>(imm_.size()) >= options_.max_immutable_memtables;
    const bool l0_full =
        static_cast<int>(versions_.files(0).size()) >= options_.l0_stall_files;
    if (!imm_full && !l0_full) {
      s = RotateMemtableLocked();
      if (s.ok()) MaybeScheduleBackgroundLocked();
      break;
    }
    // Backpressure: too many sealed memtables or L0 files — delay this
    // writer until background work catches up. The delay is surfaced via
    // write_stalls/stall_seconds, which admission control reads as "the
    // engine is past its sustainable write capacity".
    if (!stalled) {
      stalled = true;
      write_stalls_c_->Inc();
      stall_start = clock->Now();
    }
    if (!AwaitBackgroundLocked(l)) {
      // Nothing runnable here (e.g. a deferring test executor): do one
      // unit inline rather than spin forever.
      s = HandleForegroundFailureLocked(BackgroundUnitLocked(nullptr));
    }
  }
  if (stalled) {
    stall_seconds_g_->Add(static_cast<double>(clock->Now() - stall_start) /
                          static_cast<double>(kSecond));
  }
  return s;
}

Status Engine::RotateMemtableLocked() {
  // The sealed memtable keeps its WAL: recovery replays WALs in number
  // order, so a crash before the flush still restores it. Sync it first:
  // a crash that tore its unsynced tail while a newer WAL kept records
  // would recover later writes without earlier ones.
  VELOCE_RETURN_IF_ERROR(wal_->Sync());
  imm_.push_back(ImmMem{mem_, wal_number_});
  imm_count_.store(imm_.size(), std::memory_order_relaxed);
  mem_ = std::make_shared<MemTable>();
  return NewWal();
}

void Engine::MaybeScheduleBackgroundLocked() {
  if (shutting_down_ || bg_scheduled_ || !bg_error_.ok()) return;
  if (imm_.empty() && versions_.CompactionLevel() < 0) return;
  bg_scheduled_ = true;
  executor_->Schedule(BackgroundTask());
}

std::function<void()> Engine::BackgroundTask() {
  return [self = this, token = bg_token_] {
    // Holding the token mutex while working makes ~Engine block until an
    // in-flight task finishes; tasks arriving after shutdown no-op.
    std::lock_guard<std::mutex> tl(token->mu);
    if (!token->alive) return;
    self->BackgroundWork();
  };
}

void Engine::BackgroundWork() {
  std::unique_lock<std::mutex> l(mu_);
  Status s;
  if (!shutting_down_) {
    s = BackgroundUnitLocked(executor_->single_threaded() ? nullptr : &l);
  }
  if (!s.ok() && !shutting_down_ && bg_error_.ok()) {
    if (IsTransientError(s) && bg_retry_attempts_ < options_.max_bg_retries) {
      // Transient failure (I/O flake): retry the same unit of work after
      // capped exponential backoff. bg_scheduled_ stays true so nothing
      // double-schedules while the retry is pending.
      ++bg_retry_attempts_;
      bg_retries_c_->Inc();
      Nanos backoff = options_.bg_retry_base_backoff;
      for (int i = 1;
           i < bg_retry_attempts_ && backoff < options_.bg_retry_max_backoff;
           ++i) {
        backoff *= 2;
      }
      if (backoff > options_.bg_retry_max_backoff) {
        backoff = options_.bg_retry_max_backoff;
      }
      bg_retry_backoff_h_->Record(backoff);
      VLOG_WARN << "storage: background work failed transiently (attempt "
                << bg_retry_attempts_ << "/" << options_.max_bg_retries
                << ", retrying in " << backoff << "ns): " << s.ToString();
      executor_->ScheduleAfter(static_cast<uint64_t>(backoff), BackgroundTask());
      bg_cv_.notify_all();
      return;
    }
    // Hard error, or the transient-retry budget is spent: latch it and go
    // read-only. Resume() is the only way out.
    EnterDegradedLocked(s);
  } else if (s.ok()) {
    bg_retry_attempts_ = 0;
  }
  bg_scheduled_ = false;
  MaybeScheduleBackgroundLocked();  // more work? chain the next unit
  bg_cv_.notify_all();
}

Status Engine::BackgroundUnitLocked(std::unique_lock<std::mutex>* l) {
  if (!imm_.empty()) return FlushLocked(/*active=*/false, l);
  return CompactOneStep(l);
}

bool Engine::AwaitBackgroundLocked(std::unique_lock<std::mutex>& l) {
  if (!executor_->single_threaded()) {
    bg_cv_.wait(l);
    return true;
  }
  l.unlock();
  const size_t ran = executor_->RunQueued();
  l.lock();
  return ran > 0;
}

Status Engine::QuiesceAndFlushLocked(std::unique_lock<std::mutex>& l, bool active) {
  // No queued writers (mem_ stable) and no in-flight background task (no
  // concurrent flush of the same sealed memtable). Both waits drop the
  // lock, so loop until both hold at once.
  while (!writers_.empty() || bg_scheduled_) {
    if (!writers_.empty()) {
      writers_empty_cv_.wait(l);
    } else if (!AwaitBackgroundLocked(l)) {
      // The queued task is deferred beyond our reach (test executors); it
      // re-checks engine state whenever it does run, so treating the
      // engine as idle here is safe.
      bg_scheduled_ = false;
    }
  }
  while (!imm_.empty()) {
    VELOCE_RETURN_IF_ERROR(
        HandleForegroundFailureLocked(FlushLocked(/*active=*/false, nullptr)));
  }
  if (!active || mem_->num_entries() == 0) return Status::OK();
  return HandleForegroundFailureLocked(FlushLocked(/*active=*/true, nullptr));
}

Status Engine::Flush() {
  std::unique_lock<std::mutex> l(mu_);
  VELOCE_RETURN_IF_ERROR(DegradedStatusLocked());
  VELOCE_RETURN_IF_ERROR(QuiesceAndFlushLocked(l, /*active=*/true));
  MaybeScheduleBackgroundLocked();  // L0 may now be over its trigger
  l.unlock();
  DrainInlineExecutor();
  return Status::OK();
}

Status Engine::CompactAll() {
  std::unique_lock<std::mutex> l(mu_);
  VELOCE_RETURN_IF_ERROR(DegradedStatusLocked());
  VELOCE_RETURN_IF_ERROR(QuiesceAndFlushLocked(l, /*active=*/true));
  // All of L0 regardless of its trigger, then each level over its target.
  int level = versions_.files(0).empty() ? versions_.OverfullLevel() : 0;
  for (; level >= 0; level = versions_.OverfullLevel()) {
    VELOCE_RETURN_IF_ERROR(HandleForegroundFailureLocked(
        DoCompaction(versions_.PickCompaction(level), nullptr)));
  }
  return Status::OK();
}

}  // namespace veloce::storage
