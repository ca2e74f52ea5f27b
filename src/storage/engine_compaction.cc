// Engine flush and compaction: writing a memtable, or the merge of a
// compaction's inputs, to new tables and installing them in the level set.
// A build that fails installs nothing and deletes what it wrote.

#include "storage/engine.h"

namespace veloce::storage {

Status Engine::FlushLocked(bool active, std::unique_lock<std::mutex>* l) {
  const std::shared_ptr<MemTable> mem = active ? mem_ : imm_.front().mem;
  auto meta = std::make_shared<FileMeta>();
  meta->number = NewFileNumber();
  // An unlocked build is safe: the sealed memtable is frozen and pinned by
  // `mem`, and flushes are serialized (one background task at a time;
  // foreground drains quiesce first), so imm_.front() is stable.
  if (l != nullptr) l->unlock();
  Status s = [&] {
    std::unique_ptr<TableBuilder> builder;
    VELOCE_RETURN_IF_ERROR(StartTable(meta->number, &builder));
    auto it = mem->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      VELOCE_RETURN_IF_ERROR(builder->Add(it->key(), it->value()));
    }
    return FinishTable(builder.get(), meta.get());
  }();
  if (s.ok()) s = OpenTable(meta.get());
  if (l != nullptr) l->lock();
  if (!s.ok()) {
    DeleteTables({meta});
    return s;
  }
  versions_.AddFlushed(meta);
  flush_bytes_c_->Inc(meta->file_size);
  flushes_c_->Inc();
  uint64_t flushed_wal = 0;
  if (active) {
    flushed_wal = wal_number_;
    mem_ = std::make_shared<MemTable>();
    VELOCE_RETURN_IF_ERROR(NewWal());
  } else {
    flushed_wal = imm_.front().wal_number;
    imm_.pop_front();
    imm_count_.store(imm_.size(), std::memory_order_relaxed);
  }
  VELOCE_RETURN_IF_ERROR(WriteManifest());
  // The memtable is durable in L0; retire the WAL that covered it.
  (void)env_->DeleteFile(WalFileName(flushed_wal));
  return Status::OK();
}

Status Engine::StartTable(uint64_t number, std::unique_ptr<TableBuilder>* builder) {
  std::unique_ptr<WritableFile> file;
  VELOCE_RETURN_IF_ERROR(env_->NewWritableFile(TableFileName(number), &file));
  *builder = std::make_unique<TableBuilder>(
      std::move(file), TableOptions{.block_size = options_.block_bytes,
                                    .bloom_bits_per_key = options_.bloom_bits_per_key,
                                    .prefix_extractor = options_.prefix_extractor});
  return Status::OK();
}

Status Engine::FinishTable(TableBuilder* builder, FileMeta* meta) {
  VELOCE_RETURN_IF_ERROR(builder->Finish());
  meta->file_size = builder->file_size();
  meta->smallest = builder->smallest();
  meta->largest = builder->largest();
  return Status::OK();
}

Status Engine::OpenTable(FileMeta* meta) {
  std::unique_ptr<RandomAccessFile> file;
  VELOCE_RETURN_IF_ERROR(env_->NewRandomAccessFile(TableFileName(meta->number), &file));
  VELOCE_ASSIGN_OR_RETURN(meta->table,
                          Table::Open(std::move(file), block_cache_.get(), meta->number));
  return Status::OK();
}

void Engine::DeleteTables(const FileList& files) {
  for (const auto& f : files) {
    (void)env_->DeleteFile(TableFileName(f->number));
    if (block_cache_ != nullptr) block_cache_->EvictFile(f->number);
  }
}

Status Engine::CompactOneStep(std::unique_lock<std::mutex>* l) {
  const int level = versions_.CompactionLevel();
  if (level < 0) return Status::OK();
  return DoCompaction(versions_.PickCompaction(level), l);
}

SequenceNumber Engine::OldestPinnedSeqLocked() const {
  return pinned_seqs_.empty() ? kMaxSequenceNumber : *pinned_seqs_.begin();
}

Status Engine::DoCompaction(const Compaction& c, std::unique_lock<std::mutex>* l) {
  compactions_c_->Inc();
  const SequenceNumber oldest_pinned = OldestPinnedSeqLocked();
  const bool bottom = c.level + 1 == VersionSet::kNumLevels - 1;

  std::vector<std::unique_ptr<InternalIterator>> children;
  for (const FileList& inputs : c.inputs) {
    for (const auto& f : inputs) {
      children.push_back(f->table->NewIterator());
      compact_read_bytes_c_->Inc(f->file_size);
    }
  }
  auto merged = NewMergingIterator(std::move(children));

  // Merge/build phase. With `l` supplied it runs unlocked: the inputs are
  // pinned by shared_ptr, compactions are serialized with other background
  // work, and oldest_pinned captured above stays conservative — iterators
  // pinned after the unlock only see snapshots at least as new.
  if (l != nullptr) l->unlock();
  FileList outputs;
  const Status s = [&]() -> Status {
    std::unique_ptr<TableBuilder> builder;
    auto finish_output = [&]() -> Status {
      FileMeta* meta = outputs.back().get();
      VELOCE_RETURN_IF_ERROR(FinishTable(builder.get(), meta));
      compact_write_bytes_c_->Inc(meta->file_size);
      VELOCE_RETURN_IF_ERROR(OpenTable(meta));
      builder.reset();
      return Status::OK();
    };

    std::string prev_user_key;
    bool has_prev = false;
    bool prev_dropped_boundary = false;  // newest version <= oldest_pinned seen
    for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
      const Slice ikey = merged->key();
      const Slice user_key = ExtractUserKey(ikey);
      const SequenceNumber seq = ExtractSequence(ikey);
      const ValueType type = ExtractValueType(ikey);

      bool drop = false;
      if (has_prev && user_key == Slice(prev_user_key)) {
        // An earlier (newer) version of this user key was already emitted or
        // established as the visible version for all pinned snapshots.
        if (prev_dropped_boundary) drop = true;
      }
      if (!drop) {
        prev_user_key.assign(user_key.data(), user_key.size());
        has_prev = true;
        prev_dropped_boundary = seq <= oldest_pinned;
        if (type == ValueType::kDeletion && bottom && seq <= oldest_pinned) {
          // Tombstone at the bottom: nothing deeper can resurrect the key.
          drop = true;
        }
      }
      if (drop) continue;

      if (builder == nullptr) {
        outputs.push_back(std::make_shared<FileMeta>());
        outputs.back()->number = NewFileNumber();
        VELOCE_RETURN_IF_ERROR(StartTable(outputs.back()->number, &builder));
      }
      VELOCE_RETURN_IF_ERROR(builder->Add(ikey, merged->value()));
      if (builder->file_size() + options_.block_bytes >= options_.sstable_target_bytes) {
        VELOCE_RETURN_IF_ERROR(finish_output());
      }
    }
    // An input that failed to read ended the merge early: installing now
    // would drop the rest of its keys.
    VELOCE_RETURN_IF_ERROR(merged->status());
    return builder == nullptr ? Status::OK() : finish_output();
  }();
  if (l != nullptr) l->lock();
  if (!s.ok()) {
    DeleteTables(outputs);
    return s;
  }

  versions_.ApplyCompaction(c, outputs);
  VELOCE_RETURN_IF_ERROR(WriteManifest());
  for (const FileList& inputs : c.inputs) DeleteTables(inputs);
  return Status::OK();
}

}  // namespace veloce::storage
