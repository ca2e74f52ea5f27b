// Engine's read path: point reads, the read-side table filter, and the
// bounded, snapshot-pinned iterators every scan goes through.

#include "storage/engine.h"

namespace veloce::storage {

Status Engine::Get(Slice key, std::string* value) {
  bool found = false;
  return GetVisible(key, value, &found);
}

Status Engine::GetVisible(Slice key, std::string* value, bool* found) {
  std::lock_guard<std::mutex> l(mu_);
  return GetLocked(key, last_seq_.load(std::memory_order_acquire), value, found);
}

Status Engine::GetLocked(Slice key, SequenceNumber snapshot, std::string* value,
                         bool* found) {
  *found = false;
  // Memtables newest first: the active one, then the sealed ones, which
  // hold data newer than any SSTable.
  bool is_deleted = false;
  for (size_t i = 0; i <= imm_.size(); ++i) {
    const MemTable& mem = i == 0 ? *mem_ : *imm_[imm_.size() - i].mem;
    if (mem.Get(key, snapshot, value, &is_deleted)) {
      *found = true;
      return is_deleted ? Status::NotFound("deleted") : Status::OK();
    }
  }
  // L0: newest file first; first hit wins (files are seq-ordered). Deeper
  // levels hold strictly older data, so the first hit at any level ends the
  // search — no cross-level merge on the point-read path.
  for (int level = 0; level < VersionSet::kNumLevels; ++level) {
    VELOCE_RETURN_IF_ERROR(SearchFileList(versions_.files(level),
                                          /*overlapping=*/level == 0, key,
                                          snapshot, value, found));
    if (*found) return Status::OK();
  }
  return Status::NotFound("key not found");
}

Engine::TableCheck Engine::CheckTable(const FileMeta& f, Slice lower, Slice upper,
                                      bool point, Slice prefix) const {
  const Slice smallest = ExtractUserKey(Slice(f.smallest));
  const bool below = !lower.empty() && ExtractUserKey(Slice(f.largest)) < lower;
  const bool above = point ? smallest > upper : !upper.empty() && smallest >= upper;
  if (below || above) {
    tables_pruned_c_->Inc();
    return TableCheck::kOutOfRange;
  }
  if (prefix.empty()) return TableCheck::kMayHold;
  bloom_checked_c_->Inc();
  if (f.table->MayContainPrefix(prefix)) return TableCheck::kMayHold;
  bloom_useful_c_->Inc();
  return TableCheck::kFiltered;
}

Status Engine::SearchFileList(const FileList& files, bool overlapping, Slice user_key,
                              SequenceNumber snapshot, std::string* value,
                              bool* found) {
  *found = false;
  const std::string lookup = MakeInternalKey(user_key, snapshot, ValueType::kValue);
  const Slice prefix = PrefixOf(user_key);
  for (const auto& f : files) {
    const TableCheck check = CheckTable(*f, user_key, user_key, /*point=*/true, prefix);
    if (check == TableCheck::kOutOfRange) continue;
    if (check == TableCheck::kMayHold) {
      std::string fkey, fvalue;
      Status s = f->table->SeekEntry(Slice(lookup), &fkey, &fvalue);
      if (s.ok() && ExtractUserKey(Slice(fkey)) == user_key) {
        *found = true;
        if (ExtractValueType(Slice(fkey)) == ValueType::kDeletion) {
          return Status::NotFound("deleted");
        }
        *value = std::move(fvalue);
        return Status::OK();
      }
      if (!s.ok() && !s.IsNotFound()) return s;
      // The filter passed yet the key is absent. It erred only if no entry
      // at or after the probe shares the probed prefix: a table holding
      // other slots of the same logical key answered correctly.
      if (s.IsNotFound() || PrefixOf(ExtractUserKey(Slice(fkey))) != prefix) {
        bloom_false_positive_c_->Inc();
      }
    }
    if (!overlapping) return Status::OK();  // sorted level: key absent
  }
  return Status::OK();
}

/// InternalIterator over one SSTable that defers opening a table iterator
/// (and therefore any block read) until the table is actually positioned.
/// A Seek whose target sorts past the table's largest key is rejected on
/// manifest metadata alone — the table contributes nothing at or after the
/// target, so it never gets opened at all.
class Engine::LazyTableIterator final : public InternalIterator {
 public:
  explicit LazyTableIterator(std::shared_ptr<FileMeta> meta)
      : meta_(std::move(meta)) {}

  bool Valid() const override { return it_ != nullptr && it_->Valid(); }
  void SeekToFirst() override {
    Materialize();
    it_->SeekToFirst();
  }
  void Seek(Slice target) override {
    if (it_ == nullptr && CompareInternalKey(target, Slice(meta_->largest)) > 0) {
      return;  // stays !Valid(); the table is never opened
    }
    Materialize();
    it_->Seek(target);
  }
  void Next() override { it_->Next(); }
  Slice key() const override { return it_->key(); }
  Slice value() const override { return it_->value(); }
  Status status() const override { return it_ != nullptr ? it_->status() : Status::OK(); }

 private:
  void Materialize() {
    if (it_ == nullptr) it_ = meta_->table->NewIterator();
  }

  std::shared_ptr<FileMeta> meta_;  // keeps the Table alive
  std::unique_ptr<InternalIterator> it_;
};

/// The iterator every engine read gets: confines the user-key stream to
/// [lower, upper) — SeekToFirst positions at lower, Seek clamps into the
/// bounds, Valid turns false once a key reaches upper (empty upper =
/// unbounded) — and pins its snapshot's sequence number and memtables
/// until destroyed.
class Engine::BoundedIterator final : public Iterator {
 public:
  BoundedIterator(Engine* engine, SequenceNumber seq,
                  std::vector<std::shared_ptr<MemTable>> mems,
                  std::unique_ptr<Iterator> inner, std::string lower, std::string upper)
      : engine_(engine), seq_(seq), mems_(std::move(mems)), inner_(std::move(inner)),
        lower_(std::move(lower)), upper_(std::move(upper)) {}

  ~BoundedIterator() override {
    std::lock_guard<std::mutex> l(engine_->mu_);
    engine_->pinned_seqs_.erase(engine_->pinned_seqs_.find(seq_));
  }

  bool Valid() const override {
    return inner_->Valid() && (upper_.empty() || inner_->key() < Slice(upper_));
  }
  void SeekToFirst() override { inner_->Seek(Slice(lower_)); }
  void Seek(Slice target) override {
    inner_->Seek(target < Slice(lower_) ? Slice(lower_) : target);
  }
  void Next() override { inner_->Next(); }
  Slice key() const override { return inner_->key(); }
  Slice value() const override { return inner_->value(); }
  Status status() const override { return inner_->status(); }

 private:
  Engine* engine_;
  const SequenceNumber seq_;
  // Declared before inner_, so they outlive the iterators over them.
  const std::vector<std::shared_ptr<MemTable>> mems_;
  std::unique_ptr<Iterator> inner_;
  const std::string lower_;
  const std::string upper_;
};

std::unique_ptr<Iterator> Engine::NewIterator() {
  return NewBoundedIterator(Slice(), Slice());
}

std::unique_ptr<Iterator> Engine::NewBoundedIterator(Slice lower, Slice upper,
                                                     Slice bloom_prefix) {
  std::lock_guard<std::mutex> l(mu_);
  const SequenceNumber snapshot = last_seq_.load(std::memory_order_acquire);
  pinned_seqs_.insert(snapshot);

  // Memtables newest first (merge ties break toward lower index); the
  // iterator keeps them alive after the engine flushes and drops them.
  std::vector<std::shared_ptr<MemTable>> mems = {mem_};
  for (auto it = imm_.rbegin(); it != imm_.rend(); ++it) mems.push_back(it->mem);
  std::vector<std::unique_ptr<InternalIterator>> children;
  for (const auto& mem : mems) children.push_back(mem->NewIterator());

  // Tables that cannot hold a key in the bounds (or, for single-prefix
  // reads, whose filter rejects the prefix) are dropped before any I/O.
  for (int level = 0; level < VersionSet::kNumLevels; ++level) {
    for (const auto& f : versions_.files(level)) {
      if (CheckTable(*f, lower, upper, /*point=*/false, bloom_prefix) ==
          TableCheck::kMayHold) {
        children.push_back(std::make_unique<LazyTableIterator>(f));
      }
    }
  }
  auto user_iter = NewUserIterator(NewMergingIterator(std::move(children)), snapshot);
  return std::make_unique<BoundedIterator>(this, snapshot, std::move(mems),
                                           std::move(user_iter), lower.ToString(),
                                           upper.ToString());
}

int Engine::NumFilesAtLevel(int level) const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int>(versions_.files(level).size());
}

uint64_t Engine::ApproximateSize() const {
  std::lock_guard<std::mutex> l(mu_);
  uint64_t total = mem_->ApproximateMemoryUsage();
  for (const auto& imm : imm_) total += imm.mem->ApproximateMemoryUsage();
  for (int level = 0; level < VersionSet::kNumLevels; ++level) {
    total += versions_.LevelBytes(level);
  }
  return total;
}

}  // namespace veloce::storage
