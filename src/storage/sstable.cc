#include "storage/sstable.h"

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace veloce::storage {

namespace {
constexpr uint64_t kTableMagicV2 = 0x76656c6f63655432ULL;  // "veloceT2"
constexpr uint64_t kFormatV2 = 2;
constexpr size_t kFooterSize = 48;

// Parses the block entry at the front of `in` and advances past it; false
// when the entry is malformed.
bool ParseEntry(Slice* in, Slice* key, Slice* value) {
  uint64_t klen = 0, vlen = 0;
  if (!GetVarint64(in, &klen) || in->size() < klen) return false;
  *key = Slice(in->data(), klen);
  in->RemovePrefix(klen);
  if (!GetVarint64(in, &vlen) || in->size() < vlen) return false;
  *value = Slice(in->data(), vlen);
  in->RemovePrefix(vlen);
  return true;
}
}  // namespace

TableBuilder::TableBuilder(std::unique_ptr<WritableFile> file, TableOptions options)
    : file_(std::move(file)),
      options_(options),
      bloom_(options.bloom_bits_per_key) {}

Status TableBuilder::Add(Slice internal_key, Slice value) {
  VELOCE_CHECK(!finished_);
  if (!last_key_.empty()) {
    VELOCE_CHECK(CompareInternalKey(internal_key, Slice(last_key_)) > 0)
        << "keys added out of order";
  }
  if (smallest_.empty()) smallest_.assign(internal_key.data(), internal_key.size());
  largest_.assign(internal_key.data(), internal_key.size());
  last_key_.assign(internal_key.data(), internal_key.size());

  const Slice user_key = ExtractUserKey(internal_key);
  bloom_.AddKey(options_.prefix_extractor != nullptr
                    ? options_.prefix_extractor(user_key)
                    : user_key);

  PutVarint64(&block_buf_, internal_key.size());
  block_buf_.append(internal_key.data(), internal_key.size());
  PutVarint64(&block_buf_, value.size());
  block_buf_.append(value.data(), value.size());
  ++num_entries_;

  if (block_buf_.size() >= options_.block_size) {
    return FlushBlock();
  }
  return Status::OK();
}

Status TableBuilder::FlushBlock() {
  if (block_buf_.empty()) return Status::OK();
  // Index entry: last key of this block, offset, payload size (sans crc).
  PutVarint64(&index_, last_key_.size());
  index_.append(last_key_);
  PutFixed64(&index_, block_start_);
  PutFixed64(&index_, block_buf_.size());

  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(block_buf_.data(), block_buf_.size())));
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(block_buf_)));
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(crc)));
  offset_ += block_buf_.size() + 4;
  block_start_ = offset_;
  block_buf_.clear();
  return Status::OK();
}

Status TableBuilder::Finish() {
  VELOCE_CHECK(!finished_);
  finished_ = true;
  VELOCE_RETURN_IF_ERROR(FlushBlock());

  const std::string filter = bloom_.Finish();
  const uint64_t filter_offset = offset_;
  std::string crc;
  PutFixed32(&crc, crc32c::Mask(crc32c::Value(filter.data(), filter.size())));
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(filter)));
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(crc)));
  offset_ += filter.size() + 4;

  const uint64_t index_offset = offset_;
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(index_)));
  offset_ += index_.size();

  std::string footer;
  PutFixed64(&footer, filter_offset);
  PutFixed64(&footer, filter.size());
  PutFixed64(&footer, index_offset);
  PutFixed64(&footer, index_.size());
  PutFixed64(&footer, kFormatV2);
  PutFixed64(&footer, kTableMagicV2);
  VELOCE_RETURN_IF_ERROR(file_->Append(Slice(footer)));
  offset_ += footer.size();
  VELOCE_RETURN_IF_ERROR(file_->Sync());
  return file_->Close();
}

StatusOr<std::shared_ptr<Table>> Table::Open(std::unique_ptr<RandomAccessFile> file,
                                             BlockCache* cache,
                                             uint64_t file_number) {
  const uint64_t size = file->Size();
  if (size < kFooterSize) return Status::Corruption("table too small");
  std::string magic_buf;
  VELOCE_RETURN_IF_ERROR(file->Read(size - 8, 8, &magic_buf));
  Slice m(magic_buf);
  uint64_t magic = 0;
  GetFixed64(&m, &magic);
  if (magic != kTableMagicV2) return Status::Corruption("bad table magic");

  std::string footer;
  VELOCE_RETURN_IF_ERROR(file->Read(size - kFooterSize, kFooterSize, &footer));
  Slice f(footer);
  auto table = std::shared_ptr<Table>(new Table());
  uint64_t index_offset = 0, index_size = 0, version = 0;
  GetFixed64(&f, &table->filter_offset_);
  GetFixed64(&f, &table->filter_size_);
  GetFixed64(&f, &index_offset);
  GetFixed64(&f, &index_size);
  GetFixed64(&f, &version);
  if (version < kFormatV2) return Status::Corruption("bad v2 table version");
  table->format_version_ = version;
  if (table->filter_offset_ + table->filter_size_ + 4 > size) {
    return Status::Corruption("bad filter location");
  }
  if (index_offset + index_size + kFooterSize > size) {
    return Status::Corruption("bad index location");
  }
  std::string index;
  VELOCE_RETURN_IF_ERROR(file->Read(index_offset, index_size, &index));

  table->file_ = std::move(file);
  table->cache_ = cache;
  table->file_number_ = file_number;
  Slice in(index);
  while (!in.empty()) {
    uint64_t klen = 0;
    if (!GetVarint64(&in, &klen) || in.size() < klen + 16) {
      return Status::Corruption("bad index entry");
    }
    IndexEntry e;
    e.last_key.assign(in.data(), klen);
    in.RemovePrefix(klen);
    GetFixed64(&in, &e.offset);
    GetFixed64(&in, &e.size);
    table->index_entries_.push_back(std::move(e));
  }
  return table;
}

bool Table::EnsureFilterLoaded() const {
  int state = filter_state_.load(std::memory_order_acquire);
  if (state != kFilterUnloaded) return state == kFilterLoaded;
  std::lock_guard<std::mutex> l(filter_mu_);
  state = filter_state_.load(std::memory_order_relaxed);
  if (state != kFilterUnloaded) return state == kFilterLoaded;
  std::string raw;
  if (!file_->Read(filter_offset_, filter_size_ + 4, &raw).ok()) {
    return false;  // transient: probe data blocks now, retry the load next time
  }
  bool intact = raw.size() == filter_size_ + 4;
  if (intact) {
    Slice crc_slice(raw.data() + filter_size_, 4);
    uint32_t masked = 0;
    GetFixed32(&crc_slice, &masked);
    intact = crc32c::Unmask(masked) == crc32c::Value(raw.data(), filter_size_);
  }
  if (!intact) {
    // Corrupt filter: treat as absent for good, reads stay correct.
    filter_state_.store(kFilterAbsent, std::memory_order_release);
    return false;
  }
  raw.resize(filter_size_);
  filter_ = std::move(raw);
  filter_state_.store(kFilterLoaded, std::memory_order_release);
  return true;
}

bool Table::MayContainPrefix(Slice prefix) const {
  if (filter_size_ == 0 || !EnsureFilterLoaded()) return true;
  return BloomKeyMayMatch(prefix, Slice(filter_));
}

Status Table::ReadBlock(size_t block_idx,
                        std::shared_ptr<const std::string>* out) const {
  if (cache_ != nullptr) {
    if (auto cached = cache_->Lookup(file_number_, block_idx)) {
      *out = std::move(cached);
      return Status::OK();
    }
  }
  const IndexEntry& e = index_entries_[block_idx];
  std::string raw;
  VELOCE_RETURN_IF_ERROR(file_->Read(e.offset, e.size + 4, &raw));
  if (raw.size() != e.size + 4) return Status::Corruption("short block read");
  Slice crc_slice(raw.data() + e.size, 4);
  uint32_t masked = 0;
  GetFixed32(&crc_slice, &masked);
  if (crc32c::Unmask(masked) != crc32c::Value(raw.data(), e.size)) {
    return Status::Corruption("block checksum mismatch");
  }
  raw.resize(e.size);
  if (cache_ != nullptr) {
    *out = cache_->Insert(file_number_, block_idx, std::move(raw));
    if (*out != nullptr) return Status::OK();
  }
  // No cache, or a block too large for it (Insert left `raw` unmoved).
  *out = std::make_shared<const std::string>(std::move(raw));
  return Status::OK();
}

int Table::FindBlock(Slice target) const {
  // Binary search for the first block whose last key >= target.
  int lo = 0, hi = static_cast<int>(index_entries_.size()) - 1, ans = -1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (CompareInternalKey(Slice(index_entries_[mid].last_key), target) >= 0) {
      ans = mid;
      hi = mid - 1;
    } else {
      lo = mid + 1;
    }
  }
  return ans;
}

Status Table::SeekEntry(Slice lookup_key, std::string* found_key,
                        std::string* found_value) const {
  const int block = FindBlock(lookup_key);
  if (block < 0) return Status::NotFound("past end of table");
  std::shared_ptr<const std::string> data;
  VELOCE_RETURN_IF_ERROR(ReadBlock(static_cast<size_t>(block), &data));
  Slice in(*data);
  while (!in.empty()) {
    Slice key, value;
    if (!ParseEntry(&in, &key, &value)) return Status::Corruption("bad block entry");
    if (CompareInternalKey(key, lookup_key) >= 0) {
      found_key->assign(key.data(), key.size());
      found_value->assign(value.data(), value.size());
      return Status::OK();
    }
  }
  // Target is greater than every key in this block; by the index invariant
  // this can't happen unless the table is corrupt.
  return Status::NotFound("not in block");
}

/// Iterator: walks blocks lazily, materializing one block at a time. The
/// first read or format error ends it for good (status() keeps the error).
class Table::Iter final : public InternalIterator {
 public:
  explicit Iter(const Table* table) : table_(table) {}

  bool Valid() const override { return valid_; }
  Status status() const override { return status_; }

  void SeekToFirst() override {
    block_idx_ = 0;
    LoadBlockAndPosition(Slice());
  }

  void Seek(Slice target) override {
    const int b = table_->FindBlock(target);
    if (b < 0) {
      valid_ = false;
      return;
    }
    block_idx_ = static_cast<size_t>(b);
    LoadBlockAndPosition(target);
  }

  void Next() override {
    ParseNext();
    if (!valid_ && status_.ok()) {
      ++block_idx_;
      LoadBlockAndPosition(Slice());
    }
  }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }

 private:
  // Loads block_idx_ and positions at the first entry >= target (or first
  // entry when target is empty), spilling into later blocks when the target
  // sorts past every entry of this one.
  void LoadBlockAndPosition(Slice target) {
    valid_ = false;
    for (; status_.ok() && block_idx_ < table_->index_entries_.size(); ++block_idx_) {
      status_ = table_->ReadBlock(block_idx_, &block_);
      if (!status_.ok()) return;
      pos_ = 0;
      ParseNext();
      if (!target.empty()) {
        while (valid_ && CompareInternalKey(Slice(key_), target) < 0) ParseNext();
      }
      if (valid_) return;
    }
  }

  void ParseNext() {
    valid_ = false;
    if (block_ == nullptr || pos_ >= block_->size()) return;
    Slice in(block_->data() + pos_, block_->size() - pos_);
    Slice key, value;
    if (!ParseEntry(&in, &key, &value)) {
      status_ = Status::Corruption("bad block entry");
      return;
    }
    key_.assign(key.data(), key.size());
    value_.assign(value.data(), value.size());
    pos_ = block_->size() - in.size();
    valid_ = true;
  }

  const Table* table_;
  size_t block_idx_ = 0;
  std::shared_ptr<const std::string> block_;
  size_t pos_ = 0;
  std::string key_, value_;
  bool valid_ = false;
  Status status_;
};

std::unique_ptr<InternalIterator> Table::NewIterator() const {
  return std::make_unique<Iter>(this);
}

}  // namespace veloce::storage
