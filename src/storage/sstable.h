#ifndef VELOCE_STORAGE_SSTABLE_H_
#define VELOCE_STORAGE_SSTABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/dbformat.h"
#include "storage/block_cache.h"
#include "storage/bloom.h"
#include "storage/env.h"

namespace veloce::storage {

/// Maps an engine user key to the prefix that point reads probe with (and
/// the bloom filter is built over). nullptr means "whole user key". The KV
/// layer installs an extractor that strips the MVCC timestamp suffix, so one
/// filter probe covers every version + the intent slot of a logical key.
using PrefixExtractor = Slice (*)(Slice user_key);

/// Build-time knobs for one SSTable.
struct TableOptions {
  size_t block_size = 4096;
  int bloom_bits_per_key = 10;
  PrefixExtractor prefix_extractor = nullptr;
};

/// Immutable sorted-string table: the on-disk unit of the LSM tree.
///
/// Format:
///   data blocks:  [varint klen | key | varint vlen | value]* , masked crc32
///   filter block: bloom bits | k, masked crc32
///   index block:  [varint klen | last_key_of_block | offset u64 | size u64]*
///   footer:       filter_offset u64 | filter_size u64 |
///                 index_offset u64 | index_size u64 |
///                 format_version u64 | magic_v2 u64
///
/// Any other trailing magic (including the pre-filter v1 format's) fails to
/// open as Corruption.
///
/// Keys are internal keys, added in sorted order by the builder.
class TableBuilder {
 public:
  TableBuilder(std::unique_ptr<WritableFile> file, TableOptions options);

  /// Adds an entry; keys must arrive in strictly increasing internal-key
  /// order.
  Status Add(Slice internal_key, Slice value);

  /// Writes the filter, index, and footer, then syncs and closes the file.
  /// The builder is unusable afterwards.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  uint64_t file_size() const { return offset_; }
  /// Smallest/largest internal keys added (valid after >= 1 Add).
  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }

 private:
  Status FlushBlock();

  std::unique_ptr<WritableFile> file_;
  const TableOptions options_;
  BloomFilterBuilder bloom_;
  std::string block_buf_;
  std::string index_;        // accumulated index entries
  std::string last_key_;     // last key added (order check + index key)
  std::string smallest_, largest_;
  uint64_t offset_ = 0;      // bytes written so far
  uint64_t block_start_ = 0; // offset of current block
  uint64_t num_entries_ = 0;
  bool finished_ = false;
};

/// Reader for a finished table. Loads the index eagerly (tables are small in
/// this deployment); the filter block is read lazily on the first point-read
/// probe, and data blocks are read and checksummed on demand.
class Table {
 public:
  /// `cache` (nullable) holds verified data blocks keyed by `file_number`.
  static StatusOr<std::shared_ptr<Table>> Open(std::unique_ptr<RandomAccessFile> file,
                                               BlockCache* cache = nullptr,
                                               uint64_t file_number = 0);

  /// Point lookup: finds the first entry with internal key >= lookup_key and
  /// returns it via *found_key/*found_value. Returns NotFound if no entry in
  /// this table is >= lookup_key.
  Status SeekEntry(Slice lookup_key, std::string* found_key, std::string* found_value) const;

  /// A block that fails to read or verify, or a malformed entry, ends the
  /// iteration (!Valid) with the error in status().
  std::unique_ptr<InternalIterator> NewIterator() const;

  /// True when the footer names a non-empty filter block.
  bool has_filter() const { return filter_size_ > 0; }

  /// Bloom probe with an already-extracted prefix. True means "may contain";
  /// false is definitive. A table without a filter returns true. Loads the
  /// filter block on first use (thread-safe); a corrupt filter block is
  /// treated as absent rather than failing reads, and a failed read of it
  /// is retried on the next probe.
  bool MayContainPrefix(Slice prefix) const;

  uint64_t num_blocks() const { return index_entries_.size(); }
  uint64_t format_version() const { return format_version_; }

 private:
  struct IndexEntry {
    std::string last_key;
    uint64_t offset;
    uint64_t size;
  };
  class Iter;

  Table() = default;

  Status ReadBlock(size_t block_idx, std::shared_ptr<const std::string>* out) const;
  /// Index of the first block whose last key >= target, or -1.
  int FindBlock(Slice target) const;
  /// True once the filter block is loaded and verified.
  bool EnsureFilterLoaded() const;

  std::unique_ptr<RandomAccessFile> file_;
  std::vector<IndexEntry> index_entries_;
  BlockCache* cache_ = nullptr;
  uint64_t file_number_ = 0;
  uint64_t format_version_ = 0;
  uint64_t filter_offset_ = 0;
  uint64_t filter_size_ = 0;  // payload bytes, excluding the crc trailer

  enum FilterState : int { kFilterUnloaded, kFilterLoaded, kFilterAbsent };
  /// Latches only a loaded or corrupt filter; an I/O error leaves it
  /// unloaded. filter_ is written once, under filter_mu_, before the
  /// release store of kFilterLoaded.
  mutable std::atomic<int> filter_state_{kFilterUnloaded};
  mutable std::mutex filter_mu_;
  mutable std::string filter_;
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_SSTABLE_H_
