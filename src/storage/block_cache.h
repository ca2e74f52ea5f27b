#ifndef VELOCE_STORAGE_BLOCK_CACHE_H_
#define VELOCE_STORAGE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace veloce::storage {

/// Sharded LRU cache for decoded (checksum-verified) SSTable data blocks,
/// keyed by (file number, block index). Point reads dominate OLTP; without
/// this every Get re-reads and re-CRCs a block from the Env.
///
/// The key hash picks one of `num_shards` independent LRU shards, each with
/// its own mutex and capacity_bytes/num_shards budget, so concurrent point
/// reads on different blocks do not serialize on a single lock. Hit/miss/
/// usage counters are relaxed atomics: they are read by the metrics
/// collector without taking any shard lock.
///
/// Thread-safe.
class BlockCache {
 public:
  static constexpr size_t kDefaultShards = 16;

  explicit BlockCache(size_t capacity_bytes, size_t num_shards = kDefaultShards);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the cached block contents, or nullptr on miss. The returned
  /// shared_ptr stays valid even if the entry is evicted afterwards.
  std::shared_ptr<const std::string> Lookup(uint64_t file_number, uint64_t block_idx);

  /// Inserts (or refreshes) a block and returns the entry it stored. A block
  /// larger than the shard capacity is rejected outright: admitting it could
  /// never be paid for by evicting others, and would otherwise pin the cache
  /// over capacity forever. A rejected block returns nullptr and leaves
  /// `contents` unmoved.
  std::shared_ptr<const std::string> Insert(uint64_t file_number, uint64_t block_idx,
                                            std::string&& contents);

  /// Drops every block of a file (after compaction deletes it).
  void EvictFile(uint64_t file_number);

  size_t usage_bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;

  size_t num_shards() const { return shards_.size(); }
  /// Per-shard counters, exported as labelled series by the engine.
  uint64_t shard_hits(size_t shard) const;
  uint64_t shard_misses(size_t shard) const;
  size_t shard_usage_bytes(size_t shard) const;

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::string> block;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    std::atomic<size_t> usage{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  Shard& ShardFor(const Key& key) {
    return *shards_[KeyHash()(key) % shards_.size()];
  }
  void EvictIfNeededLocked(Shard& shard);

  const size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_BLOCK_CACHE_H_
