#include "storage/block_cache.h"

namespace veloce::storage {

BlockCache::BlockCache(size_t capacity_bytes, size_t num_shards)
    : shard_capacity_(capacity_bytes / (num_shards == 0 ? 1 : num_shards)) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const std::string> BlockCache::Lookup(uint64_t file_number,
                                                      uint64_t block_idx) {
  const Key key{file_number, block_idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> l(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  // Move to front (most recently used).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->block;
}

std::shared_ptr<const std::string> BlockCache::Insert(uint64_t file_number,
                                                      uint64_t block_idx,
                                                      std::string&& contents) {
  if (contents.size() > shard_capacity_) return nullptr;  // could never fit
  const Key key{file_number, block_idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> l(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    shard.usage.fetch_sub(it->second->block->size(), std::memory_order_relaxed);
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  auto block = std::make_shared<const std::string>(std::move(contents));
  shard.usage.fetch_add(block->size(), std::memory_order_relaxed);
  shard.lru.push_front(Entry{key, block});
  shard.index[key] = shard.lru.begin();
  // The new front entry fits the shard, so eviction never reaches it.
  EvictIfNeededLocked(shard);
  return block;
}

void BlockCache::EvictFile(uint64_t file_number) {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> l(shard.mu);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.first == file_number) {
        shard.usage.fetch_sub(it->block->size(), std::memory_order_relaxed);
        shard.index.erase(it->key);
        it = shard.lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void BlockCache::EvictIfNeededLocked(Shard& shard) {
  while (shard.usage.load(std::memory_order_relaxed) > shard_capacity_ &&
         !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.usage.fetch_sub(victim.block->size(), std::memory_order_relaxed);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
  }
}

size_t BlockCache::usage_bytes() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->usage.load(std::memory_order_relaxed);
  return total;
}

uint64_t BlockCache::hits() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->hits.load(std::memory_order_relaxed);
  return total;
}

uint64_t BlockCache::misses() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->misses.load(std::memory_order_relaxed);
  return total;
}

uint64_t BlockCache::shard_hits(size_t shard) const {
  return shards_[shard]->hits.load(std::memory_order_relaxed);
}

uint64_t BlockCache::shard_misses(size_t shard) const {
  return shards_[shard]->misses.load(std::memory_order_relaxed);
}

size_t BlockCache::shard_usage_bytes(size_t shard) const {
  return shards_[shard]->usage.load(std::memory_order_relaxed);
}

}  // namespace veloce::storage
