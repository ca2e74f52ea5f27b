#include "storage/memtable.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace veloce::storage {

MemTable::MemTable() : rnd_(0xdecafbad) {
  head_ = NewNode(kMaxHeight, Slice(), Slice());
}

MemTable::~MemTable() {
  Node* n = head_;
  while (n != nullptr) {
    Node* next = n->next[0].load(std::memory_order_relaxed);
    n->~Node();
    std::free(n);
    n = next;
  }
}

MemTable::Node* MemTable::NewNode(int height, Slice key, Slice value) {
  const size_t size = sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1);
  void* mem = std::malloc(size);
  Node* node = new (mem) Node();
  node->key.assign(key.data(), key.size());
  node->value.assign(value.data(), value.size());
  node->height = height;
  // Node() constructed next[0]; the flexible tail slots need placement-new.
  node->next[0].store(nullptr, std::memory_order_relaxed);
  for (int i = 1; i < height; ++i) {
    new (&node->next[i]) std::atomic<Node*>(nullptr);
  }
  return node;
}

int MemTable::RandomHeight() {
  int height = 1;
  while (height < kMaxHeight && (rnd_.Next() & 3) == 0) ++height;
  return height;
}

MemTable::Node* MemTable::FindGreaterOrEqual(Slice target, Node** prev) const {
  Node* x = head_;
  int level = max_height_.load(std::memory_order_acquire) - 1;
  while (true) {
    Node* next = x->next[level].load(std::memory_order_acquire);
    if (next != nullptr && CompareInternalKey(Slice(next->key), target) < 0) {
      x = next;
    } else {
      if (prev != nullptr) prev[level] = x;
      if (level == 0) return next;
      --level;
    }
  }
}

void MemTable::Add(SequenceNumber seq, ValueType type, Slice user_key, Slice value) {
  const std::string ikey = MakeInternalKey(user_key, seq, type);
  Node* prev[kMaxHeight];
  FindGreaterOrEqual(Slice(ikey), prev);
  const int height = RandomHeight();
  if (height > max_height_.load(std::memory_order_relaxed)) {
    for (int i = max_height_.load(std::memory_order_relaxed); i < height; ++i) {
      prev[i] = head_;
    }
    // Readers racing this store either see the old height (they skip the
    // new levels, which only link through head_) or the new one.
    max_height_.store(height, std::memory_order_release);
  }
  Node* node = NewNode(height, Slice(ikey), value);
  for (int i = 0; i < height; ++i) {
    node->next[i].store(prev[i]->next[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    // Publish: after this release store a reader at level i can reach the
    // node, whose fields (and lower links) are fully initialized.
    prev[i]->next[i].store(node, std::memory_order_release);
  }
  mem_usage_.fetch_add(
      ikey.size() + value.size() + sizeof(Node) + sizeof(std::atomic<Node*>) * height,
      std::memory_order_relaxed);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

bool MemTable::Get(Slice user_key, SequenceNumber snapshot_seq,
                   std::string* found_value, bool* is_deleted) const {
  // Seek to the newest version visible at snapshot_seq: internal keys sort
  // by (user_key asc, seq desc), so the lookup key uses snapshot_seq.
  const std::string lookup = MakeInternalKey(user_key, snapshot_seq, ValueType::kValue);
  Node* n = FindGreaterOrEqual(Slice(lookup), nullptr);
  if (n == nullptr) return false;
  Slice ikey(n->key);
  if (ExtractUserKey(ikey) != user_key) return false;
  *is_deleted = ExtractValueType(ikey) == ValueType::kDeletion;
  if (!*is_deleted) *found_value = n->value;
  return true;
}

class MemTable::Iter final : public InternalIterator {
 public:
  explicit Iter(const MemTable* mem) : mem_(mem) {}

  bool Valid() const override { return node_ != nullptr; }
  void SeekToFirst() override {
    node_ = mem_->head_->next[0].load(std::memory_order_acquire);
  }
  void Seek(Slice target) override {
    node_ = mem_->FindGreaterOrEqual(target, nullptr);
  }
  void Next() override { node_ = node_->next[0].load(std::memory_order_acquire); }
  Slice key() const override { return Slice(node_->key); }
  Slice value() const override { return Slice(node_->value); }
  Status status() const override { return Status::OK(); }

 private:
  const MemTable* mem_;
  Node* node_ = nullptr;
};

std::unique_ptr<InternalIterator> MemTable::NewIterator() const {
  return std::make_unique<Iter>(this);
}

}  // namespace veloce::storage
