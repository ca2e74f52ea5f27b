#include "storage/iterator.h"

#include <algorithm>

namespace veloce::storage {

namespace {

// A child that stops on an error ends the merge: going on without it would
// silently skip its keys. The first such error sticks.
class MergingIterator final : public InternalIterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<InternalIterator>> children)
      : children_(std::move(children)) {}

  bool Valid() const override { return current_ >= 0; }
  Status status() const override { return status_; }

  void SeekToFirst() override {
    for (auto& c : children_) c->SeekToFirst();
    FindSmallest(kAllMoved);
  }

  void Seek(Slice target) override {
    for (auto& c : children_) c->Seek(target);
    FindSmallest(kAllMoved);
  }

  void Next() override {
    children_[current_]->Next();
    FindSmallest(current_);
  }

  Slice key() const override { return children_[current_]->key(); }
  Slice value() const override { return children_[current_]->value(); }

 private:
  static constexpr int kAllMoved = -1;

  // `moved` names the child that just moved (kAllMoved: every child); only
  // a child that just stopped can have failed.
  void FindSmallest(int moved) {
    current_ = -1;
    if (!status_.ok()) return;
    for (int i = 0; i < static_cast<int>(children_.size()); ++i) {
      const InternalIterator& c = *children_[i];
      if (!c.Valid()) {
        if (moved == kAllMoved || moved == i) status_ = c.status();
        if (!status_.ok()) {
          current_ = -1;
          return;
        }
        continue;
      }
      if (current_ < 0 || CompareInternalKey(c.key(), children_[current_]->key()) < 0) {
        current_ = i;
      }
    }
  }

  std::vector<std::unique_ptr<InternalIterator>> children_;
  int current_ = -1;
  Status status_;
};

class UserIterator final : public Iterator {
 public:
  UserIterator(std::unique_ptr<InternalIterator> internal, SequenceNumber snapshot)
      : internal_(std::move(internal)), snapshot_(snapshot) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    internal_->SeekToFirst();
    FindNextVisible(/*skip_current_user_key=*/false);
  }

  void Seek(Slice target) override {
    internal_->Seek(Slice(MakeInternalKey(target, snapshot_, ValueType::kValue)));
    FindNextVisible(false);
  }

  void Next() override { FindNextVisible(/*skip_current_user_key=*/true); }

  Slice key() const override { return Slice(key_); }
  Slice value() const override { return Slice(value_); }
  Status status() const override { return internal_->status(); }

 private:
  // Advances until positioned at the newest visible, non-deleted version of
  // a user key. When skip_current_user_key, versions of key_ are passed over
  // first.
  void FindNextVisible(bool skip_current_user_key) {
    std::string skip = skip_current_user_key ? key_ : std::string();
    bool skipping = skip_current_user_key;
    valid_ = false;
    while (internal_->Valid()) {
      Slice ikey = internal_->key();
      const Slice user_key = ExtractUserKey(ikey);
      if (ExtractSequence(ikey) > snapshot_) {
        internal_->Next();
        continue;  // too new for this snapshot
      }
      if (skipping && user_key == Slice(skip)) {
        internal_->Next();
        continue;
      }
      if (ExtractValueType(ikey) == ValueType::kDeletion) {
        // Tombstone: every older version of this key is invisible.
        skipping = true;
        skip.assign(user_key.data(), user_key.size());
        internal_->Next();
        continue;
      }
      // Newest visible version of a fresh user key.
      key_.assign(user_key.data(), user_key.size());
      value_.assign(internal_->value().data(), internal_->value().size());
      valid_ = true;
      // Leave internal_ at this entry; Next() will skip the older versions.
      return;
    }
  }

  std::unique_ptr<InternalIterator> internal_;
  SequenceNumber snapshot_;
  std::string key_, value_;
  bool valid_ = false;
};

}  // namespace

std::unique_ptr<InternalIterator> NewMergingIterator(
    std::vector<std::unique_ptr<InternalIterator>> children) {
  return std::make_unique<MergingIterator>(std::move(children));
}

std::unique_ptr<Iterator> NewUserIterator(std::unique_ptr<InternalIterator> internal,
                                          SequenceNumber snapshot_seq) {
  return std::make_unique<UserIterator>(std::move(internal), snapshot_seq);
}

}  // namespace veloce::storage
