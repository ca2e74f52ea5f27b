#ifndef VELOCE_STORAGE_ITERATOR_H_
#define VELOCE_STORAGE_ITERATOR_H_

#include <memory>
#include <vector>

#include "storage/dbformat.h"

namespace veloce::storage {

/// Merges N sorted internal iterators into one sorted stream. Ties (same
/// internal key) break toward the lower child index, so callers order
/// children newest-first.
std::unique_ptr<InternalIterator> NewMergingIterator(
    std::vector<std::unique_ptr<InternalIterator>> children);

/// Public-facing iterator over user keys and values: collapses the internal
/// multi-version stream to the newest visible version of each user key at
/// `snapshot_seq`, hiding tombstones. As with InternalIterator, a read error
/// ends the iteration with the error in status(); a caller that takes
/// !Valid() as "no more keys" must check status() first.
class Iterator {
 public:
  virtual ~Iterator() = default;
  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first visible user key >= target.
  virtual void Seek(Slice target) = 0;
  virtual void Next() = 0;
  virtual Slice key() const = 0;    // user key
  virtual Slice value() const = 0;
  virtual Status status() const = 0;
};

/// Wraps an internal iterator (already merged) into a user-facing Iterator.
std::unique_ptr<Iterator> NewUserIterator(std::unique_ptr<InternalIterator> internal,
                                          SequenceNumber snapshot_seq);

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_ITERATOR_H_
