#include "kv/range.h"

namespace veloce::kv {

void TimestampCache::RecordRead(Slice key, Timestamp ts, TxnId txn) {
  if (ts <= low_water_) return;
  auto it = points_.find(key.view());
  if (it == points_.end()) {
    if (points_.size() >= kMaxPoints) {
      // Fold everything into the (owner-less) low-water mark and start over.
      for (const auto& [k, read] : points_) low_water_ = std::max(low_water_, read.ts);
      points_.clear();
      if (ts <= low_water_) return;
    }
    points_.emplace(key.ToString(), PointRead{ts, txn});
  } else if (it->second.ts < ts) {
    it->second = {ts, txn};
  } else if (it->second.txn != txn && (it->second.ts == ts || txn == 0)) {
    // Two readers at one timestamp must both be pushed; an owner-less read
    // fences every writer, so it cannot hide under an owned entry either.
    it->second.txn = 0;
  }
}

void TimestampCache::RecordReadSpan(Slice start, Slice end, Timestamp ts,
                                    TxnId txn) {
  if (ts <= low_water_) return;
  if (spans_.size() >= kMaxSpans) {
    for (const auto& span : spans_) low_water_ = std::max(low_water_, span.ts);
    spans_.clear();
    if (ts <= low_water_) return;
  }
  spans_.push_back({start.ToString(), end.ToString(), ts, txn});
}

void TimestampCache::MergeFrom(const TimestampCache& other) {
  if (low_water_ < other.low_water_) low_water_ = other.low_water_;
  for (const auto& [k, read] : other.points_) RecordRead(k, read.ts, read.txn);
  for (const auto& span : other.spans_) {
    RecordReadSpan(span.start, span.end, span.ts, span.txn);
  }
}

Timestamp TimestampCache::MaxReadTimestamp(Slice key, TxnId txn) const {
  // Only a txn's own reads spare its writes; owner-less ones push everyone.
  auto pushes = [txn](TxnId owner) { return owner == 0 || owner != txn; };
  Timestamp max = low_water_;
  auto it = points_.find(key.view());
  if (it != points_.end() && max < it->second.ts && pushes(it->second.txn)) {
    max = it->second.ts;
  }
  for (const auto& span : spans_) {
    if (!pushes(span.txn)) continue;
    if (Slice(span.start) <= key && (span.end.empty() || key < Slice(span.end))) {
      if (max < span.ts) max = span.ts;
    }
  }
  return max;
}

}  // namespace veloce::kv
