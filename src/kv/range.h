#ifndef VELOCE_KV_RANGE_H_
#define VELOCE_KV_RANGE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "kv/batch.h"
#include "kv/timestamp.h"

namespace veloce::kv {

using NodeId = uint32_t;  // RangeId lives in kv/batch.h (range addressing)

/// Descriptor of one range (shard): its keyspan, replica placement, and
/// current leaseholder. Ranges never span tenant boundaries (the KV layer
/// enforces this at creation/split time) — the storage-partitioning
/// invariant of cluster virtualization.
struct RangeDescriptor {
  RangeId range_id = 0;
  std::string start_key;  ///< inclusive
  std::string end_key;    ///< exclusive; empty = +infinity
  TenantId tenant_id = 0; ///< owning tenant (0 for pre-tenant system ranges)
  std::vector<NodeId> replicas;
  NodeId leaseholder = 0;
  /// Liveness epoch of the leaseholder when the lease was granted. Once
  /// heartbeat-driven liveness is armed (KVCluster::TickHeartbeats), a
  /// lease is valid only while the holder's epoch still matches: an
  /// isolated leaseholder's epoch bumps on expiry, so its stale lease
  /// rejects writes with LeaseEpochMismatch instead of serving split-brain.
  uint64_t lease_epoch = 1;
  /// Bumped whenever the range's span or replica set changes (split, merge,
  /// replica move). Directory caches key their entries on it: an addressed
  /// request whose key no longer falls in the range redirects with
  /// RangeKeyMismatch, and the refreshed descriptor's higher generation
  /// supersedes any overlapping cached entry.
  uint64_t generation = 1;

  bool Contains(Slice key) const {
    if (Slice(key) < Slice(start_key)) return false;
    return end_key.empty() || Slice(key) < Slice(end_key);
  }
  bool HasReplica(NodeId node) const {
    for (NodeId n : replicas) {
      if (n == node) return true;
    }
    return false;
  }
};

/// Per-range load statistics: an exponentially-decayed request rate plus a
/// small reservoir of recently-touched keys. The rate drives
/// load-based splits (hot ranges divide at a sampled key boundary) and
/// cooldown merges (adjacent cold ranges of one tenant re-fuse); the
/// reservoir supplies the split point without scanning the engine, which is
/// what keeps split decisions O(1) at 100k ranges.
///
/// Decay is half-life based and evaluated lazily on access, so the tracker
/// is exact under a manual/sim clock and needs no background timer.
class RangeLoadTracker {
 public:
  static constexpr Nanos kHalfLife = 2 * kSecond;
  static constexpr size_t kMaxKeySamples = 16;

  /// Records one request touching `key` at time `now`.
  void Record(Nanos now, Slice key) {
    DecayTo(now);
    requests_ += 1;
    // Deterministic reservoir sampling: the n-th observation replaces a
    // slot with probability k/n, using a counter-seeded xorshift so two
    // identical op sequences sample identical split keys.
    ++observations_;
    if (samples_.size() < kMaxKeySamples) {
      samples_.push_back(key.ToString());
    } else {
      const uint64_t r = Mix(observations_);
      if (r % observations_ < kMaxKeySamples) {
        samples_[r % kMaxKeySamples] = key.ToString();
      }
    }
  }

  /// Decayed requests/second as of `now`.
  double Qps(Nanos now) const {
    const_cast<RangeLoadTracker*>(this)->DecayTo(now);
    // The EWMA holds "requests in the trailing half-life window"; divide by
    // the window to express a rate.
    return requests_ / (static_cast<double>(kHalfLife) / kSecond);
  }

  /// A key strictly inside (start, +inf) splitting the sampled keys roughly
  /// in half; empty when the samples cannot produce a valid boundary.
  std::string SuggestSplitKey(Slice start) const {
    std::vector<std::string> keys;
    keys.reserve(samples_.size());
    for (const std::string& k : samples_) {
      if (Slice(k) > start) keys.push_back(k);
    }
    if (keys.size() < 2) return "";
    std::sort(keys.begin(), keys.end());
    const std::string& mid = keys[keys.size() / 2];
    // A midpoint equal to the smallest sample would make an empty left half.
    if (mid == keys.front()) return "";
    return mid;
  }

  /// Split/merge bookkeeping: restarts sampling (rates persist — a freshly
  /// split hot range is still hot, but its old samples may lie outside the
  /// new span).
  void ResetSamples() {
    samples_.clear();
    observations_ = 0;
  }

  /// Range split: each half keeps half the parent's decayed rate and
  /// restarts sampling. The caller copies the tracker to the right half
  /// after calling this on the left.
  void OnSplit() {
    requests_ /= 2;
    ResetSamples();
  }

  /// Folds another tracker in (range merge): rates add, samples interleave.
  void Absorb(const RangeLoadTracker& other, Nanos now) {
    DecayTo(now);
    const_cast<RangeLoadTracker&>(other).DecayTo(now);
    requests_ += other.requests_;
    for (const std::string& k : other.samples_) {
      if (samples_.size() < kMaxKeySamples) samples_.push_back(k);
    }
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
  }
  void DecayTo(Nanos now) {
    if (now <= last_decay_) return;
    const double halves =
        static_cast<double>(now - last_decay_) / static_cast<double>(kHalfLife);
    const double factor = std::pow(0.5, halves);
    requests_ *= factor;
    last_decay_ = now;
  }

  double requests_ = 0;
  Nanos last_decay_ = 0;
  uint64_t observations_ = 0;
  std::vector<std::string> samples_;
};

/// One replicated mutation of a range. Everything that touches a replica's
/// engine flows through a record so a lagging replica can replay the exact
/// same sequence and converge byte-identically — including intent
/// resolutions, which previously bypassed the log and diverged dead
/// replicas forever.
struct LogRecord {
  enum class Kind : uint8_t {
    kBatch = 0,           ///< serialized storage::WriteBatch (payload)
    kResolveIntent = 1,   ///< MvccResolveIntent(key, txn_id, commit, ts)
    kUpdateIntentTs = 2,  ///< MvccUpdateIntentTimestamp(key, txn_id, ts)
    kClearSpan = 3,       ///< deletes every engine key of [key, end_key)
  };
  Kind kind = Kind::kBatch;
  uint64_t index = 0;
  std::string payload;  ///< kBatch: WriteBatch::rep()
  std::string key;      ///< resolve/update target; kClearSpan: span start
  std::string end_key;  ///< kClearSpan: exclusive span end
  uint64_t txn_id = 0;
  bool commit = false;
  Timestamp ts;
  TenantId tenant = 0;  ///< kBatch: tenant charged for write bytes (0 = none)

  size_t ApproxBytes() const {
    return payload.size() + key.size() + end_key.size() + 64;
  }
};

/// The replication log of one range — a deliberately compact Raft: a single
/// stable leader (the leaseholder), a term that bumps on lease transfer,
/// and synchronous quorum commit. Records are retained (bounded) with a
/// per-replica applied position so replicas cut off by a partition or crash
/// can catch up by in-order replay; replicas that fall behind the retained
/// window take a snapshot transfer instead. Documented as a substitution in
/// DESIGN.md.
class ReplicationLog {
 public:
  /// Retention caps: a fully-applied prefix is always truncated eagerly,
  /// but while some replica lags the log keeps at most this much before
  /// forcing that replica onto the snapshot path.
  static constexpr size_t kMaxRetainedRecords = 4096;
  static constexpr size_t kMaxRetainedBytes = 4ull << 20;

  uint64_t Append(LogRecord rec) {
    entries_committed_++;
    bytes_committed_ += rec.payload.size();
    rec.index = entries_committed_;
    retained_bytes_ += rec.ApproxBytes();
    records_.push_back(std::move(rec));
    return entries_committed_;
  }
  void BumpTerm() { ++term_; }

  /// Highest contiguously applied index for one replica (0 = nothing).
  uint64_t Applied(NodeId node) const {
    auto it = applied_.find(node);
    return it == applied_.end() ? 0 : it->second;
  }
  void SetApplied(NodeId node, uint64_t index) { applied_[node] = index; }
  void EraseReplica(NodeId node) { applied_.erase(node); }

  /// Index of the oldest retained record (committed_index()+1 when empty).
  uint64_t first_index() const {
    return records_.empty() ? entries_committed_ + 1 : records_.front().index;
  }

  /// True when replay can serve a replica at `applied` (no truncation gap).
  bool CanReplayFrom(uint64_t applied) const {
    return applied + 1 >= first_index();
  }

  /// Records with index > `applied`, oldest first.
  const std::deque<LogRecord>& records() const { return records_; }

  /// Drops every record at or below `floor` (the minimum applied position
  /// across the replica set), then enforces the retention caps; replicas
  /// whose position falls before first_index() must snapshot.
  void TruncateTo(uint64_t floor) {
    while (!records_.empty() &&
           (records_.front().index <= floor || records_.size() > kMaxRetainedRecords ||
            retained_bytes_ > kMaxRetainedBytes)) {
      retained_bytes_ -= records_.front().ApproxBytes();
      records_.pop_front();
    }
  }

  uint64_t term() const { return term_; }
  uint64_t committed_index() const { return entries_committed_; }
  uint64_t committed_bytes() const { return bytes_committed_; }

 private:
  uint64_t term_ = 1;
  uint64_t entries_committed_ = 0;
  uint64_t bytes_committed_ = 0;
  size_t retained_bytes_ = 0;
  std::deque<LogRecord> records_;
  std::map<NodeId, uint64_t> applied_;
};

/// Read-timestamp cache for one range: remembers the maximum timestamp at
/// which each key (or span) was read, and by which transaction, so later
/// writes below that timestamp are pushed forward — the mechanism that
/// gives serializable isolation for read-write conflicts.
///
/// Each entry keeps the reading txn (its owner; 0 = none). A txn's own
/// reads never push its own writes: it writes at or above every timestamp
/// it read at, so there is nothing to protect against. Everyone else is
/// pushed above the entry. A point read at a higher timestamp replaces the
/// entry and its owner; a read by a second txn at the same timestamp clears
/// the owner (both must be pushed); a lower one is absorbed, unless it has
/// no owner, which clears the owner as well.
/// Overflow folds into an owner-less low-water mark, which pushes every
/// writer — the conservative direction. Entries recorded with no owner
/// (non-transactional reads, the fence a staging recovery lays for a txn's
/// own late write) push everyone, the owner's txn included.
class TimestampCache {
 public:
  /// Spans are folded into a range-wide low-water mark once the list grows
  /// past this, trading precision (spurious pushes) for bounded memory.
  static constexpr size_t kMaxSpans = 128;
  static constexpr size_t kMaxPoints = 4096;

  void RecordRead(Slice key, Timestamp ts, TxnId txn = 0);
  void RecordReadSpan(Slice start, Slice end, Timestamp ts, TxnId txn = 0);

  /// Folds another range's cache in (range merge, and a split's new right
  /// half, which starts as a copy of the parent's): every point and span is
  /// carried over with its owner so no read constraint is lost; cap
  /// overflow degrades to the low-water mark exactly as organic growth does.
  void MergeFrom(const TimestampCache& other);

  /// Highest read timestamp recorded for `key` by anyone other than `txn`
  /// (0 = a non-transactional writer, whom every entry applies to).
  Timestamp MaxReadTimestamp(Slice key, TxnId txn = 0) const;

  Timestamp low_water() const { return low_water_; }

 private:
  struct PointRead {
    Timestamp ts;
    TxnId txn = 0;
  };
  struct SpanRead {
    std::string start, end;
    Timestamp ts;
    TxnId txn = 0;
  };

  std::map<std::string, PointRead, std::less<>> points_;
  std::vector<SpanRead> spans_;
  Timestamp low_water_;
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_RANGE_H_
