#ifndef VELOCE_KV_RANGE_DIRECTORY_H_
#define VELOCE_KV_RANGE_DIRECTORY_H_

#include <memory>
#include <optional>
#include <utility>

#include "kv/range.h"
#include "obs/metrics.h"

namespace veloce::kv {

// Lock order of the KV layer, shared by KVCluster and its components (this
// directory, Liveness, Replication, TxnRecovery); a thread acquires only
// downward (docs/TXN.md, "Concurrency", walks through it):
//   1. KVCluster::dir_mu_ (shared_mutex): the directory below with every
//      range's descriptor, the node list, liveness records and transport.
//      The data path (Send, 1PC, CommitTxn/AbortTxn, staging recovery,
//      AnyNewerVersions, introspection) holds it shared; topology changes
//      (split, merge, replica and lease moves, heartbeats, node add/restart,
//      catch-up, tenant keyspaces) hold it exclusively and take no latches.
//   2. RangeState::latch: the range's mutable state (tscache, log, load,
//      size, pending move). Replication and engine I/O run under it. A
//      shared holder takes at most one latch at a time, releasing it before
//      reaching another range and re-checking what it checked after.
//   3. Leaf locks that never call back out: each engine, TxnRegistry, the
//      HLC, the timestamp oracle, KVNode's tenant byte accounting.
// Component methods and KVCluster's *Locked methods require dir_mu_; a
// RangeState argument also requires its latch unless dir_mu_ is exclusive,
// and a Latch* argument may be released and re-taken.

/// In-flight pipelined replica move (one per range). The snapshot floor
/// pins log truncation so Finish can replay the delta; the cursor resumes
/// the chunked span clear and copy across Step calls.
struct PendingMove {
  NodeId from = 0;
  NodeId to = 0;
  NodeId source = 0;
  uint64_t snapshot_floor = 0;
  std::string cursor;      ///< next engine key to process
  bool clearing = true;    ///< phase 1 wipes the target's stale span
  bool copy_done = false;
};

struct RangeState {
  /// Guards everything below `desc`. `desc` itself changes only under
  /// the exclusive directory lock, so a shared holder reads it freely.
  std::mutex latch;
  RangeDescriptor desc;
  TimestampCache tscache;
  ReplicationLog log;
  uint64_t approx_bytes = 0;
  RangeLoadTracker load;
  /// Clock time the range's load first dropped below the merge threshold
  /// (-1 = currently hot); MaybeMergeRanges maintains it.
  Nanos cooled_since = -1;
  std::optional<PendingMove> pending_move;
};

using Latch = std::unique_lock<std::mutex>;

enum class SplitReason { kManual, kSize, kLoad };  ///< indexes splits_c_

/// A span walk visits [cursor, end) ("" end = +infinity) one range at a
/// time. The piece inside `desc` ends at SpanEndInRange(desc, end);
/// NextRangeOfSpan moves `cursor` to the next range's start, or returns
/// false when the span ends inside `desc`.
std::string SpanEndInRange(const RangeDescriptor& desc, Slice end);
bool NextRangeOfSpan(const RangeDescriptor& desc, Slice end, std::string* cursor);

/// The range directory (CockroachDB's META): every range by id and by start
/// key, partitioning the keyspace without gaps. Guarded by dir_mu_ (above):
/// lookups need it shared, Add/Split/Absorb exclusive.
class RangeDirectory {
 public:
  using ById = std::map<RangeId, std::unique_ptr<RangeState>>;

  explicit RangeDirectory(obs::MetricsRegistry* metrics);

  RangeState* Add(RangeDescriptor desc);  ///< assigns desc.range_id
  RangeState* Lookup(Slice key) const;    ///< null when no range holds key
  StatusOr<RangeState*> Find(RangeId id) const;
  /// Resolves an addressed batch (req.range_id != 0) against the directory:
  /// the range must still exist and contain `key`, else RangeKeyMismatch
  /// (the client invalidates its cache entry and retries).
  StatusOr<RangeState*> Resolve(const BatchRequest& req, Slice key) const;
  Status Mismatch(const std::string& why) const;  ///< counted RangeKeyMismatch
  RangeState* RightNeighbour(const RangeState& left) const;
  /// Splits the range containing `split_key` at that key (a no-op when it
  /// is a boundary already; refused while the range has a move in flight).
  Status Split(Slice split_key, SplitReason reason);
  /// A merge's commit: widens `left` over `right`'s span, folds in its read
  /// constraints and load, and erases `right`. Left's lease carries over;
  /// right's epoch is discarded with its descriptor, so a stale epoch can
  /// never resurrect through a merge.
  void Absorb(RangeState* left, RangeState* right, Nanos now, bool cooldown);

  const ById& by_id() const { return ranges_; }
  const std::map<std::string, RangeId>& by_start() const { return by_start_; }
  RangeState* at(RangeId id) const { return ranges_.at(id).get(); }

 private:
  ById ranges_;
  std::map<std::string, RangeId> by_start_;
  RangeId next_range_id_ = 1;
  obs::Counter* range_mismatch_c_ = nullptr;
  /// Split/merge counters, labeled by trigger; incremented only after the
  /// directory mutation committed (aborted splits/merges are never counted).
  std::vector<obs::Counter*> splits_c_;  ///< manual, size, load
  std::vector<obs::Counter*> merges_c_;  ///< manual, cooldown
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_RANGE_DIRECTORY_H_
