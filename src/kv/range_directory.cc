#include "kv/range_directory.h"

#include <algorithm>

#include "common/logging.h"
#include "kv/cluster.h"
#include "kv/mvcc.h"

namespace veloce::kv {

std::string SpanEndInRange(const RangeDescriptor& desc, Slice end) {
  const std::string& range_end = desc.end_key;
  if (!range_end.empty() && (end.empty() || Slice(range_end) < end)) return range_end;
  return end.ToString();
}

bool NextRangeOfSpan(const RangeDescriptor& desc, Slice end, std::string* cursor) {
  if (desc.end_key.empty() || (!end.empty() && Slice(desc.end_key) >= end)) {
    return false;
  }
  *cursor = desc.end_key;
  return true;
}

RangeDirectory::RangeDirectory(obs::MetricsRegistry* metrics)
    : range_mismatch_c_(metrics->counter("veloce_kv_range_mismatches_total")) {
  for (const char* reason : {"manual", "size", "load"}) {
    splits_c_.push_back(metrics->counter("veloce_kv_range_splits_total",
                                         {{"reason", reason}}));
  }
  for (const char* reason : {"manual", "cooldown"}) {
    merges_c_.push_back(metrics->counter("veloce_kv_range_merges_total",
                                         {{"reason", reason}}));
  }
}

RangeState* RangeDirectory::Add(RangeDescriptor desc) {
  desc.range_id = next_range_id_++;
  auto state = std::make_unique<RangeState>();
  state->desc = std::move(desc);
  by_start_[state->desc.start_key] = state->desc.range_id;
  RangeState* out = state.get();
  ranges_[out->desc.range_id] = std::move(state);
  return out;
}

RangeState* RangeDirectory::Lookup(Slice key) const {
  auto it = by_start_.upper_bound(key.ToString());
  if (it == by_start_.begin()) return nullptr;
  --it;
  RangeState* range = ranges_.at(it->second).get();
  return range->desc.Contains(key) ? range : nullptr;
}

StatusOr<RangeState*> RangeDirectory::Find(RangeId id) const {
  auto it = ranges_.find(id);
  if (it == ranges_.end()) return Status::NotFound("no such range");
  return it->second.get();
}

Status RangeDirectory::Mismatch(const std::string& why) const {
  range_mismatch_c_->Inc();
  return Status::RangeKeyMismatch(why);
}

StatusOr<RangeState*> RangeDirectory::Resolve(const BatchRequest& req,
                                              Slice key) const {
  if (req.range_id == 0) {
    RangeState* range = Lookup(key);
    if (range == nullptr) return Status::NotFound("no range for key");
    return range;
  }
  auto it = ranges_.find(req.range_id);
  if (it == ranges_.end()) {
    return Mismatch("range " + std::to_string(req.range_id) +
                    " no longer exists (merged away)");
  }
  RangeState* range = it->second.get();
  if (!range->desc.Contains(key)) {
    return Mismatch("key outside range " + std::to_string(req.range_id) +
                    " (span changed since the descriptor was cached)");
  }
  return range;
}

RangeState* RangeDirectory::RightNeighbour(const RangeState& left) const {
  auto it = by_start_.find(left.desc.end_key);
  return it == by_start_.end() ? nullptr : ranges_.at(it->second).get();
}

Status RangeDirectory::Split(Slice split_key, SplitReason reason) {
  RangeState* range = Lookup(split_key);
  if (range == nullptr) return Status::NotFound("no range for split key");
  if (range->desc.start_key == split_key.ToString()) {
    return Status::OK();  // already a boundary
  }
  if (range->pending_move.has_value()) {
    return Status::Unavailable("replica move in progress; split deferred");
  }
  RangeDescriptor right = range->desc;
  right.start_key = split_key.ToString();
  RangeState* right_state = Add(std::move(right));
  range->desc.end_key = split_key.ToString();
  // Both halves keep every read constraint: a write to the right half must
  // still land above the reads the parent served there.
  right_state->tscache.MergeFrom(range->tscache);
  range->approx_bytes /= 2;  // rough: data divides between halves
  right_state->approx_bytes = range->approx_bytes;
  // Each half inherits half the parent's load; key samples restart on both
  // sides (old samples may fall outside the new spans).
  range->load.OnSplit();
  right_state->load = range->load;
  range->cooled_since = -1;
  right_state->cooled_since = -1;
  range->desc.generation++;
  right_state->desc.generation = range->desc.generation;
  splits_c_[static_cast<size_t>(reason)]->Inc();
  return Status::OK();
}

void RangeDirectory::Absorb(RangeState* left, RangeState* right, Nanos now,
                            bool cooldown) {
  const std::string right_start = right->desc.start_key;
  const RangeId right_id = right->desc.range_id;
  left->desc.end_key = right->desc.end_key;
  left->approx_bytes += right->approx_bytes;
  left->tscache.MergeFrom(right->tscache);
  left->load.Absorb(right->load, now);
  left->load.ResetSamples();
  left->cooled_since = -1;
  left->desc.generation =
      std::max(left->desc.generation, right->desc.generation) + 1;
  by_start_.erase(right_start);
  ranges_.erase(right_id);  // invalidates `right`
  merges_c_[cooldown ? 1 : 0]->Inc();
}

// --- KVCluster: descriptors ---------------------------------------------------

std::vector<RangeDescriptor> KVCluster::Ranges() const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  std::vector<RangeDescriptor> out;
  out.reserve(directory_.by_id().size());
  for (const auto& [start, rid] : directory_.by_start()) {
    out.push_back(directory_.at(rid)->desc);
  }
  return out;
}

StatusOr<RangeDescriptor> KVCluster::LookupRange(Slice key) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  RangeState* range = directory_.Lookup(key);
  if (range == nullptr) return Status::NotFound("no range for key");
  return range->desc;
}

int KVCluster::CountLeases(NodeId node) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  int count = 0;
  for (const auto& [rid, state] : directory_.by_id()) {
    if (state->desc.leaseholder == node) ++count;
  }
  return count;
}

double KVCluster::RangeQps(Slice key) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  RangeState* range = directory_.Lookup(key);
  if (range == nullptr) return 0.0;
  Latch latch(range->latch);
  return range->load.Qps(clock_->Now());
}

// --- KVCluster: tenant keyspaces ----------------------------------------------

Status KVCluster::CreateTenantKeyspace(TenantId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const std::string prefix = TenantPrefix(id);
  // Each split is a no-op where the key already is a boundary (prefix-end
  // is, when tenants are created in id order).
  VELOCE_RETURN_IF_ERROR(directory_.Split(prefix, SplitReason::kManual));
  VELOCE_RETURN_IF_ERROR(directory_.Split(TenantPrefixEnd(id), SplitReason::kManual));
  RangeState* tenant_range = directory_.Lookup(prefix);
  VELOCE_CHECK(tenant_range != nullptr);
  tenant_range->desc.tenant_id = id;
  return Status::OK();
}

Status KVCluster::DestroyTenantKeyspace(TenantId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  // Each range's piece of the tenant's span is cleared through that range's
  // log, so a replica that misses the clear (partitioned, down) replays it
  // after the writes it clears when it catches up, instead of replaying
  // those writes back. The ranges stay, marked as unowned.
  const std::string prefix_end = TenantPrefixEnd(id);
  std::string cursor = TenantPrefix(id);
  RangeState* range = nullptr;
  do {
    range = directory_.Lookup(cursor);
    if (range == nullptr) return Status::Internal("no range covers tenant keyspace");
    VELOCE_RETURN_IF_ERROR(replication_.Replicate(
        range, {.kind = LogRecord::Kind::kClearSpan, .key = cursor,
                .end_key = SpanEndInRange(range->desc, prefix_end)},
        nullptr, /*require_quorum=*/false));
    if (range->desc.tenant_id == id) range->desc.tenant_id = 0;
  } while (NextRangeOfSpan(range->desc, prefix_end, &cursor));
  return Status::OK();
}

// --- KVCluster: splits and merges ---------------------------------------------

Status KVCluster::SplitRange(Slice split_key) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return directory_.Split(split_key, SplitReason::kManual);
}

StatusOr<int> KVCluster::MaybeSplitRanges() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  int splits = 0;
  // Collect candidates first; splitting mutates the maps.
  std::vector<RangeId> oversized;
  for (const auto& [rid, state] : directory_.by_id()) {
    if (state->pending_move.has_value()) continue;
    if (state->approx_bytes > options_.range_split_bytes) oversized.push_back(rid);
  }
  for (RangeId rid : oversized) {
    RangeState* state = directory_.at(rid);
    // Find an approximate midpoint key by scanning the leaseholder engine.
    storage::Engine* engine = nodes_[state->desc.leaseholder]->engine();
    if (engine == nullptr) continue;  // leaseholder down; next sweep
    const auto [start_bound, end_bound] =
        EngineSpan(state->desc.start_key, state->desc.end_key);
    auto it = engine->NewBoundedIterator(start_bound, end_bound);
    uint64_t seen = 0;
    std::string mid_key;
    const uint64_t target = state->approx_bytes / 2;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      seen += it->key().size() + it->value().size();
      if (seen >= target) {
        std::string user_key;
        Timestamp ts;
        bool is_intent;
        if (DecodeMvccKey(it->key(), &user_key, &ts, &is_intent) &&
            user_key > state->desc.start_key) {
          mid_key = user_key;
        }
        break;
      }
    }
    VELOCE_RETURN_IF_ERROR(it->status());
    if (mid_key.empty()) continue;
    VELOCE_RETURN_IF_ERROR(directory_.Split(mid_key, SplitReason::kSize));
    ++splits;
  }
  // Load splits: a hot range divides at a key drawn from its own sample
  // reservoir — no engine scan, which is what keeps this sweep cheap at
  // 100k ranges. Any sampled key is tenant-aligned by construction (it was
  // served by this range, and ranges never span tenants).
  if (options_.load_split_qps > 0) {
    const Nanos now = clock_->Now();
    std::vector<RangeId> hot;
    for (const auto& [rid, state] : directory_.by_id()) {
      if (state->pending_move.has_value()) continue;
      if (state->load.Qps(now) > options_.load_split_qps) hot.push_back(rid);
    }
    for (RangeId rid : hot) {
      RangeState* state = directory_.at(rid);
      const std::string hot_key = state->load.SuggestSplitKey(state->desc.start_key);
      if (hot_key.empty() || !state->desc.Contains(hot_key)) continue;
      VELOCE_RETURN_IF_ERROR(directory_.Split(hot_key, SplitReason::kLoad));
      ++splits;
    }
  }
  return splits;
}

Status KVCluster::MergeRangesLocked(RangeState* left, RangeState* right,
                                    bool cooldown) {
  if (left->desc.tenant_id != right->desc.tenant_id) {
    return Status::InvalidArgument("merge would fuse ranges across tenants");
  }
  if (left->desc.end_key.empty() || left->desc.end_key != right->desc.start_key) {
    return Status::InvalidArgument("ranges are not adjacent");
  }
  if (left->pending_move.has_value() || right->pending_move.has_value()) {
    return Status::Unavailable("replica move in progress; merge deferred");
  }
  // Align the replica sets: the merged range has one replica set and one
  // log, so every right-side replica on a node outside the left set moves
  // onto one of left's nodes first. A failed move vetoes the merge.
  if (left->desc.replicas.size() != right->desc.replicas.size()) {
    return Status::InvalidArgument("replica sets differ in size");
  }
  std::vector<NodeId> extras;   // right's nodes not in left's set
  std::vector<NodeId> missing;  // left's nodes right lacks
  for (NodeId n : right->desc.replicas) {
    if (!left->desc.HasReplica(n)) extras.push_back(n);
  }
  for (NodeId n : left->desc.replicas) {
    if (!right->desc.HasReplica(n)) missing.push_back(n);
  }
  for (size_t i = 0; i < extras.size(); ++i) {
    VELOCE_RETURN_IF_ERROR(
        MoveReplicaLocked(right->desc.range_id, extras[i], missing[i]));
  }
  // Every replica must be reachable and fully applied on BOTH logs: the
  // right log dies with the merge, and a replica missing right-side records
  // would silently diverge under the surviving left log.
  const NodeId leader = left->desc.leaseholder;
  const uint64_t left_committed = left->log.committed_index();
  const uint64_t right_committed = right->log.committed_index();
  for (NodeId n : left->desc.replicas) {
    if (!nodes_[n]->up()) {
      return Status::Unavailable("replica down; merge deferred");
    }
    if (n != leader && !replication_.transport()->DeliverHeartbeat(leader, n)) {
      return Status::Unavailable("replica unreachable; merge deferred");
    }
    VELOCE_RETURN_IF_ERROR(replication_.CatchUp(left, n, left_committed));
    VELOCE_RETURN_IF_ERROR(replication_.CatchUp(right, n, right_committed));
    if (left->log.Applied(n) < left_committed ||
        right->log.Applied(n) < right_committed) {
      return Status::Unavailable("replica behind; merge deferred");
    }
  }
  directory_.Absorb(left, right, clock_->Now(), cooldown);
  replication_.Truncate(left);
  return Status::OK();
}

Status KVCluster::MergeRanges(RangeId left_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  VELOCE_ASSIGN_OR_RETURN(RangeState * left, directory_.Find(left_id));
  if (left->desc.end_key.empty()) {
    return Status::InvalidArgument("range has no right neighbour");
  }
  RangeState* right = directory_.RightNeighbour(*left);
  if (right == nullptr) return Status::NotFound("no right neighbour in directory");
  VELOCE_RETURN_IF_ERROR(liveness_.CheckLease(left->desc));
  return MergeRangesLocked(left, right, /*cooldown=*/false);
}

StatusOr<int> KVCluster::MaybeMergeRanges() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const Nanos now = clock_->Now();
  // Pass 1: advance the cooldown dwell clocks.
  for (const auto& [rid, state] : directory_.by_id()) {
    if (state->load.Qps(now) < options_.merge_qps_threshold) {
      if (state->cooled_since < 0) state->cooled_since = now;
    } else {
      state->cooled_since = -1;
    }
  }
  // Merge eligibility. Tenant, adjacency and in-flight-move checks are
  // MergeRangesLocked's, which runs them before any side effect.
  auto can_merge = [&](const RangeState& left, const RangeState& right) {
    // Hysteresis: both sides must have dwelled below the QPS threshold.
    auto dwelled = [&](const RangeState& r) {
      return r.cooled_since >= 0 && now - r.cooled_since >= options_.merge_dwell;
    };
    // The byte cap keeps the merged range well under the split threshold,
    // so a merge never immediately re-triggers a size split (flapping). The
    // merged range keeps the left lease, which must be valid right now —
    // the merge can never install (or later resurrect) a stale epoch.
    return dwelled(left) && dwelled(right) &&
           left.approx_bytes + right.approx_bytes <= options_.range_split_bytes / 2 &&
           liveness_.LeaseValid(left.desc) && nodes_[left.desc.leaseholder]->up();
  };
  // Pass 2: fuse dwelled-cold adjacent pairs left to right. After a merge
  // the surviving range may absorb its next neighbour in the same sweep
  // (the byte cap bounds the chain), so the cursor only advances on a
  // skipped pair.
  int merges = 0;
  RangeState* left = directory_.Lookup("");
  while (!left->desc.end_key.empty()) {  // until the last range
    RangeState* right = directory_.RightNeighbour(*left);
    if (right == nullptr) break;  // directory seam (shouldn't happen)
    if (!can_merge(*left, *right) ||
        !MergeRangesLocked(left, right, /*cooldown=*/true).ok()) {
      left = right;
      continue;
    }
    ++merges;
  }
  return merges;
}

// --- KVCluster: replica moves -------------------------------------------------

Status KVCluster::MoveReplica(RangeId range_id, NodeId from, NodeId to) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return MoveReplicaLocked(range_id, from, to);
}

Status KVCluster::StartReplicaMove(RangeId range_id, NodeId from, NodeId to) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return StartReplicaMoveLocked(range_id, from, to);
}

StatusOr<bool> KVCluster::StepReplicaMove(RangeId range_id, size_t max_bytes) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return StepReplicaMoveLocked(range_id, max_bytes);
}

Status KVCluster::FinishReplicaMove(RangeId range_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return FinishReplicaMoveLocked(range_id);
}

Status KVCluster::AbortReplicaMove(RangeId range_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return AbortReplicaMoveLocked(range_id);
}

Status KVCluster::MoveReplicaLocked(RangeId range_id, NodeId from, NodeId to) {
  VELOCE_RETURN_IF_ERROR(StartReplicaMoveLocked(range_id, from, to));
  while (true) {
    StatusOr<bool> done = StepReplicaMoveLocked(range_id, 1 << 20);
    if (!done.ok()) {
      (void)AbortReplicaMoveLocked(range_id);
      return done.status();
    }
    if (*done) break;
  }
  Status s = FinishReplicaMoveLocked(range_id);
  if (!s.ok()) (void)AbortReplicaMoveLocked(range_id);
  return s;
}

Status KVCluster::StartReplicaMoveLocked(RangeId range_id, NodeId from, NodeId to) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, directory_.Find(range_id));
  if (range->pending_move.has_value()) {
    return Status::Unavailable("replica move already in progress");
  }
  if (!range->desc.HasReplica(from)) {
    return Status::InvalidArgument("source node holds no replica");
  }
  if (range->desc.HasReplica(to)) {
    return Status::InvalidArgument("target node already holds a replica");
  }
  if (to >= nodes_.size() || !nodes_[to]->up()) {
    return Status::Unavailable("target node not available");
  }
  // Snapshot source: a live, fully-applied replica (prefer the leaseholder,
  // then the outgoing replica). A behind candidate is caught up first or
  // skipped — a lagging source would record the target as caught-up while
  // missing acked writes.
  std::vector<NodeId> candidates = {range->desc.leaseholder, from};
  candidates.insert(candidates.end(), range->desc.replicas.begin(),
                    range->desc.replicas.end());
  auto source = std::find_if(candidates.begin(), candidates.end(), [&](NodeId n) {
    return replication_.CatchUpCandidate(range, n);
  });
  if (source == candidates.end()) {
    return Status::Unavailable("no caught-up source replica for move");
  }
  // Log truncation is pinned at the snapshot floor until Finish.
  range->pending_move = PendingMove{
      .from = from, .to = to, .source = *source,
      .snapshot_floor = range->log.committed_index(),
      .cursor = EngineSpan(range->desc.start_key, range->desc.end_key).first};
  return Status::OK();
}

StatusOr<bool> KVCluster::StepReplicaMoveLocked(RangeId range_id, size_t max_bytes) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, directory_.Find(range_id));
  if (!range->pending_move.has_value()) {
    return Status::InvalidArgument("no replica move in progress");
  }
  PendingMove& move = *range->pending_move;
  if (move.copy_done) return true;
  if (!nodes_[move.to]->up()) {
    return Status::Unavailable("move target lost mid-stream");
  }
  storage::Engine* dst = nodes_[move.to]->engine();
  const auto [span_start, span_end] =
      EngineSpan(range->desc.start_key, range->desc.end_key);
  if (move.clearing) {
    // Phase 1: wipe the target's stale span (a node that held this span in
    // an earlier life may still carry engine keys — e.g. intent slots —
    // the source has since deleted; a pure copy would resurrect them).
    VELOCE_ASSIGN_OR_RETURN(bool cleared,
                            ClearSpanChunk(dst, &move.cursor, span_end, max_bytes));
    if (!cleared) {
      move.clearing = false;
      move.cursor = span_start;
    }
    return false;
  }
  // Phase 2: stream the span from the source in ~max_bytes chunks. The
  // source keeps serving (and applying new writes) throughout; anything it
  // applies above the snapshot floor is re-delivered by Finish's delta
  // replay, and records are idempotent, so overlap is harmless.
  if (!nodes_[move.source]->up()) {
    return Status::Unavailable("move source lost mid-stream");
  }
  VELOCE_ASSIGN_OR_RETURN(move.copy_done,
                          CopySpanChunk(nodes_[move.source]->engine(), dst,
                                        &move.cursor, span_end, max_bytes));
  return move.copy_done;
}

Status KVCluster::FinishReplicaMoveLocked(RangeId range_id) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, directory_.Find(range_id));
  if (!range->pending_move.has_value()) {
    return Status::InvalidArgument("no replica move in progress");
  }
  const PendingMove move = *range->pending_move;
  if (!move.copy_done) {
    return Status::InvalidArgument("span copy still in progress");
  }
  KVNode* target = nodes_[move.to].get();
  if (!target->up()) {
    return Status::Unavailable("move target lost before cutover");
  }
  const uint64_t committed = range->log.committed_index();
  if (range->log.CanReplayFrom(move.snapshot_floor)) {
    // Delta replay: every mutation committed since the snapshot floor, in
    // order. Uncharged — the bytes were attributed at original delivery.
    for (const LogRecord& rec : range->log.records()) {
      if (rec.index <= move.snapshot_floor) continue;
      VELOCE_RETURN_IF_ERROR(
          replication_.Apply(target, rec, nullptr, 1, /*charge_tenant=*/false));
    }
  } else {
    // Retention caps force-truncated past the floor (the pin bounds the
    // common case, not memory): fall back to a fresh full snapshot taken
    // under the lock, which is trivially consistent at `committed`.
    VELOCE_RETURN_IF_ERROR(replication_.Snapshot(range, move.to));
  }
  // Atomic cutover: the descriptor swap, applied position, generation bump,
  // and (if needed) lease handoff all land together under the exclusive
  // directory lock.
  for (NodeId& replica : range->desc.replicas) {
    if (replica == move.from) replica = move.to;
  }
  range->log.EraseReplica(move.from);
  range->log.SetApplied(move.to, committed);
  range->desc.generation++;
  replica_moves_c_->Inc();
  if (range->desc.leaseholder == move.from) liveness_.TransferLease(range, move.to);
  range->pending_move.reset();
  replication_.Truncate(range);  // unpin
  // Nothing reads or catches up the outgoing replica's copy any more: clear
  // it. A down node (its engine may be gone) keeps its copy, as does one
  // whose clear fails; either only costs disk, since no read goes there.
  KVNode* outgoing = nodes_[move.from].get();
  if (outgoing->up() && outgoing->engine() != nullptr) {
    (void)ClearSpan(outgoing->engine(), range->desc.start_key, range->desc.end_key);
  }
  return Status::OK();
}

Status KVCluster::AbortReplicaMoveLocked(RangeId range_id) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, directory_.Find(range_id));
  if (!range->pending_move.has_value()) return Status::OK();
  const PendingMove move = *range->pending_move;
  range->pending_move.reset();
  replication_.Truncate(range);  // unpin
  // Best-effort wipe of the partially streamed span from the target.
  storage::Engine* dst = nodes_[move.to]->engine();
  return dst != nullptr ? ClearSpan(dst, range->desc.start_key, range->desc.end_key)
                        : Status::OK();
}

StatusOr<int> KVCluster::RebalanceReplicas() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  // Count replicas per live node.
  auto replica_counts = [&] {
    std::vector<int> counts(nodes_.size(), 0);
    for (const auto& [rid, state] : directory_.by_id()) {
      for (NodeId n : state->desc.replicas) counts[n]++;
    }
    return counts;
  };
  int moves = 0;
  for (int iteration = 0; iteration < 256; ++iteration) {
    std::vector<int> counts = replica_counts();
    // The most and least loaded live nodes (the first of each on ties).
    std::vector<NodeId> live;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (nodes_[n]->live()) live.push_back(n);
    }
    if (live.empty()) break;
    auto fewer = [&](NodeId a, NodeId b) { return counts[a] < counts[b]; };
    const NodeId most = *std::max_element(live.begin(), live.end(), fewer);
    const NodeId least = *std::min_element(live.begin(), live.end(), fewer);
    if (counts[most] <= counts[least] + 1) break;
    // Move one range replica from `most` to `least`.
    bool moved = false;
    for (const auto& [rid, state] : directory_.by_id()) {
      if (!state->desc.HasReplica(most) || state->desc.HasReplica(least)) continue;
      VELOCE_RETURN_IF_ERROR(MoveReplicaLocked(rid, most, least));
      ++moves;
      moved = true;
      break;
    }
    if (!moved) break;
  }
  return moves;
}

}  // namespace veloce::kv
