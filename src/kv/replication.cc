#include "kv/replication.h"

#include <algorithm>

#include "kv/cluster.h"
#include "kv/mvcc.h"

namespace veloce::kv {

StatusOr<bool> ClearSpanChunk(storage::Engine* dst, std::string* cursor, Slice end,
                              size_t max_bytes) {
  auto it = dst->NewBoundedIterator(*cursor, end);
  storage::WriteBatch del;
  std::string last;
  for (it->SeekToFirst(); it->Valid() && del.ByteSize() < max_bytes; it->Next()) {
    last = it->key().ToString();
    del.Delete(it->key());
  }
  VELOCE_RETURN_IF_ERROR(it->status());
  if (del.Count() == 0) return false;
  VELOCE_RETURN_IF_ERROR(dst->Write(del));
  *cursor = last + '\0';
  return true;
}

StatusOr<bool> CopySpanChunk(storage::Engine* src, storage::Engine* dst,
                             std::string* cursor, Slice end, size_t max_bytes) {
  auto it = src->NewBoundedIterator(*cursor, end);
  storage::WriteBatch batch;
  std::string last;
  for (it->SeekToFirst(); it->Valid() && batch.ByteSize() < max_bytes; it->Next()) {
    last = it->key().ToString();
    batch.Put(it->key(), it->value());
  }
  // A read error must not look like the end of the span.
  VELOCE_RETURN_IF_ERROR(it->status());
  if (batch.Count() > 0) VELOCE_RETURN_IF_ERROR(dst->Write(batch));
  if (!it->Valid()) return true;
  *cursor = last + '\0';
  return false;
}

Status ClearSpan(storage::Engine* dst, Slice start, Slice end) {
  auto [cursor, engine_end] = EngineSpan(start, end);
  for (bool cleared = true; cleared;) {
    VELOCE_ASSIGN_OR_RETURN(cleared,
                            ClearSpanChunk(dst, &cursor, engine_end, 1 << 20));
  }
  return Status::OK();
}

Replication::Replication(const NodeList& nodes, ReplicaTransport* transport,
                         obs::MetricsRegistry* metrics)
    : nodes_(nodes),
      demotions_c_(metrics->counter("veloce_kv_replica_demotions_total")),
      catchups_replay_c_(
          metrics->counter("veloce_kv_replica_catchups_total", {{"mode", "replay"}})),
      catchups_snapshot_c_(metrics->counter("veloce_kv_replica_catchups_total",
                                            {{"mode", "snapshot"}})),
      catchup_records_c_(metrics->counter("veloce_kv_replica_catchup_records_total")),
      delay_h_(metrics->histogram("veloce_kv_replication_delay_ns")) {
  set_transport(transport);
}

Status Replication::Apply(KVNode* node, const LogRecord& rec,
                          const storage::WriteBatch* batch, uint32_t copies,
                          bool charge_tenant) const {
  storage::Engine* engine = node->engine();
  if (engine == nullptr) {
    return Status::Unavailable("node " + std::to_string(node->id()) +
                               " has no engine (failed crash-restart)");
  }
  storage::WriteBatch decoded;
  if (rec.kind == LogRecord::Kind::kBatch && batch == nullptr) {
    VELOCE_RETURN_IF_ERROR(decoded.SetContents(rec.payload));
    batch = &decoded;
  }
  for (uint32_t c = 0; c < copies; ++c) {
    switch (rec.kind) {
      case LogRecord::Kind::kBatch:
        VELOCE_RETURN_IF_ERROR(engine->Write(*batch));
        // Duplicate deliveries and catch-up replays are a network
        // artifact, not client bytes.
        if (c == 0 && charge_tenant && rec.tenant != 0) {
          node->AddTenantWriteBytes(rec.tenant, batch->PayloadBytes());
        }
        break;
      case LogRecord::Kind::kResolveIntent:
        // A no-op when the intent is already gone, so replays and
        // duplicates are safe.
        VELOCE_RETURN_IF_ERROR(
            MvccResolveIntent(engine, rec.key, rec.txn_id, rec.commit, rec.ts));
        break;
      case LogRecord::Kind::kUpdateIntentTs:
        VELOCE_RETURN_IF_ERROR(
            MvccUpdateIntentTimestamp(engine, rec.key, rec.txn_id, rec.ts));
        break;
      case LogRecord::Kind::kClearSpan:
        VELOCE_RETURN_IF_ERROR(ClearSpan(engine, rec.key, rec.end_key));
        break;
    }
  }
  return Status::OK();
}

Status Replication::Replicate(RangeState* range, LogRecord rec,
                              const storage::WriteBatch* batch, bool require_quorum) {
  const NodeId leader = range->desc.leaseholder;
  const bool leader_up = nodes_[leader]->up();
  if (require_quorum && !leader_up) {
    return Status::Unavailable("leaseholder node is not live");
  }
  const uint64_t next_index = range->log.committed_index() + 1;

  // Phase 1: ask the transport which replicas this round can reach. The
  // leaseholder applies locally (no network hop). A replica whose
  // crash-restart failed has no engine; it cannot accept the write or
  // count toward quorum, exactly like a dead node.
  struct Delivery {
    NodeId node = 0;
    bool up = false;
    LinkDecision d;
  };
  std::vector<Delivery> plan;
  plan.reserve(range->desc.replicas.size());
  int acks = leader_up ? 1 : 0;
  Nanos max_delay = 0;
  for (NodeId n : range->desc.replicas) {
    if (n == leader) continue;
    Delivery del{n, nodes_[n]->up(), LinkDecision{.deliver = false, .ack = false}};
    if (del.up) {
      del.d = transport_->DeliverReplication(leader, n, next_index);
      if (del.d.ack) ++acks;
      if (del.d.delay > max_delay) max_delay = del.d.delay;
    }
    plan.push_back(del);
  }
  const int quorum = static_cast<int>(range->desc.replicas.size()) / 2 + 1;
  if (require_quorum && acks < quorum) {
    return Status::Unavailable("quorum unreachable for range " +
                               std::to_string(range->desc.range_id));
  }

  // Phase 2: the leaseholder applies first, so a local engine failure
  // rejects the round with nothing logged anywhere (the failed write can
  // never resurface through catch-up).
  if (leader_up) {
    VELOCE_RETURN_IF_ERROR(Apply(nodes_[leader].get(), rec, batch, 1));
  }
  const uint64_t index = range->log.Append(std::move(rec));
  const LogRecord& stored = range->log.records().back();
  if (leader_up) range->log.SetApplied(leader, index);

  // Phase 3: deliver to the remotes the transport reached. An undelivered
  // message, a lost ack, or a minority engine failure demotes that replica
  // to needs-catch-up rather than failing a batch that has quorum.
  int applied = leader_up ? 1 : 0;
  for (const Delivery& del : plan) {
    if (!del.up || !del.d.deliver) {
      if (del.up && del.d.ack) {
        // A phantom ack: the message never arrived yet the ack did —
        // physically impossible on a real network, supplied only by the
        // linearizability checker's self-test transport. The leaseholder
        // can only trust what it is told, so the replica is recorded as
        // applied, poisoning quorum and catch-up bookkeeping exactly as a
        // lying replica would.
        ++applied;
        range->log.SetApplied(del.node, index);
        continue;
      }
      if (del.up) demotions_c_->Inc();
      continue;
    }
    // A replica that missed earlier rounds replays the gap first so its
    // applied position stays contiguous.
    if (range->log.Applied(del.node) < index - 1) {
      if (!CatchUp(range, del.node, index - 1).ok()) {
        demotions_c_->Inc();
        continue;
      }
      if (range->log.Applied(del.node) >= index) {
        ++applied;  // snapshot catch-up already covered this record
        continue;
      }
    }
    Status s = Apply(nodes_[del.node].get(), stored, batch, del.d.copies);
    if (!s.ok()) {
      demotions_c_->Inc();
      continue;
    }
    ++applied;
    // Without the ack the leaseholder must assume the worst and re-replay
    // later (idempotent), so only an acked apply advances the position.
    if (del.d.ack) range->log.SetApplied(del.node, index);
  }
  if (require_quorum && applied < quorum) {
    // A majority of planned engine writes failed after the reachability
    // check. The record stays in the log (the leaseholder applied it), so
    // the write is indeterminate — the "result unknown" class the txn
    // layer already handles.
    return Status::Unavailable("replication quorum lost for range " +
                               std::to_string(range->desc.range_id));
  }
  if (max_delay > 0) delay_h_->Record(max_delay);
  Truncate(range);
  return Status::OK();
}

Status Replication::CatchUp(RangeState* range, NodeId node, uint64_t limit) {
  KVNode* n = nodes_[node].get();
  if (n->engine() == nullptr) {
    return Status::Unavailable("replica has no engine");
  }
  const uint64_t committed = range->log.committed_index();
  if (limit > committed) limit = committed;
  const uint64_t applied = range->log.Applied(node);
  if (applied >= limit) return Status::OK();
  if (!range->log.CanReplayFrom(applied)) {
    // The log was truncated past this replica's position: full-span
    // snapshot transfer from a caught-up replica.
    VELOCE_RETURN_IF_ERROR(Snapshot(range, node));
    range->log.SetApplied(node, committed);
    catchups_snapshot_c_->Inc();
    return Status::OK();
  }
  uint64_t replayed = 0;
  for (const LogRecord& rec : range->log.records()) {
    if (rec.index <= applied) continue;
    if (rec.index > limit) break;
    VELOCE_RETURN_IF_ERROR(Apply(n, rec, nullptr, 1, /*charge_tenant=*/false));
    range->log.SetApplied(node, rec.index);
    ++replayed;
  }
  if (replayed > 0) {
    catchups_replay_c_->Inc();
    catchup_records_c_->Inc(replayed);
  }
  return Status::OK();
}

bool Replication::CatchUpCandidate(RangeState* range, NodeId node) {
  return nodes_[node]->up() && CatchUp(range, node, range->log.committed_index()).ok();
}

Status Replication::Snapshot(RangeState* range, NodeId to) {
  storage::Engine* dst = nodes_[to]->engine();
  if (dst == nullptr) return Status::Unavailable("snapshot target has no engine");
  // Source: a fully-applied replica, preferring the leaseholder.
  auto usable = [&](NodeId n) {
    return n != to && nodes_[n]->engine() != nullptr &&
           range->log.Applied(n) == range->log.committed_index();
  };
  NodeId source = range->desc.leaseholder;
  if (!usable(source)) {
    const std::vector<NodeId>& replicas = range->desc.replicas;
    auto it = std::find_if(replicas.begin(), replicas.end(), usable);
    if (it == replicas.end()) {
      return Status::Unavailable("no caught-up source replica for snapshot");
    }
    source = *it;
  }
  storage::Engine* src = nodes_[source]->engine();
  // Clear the stale span first: the lagging replica may hold engine keys
  // (e.g. intent slots) the source has since deleted, and a pure copy
  // would resurrect them.
  VELOCE_RETURN_IF_ERROR(ClearSpan(dst, range->desc.start_key, range->desc.end_key));
  auto [cursor, end] = EngineSpan(range->desc.start_key, range->desc.end_key);
  for (bool done = false; !done;) {  // apply in ~1MB chunks
    VELOCE_ASSIGN_OR_RETURN(done, CopySpanChunk(src, dst, &cursor, end, 1 << 20));
  }
  return Status::OK();
}

void Replication::Truncate(RangeState* range) const {
  uint64_t floor = range->log.committed_index();
  for (NodeId n : range->desc.replicas) {
    floor = std::min(floor, range->log.Applied(n));
  }
  if (range->pending_move.has_value()) {
    // A pipelined move pins retention at its snapshot floor so the cutover
    // can replay the delta. The ReplicationLog's hard caps still apply (the
    // pin bounds the common case, not memory); if they force past the
    // floor, FinishReplicaMove falls back to a fresh snapshot.
    floor = std::min(floor, range->pending_move->snapshot_floor);
  }
  range->log.TruncateTo(floor);
}

// --- KVCluster: catch-up and introspection ------------------------------------

void KVCluster::set_transport(ReplicaTransport* transport) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  replication_.set_transport(transport);
}

Status KVCluster::CatchUpNode(NodeId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  if (id >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[id]->engine() == nullptr) {
    return Status::Unavailable("node has no engine (failed crash-restart)");
  }
  Status first = Status::OK();
  for (const auto& [rid, state] : directory_.by_id()) {
    if (!state->desc.HasReplica(id)) continue;
    Status s = replication_.CatchUp(state.get(), id, state->log.committed_index());
    if (!s.ok() && first.ok()) first = s;
    replication_.Truncate(state.get());
  }
  return first;
}

uint64_t KVCluster::RangeLogCommittedIndex(RangeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  StatusOr<RangeState*> range = directory_.Find(id);
  if (!range.ok()) return 0;
  Latch latch((*range)->latch);
  return (*range)->log.committed_index();
}

uint64_t KVCluster::RangeReplicaApplied(RangeId id, NodeId node) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  StatusOr<RangeState*> range = directory_.Find(id);
  if (!range.ok()) return 0;
  Latch latch((*range)->latch);
  return (*range)->log.Applied(node);
}

}  // namespace veloce::kv
