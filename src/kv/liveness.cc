#include "kv/liveness.h"

#include "kv/cluster.h"

namespace veloce::kv {

Liveness::Liveness(Clock* clock, Nanos duration, obs::MetricsRegistry* metrics)
    : clock_(clock),
      duration_(duration),
      lease_moves_c_(metrics->counter("veloce_kv_lease_moves_total")),
      lease_epoch_mismatch_c_(
          metrics->counter("veloce_kv_lease_epoch_mismatches_total")),
      epoch_bumps_c_(metrics->counter("veloce_kv_liveness_epoch_bumps_total")),
      heartbeat_failures_c_(
          metrics->counter("veloce_kv_heartbeat_rounds_failed_total")) {}

void Liveness::AddNode() { records_.push_back(Record{.last_heartbeat = clock_->Now()}); }

bool Liveness::Valid(NodeId id, Nanos now) const {
  const Record& r = records_[id];
  return !r.expired && now - r.last_heartbeat <= duration_;
}

bool Liveness::LeaseValid(const RangeDescriptor& desc) const {
  if (!enabled_) return true;
  return desc.lease_epoch == records_[desc.leaseholder].epoch &&
         Valid(desc.leaseholder, clock_->Now());
}

Status Liveness::LeaseError(const RangeDescriptor& desc) const {
  lease_epoch_mismatch_c_->Inc();
  return Status::LeaseEpochMismatch(
      "range " + std::to_string(desc.range_id) + " lease (epoch " +
      std::to_string(desc.lease_epoch) + ") is no longer valid at node " +
      std::to_string(desc.leaseholder));
}

void Liveness::TransferLease(RangeState* range, NodeId node) {
  range->desc.leaseholder = node;
  range->desc.lease_epoch = records_[node].epoch;
  range->log.BumpTerm();
  lease_moves_c_->Inc();
}

void Liveness::HeartbeatRound(const NodeList& nodes, ReplicaTransport* transport) {
  const Nanos now = clock_->Now();
  if (!enabled_) {
    // Arming grace period: every node starts with a fresh record and gets
    // one full liveness duration to prove itself.
    enabled_ = true;
    for (Record& r : records_) r.last_heartbeat = now;
  }
  // An up node refreshes its record iff its heartbeats reach a majority of
  // the cluster (itself included) — a minority-side node of a partition
  // cannot, so its record ages out.
  const int majority = static_cast<int>(nodes.size()) / 2 + 1;
  for (NodeId n = 0; n < nodes.size(); ++n) {
    if (!nodes[n]->up()) continue;
    int reached = 1;  // self
    for (NodeId m = 0; m < nodes.size(); ++m) {
      if (m == n || !nodes[m]->up()) continue;
      if (transport->DeliverHeartbeat(n, m)) ++reached;
    }
    if (reached >= majority) {
      records_[n].last_heartbeat = now;
      records_[n].expired = false;  // the epoch stays bumped; only freshness returns
    } else {
      heartbeat_failures_c_->Inc();
    }
  }
  // Expiry: bump the epoch once per transition, invalidating every lease
  // granted under the old epoch — the split-brain fence.
  for (NodeId n = 0; n < nodes.size(); ++n) {
    Record& r = records_[n];
    const bool stale = !nodes[n]->up() || now - r.last_heartbeat > duration_;
    if (stale && !r.expired) {
      r.expired = true;
      ++r.epoch;
      epoch_bumps_c_->Inc();
    }
  }
}

// --- KVCluster: heartbeats and lease placement --------------------------------

bool KVCluster::liveness_enabled() const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return liveness_.enabled();
}

uint64_t KVCluster::NodeLivenessEpoch(NodeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return liveness_.Epoch(id);
}

bool KVCluster::NodeLivenessValid(NodeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  if (!liveness_.enabled()) return true;
  return id < nodes_.size() && liveness_.Valid(id, clock_->Now());
}

void KVCluster::TickHeartbeats() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  liveness_.HeartbeatRound(nodes_, replication_.transport());
  // Lease maintenance + catch-up: invalid leases move to a caught-up
  // replica with valid liveness; lagging replicas reachable through the
  // transport replay what they missed.
  for (const auto& [rid, state] : directory_.by_id()) {
    RangeState* range = state.get();
    if (!nodes_[range->desc.leaseholder]->live() || !liveness_.LeaseValid(range->desc)) {
      const Nanos now = clock_->Now();
      for (NodeId n : range->desc.replicas) {
        if (!liveness_.Valid(n, now) || !replication_.CatchUpCandidate(range, n)) {
          continue;
        }
        // Re-granted only when the current lease is not actually fine.
        if (range->desc.leaseholder != n ||
            range->desc.lease_epoch != liveness_.Epoch(n)) {
          liveness_.TransferLease(range, n);
        }
        break;
      }
    }
    const uint64_t committed = range->log.committed_index();
    for (NodeId r : range->desc.replicas) {
      if (r == range->desc.leaseholder || !nodes_[r]->up()) continue;
      if (range->log.Applied(r) >= committed) continue;
      if (!replication_.transport()->DeliverHeartbeat(range->desc.leaseholder, r)) {
        continue;
      }
      (void)replication_.CatchUp(range, r, committed);
    }
    replication_.Truncate(range);
  }
}

void KVCluster::SetNodeLive(NodeId id, bool live) {
  nodes_[id]->SetLive(live);
  if (!live) {
    ShedLeases(id);
    return;
  }
  // A returning node replays what it missed before serving again, so it
  // rejoins converged and counts toward quorum with real data.
  (void)CatchUpNode(id);
}

void KVCluster::ShedLeases(NodeId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  for (const auto& [rid, state] : directory_.by_id()) {
    if (state->desc.leaseholder != id) continue;
    for (NodeId n : state->desc.replicas) {
      if (n == id || !replication_.CatchUpCandidate(state.get(), n)) continue;
      liveness_.TransferLease(state.get(), n);
      break;
    }
    // No caught-up candidate: the lease stays put (and invalid, if the
    // holder is down) until the next heartbeat tick can repair it —
    // an unavailable range beats a divergent leaseholder.
  }
}

void KVCluster::BalanceLeases() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  size_t next = 0;
  for (const auto& [start, rid] : directory_.by_start()) {
    RangeState* state = directory_.at(rid);
    // Pick the next live, caught-up replica in round-robin order over the
    // replica set; a behind candidate that cannot replay the gap is skipped
    // rather than handed a lease over a divergent engine.
    for (size_t i = 0; i < state->desc.replicas.size(); ++i) {
      const NodeId candidate =
          state->desc.replicas[(next + i) % state->desc.replicas.size()];
      if (!replication_.CatchUpCandidate(state, candidate)) continue;
      if (state->desc.leaseholder != candidate) {
        liveness_.TransferLease(state, candidate);
      }
      break;
    }
    ++next;
  }
}

}  // namespace veloce::kv
