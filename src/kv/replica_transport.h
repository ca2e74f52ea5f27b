#ifndef VELOCE_KV_REPLICA_TRANSPORT_H_
#define VELOCE_KV_REPLICA_TRANSPORT_H_

#include <cstdint>

#include "common/clock.h"

namespace veloce::kv {

/// Outcome of attempting one leaseholder→replica delivery. The default
/// (everything delivered, acked, once, instantly) is the in-process
/// passthrough behaviour.
///
/// `deliver` and `ack` are split so message-level faults can be modeled
/// precisely: a delivered-but-unacked message is a lost acknowledgement
/// (the replica applied the entry but the leaseholder must treat it as
/// behind and later re-replays — harmless, replay is idempotent), while an
/// acked-but-undelivered message is physically impossible on a real network
/// and exists only so a deliberately broken transport can manufacture
/// split-brain histories for the linearizability checker's self-test.
struct LinkDecision {
  bool deliver = true;   ///< the payload reaches the replica's engine
  bool ack = true;       ///< the replica's ack reaches the leaseholder
  uint32_t copies = 1;   ///< duplicate deliveries (idempotent apply)
  Nanos delay = 0;       ///< one-way delivery latency (observability only)
};

/// The seam every leaseholder→replica log delivery and every node-to-node
/// liveness heartbeat flows through. In production these are gRPC streams;
/// here they are virtual calls so the deterministic sim can interpose a
/// seeded fault mesh (sim::FaultyMesh) while the default passthrough keeps
/// the in-process cluster bit-identical to direct engine writes.
///
/// Implementations must be deterministic given their seed and call order:
/// the cluster consults the transport in replica-id order, so a fixed
/// scenario seed run from one thread yields a fixed fault trajectory.
/// Deliveries run under the sending range's latch, so ranges served from
/// several threads call in concurrently: a transport shared by concurrent
/// clients must be thread-safe.
class ReplicaTransport {
 public:
  virtual ~ReplicaTransport() = default;

  /// Decides the fate of log entry `log_index` sent from node `from` (the
  /// leaseholder) to replica `to`.
  virtual LinkDecision DeliverReplication(uint32_t from, uint32_t to,
                                          uint64_t log_index) = 0;

  /// Whether a liveness heartbeat from `from` reaches `to`. Also used as
  /// the reachability probe before streaming catch-up entries over a link.
  virtual bool DeliverHeartbeat(uint32_t from, uint32_t to) = 0;
};

/// Default transport: every message arrives, exactly once, immediately.
class PassthroughTransport final : public ReplicaTransport {
 public:
  LinkDecision DeliverReplication(uint32_t, uint32_t, uint64_t) override {
    return LinkDecision{};
  }
  bool DeliverHeartbeat(uint32_t, uint32_t) override { return true; }
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_REPLICA_TRANSPORT_H_
