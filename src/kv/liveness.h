#ifndef VELOCE_KV_LIVENESS_H_
#define VELOCE_KV_LIVENESS_H_

#include "kv/node.h"
#include "kv/range_directory.h"
#include "kv/replica_transport.h"

namespace veloce::kv {

/// Node liveness records with epoch leases: a record's epoch bumps once per
/// expiry and a lease is valid only under its holder's current epoch.
/// Enforcement arms on the first heartbeat round (KVCluster::TickHeartbeats).
/// Guarded by dir_mu_ (lock order: range_directory.h).
class Liveness {
 public:
  Liveness(Clock* clock, Nanos duration, obs::MetricsRegistry* metrics);

  /// A new node starts with a fresh record (epoch 1, heartbeat now).
  void AddNode();
  bool enabled() const { return enabled_; }
  /// Current epoch of a node (1 until its first expiry; 0 when unknown).
  uint64_t Epoch(NodeId id) const {
    return id < records_.size() ? records_[id].epoch : 0;
  }
  /// Whether the node's record is unexpired and fresh at `now`.
  bool Valid(NodeId id, Nanos now) const;
  /// True while the leaseholder's lease is valid: enforcement off, or the
  /// epoch matches and the holder's record has not expired.
  bool LeaseValid(const RangeDescriptor& desc) const;
  /// LeaseEpochMismatch (counted) for `desc`'s lease.
  Status LeaseError(const RangeDescriptor& desc) const;
  Status CheckLease(const RangeDescriptor& desc) const {
    return LeaseValid(desc) ? Status::OK() : LeaseError(desc);
  }
  /// Hands the lease to `node` under its current epoch.
  void TransferLease(RangeState* range, NodeId node);
  /// Refreshes the records of up nodes that reach a majority and bumps the
  /// epoch of those that expire.
  void HeartbeatRound(const NodeList& nodes, ReplicaTransport* transport);

 private:
  struct Record {
    uint64_t epoch = 1;
    Nanos last_heartbeat = 0;
    bool expired = false;  ///< epoch already bumped for the current expiry
  };

  Clock* clock_;
  const Nanos duration_;
  std::vector<Record> records_;
  bool enabled_ = false;
  obs::Counter* lease_moves_c_ = nullptr;
  obs::Counter* lease_epoch_mismatch_c_ = nullptr;
  obs::Counter* epoch_bumps_c_ = nullptr;
  obs::Counter* heartbeat_failures_c_ = nullptr;
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_LIVENESS_H_
