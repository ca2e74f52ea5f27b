#ifndef VELOCE_KV_REPLICATION_H_
#define VELOCE_KV_REPLICATION_H_

#include "kv/node.h"
#include "kv/range_directory.h"
#include "kv/replica_transport.h"

namespace veloce::kv {

/// One chunk (a WriteBatch of ~max_bytes) of a span walk over engine keys
/// [*cursor, end), moving *cursor past the last key: ClearSpanChunk deletes
/// dst's keys and returns whether there were any; CopySpanChunk copies
/// src's into dst and returns true once the span is exhausted.
StatusOr<bool> ClearSpanChunk(storage::Engine* dst, std::string* cursor, Slice end,
                              size_t max_bytes);
StatusOr<bool> CopySpanChunk(storage::Engine* src, storage::Engine* dst,
                             std::string* cursor, Slice end, size_t max_bytes);
/// Deletes every engine key of the user-key span [start, end) from `dst`,
/// in ~1MB batches.
Status ClearSpan(storage::Engine* dst, Slice start, Slice end);

/// Replication of each range's log (a compact Raft, DESIGN.md) through the
/// replica transport it owns (null = the in-process passthrough), with
/// catch-up, snapshots and truncation. Guarded by dir_mu_ plus the range's
/// latch (lock order: range_directory.h).
class Replication {
 public:
  Replication(const NodeList& nodes, ReplicaTransport* transport,
              obs::MetricsRegistry* metrics);

  ReplicaTransport* transport() const { return transport_; }
  void set_transport(ReplicaTransport* transport) {
    transport_ = transport != nullptr ? transport : &passthrough_;
  }

  /// Appends `rec` to the range log and delivers it per the transport's
  /// link decisions. The leaseholder applies first (a local failure rejects
  /// the round with nothing logged); remotes that the round does not reach,
  /// or whose engines fail, are demoted to needs-catch-up instead of
  /// failing the batch — as long as an ack quorum holds.
  /// `require_quorum=false` (intent resolutions, tenant clears) logs and
  /// applies best-effort. `batch` optionally carries the already-parsed
  /// WriteBatch for kBatch records so the hot path skips re-decoding
  /// rec.payload.
  Status Replicate(RangeState* range, LogRecord rec, const storage::WriteBatch* batch,
                   bool require_quorum);
  /// Applies one log record to one node's engine `copies` times
  /// (duplicates model the network; every record kind is idempotent).
  /// `charge_tenant` is false on catch-up replay: a replayed record may
  /// already have been applied (delivered but unacked), and its bytes were
  /// attributed at original delivery.
  Status Apply(KVNode* node, const LogRecord& rec, const storage::WriteBatch* batch,
               uint32_t copies, bool charge_tenant = true) const;
  /// Brings one replica's applied position up to min(limit, committed) by
  /// in-order replay, or by snapshot transfer when the log has been
  /// truncated past its position.
  Status CatchUp(RangeState* range, NodeId node, uint64_t limit);
  /// Whether `node` is up and holds every committed record of `range`,
  /// replaying (or snapshotting) the gap first. Lease and snapshot-source
  /// candidates must pass: a behind replica serving reads would
  /// un-linearize acked writes.
  bool CatchUpCandidate(RangeState* range, NodeId node);
  /// Snapshot transfer: clears the target's engine keyspan for the range
  /// and copies it from a fully-applied replica.
  Status Snapshot(RangeState* range, NodeId to);
  /// Drops fully-applied log prefixes (bounded retention while lagging).
  void Truncate(RangeState* range) const;

 private:
  const NodeList& nodes_;
  PassthroughTransport passthrough_;
  ReplicaTransport* transport_ = nullptr;
  obs::Counter* demotions_c_ = nullptr;
  obs::Counter* catchups_replay_c_ = nullptr;
  obs::Counter* catchups_snapshot_c_ = nullptr;
  obs::Counter* catchup_records_c_ = nullptr;
  obs::HistogramMetric* delay_h_ = nullptr;
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_REPLICATION_H_
