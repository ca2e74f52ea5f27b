#ifndef VELOCE_KV_TXN_H_
#define VELOCE_KV_TXN_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "kv/mvcc.h"
#include "kv/timestamp.h"

namespace veloce::kv {

enum class TxnStatus : uint8_t {
  kPending = 0,
  kCommitted = 1,
  kAborted = 2,
  /// Parallel commit: the coordinator declared its commit timestamp and the
  /// set of writes still in flight. The txn is implicitly committed once
  /// every declared write holds an intent at or below staged_ts; a pusher
  /// that finds the record staged runs the recovery procedure instead of
  /// pushing (see KVCluster::RecoverStagedTxnLocked).
  kStaging = 3,
};

/// A transaction record: the authoritative state used to resolve intent
/// conflicts. In CockroachDB these live in the range holding the txn's
/// anchor key; here they are centralized in an in-process registry — a
/// documented substitution that preserves push/resolve semantics while
/// avoiding a second replicated keyspace.
struct TxnRecord {
  TxnId id = 0;
  TxnStatus status = TxnStatus::kPending;
  Timestamp read_ts;     ///< timestamp reads observe
  Timestamp write_ts;    ///< provisional commit timestamp (>= read_ts)
  int32_t priority = 0;
  Nanos last_heartbeat = 0;
  /// Parallel commit (status == kStaging): the declared commit timestamp
  /// and the writes whose success is the commit condition. staged_ts is
  /// pinned at Stage() time; write_ts may move above it if a late
  /// pipelined write gets bumped, which makes the commit condition fail
  /// and forces the coordinator to refresh and re-stage.
  Timestamp staged_ts;
  std::vector<std::string> in_flight_writes;
};

/// Outcome of a PushTxn attempt.
struct PushResult {
  /// Final status of the pushee after the push.
  TxnStatus pushee_status = TxnStatus::kPending;
  /// True if the push succeeded (pushee aborted, finalized, or its
  /// timestamp moved above the pusher's).
  bool pushed = false;
  /// Commit timestamp when pushee_status == kCommitted; the staged
  /// timestamp when pushee_status == kStaging.
  Timestamp commit_ts;
};

/// Thread-safe registry of transaction records.
class TxnRegistry {
 public:
  /// Transactions whose heartbeat is older than this are considered
  /// abandoned and may be aborted by any pusher.
  static constexpr Nanos kExpiration = 5 * kSecond;

  explicit TxnRegistry(Clock* clock) : clock_(clock) {}

  /// Creates a new pending transaction reading at `ts`.
  TxnRecord Begin(Timestamp ts, int32_t priority);

  StatusOr<TxnRecord> Get(TxnId id) const;

  /// Refreshes liveness; returns the current record.
  StatusOr<TxnRecord> Heartbeat(TxnId id);

  /// Moves write_ts forward (never backward) for a pending or staging txn.
  Status BumpWriteTimestamp(TxnId id, Timestamp ts);

  /// Transitions pending|staging -> staging: declares commit timestamp
  /// `commit_ts` with `in_flight_writes` as the commit condition. Re-staging
  /// (after a refresh moved the commit timestamp up) is allowed. Fails with
  /// TransactionAborted if a pusher won, Internal if already committed.
  Status Stage(TxnId id, Timestamp commit_ts,
               std::vector<std::string> in_flight_writes);

  /// Transitions pending|staging -> committed at `commit_ts`. Fails with
  /// TransactionAborted if the record was aborted by a pusher, and with
  /// TransactionRetry if the record moved since the caller read it: a
  /// pending write_ts pushed above `commit_ts`, or a staging record
  /// re-staged at another timestamp.
  Status Commit(TxnId id, Timestamp commit_ts);

  /// Transitions pending|staging -> aborted (idempotent; committed stays
  /// committed). With `staged_ts`, only a record still staging at exactly
  /// that timestamp is aborted (TransactionRetry otherwise): a re-stage
  /// since the caller read it declared a new commit condition.
  Status Abort(TxnId id, std::optional<Timestamp> staged_ts = std::nullopt);

  /// Push: attempts to resolve a conflict with `pushee`. An expired pushee
  /// is aborted outright. Otherwise a higher-priority pusher aborts the
  /// pushee (kPushAbort) or bumps its timestamp above push_to (kPushTs);
  /// ties break toward the pushee (writers win, matching the default CRDB
  /// behaviour of making readers wait). A staging pushee is never pushed
  /// here: the result carries pushed=false and the staged timestamp, and
  /// the caller must run parallel-commit recovery.
  enum class PushType { kAbort, kTimestamp };
  PushResult Push(TxnId pushee, int32_t pusher_priority, PushType type,
                  Timestamp push_to);

  /// Removes committed/aborted records older than kExpiration (GC).
  /// Staging records are never collected here — they may still be
  /// implicitly committed and only the recovery procedure may finalize
  /// them. KVCluster::GarbageCollectTxns() runs recovery on expired
  /// staging records (listed by ExpiredStaging) before calling this, so
  /// abandoned coordinators do not leak records forever.
  size_t GarbageCollect();

  /// Staging records whose heartbeat is past kExpiration: candidates for
  /// the cluster-level recovery sweep (commit-condition check, then
  /// finalize), after which plain GC can reap them.
  std::vector<TxnId> ExpiredStaging() const;

  size_t size() const;

 private:
  Clock* clock_;
  mutable std::mutex mu_;
  std::unordered_map<TxnId, TxnRecord> records_;
  TxnId next_id_ = 1;
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_TXN_H_
