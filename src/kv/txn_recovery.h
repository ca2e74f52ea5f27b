#ifndef VELOCE_KV_TXN_RECOVERY_H_
#define VELOCE_KV_TXN_RECOVERY_H_

#include "kv/node.h"
#include "kv/range_directory.h"
#include "kv/timestamp_oracle.h"
#include "kv/txn.h"

namespace veloce::kv {

/// Parallel-commit status recovery and the txn-record GC built on it, run
/// under dir_mu_ (lock order: range_directory.h).
struct TxnRecovery {
  Clock* clock;
  TxnRegistry* registry;
  TimestampOracle* oracle;
  const RangeDirectory* directory;
  const NodeList* nodes;
  obs::Counter* recoveries;  ///< veloce_txn_staging_recoveries_total

  /// A pusher found `id` in STAGING. If every declared in-flight write
  /// holds an intent at or below staged_ts the txn is implicitly committed
  /// and is finalized here; if a write is missing and the record expired,
  /// the txn is aborted (each missing key poisoned in the tscache under the
  /// latch that found it missing, so a late write cannot satisfy the stale
  /// staging); otherwise the pusher backs off (WriteIntentError).
  /// `coordinator_abandoned` skips the liveness backoff: the coordinator
  /// itself gave up on the commit (equivalent to an expired record), so a
  /// missing write aborts immediately. Must be called with no range latch
  /// held: it latches the range of each key it checks.
  StatusOr<PushResult> Recover(TxnId id, bool coordinator_abandoned = false);
  /// Recover on expired STAGING records, then reaps finalized ones.
  size_t GarbageCollect();
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_TXN_RECOVERY_H_
