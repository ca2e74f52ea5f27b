#include "kv/txn_recovery.h"

#include "kv/cluster.h"
#include "kv/mvcc.h"

namespace veloce::kv {

StatusOr<PushResult> TxnRecovery::Recover(TxnId id, bool coordinator_abandoned) {
  VELOCE_ASSIGN_OR_RETURN(TxnRecord rec, registry->Get(id));
  if (rec.status != TxnStatus::kStaging) {
    // Finalized while we were deciding to recover.
    return PushResult{rec.status, rec.status != TxnStatus::kPending, rec.write_ts};
  }
  recoveries->Inc();
  const bool expired =
      coordinator_abandoned ||
      clock->Now() - rec.last_heartbeat > TxnRegistry::kExpiration;
  // Commit condition: every declared in-flight write holds this txn's
  // intent at or below staged_ts. Each key is checked under its range's
  // latch. Once the record expired, a missing key is poisoned in the
  // tscache at staged_ts in the same critical section, so a late pipelined
  // write can no longer land at or below it and satisfy the stale staging
  // after the check found it missing. The fence is recorded with no owner:
  // the write it must stop is the staged txn's own, which an entry owned by
  // that txn would let through.
  bool all_present = true;
  for (const auto& key : rec.in_flight_writes) {
    RangeState* range = directory->Lookup(key);
    storage::Engine* engine =
        range != nullptr ? (*nodes)[range->desc.leaseholder]->engine() : nullptr;
    if (engine == nullptr) {
      return Status::Unavailable("cannot verify staged write (range unavailable)");
    }
    Latch latch(range->latch);
    VELOCE_ASSIGN_OR_RETURN(auto intent, MvccGetIntent(engine, key));
    if (intent.has_value() && intent->txn_id == id && intent->ts <= rec.staged_ts) {
      continue;
    }
    all_present = false;
    if (!expired) break;
    range->tscache.RecordRead(key, rec.staged_ts, /*txn=*/0);
  }
  // The registry arbitrates races with a concurrent recovery or a re-stage
  // (which declares a new commit condition): when the record moved on since
  // it was read, finalizing fails and the pusher backs off.
  const Status raced = Status::WriteIntentError(
      "txn " + std::to_string(id) + " changed during recovery");
  if (all_present) {
    // Implicitly committed: finalize on the coordinator's behalf. The
    // coordinator's own CommitTxn later is an idempotent no-op.
    if (!registry->Commit(id, rec.staged_ts).ok()) return raced;
    oracle->Observe(rec.staged_ts);
    return PushResult{TxnStatus::kCommitted, /*pushed=*/true, rec.staged_ts};
  }
  if (!expired) {
    // A live parallel commit is still in flight; back off and let the
    // coordinator finish.
    return Status::WriteIntentError("txn " + std::to_string(id) +
                                    " is committing (staged)");
  }
  // Abandoned staging that never completed, its missing keys fenced above.
  if (!registry->Abort(id, rec.staged_ts).ok()) return raced;
  return PushResult{TxnStatus::kAborted, /*pushed=*/true, Timestamp()};
}

size_t TxnRecovery::GarbageCollect() {
  // Expired staging records (the coordinator died mid-parallel-commit) are
  // finalized through the recovery procedure — implicit commit when every
  // declared write is present, abort with tscache fencing otherwise — so
  // they cannot accumulate forever. Failures (e.g. a range temporarily
  // unavailable) leave the record for the next sweep.
  for (const TxnId id : registry->ExpiredStaging()) {
    (void)Recover(id);
  }
  return registry->GarbageCollect();
}

// --- KVCluster entry points ---------------------------------------------------

StatusOr<PushResult> KVCluster::ResolveAbandonedStaging(TxnId id) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return recovery_.Recover(id, /*coordinator_abandoned=*/true);
}

size_t KVCluster::GarbageCollectTxns() {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return recovery_.GarbageCollect();
}

}  // namespace veloce::kv
