#include "kv/txn.h"

namespace veloce::kv {

TxnRecord TxnRegistry::Begin(Timestamp ts, int32_t priority) {
  std::lock_guard<std::mutex> l(mu_);
  TxnRecord rec;
  rec.id = next_id_++;
  rec.status = TxnStatus::kPending;
  rec.read_ts = ts;
  rec.write_ts = ts;
  rec.priority = priority;
  rec.last_heartbeat = clock_->Now();
  records_[rec.id] = rec;
  return rec;
}

StatusOr<TxnRecord> TxnRegistry::Get(TxnId id) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  return it->second;
}

StatusOr<TxnRecord> TxnRegistry::Heartbeat(TxnId id) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  if (it->second.status == TxnStatus::kPending ||
      it->second.status == TxnStatus::kStaging) {
    it->second.last_heartbeat = clock_->Now();
  }
  return it->second;
}

Status TxnRegistry::BumpWriteTimestamp(TxnId id, Timestamp ts) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  // A staging txn's write_ts may still move (a late pipelined write got
  // bumped); the gap between write_ts and staged_ts then fails the commit
  // condition until the coordinator refreshes and re-stages.
  if (it->second.status != TxnStatus::kPending &&
      it->second.status != TxnStatus::kStaging) {
    return Status::TransactionAborted("txn no longer pending");
  }
  if (it->second.write_ts < ts) it->second.write_ts = ts;
  return Status::OK();
}

Status TxnRegistry::Stage(TxnId id, Timestamp commit_ts,
                          std::vector<std::string> in_flight_writes) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  TxnRecord& rec = it->second;
  if (rec.status == TxnStatus::kAborted) {
    return Status::TransactionAborted("aborted by a concurrent pusher");
  }
  if (rec.status == TxnStatus::kCommitted) {
    return Status::Internal("cannot stage a committed txn");
  }
  rec.status = TxnStatus::kStaging;
  rec.staged_ts = commit_ts;
  if (rec.write_ts < commit_ts) rec.write_ts = commit_ts;
  rec.in_flight_writes = std::move(in_flight_writes);
  rec.last_heartbeat = clock_->Now();
  return Status::OK();
}

Status TxnRegistry::Commit(TxnId id, Timestamp commit_ts) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  TxnRecord& rec = it->second;
  if (rec.status == TxnStatus::kAborted) {
    return Status::TransactionAborted("aborted by a concurrent pusher");
  }
  if (rec.status == TxnStatus::kCommitted) return Status::OK();
  if ((rec.status == TxnStatus::kPending && commit_ts < rec.write_ts) ||
      (rec.status == TxnStatus::kStaging && commit_ts != rec.staged_ts)) {
    return Status::TransactionRetry("txn record moved; re-read and retry");
  }
  rec.status = TxnStatus::kCommitted;
  rec.write_ts = commit_ts;
  rec.in_flight_writes.clear();
  rec.last_heartbeat = clock_->Now();
  return Status::OK();
}

Status TxnRegistry::Abort(TxnId id, std::optional<Timestamp> staged_ts) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::NotFound("no txn record");
  if (it->second.status == TxnStatus::kCommitted) {
    return Status::Internal("cannot abort a committed txn");
  }
  if (staged_ts.has_value() && (it->second.status != TxnStatus::kStaging ||
                                it->second.staged_ts != *staged_ts)) {
    return Status::TransactionRetry("txn record moved; re-read and retry");
  }
  it->second.status = TxnStatus::kAborted;
  it->second.in_flight_writes.clear();
  return Status::OK();
}

PushResult TxnRegistry::Push(TxnId pushee, int32_t pusher_priority,
                             PushType type, Timestamp push_to) {
  std::lock_guard<std::mutex> l(mu_);
  PushResult result;
  auto it = records_.find(pushee);
  if (it == records_.end()) {
    // Unknown record: treat as aborted (it was GC'ed after finalizing; the
    // intent is stale and the resolver may clean it up).
    result.pushee_status = TxnStatus::kAborted;
    result.pushed = true;
    return result;
  }
  TxnRecord& rec = it->second;
  if (rec.status == TxnStatus::kStaging) {
    // A staged txn may already be implicitly committed; neither aborting
    // nor bumping is legal here. The caller must run the parallel-commit
    // recovery procedure against the declared in-flight writes.
    result.pushee_status = TxnStatus::kStaging;
    result.commit_ts = rec.staged_ts;
    result.pushed = false;
    return result;
  }
  if (rec.status != TxnStatus::kPending) {
    result.pushee_status = rec.status;
    result.commit_ts = rec.write_ts;
    result.pushed = true;
    return result;
  }
  const bool expired = clock_->Now() - rec.last_heartbeat > kExpiration;
  if (expired || (type == PushType::kAbort && pusher_priority > rec.priority)) {
    rec.status = TxnStatus::kAborted;
    result.pushee_status = TxnStatus::kAborted;
    result.pushed = true;
    return result;
  }
  if (type == PushType::kTimestamp) {
    // Readers always succeed in pushing a pending writer's timestamp above
    // their read timestamp; the writer pays with a refresh at commit. This
    // keeps reads non-blocking (CockroachDB reaches the same outcome via
    // the txn wait queue).
    if (rec.write_ts <= push_to) rec.write_ts = push_to.Next();
    result.pushee_status = TxnStatus::kPending;
    result.pushed = true;
    return result;
  }
  result.pushee_status = TxnStatus::kPending;
  result.pushed = false;
  return result;
}

size_t TxnRegistry::GarbageCollect() {
  std::lock_guard<std::mutex> l(mu_);
  const Nanos cutoff = clock_->Now() - kExpiration;
  size_t removed = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    const TxnStatus st = it->second.status;
    const bool finalized =
        st == TxnStatus::kCommitted || st == TxnStatus::kAborted;
    if (finalized && it->second.last_heartbeat < cutoff) {
      it = records_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<TxnId> TxnRegistry::ExpiredStaging() const {
  std::lock_guard<std::mutex> l(mu_);
  const Nanos cutoff = clock_->Now() - kExpiration;
  std::vector<TxnId> out;
  for (const auto& [id, rec] : records_) {
    if (rec.status == TxnStatus::kStaging && rec.last_heartbeat < cutoff) {
      out.push_back(id);
    }
  }
  return out;
}

size_t TxnRegistry::size() const {
  std::lock_guard<std::mutex> l(mu_);
  return records_.size();
}

}  // namespace veloce::kv
