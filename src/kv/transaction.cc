#include "kv/transaction.h"

#include <utility>

namespace veloce::kv {

namespace {

// Read-span ends are exclusive; the empty string means +infinity.
bool EndReaches(const std::string& end, const std::string& key) {
  return end.empty() || end >= key;
}

std::string MaxEnd(const std::string& a, const std::string& b) {
  if (a.empty() || b.empty()) return std::string();
  return a > b ? a : b;
}

}  // namespace

Transaction::Transaction(KVCluster* cluster, TenantId tenant, int32_t priority,
                         Sender sender, TxnOptions options)
    : cluster_(cluster),
      sender_(std::move(sender)),
      options_(options),
      tenant_(tenant) {
  executor_ = options_.executor != nullptr ? options_.executor
                                           : cluster_->background_executor();
  record_ = cluster_->BeginTxn(priority);
  max_write_ts_ = record_.write_ts;
}

Transaction::~Transaction() {
  if (!finalized_) (void)Rollback();
}

BatchRequest Transaction::MakeRequest() const {
  BatchRequest req;
  req.tenant_id = tenant_;
  req.ts = record_.read_ts;
  req.txn_id = record_.id;
  req.txn_priority = record_.priority;
  req.trace = trace_;
  return req;
}

StatusOr<BatchResponse> Transaction::SendTracked(const BatchRequest& req) {
  ++batches_sent_;
  auto resp = sender_ ? sender_(req) : cluster_->Send(req);
  if (resp.ok() && max_write_ts_ < resp->bumped_write_ts) {
    max_write_ts_ = resp->bumped_write_ts;
  }
  return resp;
}

void Transaction::AddReadSpan(const std::string& start, const std::string& end) {
  std::string s = start;
  std::string e = end;
  // Merge with a predecessor span that reaches s (overlapping or adjacent).
  auto it = read_spans_.upper_bound(s);
  if (it != read_spans_.begin()) {
    auto prev = std::prev(it);
    if (EndReaches(prev->second, s)) {
      s = prev->first;
      e = MaxEnd(e, prev->second);
      read_spans_.erase(prev);
    }
  }
  // Absorb successor spans the merged span now reaches.
  for (auto nit = read_spans_.lower_bound(s);
       nit != read_spans_.end() && EndReaches(e, nit->first);) {
    e = MaxEnd(e, nit->second);
    nit = read_spans_.erase(nit);
  }
  read_spans_[std::move(s)] = std::move(e);
}

bool Transaction::AnyKeyInSpan(const std::set<std::string>& keys, Slice start,
                               Slice end) {
  auto it = keys.lower_bound(start.ToString());
  return it != keys.end() && (end.empty() || Slice(*it) < end);
}

Status Transaction::MultiGet(const std::vector<std::string>& keys,
                             std::vector<std::optional<std::string>>* values) {
  if (finalized_) return Status::Internal("txn already finalized");
  values->assign(keys.size(), std::nullopt);
  BatchRequest req = MakeRequest();
  std::vector<size_t> sent;  // index into keys of each request in req
  bool wait_pipeline = false;
  for (size_t i = 0; i < keys.size(); ++i) {
    // Read-your-writes from the buffer: the value does not depend on
    // database state, so no read span is needed.
    auto bit = buffer_.find(keys[i]);
    if (bit != buffer_.end()) {
      if (!bit->second.tombstone) (*values)[i] = bit->second.value;
      continue;
    }
    // Reading a key we flushed requires the pipelined intent to be applied.
    if (intent_keys_.count(keys[i]) != 0) wait_pipeline = true;
    req.AddGet(keys[i]);
    sent.push_back(i);
  }
  if (sent.empty()) return Status::OK();
  if (wait_pipeline) VELOCE_RETURN_IF_ERROR(WaitPipeline());
  VELOCE_ASSIGN_OR_RETURN(BatchResponse resp, SendTracked(req));
  for (size_t j = 0; j < sent.size(); ++j) {
    const std::string& key = keys[sent[j]];
    AddReadSpan(key, key + std::string(1, '\0'));
    if (resp.responses[j].found) {
      (*values)[sent[j]] = std::move(resp.responses[j].value);
    }
  }
  return Status::OK();
}

Status Transaction::Get(Slice key, std::optional<std::string>* value) {
  std::vector<std::optional<std::string>> values;
  VELOCE_RETURN_IF_ERROR(MultiGet({key.ToString()}, &values));
  *value = std::move(values[0]);
  return Status::OK();
}

Status Transaction::Put(Slice key, Slice value) { return Write(key, value, false); }

Status Transaction::Delete(Slice key) { return Write(key, Slice(), true); }

Status Transaction::Write(Slice key, Slice value, bool tombstone) {
  if (finalized_) return Status::Internal("txn already finalized");
  buffer_[key.ToString()] = {value.ToString(), tombstone};
  // Unbuffered writes flush at once, as a batch of one.
  if (!options_.buffer_writes || buffer_.size() >= options_.max_buffered_writes) {
    return Flush();
  }
  return Status::OK();
}

Status Transaction::Scan(Slice start, Slice end, uint64_t limit,
                         std::vector<MvccScanEntry>* rows, std::string* resume_key) {
  if (finalized_) return Status::Internal("txn already finalized");
  // Buffered writes in the span must become intents to be visible to the
  // MVCC scan; flushed ones must have been applied.
  auto bit = buffer_.lower_bound(start.ToString());
  if (bit != buffer_.end() && (end.empty() || Slice(bit->first) < end)) {
    VELOCE_RETURN_IF_ERROR(Flush());
  }
  if (AnyKeyInSpan(intent_keys_, start, end)) {
    VELOCE_RETURN_IF_ERROR(WaitPipeline());
  }
  BatchRequest req = MakeRequest();
  req.AddScan(start, end, limit);
  VELOCE_ASSIGN_OR_RETURN(BatchResponse resp, SendTracked(req));
  AddReadSpan(start.ToString(), end.ToString());
  *rows = std::move(resp.responses[0].rows);
  if (resume_key != nullptr) *resume_key = resp.responses[0].resume_key;
  return Status::OK();
}

Status Transaction::Flush() {
  if (buffer_.empty()) return Status::OK();
  BatchRequest req = MakeRequest();
  for (auto& [key, w] : buffer_) {
    req.AddWrite(key, w.value, w.tombstone);
    intent_keys_.insert(key);
  }
  buffer_.clear();
  if (options_.pipeline_writes && executor_ != nullptr) {
    req.trace = nullptr;  // pipelined batches run on executor threads
    EnqueuePipelined(std::move(req));
    return Status::OK();
  }
  VELOCE_ASSIGN_OR_RETURN(BatchResponse resp, SendTracked(req));
  (void)resp;
  return Status::OK();
}

void Transaction::EnqueuePipelined(BatchRequest req) {
  ++batches_sent_;
  if (pipeline_ == nullptr) pipeline_ = std::make_shared<PipelineState>();
  auto st = pipeline_;
  bool need_drainer = false;
  {
    std::lock_guard<std::mutex> l(st->mu);
    st->queue.push_back(std::move(req));
    ++st->outstanding;
    if (!st->draining) {
      st->draining = true;
      need_drainer = true;
    }
  }
  if (need_drainer) {
    // One drainer at a time keeps batches strictly FIFO (intent ordering)
    // and bounds executor usage to a single slot per transaction.
    Sender send = sender_;
    if (!send) {
      KVCluster* cluster = cluster_;
      send = [cluster](const BatchRequest& r) { return cluster->Send(r); };
    }
    executor_->Schedule(
        [st, send = std::move(send)] { DrainPipeline(st, send); });
  }
}

void Transaction::DrainPipeline(std::shared_ptr<PipelineState> st, Sender send) {
  for (;;) {
    BatchRequest req;
    {
      std::lock_guard<std::mutex> l(st->mu);
      if (st->queue.empty()) {
        st->draining = false;
        st->cv.notify_all();
        return;
      }
      req = std::move(st->queue.front());
      st->queue.pop_front();
    }
    StatusOr<BatchResponse> resp = send(req);
    std::lock_guard<std::mutex> l(st->mu);
    if (resp.ok()) {
      if (st->max_bump < resp->bumped_write_ts) st->max_bump = resp->bumped_write_ts;
    } else if (st->first_error.ok()) {
      st->first_error = resp.status();
    }
    --st->outstanding;
    st->cv.notify_all();
  }
}

Status Transaction::WaitPipeline() {
  if (pipeline_ == nullptr) return Status::OK();
  auto st = pipeline_;
  std::unique_lock<std::mutex> l(st->mu);
  if (executor_ != nullptr && executor_->single_threaded()) {
    // Blocking would deadlock a single-threaded executor; assist instead.
    while (st->outstanding > 0) {
      l.unlock();
      executor_->RunQueued();
      l.lock();
    }
  } else {
    st->cv.wait(l, [&] { return st->outstanding == 0; });
  }
  if (max_write_ts_ < st->max_bump) max_write_ts_ = st->max_bump;
  return st->first_error;
}

Status Transaction::RefreshReads(Timestamp to) {
  if (!(record_.read_ts < to)) return Status::OK();
  for (const auto& [start, end] : read_spans_) {
    VELOCE_ASSIGN_OR_RETURN(bool changed,
                            cluster_->AnyNewerVersions(tenant_, start, end,
                                                       record_.read_ts, to,
                                                       record_.id));
    if (changed) return Status::TransactionRetry("read refresh failed; retry txn");
  }
  record_.read_ts = to;
  return Status::OK();
}

Status Transaction::TryOnePhaseCommit(Nanos start_ns) {
  const KVCluster::TxnMetricSet& m = cluster_->txn_metrics();
  for (int attempt = 0; attempt < 3; ++attempt) {
    BatchRequest req = MakeRequest();
    req.commit_txn = true;
    req.can_forward_ts = read_spans_.empty();
    for (const auto& [key, w] : buffer_) req.AddWrite(key, w.value, w.tombstone);
    VELOCE_ASSIGN_OR_RETURN(BatchResponse resp, SendTracked(req));
    if (!resp.one_pc_rejected_ts.IsEmpty()) {
      // The commit timestamp must move and we performed reads: refresh up
      // to the rejected timestamp and retry at it.
      m.retries->Inc();
      VELOCE_RETURN_IF_ERROR(RefreshReads(resp.one_pc_rejected_ts));
      continue;
    }
    commit_ts_ = resp.commit_ts;
    finalized_ = true;
    buffer_.clear();
    RecordCommit(m.commits_1pc, start_ns);
    return Status::OK();
  }
  return Status::NotSupported("1pc commit kept getting pushed");
}

Status Transaction::Commit() {
  if (finalized_) return Status::Internal("txn already finalized");
  const KVCluster::TxnMetricSet& m = cluster_->txn_metrics();
  const Nanos start_ns = cluster_->clock()->Now();

  // One-phase fast path: every write is still buffered (no intents laid),
  // so the whole write set can commit server-side in one batch.
  if (options_.one_phase_commit && intent_keys_.empty() && !buffer_.empty()) {
    Status s = TryOnePhaseCommit(start_ns);
    if (s.code() != Code::kNotSupported) return RollbackIfFailed(s, false);
    // NotSupported: multi-range write set, or 1PC raced out. Fall through
    // to the general path.
  }

  VELOCE_RETURN_IF_ERROR(RollbackIfFailed(Flush()));
  std::vector<std::string> keys(intent_keys_.begin(), intent_keys_.end());

  if (options_.parallel_commit && !keys.empty()) {
    // Parallel commit: stage while pipelined intent writes may still be in
    // flight. STAGING + all declared writes proven present IS the commit —
    // a concurrent pusher's recovery may finalize the txn the moment the
    // last intent lands — so reads MUST be validated up to the staged
    // timestamp BEFORE staging. StageTxn enforces this: it refuses to
    // stage above the validated timestamp and hands back the refresh
    // target instead.
    Timestamp staged;
    Status ss;
    for (int attempt = 0;; ++attempt) {
      const Timestamp intended =
          record_.read_ts < max_write_ts_ ? max_write_ts_ : record_.read_ts;
      if (record_.read_ts < intended) {
        // Never staged: the record is still pending, so aborting cannot
        // contradict a recovery.
        VELOCE_RETURN_IF_ERROR(RollbackIfFailed(RefreshReads(intended)));
      }
      ss = cluster_->StageTxn(record_.id, keys, &staged, record_.read_ts);
      if (ss.IsTransactionRetry() && attempt < 3) {
        // The server-side write timestamp moved above what we validated
        // (an in-flight write bump or a reader's push); `staged` carries
        // the target to refresh to.
        m.retries->Inc();
        if (max_write_ts_ < staged) max_write_ts_ = staged;
        continue;
      }
      break;
    }
    // On failure nothing was staged; the txn is pending (or already aborted
    // by a pusher), so rolling back is safe.
    VELOCE_RETURN_IF_ERROR(RollbackIfFailed(ss, false));
    Status ps = WaitPipeline();
    if (!ps.ok()) {
      // A batch failed after the txn was staged; its writes may still have
      // applied server-side. Settle the outcome via the recovery check —
      // never a blind rollback, which could race a recovery that proves
      // the commit condition.
      return ResolveIndeterminateCommit(ps, keys, start_ns);
    }
    if (max_write_ts_ > staged) {
      // A late in-flight write landed above the staged timestamp. Its
      // intent sits above `staged`, so the commit condition there provably
      // fails and no recovery can have committed the record; refreshing
      // and re-staging (or aborting) is still safe.
      m.retries->Inc();
      VELOCE_RETURN_IF_ERROR(RollbackIfFailed(RefreshReads(max_write_ts_)));
      VELOCE_RETURN_IF_ERROR(RollbackIfFailed(
          cluster_->StageTxn(record_.id, keys, &staged, record_.read_ts), false));
    }
    // Implicitly committed, with reads validated at the staged timestamp:
    // ack the client now; resolution follows.
    commit_ts_ = staged;
    finalized_ = true;
    RecordCommit(m.commits_parallel, start_ns);
    if (options_.async_finalize && executor_ != nullptr) {
      KVCluster* cluster = cluster_;
      const TxnId txn_id = record_.id;
      executor_->Schedule([cluster, txn_id, keys] {
        (void)cluster->CommitTxn(txn_id, keys, nullptr);
      });
    } else {
      // Already acked; a concurrent recovery may have finalized the record
      // for us, in which case this is an idempotent no-op.
      (void)cluster_->CommitTxn(record_.id, keys, nullptr);
    }
    return Status::OK();
  }

  // Classic path (and read-only commits): drain the pipeline, refresh if
  // our write timestamp moved above our read timestamp, then commit and
  // resolve before acking. CommitTxn re-checks that nothing pushed the
  // write timestamp past what was validated (a reader's push can race the
  // refresh) and sends us around the loop again when it did.
  VELOCE_RETURN_IF_ERROR(RollbackIfFailed(WaitPipeline()));
  Status s;
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (max_write_ts_ > record_.read_ts && !read_spans_.empty()) {
      VELOCE_RETURN_IF_ERROR(RollbackIfFailed(RefreshReads(max_write_ts_)));
    }
    Timestamp committed;
    s = cluster_->CommitTxn(record_.id, keys, &committed,
                            read_spans_.empty()
                                ? std::nullopt
                                : std::optional<Timestamp>(record_.read_ts));
    if (s.IsTransactionRetry() && !committed.IsEmpty()) {
      // `committed` carries the bumped write timestamp to validate up to.
      m.retries->Inc();
      if (max_write_ts_ < committed) max_write_ts_ = committed;
      continue;
    }
    if (s.ok()) commit_ts_ = committed;
    break;
  }
  VELOCE_RETURN_IF_ERROR(RollbackIfFailed(s, false));
  finalized_ = true;
  RecordCommit(m.commits_classic, start_ns);
  return Status::OK();
}

Status Transaction::ResolveIndeterminateCommit(const Status& pipeline_error,
                                               const std::vector<std::string>& keys,
                                               Nanos start_ns) {
  const KVCluster::TxnMetricSet& m = cluster_->txn_metrics();
  // Whatever the outcome, this coordinator is done driving the commit; the
  // destructor must not issue another rollback.
  finalized_ = true;
  StatusOr<PushResult> pr = cluster_->ResolveAbandonedStaging(record_.id);
  if (pr.ok() && pr->pushee_status == TxnStatus::kCommitted) {
    // Every declared write is present at or below the staged timestamp —
    // the "failed" batch did apply, and reads were validated there before
    // staging. The txn IS committed; resolve intents and ack.
    commit_ts_ = pr->commit_ts;
    (void)cluster_->CommitTxn(record_.id, keys, nullptr);
    RecordCommit(m.commits_parallel, start_ns);
    return Status::OK();
  }
  if (pr.ok() && pr->pushee_status == TxnStatus::kAborted) {
    // A declared write is provably missing (and late writes are fenced in
    // the tscache), so the txn never was implicitly committed. Clean up
    // the intents that did land and surface the original failure.
    (void)cluster_->AbortTxn(record_.id, keys);
    return pipeline_error;
  }
  // Neither provable (e.g. a range was unavailable during the check): the
  // commit outcome is unknown and must not be reported as a clean abort —
  // a recovery may yet finalize it as committed.
  return Status::Unavailable("txn " + std::to_string(record_.id) +
                             " commit result unknown after pipeline failure: " +
                             pipeline_error.ToString());
}

Status Transaction::Rollback() {
  if (finalized_) return Status::OK();
  finalized_ = true;
  // The drainer must quiesce before the coordinator is torn down (and the
  // abort must not race queued intent writes).
  (void)WaitPipeline();
  buffer_.clear();
  std::vector<std::string> keys(intent_keys_.begin(), intent_keys_.end());
  return cluster_->AbortTxn(record_.id, keys);
}

Status Transaction::RollbackIfFailed(Status s, bool any_error) {
  if (!s.ok() && (any_error || s.code() == Code::kTransactionAborted ||
                  s.IsTransactionRetry())) {
    (void)Rollback();
  }
  return s;
}

void Transaction::RecordCommit(obs::Counter* path_counter, Nanos start_ns) {
  path_counter->Inc();
  cluster_->txn_metrics().commit_latency->Record(
      static_cast<int64_t>(cluster_->clock()->Now() - start_ns));
}

}  // namespace veloce::kv
