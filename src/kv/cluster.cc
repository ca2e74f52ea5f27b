#include "kv/cluster.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "obs/trace.h"

namespace veloce::kv {

namespace {
constexpr int kMaxConflictRetries = 16;

/// The KV boundary check: a key (and a scan's exclusive end) must lie in
/// the authenticated tenant's keyspace, unless that is the system tenant.
Status CheckTenantBounds(TenantId tenant, Slice key, Slice end_key) {
  if (tenant == kSystemTenantId) return Status::OK();  // operator path
  if (!KeyInTenantKeyspace(key, tenant)) {
    return Status::Unauthorized("request key outside tenant keyspace");
  }
  if (!end_key.empty() && end_key > Slice(TenantPrefixEnd(tenant))) {
    return Status::Unauthorized("scan end outside tenant keyspace");
  }
  return Status::OK();
}
}  // namespace

template <typename Read, typename KeyOf>
auto KVCluster::ReadPastIntentsLocked(RangeState* range, Latch* latch,
                                      const BatchRequest& req, Read read,
                                      KeyOf key_of) -> decltype(read()) {
  for (int attempt = 0; attempt < kMaxConflictRetries; ++attempt) {
    auto res = read();
    if (!res.ok() || !res->conflict.has_value()) return res;
    VELOCE_RETURN_IF_ERROR(HandleConflictLocked(range, latch, key_of(*res),
                                                *res->conflict, req, false));
  }
  return Status::WriteIntentError("too many conflict retries");
}

KVCluster::KVCluster(KVClusterOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : options_.obs.clock_or_real()),
      metrics_(options_.obs.metrics),
      hlc_(clock_),
      txn_registry_(clock_),
      // The oracle keeps its default batch size and refill threshold.
      oracle_(std::make_unique<TimestampOracle>(
          &hlc_, TimestampOracleOptions{
                     .executor = options_.engine_options.background_executor,
                     .sync_refills = metrics_->counter("veloce_txn_oracle_refills_total",
                                                       {{"mode", "sync"}}),
                     .async_refills = metrics_->counter(
                         "veloce_txn_oracle_refills_total", {{"mode", "async"}})})),
      directory_(metrics_.get()),
      liveness_(clock_, options_.liveness_duration, metrics_.get()),
      replication_(nodes_, options_.transport, metrics_.get()),
      recovery_{clock_, &txn_registry_, oracle_.get(), &directory_, &nodes_,
                metrics_->counter("veloce_txn_staging_recoveries_total")} {
  VELOCE_CHECK(options_.num_nodes >= 1);
  VELOCE_CHECK(options_.replication_factor >= 1);
  VELOCE_CHECK(options_.replication_factor <= options_.num_nodes);
  obs_ = options_.obs;
  obs_.clock = clock_;
  obs_.metrics = metrics_.get();
  replica_moves_c_ = metrics_->counter("veloce_kv_replica_moves_total");
  intent_conflicts_c_ = metrics_->counter("veloce_kv_intent_conflicts_total");
  txn_metrics_.commits_1pc =
      metrics_->counter("veloce_txn_commits_total", {{"path", "1pc"}});
  txn_metrics_.commits_parallel =
      metrics_->counter("veloce_txn_commits_total", {{"path", "parallel"}});
  txn_metrics_.commits_classic =
      metrics_->counter("veloce_txn_commits_total", {{"path", "classic"}});
  txn_metrics_.retries = metrics_->counter("veloce_txn_retries_total");
  txn_metrics_.pushes = metrics_->counter("veloce_txn_pushes_total");
  txn_metrics_.recoveries = recovery_.recoveries;
  txn_metrics_.commit_latency = metrics_->histogram("veloce_txn_commit_latency_ns");
  lease_gauge_cb_ = metrics_->AddCollectCallback([this] {
    std::shared_lock<std::shared_mutex> dir(dir_mu_);
    std::vector<double> counts(nodes_.size(), 0);
    // Load is sampled in aggregate (total/max QPS, cooled count) rather
    // than per range: at 100k ranges a per-range series would swamp the
    // registry, and splits/merges key off per-range state directly.
    const Nanos now = clock_->Now();
    double qps_total = 0, qps_max = 0, cooled = 0;
    for (const auto& [rid, state] : directory_.by_id()) {
      counts[state->desc.leaseholder] += 1;
      Latch latch(state->latch);
      const double qps = state->load.Qps(now);
      qps_total += qps;
      if (qps > qps_max) qps_max = qps;
      if (state->cooled_since >= 0) cooled += 1;
    }
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      metrics_->gauge("veloce_kv_leases", {{"node", std::to_string(n)}})
          ->Set(counts[n]);
    }
    metrics_->gauge("veloce_kv_ranges")
        ->Set(static_cast<double>(directory_.by_id().size()));
    metrics_->gauge("veloce_kv_range_qps_total")->Set(qps_total);
    metrics_->gauge("veloce_kv_range_qps_max")->Set(qps_max);
    metrics_->gauge("veloce_kv_ranges_cooled")->Set(cooled);
  });
  for (int i = 0; i < options_.num_nodes; ++i) {
    std::string region = "local";
    if (static_cast<size_t>(i) < options_.node_regions.size()) {
      region = options_.node_regions[i];
    }
    nodes_.push_back(std::make_unique<KVNode>(static_cast<NodeId>(i), region,
                                              options_.engine_options, obs_));
    liveness_.AddNode();
  }
  // One range covering the whole keyspace, replicated on the first RF nodes.
  RangeDescriptor desc;
  for (int i = 0; i < options_.replication_factor; ++i) {
    desc.replicas.push_back(static_cast<NodeId>(i));
  }
  desc.leaseholder = 0;
  directory_.Add(std::move(desc));
}

KVCluster::~KVCluster() = default;

StatusOr<NodeId> KVCluster::AddNode(const std::string& region) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<KVNode>(id, region, options_.engine_options, obs_));
  liveness_.AddNode();
  return id;
}

Status KVCluster::RestartNode(NodeId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  if (id >= nodes_.size()) return Status::NotFound("no KV node " + std::to_string(id));
  return nodes_[id]->Restart();
}

StatusOr<uint64_t> KVCluster::GarbageCollectTenant(TenantId tenant,
                                                   Timestamp threshold) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  uint64_t removed = 0;
  for (auto& node : nodes_) {
    if (!node->up()) continue;  // down, or engine-less after a failed restart
    VELOCE_ASSIGN_OR_RETURN(uint64_t n,
                            MvccGarbageCollect(node->engine(), TenantPrefix(tenant),
                                               TenantPrefixEnd(tenant), threshold));
    removed += n;
  }
  return removed;
}

// --- Data path ----------------------------------------------------------------

StatusOr<NodeId> KVCluster::PickReadNodeLocked(const RangeState& range,
                                               const BatchRequest& req,
                                               const RequestUnion& r) const {
  // Only an up node serves: a live node whose crash-restart failed has no
  // engine to serve from.
  const NodeId leaseholder = range.desc.leaseholder;
  const bool holder_up = nodes_[leaseholder]->up();
  if (holder_up && liveness_.LeaseValid(range.desc)) return leaseholder;
  // Follower read: stale enough and explicitly allowed. Only a fully
  // caught-up replica may serve one — a replica behind the range log could
  // be missing writes below the closed timestamp.
  if (!r.IsWrite() && req.allow_follower_reads && !req.ts.IsEmpty() &&
      req.ts <= ClosedTimestamp()) {
    for (NodeId n : range.desc.replicas) {
      if (nodes_[n]->up() && range.log.Applied(n) == range.log.committed_index()) {
        return n;
      }
    }
  }
  if (!holder_up) return Status::Unavailable("leaseholder node is down");
  return liveness_.LeaseError(range.desc);
}

Status KVCluster::AdmitLocked(KVNode* node, const BatchRequest& req,
                              std::vector<bool>* counted) {
  if ((*counted)[node->id()]) return Status::OK();
  if (interceptor_) VELOCE_RETURN_IF_ERROR(interceptor_(node->id(), req));
  // Per-node batch accounting: the batch counts once per node, every
  // request individually.
  (*counted)[node->id()] = true;
  node->RecordBatch(req.IsReadOnly());
  return Status::OK();
}

StatusOr<BatchResponse> KVCluster::Send(const BatchRequest& req) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  if (req.commit_txn) return ExecuteOnePhaseLocked(req);
  BatchResponse resp;
  std::vector<bool> counted(nodes_.size(), false);
  // Highest timestamp of a non-transactional write this batch applied; fed
  // to the oracle so later BeginTxn reads observe it (session guarantee).
  Timestamp applied_write_ts;

  const Nanos load_now = clock_->Now();
  for (size_t i = 0; i < req.requests.size(); ++i) {
    const RequestUnion& r = req.requests[i];
    VELOCE_ASSIGN_OR_RETURN(RangeState * range, directory_.Resolve(req, r.key));
    VELOCE_RETURN_IF_ERROR(CheckTenantBounds(req.tenant_id, r.key, r.end_key));
    Latch latch(range->latch);
    range->load.Record(load_now, r.key);
    VELOCE_ASSIGN_OR_RETURN(NodeId serving_node, PickReadNodeLocked(*range, req, r));
    KVNode* node = nodes_[serving_node].get();
    VELOCE_RETURN_IF_ERROR(AdmitLocked(node, req, &counted));

    if (r.IsWrite()) {
      // Pipelined intent batches: a txn's contiguous run of writes landing
      // on the same range executes as one group — one timestamp, one
      // WriteBatch, one replication round, one BumpWriteTimestamp (the
      // server half of pipelined intent batches). Non-transactional writes
      // go one at a time, each at its own timestamp (a committed version).
      Writes group{&r};
      size_t j = i + 1;
      for (; req.txn_id != 0 && j < req.requests.size(); ++j) {
        const RequestUnion& nxt = req.requests[j];
        if (!nxt.IsWrite() || !range->desc.Contains(nxt.key)) break;
        VELOCE_RETURN_IF_ERROR(CheckTenantBounds(req.tenant_id, nxt.key, nxt.end_key));
        range->load.Record(load_now, nxt.key);
        group.push_back(&nxt);
      }
      obs::ScopedSpan span(req.trace, "storage_write");
      VELOCE_ASSIGN_OR_RETURN(Timestamp ts, WriteTimestampLocked(range, &latch, req,
                                                                  group, false));
      if (req.txn_id != 0) {
        VELOCE_RETURN_IF_ERROR(txn_registry_.BumpWriteTimestamp(req.txn_id, ts));
      }
      VELOCE_RETURN_IF_ERROR(ApplyWritesLocked(range, req, group, req.txn_id, ts));
      if (ts > req.ts && resp.bumped_write_ts < ts) resp.bumped_write_ts = ts;
      // Session guarantee for non-transactional writes; a txn's writes
      // become visible through its commit instead.
      if (req.txn_id == 0 && applied_write_ts < ts) applied_write_ts = ts;
      resp.responses.resize(resp.responses.size() + group.size());
      i = j - 1;
      continue;
    }

    ResponseUnion out;
    node->RecordReadRequest();
    obs::ScopedSpan span(req.trace, "storage_read");
    VELOCE_RETURN_IF_ERROR(
        ExecuteReadLocked(range, &latch, req, r, &out, serving_node));
    uint64_t bytes = out.value.size();
    for (const auto& row : out.rows) bytes += row.key.size() + row.value.size();
    node->AddReadBytes(bytes);
    resp.responses.push_back(std::move(out));
  }
  if (!applied_write_ts.IsEmpty()) oracle_->Observe(applied_write_ts);
  resp.now = hlc_.Now();
  return resp;
}

Status KVCluster::HandleConflictLocked(RangeState* range, Latch* latch, Slice key,
                                       const IntentMeta& intent,
                                       const BatchRequest& req, bool for_write) {
  intent_conflicts_c_->Inc();
  txn_metrics_.pushes->Inc();
  const auto push_type = for_write ? TxnRegistry::PushType::kAbort
                                   : TxnRegistry::PushType::kTimestamp;
  PushResult pr = txn_registry_.Push(intent.txn_id, req.txn_priority, push_type, req.ts);
  if (!pr.pushed && pr.pushee_status == TxnStatus::kStaging) {
    // The owner is mid-parallel-commit (possibly implicitly committed, or
    // abandoned). Run the recovery procedure to find out; it visits the
    // owner's other ranges, so this range's latch is released meanwhile.
    latch->unlock();
    StatusOr<PushResult> recovered = recovery_.Recover(intent.txn_id);
    latch->lock();
    VELOCE_ASSIGN_OR_RETURN(pr, std::move(recovered));
  }
  if (!pr.pushed) {
    return Status::WriteIntentError("conflicting intent of txn " +
                                    std::to_string(intent.txn_id));
  }
  // Apply the outcome through the range log so every replica — including
  // ones that are dead or partitioned right now — converges on the same
  // engine state when it catches up. (Resolutions used to bypass the log
  // and silently diverge any replica that missed them.)
  LogRecord rec{.kind = LogRecord::Kind::kResolveIntent, .key = key.ToString(),
                .txn_id = intent.txn_id};
  switch (pr.pushee_status) {
    case TxnStatus::kCommitted:
      rec.commit = true;
      rec.ts = pr.commit_ts;
      break;
    case TxnStatus::kAborted:
      break;
    case TxnStatus::kPending:
      // Timestamp push: rewrite the intent above the reader.
      rec.kind = LogRecord::Kind::kUpdateIntentTs;
      rec.ts = req.ts.Next();
      break;
    case TxnStatus::kStaging:
      // Recovery above always resolves staging to committed/aborted or
      // returns an error; a successful push never reports staging.
      return Status::Internal("push resolved to staging");
  }
  return replication_.Replicate(range, std::move(rec), nullptr,
                                /*require_quorum=*/false);
}

Status KVCluster::ExecuteReadLocked(RangeState* range, Latch* latch,
                                    const BatchRequest& req, const RequestUnion& r,
                                    ResponseUnion* out, NodeId serving_node) {
  const Timestamp read_ts = req.ts.IsEmpty() ? hlc_.Now() : req.ts;
  const bool follower = serving_node != range->desc.leaseholder;
  storage::Engine* engine = nodes_[serving_node]->engine();

  if (r.type == RequestType::kGet) {
    VELOCE_ASSIGN_OR_RETURN(
        MvccGetResult res,
        ReadPastIntentsLocked(
            range, latch, req,
            [&] { return MvccGet(engine, r.key, read_ts, req.txn_id); },
            [&](const MvccGetResult&) { return Slice(r.key); }));
    // Follower reads are below the closed timestamp; no writer can land
    // under them, so they need no timestamp-cache entry.
    if (!follower) range->tscache.RecordRead(r.key, read_ts, req.txn_id);
    out->found = res.value.has_value();
    if (res.value.has_value()) out->value = std::move(*res.value);
    return Status::OK();
  }

  // Scan: may span ranges; walk them left to right.
  std::string cursor = r.key;
  uint64_t remaining = r.limit;
  RangeState* cur_range = range;
  while (true) {
    VELOCE_ASSIGN_OR_RETURN(NodeId cur_node, PickReadNodeLocked(*cur_range, req, r));
    const bool cur_follower = cur_node != cur_range->desc.leaseholder;
    storage::Engine* cur_engine = nodes_[cur_node]->engine();
    const std::string scan_end = SpanEndInRange(cur_range->desc, r.end_key);
    VELOCE_ASSIGN_OR_RETURN(
        MvccScanResult res,
        ReadPastIntentsLocked(
            cur_range, latch, req,
            [&] {
              return MvccScan(cur_engine, cursor, scan_end, read_ts, remaining,
                              req.txn_id);
            },
            [&](const MvccScanResult& got) { return Slice(got.conflict_key); }));
    if (!cur_follower) {
      cur_range->tscache.RecordReadSpan(cursor, scan_end, read_ts, req.txn_id);
    }

    if (!r.pushdown.empty()) {
      // Filtering / projection / fragment push-down: evaluate at the KV node
      // so filtered rows, projected-away columns, and (for aggregation
      // fragments) everything but partial states never cross the boundary.
      if (!fragment_hook_) {
        return Status::NotSupported("scan pushdown requested but no hook registered");
      }
      VELOCE_ASSIGN_OR_RETURN(
          res.entries, fragment_hook_(std::move(res.entries), Slice(r.pushdown)));
    }
    if (out->rows.empty()) {
      out->rows = std::move(res.entries);  // the common single-range case
    } else {
      // insert, not reserve + push: a scan over many small ranges must keep
      // the vector's geometric growth.
      out->rows.insert(out->rows.end(), std::make_move_iterator(res.entries.begin()),
                       std::make_move_iterator(res.entries.end()));
    }
    if (!res.resume_key.empty()) {
      out->resume_key = res.resume_key;  // limit reached
      return Status::OK();
    }
    if (remaining != 0) {
      const uint64_t got = out->rows.size();
      if (got >= r.limit) return Status::OK();
      remaining = r.limit - got;
    }
    // Move to the next range, if the scan extends past this one (one
    // latch at a time: this range's is released before the next is taken).
    if (!NextRangeOfSpan(cur_range->desc, r.end_key, &cursor)) return Status::OK();
    cur_range = directory_.Lookup(cursor);
    if (cur_range == nullptr) return Status::NotFound("range gap during scan");
    latch->unlock();
    *latch = Latch(cur_range->latch);
  }
}

StatusOr<Timestamp> KVCluster::WriteTimestampLocked(RangeState* range, Latch* latch,
                                                    const BatchRequest& req,
                                                    const Writes& writes,
                                                    bool one_pc) {
  KVNode* leaseholder = nodes_[range->desc.leaseholder].get();
  // Not null: callers picked the leaseholder with PickReadNodeLocked.
  storage::Engine* engine = leaseholder->engine();
  for (const RequestUnion* w : writes) {
    leaseholder->RecordWriteRequest(w->key.size() + w->value.size());
  }
  Timestamp ts = req.ts.IsEmpty() ? hlc_.Now() : req.ts;
  // Foreign intents block writers (write-write conflicts abort or wait).
  const size_t max_resolutions = kMaxConflictRetries * writes.size();
  for (size_t resolved = 0;; ++resolved) {
    const RequestUnion* blocked = nullptr;
    std::optional<IntentMeta> intent;
    for (const RequestUnion* r : writes) {
      VELOCE_ASSIGN_OR_RETURN(intent, MvccGetIntent(engine, r->key));
      if (!intent.has_value()) continue;
      if (intent->txn_id != req.txn_id) {
        blocked = r;
        break;
      }
      // The txn already flushed intents; 1PC no longer applies and the
      // client falls back to the general commit path.
      if (one_pc) return Status::NotSupported("txn holds intents; 1pc unavailable");
    }
    if (blocked == nullptr) break;
    if (resolved >= max_resolutions) {
      return Status::WriteIntentError("too many conflict retries");
    }
    VELOCE_RETURN_IF_ERROR(
        HandleConflictLocked(range, latch, blocked->key, *intent, req, true));
  }
  // Serializability: never write below a timestamp another txn already
  // read at, nor at or below the closed timestamp (follower reads rely on
  // it). Read after the conflict loop, which may have released the latch.
  for (const RequestUnion* r : writes) {
    const Timestamp max_read = range->tscache.MaxReadTimestamp(r->key, req.txn_id);
    if (ts <= max_read) ts = max_read.Next();
  }
  const Timestamp closed = ClosedTimestamp();
  if (ts <= closed) ts = closed.Next();
  return ts;
}

Status KVCluster::ApplyWritesLocked(RangeState* range, const BatchRequest& req,
                                    const Writes& writes, TxnId intent_txn,
                                    Timestamp ts) {
  storage::WriteBatch batch;
  uint64_t bytes = 0;
  for (const RequestUnion* r : writes) {
    const bool tombstone = r->type == RequestType::kDelete;
    if (intent_txn != 0) {
      MvccPutIntent(&batch, r->key, intent_txn, ts, tombstone, r->value);
    } else if (tombstone) {
      MvccPutTombstone(&batch, r->key, ts);
    } else {
      MvccPutValue(&batch, r->key, ts, r->value);
    }
    bytes += r->key.size() + r->value.size();
  }
  {
    obs::ScopedSpan span(req.trace, "replication");
    VELOCE_RETURN_IF_ERROR(replication_.Replicate(
        range, LogRecord{.payload = batch.rep(), .tenant = req.tenant_id}, &batch,
        /*require_quorum=*/true));
  }
  range->approx_bytes += bytes;
  hlc_.Update(ts);
  return Status::OK();
}

StatusOr<BatchResponse> KVCluster::ExecuteOnePhaseLocked(const BatchRequest& req) {
  if (req.txn_id == 0) return Status::InvalidArgument("1pc commit requires a txn");
  if (req.requests.empty()) return Status::InvalidArgument("empty 1pc commit");
  VELOCE_ASSIGN_OR_RETURN(RangeState * range,
                          directory_.Resolve(req, req.requests[0].key));
  Latch latch(range->latch);
  const Nanos load_now = clock_->Now();
  Writes writes;
  for (const auto& r : req.requests) {
    writes.push_back(&r);
    if (!r.IsWrite()) {
      return Status::InvalidArgument("1pc batch must contain only writes");
    }
    VELOCE_RETURN_IF_ERROR(CheckTenantBounds(req.tenant_id, r.key, r.end_key));
    if (!range->desc.Contains(r.key)) {
      if (req.range_id != 0) {
        // The cached descriptor went stale mid-batch (a split moved part of
        // the write set); redirect rather than reporting a spurious
        // spans-ranges fallback.
        return directory_.Mismatch("1pc write set no longer fits range " +
                                   std::to_string(req.range_id));
      }
      return Status::NotSupported("1pc batch spans ranges");
    }
    range->load.Record(load_now, r.key);
  }
  VELOCE_ASSIGN_OR_RETURN(NodeId leaseholder,
                          PickReadNodeLocked(*range, req, req.requests[0]));
  std::vector<bool> counted(nodes_.size(), false);
  VELOCE_RETURN_IF_ERROR(AdmitLocked(nodes_[leaseholder].get(), req, &counted));
  VELOCE_ASSIGN_OR_RETURN(Timestamp ts,
                          WriteTimestampLocked(range, &latch, req, writes, true));

  VELOCE_ASSIGN_OR_RETURN(TxnRecord rec, txn_registry_.Get(req.txn_id));
  if (rec.status == TxnStatus::kAborted) {
    return Status::TransactionAborted("aborted by a concurrent pusher");
  }
  if (rec.status != TxnStatus::kPending) {
    return Status::Internal("1pc commit on a non-pending txn");
  }
  if (ts < rec.write_ts) ts = rec.write_ts;
  BatchResponse resp;
  if (ts > req.ts && !req.can_forward_ts) {
    // The commit timestamp must move but the txn performed reads. Nothing
    // is written; the client refreshes its read spans and retries.
    resp.one_pc_rejected_ts = ts;
    resp.now = hlc_.Now();
    return resp;
  }
  // Write committed versions directly — no intents, no separate resolution
  // round. Replication must succeed BEFORE the record commits: the range
  // latch is held throughout and a 1PC txn lays no intents, so no reader or
  // pusher can observe the gap; a replication failure (quorum loss, WAL
  // fault) leaves the record pending — the client's Rollback still works
  // and the registry never claims a commit that wrote nothing.
  VELOCE_RETURN_IF_ERROR(ApplyWritesLocked(range, req, writes, /*intent_txn=*/0, ts));
  VELOCE_RETURN_IF_ERROR(txn_registry_.Commit(req.txn_id, ts));
  oracle_->Observe(ts);
  resp.responses.resize(req.requests.size());
  resp.commit_ts = ts;
  resp.now = hlc_.Now();
  return resp;
}

// --- Transactions -------------------------------------------------------------

TxnRecord KVCluster::BeginTxn(int32_t priority) {
  return txn_registry_.Begin(oracle_->Next(), priority);
}

Status KVCluster::StageTxn(TxnId id, const std::vector<std::string>& in_flight_keys,
                           Timestamp* staged_ts,
                           std::optional<Timestamp> validated_ts) {
  // Registry and oracle only (leaf locks). A push or bump landing between
  // the Get and the Stage leaves write_ts above staged_ts, which fails the
  // commit condition exactly like a bump right after staging.
  VELOCE_ASSIGN_OR_RETURN(TxnRecord rec, txn_registry_.Get(id));
  if (rec.status == TxnStatus::kAborted) {
    return Status::TransactionAborted("aborted by a concurrent pusher");
  }
  if (rec.status == TxnStatus::kCommitted) {
    // A concurrent recovery proved every in-flight write present and
    // finalized the txn already; report its commit timestamp.
    if (staged_ts != nullptr) *staged_ts = rec.write_ts;
    return Status::OK();
  }
  const Timestamp ts = rec.write_ts;
  if (validated_ts.has_value() && ts > *validated_ts) {
    // Staging here would declare a commit timestamp the coordinator never
    // validated its reads at — and once staged, a concurrent recovery may
    // finalize the commit the moment the last declared intent lands. Hand
    // back the refresh target instead; the record stays as it was.
    if (staged_ts != nullptr) *staged_ts = ts;
    return Status::TransactionRetry(
        "write timestamp above validated reads; refresh and re-stage");
  }
  VELOCE_RETURN_IF_ERROR(txn_registry_.Stage(id, ts, in_flight_keys));
  oracle_->Observe(ts);
  if (staged_ts != nullptr) *staged_ts = ts;
  return Status::OK();
}

Status KVCluster::CommitTxn(TxnId id, const std::vector<std::string>& intent_keys,
                            Timestamp* commit_ts,
                            std::optional<Timestamp> validated_ts) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  Timestamp ts;
  while (true) {
    VELOCE_ASSIGN_OR_RETURN(TxnRecord rec, txn_registry_.Get(id));
    ts = rec.write_ts;
    if (rec.status == TxnStatus::kPending && validated_ts.has_value() &&
        ts > *validated_ts) {
      // A pusher moved the write timestamp after the coordinator's refresh;
      // committing would finalize reads never validated at `ts`.
      if (commit_ts != nullptr) *commit_ts = ts;
      return Status::TransactionRetry(
          "write timestamp above validated reads; refresh and retry");
    }
    if (rec.status == TxnStatus::kStaging) {
      if (rec.write_ts > rec.staged_ts) {
        // A pipelined write got bumped past the staged timestamp after
        // staging; the commit condition fails until the coordinator
        // refreshes and re-stages.
        return Status::TransactionRetry(
            "staged txn has bumped in-flight writes; refresh and re-stage");
      }
      ts = rec.staged_ts;
    }
    // The registry refuses with TransactionRetry when a push landed after
    // the Get above; re-read the record and validate again.
    const Status s = txn_registry_.Commit(id, ts);
    if (s.IsTransactionRetry()) continue;
    VELOCE_RETURN_IF_ERROR(s);
    break;
  }
  oracle_->Observe(ts);
  VELOCE_RETURN_IF_ERROR(ResolveIntentsLocked(id, intent_keys, /*commit=*/true, ts));
  if (commit_ts != nullptr) *commit_ts = ts;
  hlc_.Update(ts);
  return Status::OK();
}

Status KVCluster::AbortTxn(TxnId id, const std::vector<std::string>& intent_keys) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  Status s = txn_registry_.Abort(id);
  if (!s.ok() && !s.IsNotFound()) return s;
  return ResolveIntentsLocked(id, intent_keys, /*commit=*/false, Timestamp());
}

Status KVCluster::ResolveIntentsLocked(TxnId id, const std::vector<std::string>& keys,
                                       bool commit, Timestamp ts) {
  for (const auto& key : keys) {
    RangeState* range = directory_.Lookup(key);
    if (range == nullptr) continue;
    Latch latch(range->latch);
    VELOCE_RETURN_IF_ERROR(replication_.Replicate(
        range, {.kind = LogRecord::Kind::kResolveIntent, .key = key, .txn_id = id,
                .commit = commit, .ts = ts},
        nullptr, /*require_quorum=*/false));
  }
  return Status::OK();
}

StatusOr<bool> KVCluster::AnyNewerVersions(TenantId tenant, Slice start, Slice end,
                                           Timestamp after, Timestamp upto,
                                           TxnId txn) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  // The same boundary check Send applies: a refresh validates, and records
  // in the timestamp cache, only spans of the txn's own tenant.
  VELOCE_RETURN_IF_ERROR(CheckTenantBounds(tenant, start, end));
  // A single-key span is recorded as a point, as the Get that read it was.
  const bool point = IsPointSpan(start, end);
  std::string cursor = start.ToString();
  while (true) {
    RangeState* range = directory_.Lookup(cursor);
    if (range == nullptr) return Status::NotFound("no range for refresh span");
    const std::string span_end = SpanEndInRange(range->desc, end);
    {
      // Check and record under one latch hold: a write that lands after the
      // check is pushed above `upto` by the entry, so the validated read
      // stays valid until the txn commits at or below `upto`.
      Latch latch(range->latch);
      storage::Engine* engine = nodes_[range->desc.leaseholder]->engine();
      if (engine == nullptr) return Status::Unavailable("leaseholder has no engine");
      VELOCE_ASSIGN_OR_RETURN(
          bool any, MvccAnyNewerVersions(engine, cursor, span_end, after, upto, txn));
      if (any) return true;
      if (point) {
        range->tscache.RecordRead(start, upto, txn);
      } else {
        range->tscache.RecordReadSpan(cursor, span_end, upto, txn);
      }
    }
    if (!NextRangeOfSpan(range->desc, end, &cursor)) return false;
  }
}

}  // namespace veloce::kv
