#include "kv/cluster.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "obs/trace.h"

namespace veloce::kv {

namespace {
constexpr int kMaxConflictRetries = 16;

/// Engine-key bounds [intent slot of start, encoded end) of a range's span.
std::pair<std::string, std::string> EngineSpan(const RangeDescriptor& desc) {
  std::string end;
  if (!desc.end_key.empty()) OrderedPutString(&end, desc.end_key);
  return {EncodeIntentKey(desc.start_key), std::move(end)};
}

/// Deletes every engine key of the range's span from `engine`, in ~1MB
/// batches.
Status ClearSpan(storage::Engine* engine, const RangeDescriptor& desc) {
  const auto [start, end] = EngineSpan(desc);
  auto it = engine->NewBoundedIterator(start, end);
  storage::WriteBatch del;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    del.Delete(it->key());
    if (del.ByteSize() > (1 << 20)) {
      VELOCE_RETURN_IF_ERROR(engine->Write(del));
      del.Clear();
    }
  }
  return del.Count() > 0 ? engine->Write(del) : Status::OK();
}
}  // namespace

KVCluster::KVCluster(KVClusterOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : options.obs.clock_or_real()),
      hlc_(clock_),
      txn_registry_(clock_) {
  VELOCE_CHECK(options_.num_nodes >= 1);
  VELOCE_CHECK(options_.replication_factor >= 1);
  VELOCE_CHECK(options_.replication_factor <= options_.num_nodes);
  if (options_.obs.metrics != nullptr) {
    metrics_ = options_.obs.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  obs_ = options_.obs;
  obs_.clock = clock_;
  obs_.metrics = metrics_;
  lease_moves_c_ = metrics_->counter("veloce_kv_lease_moves_total");
  replica_moves_c_ = metrics_->counter("veloce_kv_replica_moves_total");
  splits_manual_c_ =
      metrics_->counter("veloce_kv_range_splits_total", {{"reason", "manual"}});
  splits_size_c_ =
      metrics_->counter("veloce_kv_range_splits_total", {{"reason", "size"}});
  splits_load_c_ =
      metrics_->counter("veloce_kv_range_splits_total", {{"reason", "load"}});
  merges_manual_c_ =
      metrics_->counter("veloce_kv_range_merges_total", {{"reason", "manual"}});
  merges_cooldown_c_ =
      metrics_->counter("veloce_kv_range_merges_total", {{"reason", "cooldown"}});
  range_mismatch_c_ = metrics_->counter("veloce_kv_range_mismatches_total");
  intent_conflicts_c_ = metrics_->counter("veloce_kv_intent_conflicts_total");
  replica_catchups_replay_c_ =
      metrics_->counter("veloce_kv_replica_catchups_total", {{"mode", "replay"}});
  replica_catchups_snapshot_c_ =
      metrics_->counter("veloce_kv_replica_catchups_total", {{"mode", "snapshot"}});
  replica_demotions_c_ = metrics_->counter("veloce_kv_replica_demotions_total");
  catchup_records_c_ = metrics_->counter("veloce_kv_replica_catchup_records_total");
  lease_epoch_mismatch_c_ =
      metrics_->counter("veloce_kv_lease_epoch_mismatches_total");
  epoch_bumps_c_ = metrics_->counter("veloce_kv_liveness_epoch_bumps_total");
  heartbeat_failures_c_ =
      metrics_->counter("veloce_kv_heartbeat_rounds_failed_total");
  replication_delay_h_ = metrics_->histogram("veloce_kv_replication_delay_ns");
  transport_ =
      options_.transport != nullptr ? options_.transport : &passthrough_;
  txn_metrics_.commits_1pc =
      metrics_->counter("veloce_txn_commits_total", {{"path", "1pc"}});
  txn_metrics_.commits_parallel =
      metrics_->counter("veloce_txn_commits_total", {{"path", "parallel"}});
  txn_metrics_.commits_classic =
      metrics_->counter("veloce_txn_commits_total", {{"path", "classic"}});
  txn_metrics_.retries = metrics_->counter("veloce_txn_retries_total");
  txn_metrics_.pushes = metrics_->counter("veloce_txn_pushes_total");
  txn_metrics_.recoveries =
      metrics_->counter("veloce_txn_staging_recoveries_total");
  txn_metrics_.commit_latency = metrics_->histogram("veloce_txn_commit_latency_ns");
  TimestampOracleOptions oracle_opts;
  oracle_opts.batch_size = options_.timestamp_batch_size;
  oracle_opts.refill_threshold = options_.timestamp_refill_threshold;
  oracle_opts.executor = options_.engine_options.background_executor;
  oracle_opts.sync_refills =
      metrics_->counter("veloce_txn_oracle_refills_total", {{"mode", "sync"}});
  oracle_opts.async_refills =
      metrics_->counter("veloce_txn_oracle_refills_total", {{"mode", "async"}});
  oracle_ = std::make_unique<TimestampOracle>(&hlc_, oracle_opts);
  lease_gauge_cb_ = metrics_->AddCollectCallback([this] {
    std::shared_lock<std::shared_mutex> dir(dir_mu_);
    std::vector<double> counts(nodes_.size(), 0);
    // Load is sampled in aggregate (total/max QPS, cooled count) rather
    // than per range: at 100k ranges a per-range series would swamp the
    // registry, and splits/merges key off per-range state directly.
    const Nanos now = clock_->Now();
    double qps_total = 0, qps_max = 0, cooled = 0;
    for (const auto& [rid, state] : ranges_) {
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
    metrics_->gauge("veloce_kv_ranges")->Set(static_cast<double>(ranges_.size()));
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
  }
  liveness_.resize(nodes_.size());
  // One range covering the whole keyspace, replicated on the first RF nodes.
  RangeDescriptor desc;
  desc.range_id = next_range_id_++;
  desc.start_key = "";
  desc.end_key = "";
  desc.tenant_id = 0;
  for (int i = 0; i < options_.replication_factor; ++i) {
    desc.replicas.push_back(static_cast<NodeId>(i));
  }
  desc.leaseholder = 0;
  VELOCE_CHECK_OK(AddRangeLocked(desc));
}

KVCluster::~KVCluster() = default;

Status KVCluster::AddRangeLocked(RangeDescriptor desc) {
  auto state = std::make_unique<RangeState>();
  state->desc = std::move(desc);
  by_start_[state->desc.start_key] = state->desc.range_id;
  ranges_[state->desc.range_id] = std::move(state);
  return Status::OK();
}

KVCluster::RangeState* KVCluster::LookupRangeLocked(Slice key) {
  auto it = by_start_.upper_bound(key.ToString());
  if (it == by_start_.begin()) return nullptr;
  --it;
  RangeState* range = ranges_.at(it->second).get();
  if (!range->desc.Contains(key)) return nullptr;
  return range;
}

StatusOr<KVCluster::RangeState*> KVCluster::FindRangeLocked(RangeId id) {
  auto it = ranges_.find(id);
  if (it == ranges_.end()) return Status::NotFound("no such range");
  return it->second.get();
}

StatusOr<KVCluster::RangeState*> KVCluster::ResolveRangeLocked(
    const BatchRequest& req, Slice key) {
  if (req.range_id == 0) {
    RangeState* range = LookupRangeLocked(key);
    if (range == nullptr) return Status::NotFound("no range for key");
    return range;
  }
  auto it = ranges_.find(req.range_id);
  if (it == ranges_.end()) {
    range_mismatch_c_->Inc();
    return Status::RangeKeyMismatch("range " + std::to_string(req.range_id) +
                                    " no longer exists (merged away)");
  }
  RangeState* range = it->second.get();
  if (!range->desc.Contains(key)) {
    range_mismatch_c_->Inc();
    return Status::RangeKeyMismatch(
        "key outside range " + std::to_string(req.range_id) +
        " (span changed since the descriptor was cached)");
  }
  return range;
}

StatusOr<RangeDescriptor> KVCluster::LookupRange(Slice key) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  auto* self = const_cast<KVCluster*>(this);
  RangeState* range = self->LookupRangeLocked(key);
  if (range == nullptr) return Status::NotFound("no range for key");
  return range->desc;
}

Status KVCluster::CheckTenantBoundsLocked(const BatchRequest& req, Slice key,
                                          Slice end_key) const {
  if (req.tenant_id == kSystemTenantId) return Status::OK();  // operator path
  if (!KeyInTenantKeyspace(key, req.tenant_id)) {
    return Status::Unauthorized("request key outside tenant keyspace");
  }
  if (!end_key.empty()) {
    // The end key is exclusive; it must not exceed the tenant's prefix end.
    const std::string limit = TenantPrefixEnd(req.tenant_id);
    if (Slice(end_key) > Slice(limit)) {
      return Status::Unauthorized("scan end outside tenant keyspace");
    }
  }
  return Status::OK();
}

storage::Engine* KVCluster::LeaseholderEngineLocked(const RangeState& range) {
  return nodes_[range.desc.leaseholder]->engine();
}

StatusOr<NodeId> KVCluster::PickReadNodeLocked(const RangeState& range,
                                               const BatchRequest& req,
                                               const RequestUnion& r) const {
  const NodeId leaseholder = range.desc.leaseholder;
  const bool holder_live = nodes_[leaseholder]->live();
  if (holder_live && LeaseValidLocked(range)) return leaseholder;
  // Follower read: stale enough and explicitly allowed. Only a fully
  // caught-up replica may serve one — a replica behind the range log could
  // be missing writes below the closed timestamp.
  const bool is_read = r.type == RequestType::kGet || r.type == RequestType::kScan;
  if (is_read && req.allow_follower_reads && !req.ts.IsEmpty() &&
      req.ts <= ClosedTimestamp()) {
    for (NodeId n : range.desc.replicas) {
      if (nodes_[n]->live() && nodes_[n]->engine() != nullptr &&
          range.log.Applied(n) == range.log.committed_index()) {
        return n;
      }
    }
  }
  if (!holder_live) return Status::Unavailable("leaseholder node is not live");
  lease_epoch_mismatch_c_->Inc();
  return Status::LeaseEpochMismatch(
      "range " + std::to_string(range.desc.range_id) + " lease (epoch " +
      std::to_string(range.desc.lease_epoch) + ") is no longer valid at node " +
      std::to_string(leaseholder));
}

StatusOr<BatchResponse> KVCluster::Send(const BatchRequest& req) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  if (req.commit_txn) return ExecuteOnePhaseLocked(req);
  BatchResponse resp;
  const bool read_only = req.IsReadOnly();
  std::vector<bool> counted(nodes_.size(), false);
  // Highest timestamp of a non-transactional write this batch applied; fed
  // to the oracle so later BeginTxn reads observe it (session guarantee).
  Timestamp applied_write_ts;

  const Nanos load_now = clock_->Now();
  for (size_t i = 0; i < req.requests.size(); ++i) {
    const RequestUnion& r = req.requests[i];
    VELOCE_ASSIGN_OR_RETURN(RangeState * range, ResolveRangeLocked(req, r.key));
    VELOCE_RETURN_IF_ERROR(CheckTenantBoundsLocked(req, r.key, r.end_key));
    Latch latch(range->latch);
    range->load.Record(load_now, r.key);
    VELOCE_ASSIGN_OR_RETURN(NodeId serving_node, PickReadNodeLocked(*range, req, r));
    const bool is_write =
        r.type == RequestType::kPut || r.type == RequestType::kDelete;
    if (is_write && !nodes_[range->desc.leaseholder]->live()) {
      return Status::Unavailable("leaseholder node is not live");
    }
    KVNode* leaseholder = nodes_[serving_node].get();
    if (interceptor_ && !counted[leaseholder->id()]) {
      VELOCE_RETURN_IF_ERROR(interceptor_(leaseholder->id(), req));
    }
    // Per-node batch accounting: count the batch once per node, every
    // request individually.
    if (!counted[leaseholder->id()]) {
      counted[leaseholder->id()] = true;
      leaseholder->RecordBatch(read_only);
    }

    if (is_write) {
      // Pipelined intent batches: a txn's contiguous run of writes landing
      // on the same range executes as one group. Non-transactional writes
      // go one at a time, each at its own timestamp.
      std::vector<const RequestUnion*> group{&r};
      size_t j = i + 1;
      for (; req.txn_id != 0 && j < req.requests.size(); ++j) {
        const RequestUnion& nxt = req.requests[j];
        const bool nxt_write =
            nxt.type == RequestType::kPut || nxt.type == RequestType::kDelete;
        if (!nxt_write || !range->desc.Contains(nxt.key)) break;
        VELOCE_RETURN_IF_ERROR(CheckTenantBoundsLocked(req, nxt.key, nxt.end_key));
        range->load.Record(load_now, nxt.key);
        group.push_back(&nxt);
      }
      for (const RequestUnion* w : group) {
        leaseholder->RecordWriteRequest(w->key.size() + w->value.size());
      }
      obs::ScopedSpan span(req.trace, "storage_write");
      Timestamp applied;
      VELOCE_RETURN_IF_ERROR(
          ExecuteWritesLocked(range, &latch, req, group, &resp, &applied));
      // Session guarantee for non-transactional writes; a txn's writes
      // become visible through its commit instead.
      if (req.txn_id == 0 && applied_write_ts < applied) applied_write_ts = applied;
      resp.responses.resize(resp.responses.size() + group.size());
      i = j - 1;
      continue;
    }

    ResponseUnion out;
    leaseholder->RecordReadRequest();
    obs::ScopedSpan span(req.trace, "storage_read");
    VELOCE_RETURN_IF_ERROR(
        ExecuteReadLocked(range, &latch, req, r, &out, serving_node));
    uint64_t bytes = out.value.size();
    for (const auto& row : out.rows) bytes += row.key.size() + row.value.size();
    leaseholder->AddReadBytes(bytes);
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
    StatusOr<PushResult> recovered = RecoverStagedTxnLocked(intent.txn_id);
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
  LogRecord rec;
  rec.key = key.ToString();
  rec.txn_id = intent.txn_id;
  switch (pr.pushee_status) {
    case TxnStatus::kCommitted:
      rec.kind = LogRecord::Kind::kResolveIntent;
      rec.commit = true;
      rec.ts = pr.commit_ts;
      break;
    case TxnStatus::kAborted:
      rec.kind = LogRecord::Kind::kResolveIntent;
      rec.commit = false;
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
  return ReplicateRecordLocked(range, std::move(rec), nullptr,
                               /*require_quorum=*/false);
}

Status KVCluster::ResolveWriteConflictsLocked(
    RangeState* range, Latch* latch, storage::Engine* engine, const BatchRequest& req,
    const std::vector<const RequestUnion*>& writes, bool one_pc) {
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
    if (blocked == nullptr) return Status::OK();
    if (resolved >= max_resolutions) {
      return Status::WriteIntentError("too many conflict retries");
    }
    VELOCE_RETURN_IF_ERROR(
        HandleConflictLocked(range, latch, blocked->key, *intent, req, true));
  }
}

Status KVCluster::ExecuteReadLocked(RangeState* range, Latch* latch,
                                    const BatchRequest& req, const RequestUnion& r,
                                    ResponseUnion* out, NodeId serving_node) {
  const Timestamp read_ts = req.ts.IsEmpty() ? hlc_.Now() : req.ts;
  const bool follower = serving_node != range->desc.leaseholder;
  storage::Engine* engine = nodes_[serving_node]->engine();
  if (engine == nullptr) {
    return Status::Unavailable("node " + std::to_string(serving_node) +
                               " has no engine (failed crash-restart)");
  }

  if (r.type == RequestType::kGet) {
    for (int attempt = 0; attempt < kMaxConflictRetries; ++attempt) {
      VELOCE_ASSIGN_OR_RETURN(MvccGetResult res,
                              MvccGet(engine, r.key, read_ts, req.txn_id));
      if (res.conflict.has_value()) {
        VELOCE_RETURN_IF_ERROR(
            HandleConflictLocked(range, latch, r.key, *res.conflict, req, false));
        continue;
      }
      // Follower reads are below the closed timestamp; no writer can land
      // under them, so they need no timestamp-cache entry.
      if (!follower) range->tscache.RecordRead(r.key, read_ts, req.txn_id);
      out->found = res.value.has_value();
      if (res.value.has_value()) out->value = std::move(*res.value);
      return Status::OK();
    }
    return Status::WriteIntentError("too many conflict retries");
  }

  // Scan: may span ranges; walk them left to right.
  std::string cursor = r.key;
  uint64_t remaining = r.limit;
  RangeState* cur_range = range;
  while (true) {
    VELOCE_ASSIGN_OR_RETURN(NodeId cur_node, PickReadNodeLocked(*cur_range, req, r));
    const bool cur_follower = cur_node != cur_range->desc.leaseholder;
    storage::Engine* cur_engine = nodes_[cur_node]->engine();
    // Clamp the scan to this range.
    std::string scan_end = r.end_key;
    const std::string& range_end = cur_range->desc.end_key;
    if (!range_end.empty() && (scan_end.empty() || Slice(range_end) < Slice(scan_end))) {
      scan_end = range_end;
    }
    MvccScanResult res;
    bool done = false;
    for (int attempt = 0; attempt < kMaxConflictRetries; ++attempt) {
      VELOCE_ASSIGN_OR_RETURN(res, MvccScan(cur_engine, cursor, scan_end, read_ts,
                                            remaining, req.txn_id));
      if (res.conflict.has_value()) {
        VELOCE_RETURN_IF_ERROR(HandleConflictLocked(
            cur_range, latch,
            Slice(res.entries.empty() ? cursor : res.entries.back().key),
            *res.conflict, req, false));
        continue;
      }
      done = true;
      break;
    }
    if (!done) return Status::WriteIntentError("too many conflict retries");
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
    if (range_end.empty()) return Status::OK();
    if (!r.end_key.empty() && Slice(range_end) >= Slice(r.end_key)) {
      return Status::OK();
    }
    cursor = range_end;
    cur_range = LookupRangeLocked(cursor);
    if (cur_range == nullptr) return Status::NotFound("range gap during scan");
    latch->unlock();
    *latch = Latch(cur_range->latch);
  }
}

Status KVCluster::ExecuteWritesLocked(RangeState* range, Latch* latch,
                                      const BatchRequest& req,
                                      const std::vector<const RequestUnion*>& writes,
                                      BatchResponse* resp, Timestamp* applied_ts) {
  storage::Engine* engine = LeaseholderEngineLocked(*range);
  if (engine == nullptr) {
    return Status::Unavailable("leaseholder has no engine (failed crash-restart)");
  }
  VELOCE_RETURN_IF_ERROR(CheckLeaseLocked(*range));
  Timestamp ts = req.ts.IsEmpty() ? hlc_.Now() : req.ts;

  // Foreign intents block writers (write-write conflicts abort or wait).
  VELOCE_RETURN_IF_ERROR(
      ResolveWriteConflictsLocked(range, latch, engine, req, writes, false));
  // Serializability: never write below a timestamp another txn already
  // read at, nor at or below the closed timestamp (follower reads rely on
  // it). Read after the conflict loop, which may have released the latch.
  for (const RequestUnion* r : writes) {
    const Timestamp max_read = range->tscache.MaxReadTimestamp(r->key, req.txn_id);
    if (ts <= max_read) ts = max_read.Next();
  }
  const Timestamp closed = ClosedTimestamp();
  if (ts <= closed) ts = closed.Next();

  if (req.txn_id != 0) {
    VELOCE_RETURN_IF_ERROR(txn_registry_.BumpWriteTimestamp(req.txn_id, ts));
  }
  storage::WriteBatch batch;
  uint64_t bytes = 0;
  for (const RequestUnion* r : writes) {
    const bool tombstone = r->type == RequestType::kDelete;
    if (req.txn_id != 0) {
      MvccPutIntent(&batch, r->key, req.txn_id, ts, tombstone, r->value);
    } else if (tombstone) {
      MvccPutTombstone(&batch, r->key, ts);
    } else {
      MvccPutValue(&batch, r->key, ts, r->value);
    }
    bytes += r->key.size() + r->value.size();
  }
  VELOCE_RETURN_IF_ERROR(ReplicateLocked(range, batch, req));
  range->approx_bytes += bytes;
  if (ts > req.ts && resp->bumped_write_ts < ts) resp->bumped_write_ts = ts;
  hlc_.Update(ts);
  *applied_ts = ts;
  return Status::OK();
}

StatusOr<BatchResponse> KVCluster::ExecuteOnePhaseLocked(const BatchRequest& req) {
  if (req.txn_id == 0) return Status::InvalidArgument("1pc commit requires a txn");
  if (req.requests.empty()) return Status::InvalidArgument("empty 1pc commit");
  VELOCE_ASSIGN_OR_RETURN(RangeState * range,
                          ResolveRangeLocked(req, req.requests[0].key));
  Latch latch(range->latch);
  const Nanos load_now = clock_->Now();
  std::vector<const RequestUnion*> writes;
  for (const auto& r : req.requests) {
    writes.push_back(&r);
    if (r.type != RequestType::kPut && r.type != RequestType::kDelete) {
      return Status::InvalidArgument("1pc batch must contain only writes");
    }
    VELOCE_RETURN_IF_ERROR(CheckTenantBoundsLocked(req, r.key, r.end_key));
    if (!range->desc.Contains(r.key)) {
      if (req.range_id != 0) {
        // The cached descriptor went stale mid-batch (a split moved part of
        // the write set); redirect rather than reporting a spurious
        // spans-ranges fallback.
        range_mismatch_c_->Inc();
        return Status::RangeKeyMismatch(
            "1pc write set no longer fits range " +
            std::to_string(req.range_id));
      }
      return Status::NotSupported("1pc batch spans ranges");
    }
    range->load.Record(load_now, r.key);
  }
  if (!nodes_[range->desc.leaseholder]->live()) {
    return Status::Unavailable("leaseholder node is not live");
  }
  storage::Engine* engine = LeaseholderEngineLocked(*range);
  if (engine == nullptr) {
    return Status::Unavailable("leaseholder has no engine (failed crash-restart)");
  }
  VELOCE_RETURN_IF_ERROR(CheckLeaseLocked(*range));
  KVNode* leaseholder = nodes_[range->desc.leaseholder].get();
  if (interceptor_) {
    VELOCE_RETURN_IF_ERROR(interceptor_(leaseholder->id(), req));
  }
  leaseholder->RecordBatch(false);
  for (const auto& r : req.requests) {
    leaseholder->RecordWriteRequest(r.key.size() + r.value.size());
  }

  Timestamp ts = req.ts.IsEmpty() ? hlc_.Now() : req.ts;
  VELOCE_RETURN_IF_ERROR(
      ResolveWriteConflictsLocked(range, &latch, engine, req, writes, true));
  for (const auto& r : req.requests) {
    const Timestamp max_read = range->tscache.MaxReadTimestamp(r.key, req.txn_id);
    if (ts <= max_read) ts = max_read.Next();
  }
  const Timestamp closed = ClosedTimestamp();
  if (ts <= closed) ts = closed.Next();

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
  storage::WriteBatch batch;
  uint64_t bytes = 0;
  for (const auto& r : req.requests) {
    if (r.type == RequestType::kDelete) {
      MvccPutTombstone(&batch, r.key, ts);
    } else {
      MvccPutValue(&batch, r.key, ts, r.value);
    }
    bytes += r.key.size() + r.value.size();
  }
  VELOCE_RETURN_IF_ERROR(ReplicateLocked(range, batch, req));
  VELOCE_RETURN_IF_ERROR(txn_registry_.Commit(req.txn_id, ts));
  range->approx_bytes += bytes;
  hlc_.Update(ts);
  oracle_->Observe(ts);
  resp.responses.resize(req.requests.size());
  resp.commit_ts = ts;
  resp.now = hlc_.Now();
  return resp;
}

StatusOr<PushResult> KVCluster::RecoverStagedTxnLocked(TxnId id,
                                                       bool coordinator_abandoned) {
  VELOCE_ASSIGN_OR_RETURN(TxnRecord rec, txn_registry_.Get(id));
  if (rec.status != TxnStatus::kStaging) {
    // Finalized while we were deciding to recover.
    return PushResult{rec.status, rec.status != TxnStatus::kPending, rec.write_ts};
  }
  txn_metrics_.recoveries->Inc();
  const bool expired =
      coordinator_abandoned ||
      clock_->Now() - rec.last_heartbeat > TxnRegistry::kExpiration;
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
    RangeState* range = LookupRangeLocked(key);
    storage::Engine* engine =
        range != nullptr ? LeaseholderEngineLocked(*range) : nullptr;
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
    if (!txn_registry_.Commit(id, rec.staged_ts).ok()) return raced;
    oracle_->Observe(rec.staged_ts);
    return PushResult{TxnStatus::kCommitted, /*pushed=*/true, rec.staged_ts};
  }
  if (!expired) {
    // A live parallel commit is still in flight; back off and let the
    // coordinator finish.
    return Status::WriteIntentError("txn " + std::to_string(id) +
                                    " is committing (staged)");
  }
  // Abandoned staging that never completed, its missing keys fenced above.
  if (!txn_registry_.Abort(id, rec.staged_ts).ok()) return raced;
  return PushResult{TxnStatus::kAborted, /*pushed=*/true, Timestamp()};
}

Status KVCluster::ReplicateLocked(RangeState* range, const storage::WriteBatch& batch,
                                  const BatchRequest& req) {
  obs::ScopedSpan span(req.trace, "replication");
  LogRecord rec;
  rec.kind = LogRecord::Kind::kBatch;
  rec.payload = batch.rep();
  rec.tenant = req.tenant_id;
  return ReplicateRecordLocked(range, std::move(rec), &batch,
                               /*require_quorum=*/true);
}

Status KVCluster::ApplyRecordLocked(KVNode* node, const LogRecord& rec,
                                    const storage::WriteBatch* batch,
                                    uint32_t copies, bool charge_tenant) {
  storage::Engine* engine = node->engine();
  if (engine == nullptr) {
    return Status::Unavailable("node " + std::to_string(node->id()) +
                               " has no engine (failed crash-restart)");
  }
  storage::WriteBatch decoded;
  if (rec.kind == LogRecord::Kind::kBatch && batch == nullptr) {
    VELOCE_RETURN_IF_ERROR(decoded.SetContents(rec.payload));
    batch = &decoded;
  }
  for (uint32_t c = 0; c < copies; ++c) {
    switch (rec.kind) {
      case LogRecord::Kind::kBatch:
        VELOCE_RETURN_IF_ERROR(engine->Write(*batch));
        // Duplicate deliveries and catch-up replays are a network
        // artifact, not client bytes.
        if (c == 0 && charge_tenant && rec.tenant != 0) {
          node->AddTenantWriteBytes(rec.tenant, batch->PayloadBytes());
        }
        break;
      case LogRecord::Kind::kResolveIntent:
        // A no-op when the intent is already gone, so replays and
        // duplicates are safe.
        VELOCE_RETURN_IF_ERROR(
            MvccResolveIntent(engine, rec.key, rec.txn_id, rec.commit, rec.ts));
        break;
      case LogRecord::Kind::kUpdateIntentTs:
        VELOCE_RETURN_IF_ERROR(
            MvccUpdateIntentTimestamp(engine, rec.key, rec.txn_id, rec.ts));
        break;
    }
  }
  return Status::OK();
}

Status KVCluster::ReplicateRecordLocked(RangeState* range, LogRecord rec,
                                        const storage::WriteBatch* batch,
                                        bool require_quorum) {
  const NodeId leader = range->desc.leaseholder;
  const bool leader_up = NodeUpLocked(leader);
  if (require_quorum && !leader_up) {
    return Status::Unavailable("leaseholder node is not live");
  }
  const uint64_t next_index = range->log.committed_index() + 1;

  // Phase 1: ask the transport which replicas this round can reach. The
  // leaseholder applies locally (no network hop). A replica whose
  // crash-restart failed has no engine; it cannot accept the write or
  // count toward quorum, exactly like a dead node.
  struct Delivery {
    NodeId node = 0;
    bool up = false;
    LinkDecision d;
  };
  std::vector<Delivery> plan;
  plan.reserve(range->desc.replicas.size());
  int acks = leader_up ? 1 : 0;
  Nanos max_delay = 0;
  for (NodeId n : range->desc.replicas) {
    if (n == leader) continue;
    Delivery del;
    del.node = n;
    del.up = NodeUpLocked(n);
    if (del.up) {
      del.d = transport_->DeliverReplication(leader, n, next_index);
      if (del.d.ack) ++acks;
      if (del.d.delay > max_delay) max_delay = del.d.delay;
    } else {
      del.d.deliver = false;
      del.d.ack = false;
    }
    plan.push_back(del);
  }
  const int quorum = static_cast<int>(range->desc.replicas.size()) / 2 + 1;
  if (require_quorum && acks < quorum) {
    return Status::Unavailable("quorum unreachable for range " +
                               std::to_string(range->desc.range_id));
  }

  // Phase 2: the leaseholder applies first, so a local engine failure
  // rejects the round with nothing logged anywhere (the failed write can
  // never resurface through catch-up).
  if (leader_up) {
    VELOCE_RETURN_IF_ERROR(ApplyRecordLocked(nodes_[leader].get(), rec, batch, 1));
  }
  const uint64_t index = range->log.Append(std::move(rec));
  const LogRecord& stored = range->log.records().back();
  if (leader_up) range->log.SetApplied(leader, index);

  // Phase 3: deliver to the remotes the transport reached. An undelivered
  // message, a lost ack, or a minority engine failure demotes that replica
  // to needs-catch-up rather than failing a batch that has quorum.
  int applied = leader_up ? 1 : 0;
  for (const Delivery& del : plan) {
    if (!del.up || !del.d.deliver) {
      if (del.up && del.d.ack) {
        // A phantom ack: the message never arrived yet the ack did —
        // physically impossible on a real network, supplied only by the
        // linearizability checker's self-test transport. The leaseholder
        // can only trust what it is told, so the replica is recorded as
        // applied, poisoning quorum and catch-up bookkeeping exactly as a
        // lying replica would.
        ++applied;
        range->log.SetApplied(del.node, index);
        continue;
      }
      if (del.up) replica_demotions_c_->Inc();
      continue;
    }
    // A replica that missed earlier rounds replays the gap first so its
    // applied position stays contiguous.
    if (range->log.Applied(del.node) < index - 1) {
      if (!CatchUpReplicaLocked(range, del.node, index - 1).ok()) {
        replica_demotions_c_->Inc();
        continue;
      }
      if (range->log.Applied(del.node) >= index) {
        ++applied;  // snapshot catch-up already covered this record
        continue;
      }
    }
    Status s = ApplyRecordLocked(nodes_[del.node].get(), stored, batch, del.d.copies);
    if (!s.ok()) {
      replica_demotions_c_->Inc();
      continue;
    }
    ++applied;
    // Without the ack the leaseholder must assume the worst and re-replay
    // later (idempotent), so only an acked apply advances the position.
    if (del.d.ack) range->log.SetApplied(del.node, index);
  }
  if (require_quorum && applied < quorum) {
    // A majority of planned engine writes failed after the reachability
    // check. The record stays in the log (the leaseholder applied it), so
    // the write is indeterminate — the "result unknown" class the txn
    // layer already handles.
    return Status::Unavailable("replication quorum lost for range " +
                               std::to_string(range->desc.range_id));
  }
  if (max_delay > 0) replication_delay_h_->Record(max_delay);
  TruncateLogLocked(range);
  return Status::OK();
}

Status KVCluster::CatchUpReplicaLocked(RangeState* range, NodeId node,
                                       uint64_t limit) {
  KVNode* n = nodes_[node].get();
  if (n->engine() == nullptr) {
    return Status::Unavailable("replica has no engine");
  }
  const uint64_t committed = range->log.committed_index();
  if (limit > committed) limit = committed;
  const uint64_t applied = range->log.Applied(node);
  if (applied >= limit) return Status::OK();
  if (!range->log.CanReplayFrom(applied)) {
    // The log was truncated past this replica's position: full-span
    // snapshot transfer from a caught-up replica.
    VELOCE_RETURN_IF_ERROR(SnapshotReplicaLocked(range, node));
    range->log.SetApplied(node, committed);
    replica_catchups_snapshot_c_->Inc();
    return Status::OK();
  }
  uint64_t replayed = 0;
  for (const LogRecord& rec : range->log.records()) {
    if (rec.index <= applied) continue;
    if (rec.index > limit) break;
    VELOCE_RETURN_IF_ERROR(
        ApplyRecordLocked(n, rec, nullptr, 1, /*charge_tenant=*/false));
    range->log.SetApplied(node, rec.index);
    ++replayed;
  }
  if (replayed > 0) {
    replica_catchups_replay_c_->Inc();
    catchup_records_c_->Inc(replayed);
  }
  return Status::OK();
}

Status KVCluster::SnapshotReplicaLocked(RangeState* range, NodeId to) {
  storage::Engine* dst = nodes_[to]->engine();
  if (dst == nullptr) return Status::Unavailable("snapshot target has no engine");
  // Source: a fully-applied replica, preferring the leaseholder.
  const uint64_t committed = range->log.committed_index();
  storage::Engine* src = nullptr;
  const NodeId leader = range->desc.leaseholder;
  if (leader != to && nodes_[leader]->engine() != nullptr &&
      range->log.Applied(leader) == committed) {
    src = nodes_[leader]->engine();
  } else {
    for (NodeId n : range->desc.replicas) {
      if (n == to || nodes_[n]->engine() == nullptr) continue;
      if (range->log.Applied(n) != committed) continue;
      src = nodes_[n]->engine();
      break;
    }
  }
  if (src == nullptr) {
    return Status::Unavailable("no caught-up source replica for snapshot");
  }
  // Clear the stale span first: the lagging replica may hold engine keys
  // (e.g. intent slots) the source has since deleted, and a pure copy
  // would resurrect them.
  VELOCE_RETURN_IF_ERROR(ClearSpan(dst, range->desc));
  const auto [start_engine, end_engine] = EngineSpan(range->desc);
  auto iter = src->NewBoundedIterator(start_engine, end_engine);
  storage::WriteBatch batch;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    batch.Put(iter->key(), iter->value());
    if (batch.ByteSize() > (1 << 20)) {  // apply in ~1MB chunks
      VELOCE_RETURN_IF_ERROR(dst->Write(batch));
      batch.Clear();
    }
  }
  if (batch.Count() > 0) VELOCE_RETURN_IF_ERROR(dst->Write(batch));
  return Status::OK();
}

void KVCluster::TruncateLogLocked(RangeState* range) {
  uint64_t floor = range->log.committed_index();
  for (NodeId n : range->desc.replicas) {
    floor = std::min(floor, range->log.Applied(n));
  }
  if (range->pending_move.has_value()) {
    // A pipelined move pins retention at its snapshot floor so the cutover
    // can replay the delta. The ReplicationLog's hard caps still apply (the
    // pin bounds the common case, not memory); if they force past the
    // floor, FinishReplicaMove falls back to a fresh snapshot.
    floor = std::min(floor, range->pending_move->snapshot_floor);
  }
  range->log.TruncateTo(floor);
}

bool KVCluster::LivenessValidLocked(NodeId id, Nanos now) const {
  const NodeLiveness& lv = liveness_[id];
  return !lv.expired && now - lv.last_heartbeat <= options_.liveness_duration;
}

bool KVCluster::LeaseValidLocked(const RangeState& range) const {
  if (!liveness_enabled_) return true;
  const NodeId holder = range.desc.leaseholder;
  return range.desc.lease_epoch == liveness_[holder].epoch &&
         LivenessValidLocked(holder, clock_->Now());
}

bool KVCluster::CatchUpCandidateLocked(RangeState* range, NodeId node) {
  const uint64_t committed = range->log.committed_index();
  return range->log.Applied(node) >= committed ||
         CatchUpReplicaLocked(range, node, committed).ok();
}

void KVCluster::TransferLeaseLocked(RangeState* range, NodeId node) {
  range->desc.leaseholder = node;
  range->desc.lease_epoch = liveness_[node].epoch;
  range->log.BumpTerm();
  lease_moves_c_->Inc();
}

Status KVCluster::CheckLeaseLocked(const RangeState& range) {
  if (LeaseValidLocked(range)) return Status::OK();
  lease_epoch_mismatch_c_->Inc();
  return Status::LeaseEpochMismatch(
      "range " + std::to_string(range.desc.range_id) + " lease (epoch " +
      std::to_string(range.desc.lease_epoch) + ") is no longer valid at node " +
      std::to_string(range.desc.leaseholder));
}

// --- Node scaling ------------------------------------------------------------

StatusOr<NodeId> KVCluster::AddNode(const std::string& region) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(
      std::make_unique<KVNode>(id, region, options_.engine_options, obs_));
  NodeLiveness lv;
  lv.last_heartbeat = clock_->Now();
  liveness_.push_back(lv);
  return id;
}

Status KVCluster::RestartNode(NodeId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  if (id >= nodes_.size()) return Status::NotFound("no KV node " + std::to_string(id));
  return nodes_[id]->Restart();
}

Status KVCluster::MoveReplica(RangeId range_id, NodeId from, NodeId to) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return MoveReplicaLocked(range_id, from, to);
}

Status KVCluster::StartReplicaMove(RangeId range_id, NodeId from, NodeId to) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return StartReplicaMoveLocked(range_id, from, to);
}

StatusOr<bool> KVCluster::StepReplicaMove(RangeId range_id, size_t max_bytes) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return StepReplicaMoveLocked(range_id, max_bytes);
}

Status KVCluster::FinishReplicaMove(RangeId range_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return FinishReplicaMoveLocked(range_id);
}

Status KVCluster::AbortReplicaMove(RangeId range_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return AbortReplicaMoveLocked(range_id);
}

Status KVCluster::MoveReplicaLocked(RangeId range_id, NodeId from, NodeId to) {
  VELOCE_RETURN_IF_ERROR(StartReplicaMoveLocked(range_id, from, to));
  while (true) {
    StatusOr<bool> done = StepReplicaMoveLocked(range_id, 1 << 20);
    if (!done.ok()) {
      (void)AbortReplicaMoveLocked(range_id);
      return done.status();
    }
    if (*done) break;
  }
  Status s = FinishReplicaMoveLocked(range_id);
  if (!s.ok()) (void)AbortReplicaMoveLocked(range_id);
  return s;
}

Status KVCluster::StartReplicaMoveLocked(RangeId range_id, NodeId from, NodeId to) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, FindRangeLocked(range_id));
  if (range->pending_move.has_value()) {
    return Status::Unavailable("replica move already in progress");
  }
  if (!range->desc.HasReplica(from)) {
    return Status::InvalidArgument("source node holds no replica");
  }
  if (range->desc.HasReplica(to)) {
    return Status::InvalidArgument("target node already holds a replica");
  }
  if (to >= nodes_.size() || !nodes_[to]->live() ||
      nodes_[to]->engine() == nullptr) {
    return Status::Unavailable("target node not available");
  }
  // Snapshot source: a live, fully-applied replica (prefer the leaseholder,
  // then the outgoing replica). A behind candidate is caught up first or
  // skipped — a lagging source would record the target as caught-up while
  // missing acked writes.
  const uint64_t committed = range->log.committed_index();
  NodeId source = 0;
  bool have_source = false;
  auto try_source = [&](NodeId n) {
    if (have_source || !NodeUpLocked(n) || !CatchUpCandidateLocked(range, n)) return;
    source = n;
    have_source = true;
  };
  try_source(range->desc.leaseholder);
  try_source(from);
  for (NodeId n : range->desc.replicas) try_source(n);
  if (!have_source) {
    return Status::Unavailable("no caught-up source replica for move");
  }
  PendingMove move;
  move.from = from;
  move.to = to;
  move.source = source;
  move.snapshot_floor = committed;  // log truncation pinned here until Finish
  range->pending_move = move;
  return Status::OK();
}

StatusOr<bool> KVCluster::StepReplicaMoveLocked(RangeId range_id, size_t max_bytes) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, FindRangeLocked(range_id));
  if (!range->pending_move.has_value()) {
    return Status::InvalidArgument("no replica move in progress");
  }
  PendingMove& move = *range->pending_move;
  if (move.copy_done) return true;
  if (!nodes_[move.to]->live() || nodes_[move.to]->engine() == nullptr) {
    return Status::Unavailable("move target lost mid-stream");
  }
  storage::Engine* dst = nodes_[move.to]->engine();
  const auto [span_start, span_end] = EngineSpan(range->desc);
  const std::string chunk_start = move.cursor.empty() ? span_start : move.cursor;
  if (move.clearing) {
    // Phase 1: wipe the target's stale span (a node that held this span in
    // an earlier life may still carry engine keys — e.g. intent slots —
    // the source has since deleted; a pure copy would resurrect them).
    auto iter = dst->NewBoundedIterator(chunk_start, span_end);
    storage::WriteBatch del;
    std::string last;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      last = iter->key().ToString();
      del.Delete(iter->key());
      if (del.ByteSize() >= max_bytes) break;
    }
    if (del.Count() > 0) {
      VELOCE_RETURN_IF_ERROR(dst->Write(del));
      move.cursor = last + '\0';
      return false;
    }
    move.clearing = false;
    move.cursor.clear();
    return false;
  }
  // Phase 2: stream the span from the source in ~max_bytes chunks. The
  // source keeps serving (and applying new writes) throughout; anything it
  // applies above the snapshot floor is re-delivered by Finish's delta
  // replay, and records are idempotent, so overlap is harmless.
  if (!NodeUpLocked(move.source)) {
    return Status::Unavailable("move source lost mid-stream");
  }
  storage::Engine* src = nodes_[move.source]->engine();
  auto iter = src->NewBoundedIterator(chunk_start, span_end);
  storage::WriteBatch batch;
  std::string last;
  bool more = false;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (batch.ByteSize() >= max_bytes) {
      more = true;
      break;
    }
    last = iter->key().ToString();
    batch.Put(iter->key(), iter->value());
  }
  if (batch.Count() > 0) VELOCE_RETURN_IF_ERROR(dst->Write(batch));
  if (!more) {
    move.copy_done = true;
    return true;
  }
  move.cursor = last + '\0';
  return false;
}

Status KVCluster::FinishReplicaMoveLocked(RangeId range_id) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, FindRangeLocked(range_id));
  if (!range->pending_move.has_value()) {
    return Status::InvalidArgument("no replica move in progress");
  }
  const PendingMove move = *range->pending_move;
  if (!move.copy_done) {
    return Status::InvalidArgument("span copy still in progress");
  }
  KVNode* target = nodes_[move.to].get();
  if (!target->live() || target->engine() == nullptr) {
    return Status::Unavailable("move target lost before cutover");
  }
  const uint64_t committed = range->log.committed_index();
  if (range->log.CanReplayFrom(move.snapshot_floor)) {
    // Delta replay: every mutation committed since the snapshot floor, in
    // order. Uncharged — the bytes were attributed at original delivery.
    for (const LogRecord& rec : range->log.records()) {
      if (rec.index <= move.snapshot_floor) continue;
      VELOCE_RETURN_IF_ERROR(
          ApplyRecordLocked(target, rec, nullptr, 1, /*charge_tenant=*/false));
    }
  } else {
    // Retention caps force-truncated past the floor (the pin bounds the
    // common case, not memory): fall back to a fresh full snapshot taken
    // under the lock, which is trivially consistent at `committed`.
    VELOCE_RETURN_IF_ERROR(SnapshotReplicaLocked(range, move.to));
  }
  // Atomic cutover: the descriptor swap, applied position, generation bump,
  // and (if needed) lease handoff all land together under the exclusive
  // directory lock.
  for (NodeId& replica : range->desc.replicas) {
    if (replica == move.from) replica = move.to;
  }
  range->log.EraseReplica(move.from);
  range->log.SetApplied(move.to, committed);
  range->desc.generation++;
  replica_moves_c_->Inc();
  if (range->desc.leaseholder == move.from) TransferLeaseLocked(range, move.to);
  range->pending_move.reset();
  TruncateLogLocked(range);  // unpin
  return Status::OK();
}

Status KVCluster::AbortReplicaMoveLocked(RangeId range_id) {
  VELOCE_ASSIGN_OR_RETURN(RangeState * range, FindRangeLocked(range_id));
  if (!range->pending_move.has_value()) return Status::OK();
  const PendingMove move = *range->pending_move;
  range->pending_move.reset();
  TruncateLogLocked(range);  // unpin
  // Best-effort wipe of the partially streamed span from the target.
  storage::Engine* dst = nodes_[move.to]->engine();
  return dst != nullptr ? ClearSpan(dst, range->desc) : Status::OK();
}

StatusOr<int> KVCluster::RebalanceReplicas() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  // Count replicas per live node.
  auto replica_counts = [&] {
    std::vector<int> counts(nodes_.size(), 0);
    for (const auto& [rid, state] : ranges_) {
      for (NodeId n : state->desc.replicas) counts[n]++;
    }
    return counts;
  };
  int moves = 0;
  for (int iteration = 0; iteration < 256; ++iteration) {
    std::vector<int> counts = replica_counts();
    NodeId most = 0, least = 0;
    bool have_most = false, have_least = false;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
      if (!nodes_[n]->live()) continue;
      if (!have_most || counts[n] > counts[most]) {
        most = n;
        have_most = true;
      }
      if (!have_least || counts[n] < counts[least]) {
        least = n;
        have_least = true;
      }
    }
    if (!have_most || counts[most] <= counts[least] + 1) break;
    // Move one range replica from `most` to `least`.
    bool moved = false;
    for (auto& [rid, state] : ranges_) {
      if (!state->desc.HasReplica(most) || state->desc.HasReplica(least)) continue;
      VELOCE_RETURN_IF_ERROR(MoveReplicaLocked(rid, most, least));
      ++moves;
      moved = true;
      break;
    }
    if (!moved) break;
  }
  return moves;
}

StatusOr<uint64_t> KVCluster::GarbageCollectTenant(TenantId tenant,
                                                   Timestamp threshold) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const std::string start = TenantPrefix(tenant);
  const std::string end = TenantPrefixEnd(tenant);
  uint64_t removed = 0;
  for (auto& node : nodes_) {
    if (!node->live()) continue;
    VELOCE_ASSIGN_OR_RETURN(
        uint64_t n, MvccGarbageCollect(node->engine(), start, end, threshold));
    removed += n;
  }
  return removed;
}

// --- Tenant keyspaces -------------------------------------------------------

Status KVCluster::CreateTenantKeyspace(TenantId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const std::string prefix = TenantPrefix(id);
  const std::string prefix_end = TenantPrefixEnd(id);
  RangeState* range = LookupRangeLocked(prefix);
  if (range == nullptr) return Status::Internal("no range covers tenant prefix");
  if (range->desc.start_key != prefix) {
    VELOCE_RETURN_IF_ERROR(SplitRangeLocked(prefix));
  }
  RangeState* end_range = LookupRangeLocked(prefix_end);
  if (end_range != nullptr && end_range->desc.start_key != prefix_end) {
    // Only split if the prefix-end falls inside an existing range (it is
    // the boundary already when tenants are created in id order).
    RangeState* covering = LookupRangeLocked(prefix);
    if (covering->desc.end_key.empty() ||
        Slice(prefix_end) < Slice(covering->desc.end_key)) {
      VELOCE_RETURN_IF_ERROR(SplitRangeLocked(prefix_end));
    }
  }
  RangeState* tenant_range = LookupRangeLocked(prefix);
  VELOCE_CHECK(tenant_range != nullptr);
  tenant_range->desc.tenant_id = id;
  return Status::OK();
}

Status KVCluster::DestroyTenantKeyspace(TenantId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const std::string prefix = TenantPrefix(id);
  const std::string prefix_end = TenantPrefixEnd(id);
  // Delete the data from every node (tombstones via a range deletion scan).
  for (auto& node : nodes_) {
    std::string start_engine = EncodeIntentKey(prefix);
    std::string end_engine;
    OrderedPutString(&end_engine, prefix_end);
    auto it = node->engine()->NewBoundedIterator(start_engine, end_engine);
    storage::WriteBatch batch;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      batch.Delete(it->key());
    }
    if (batch.Count() > 0) {
      VELOCE_RETURN_IF_ERROR(node->engine()->Write(batch));
    }
  }
  // Merge directory entries: mark the tenant's ranges as unowned.
  for (auto& [rid, state] : ranges_) {
    if (state->desc.tenant_id == id) state->desc.tenant_id = 0;
  }
  return Status::OK();
}

// --- Transactions -----------------------------------------------------------

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
  for (const auto& key : intent_keys) {
    RangeState* range = LookupRangeLocked(key);
    if (range == nullptr) continue;
    Latch latch(range->latch);
    LogRecord rec;
    rec.kind = LogRecord::Kind::kResolveIntent;
    rec.key = key;
    rec.txn_id = id;
    rec.commit = true;
    rec.ts = ts;
    VELOCE_RETURN_IF_ERROR(ReplicateRecordLocked(range, std::move(rec), nullptr,
                                                 /*require_quorum=*/false));
  }
  if (commit_ts != nullptr) *commit_ts = ts;
  hlc_.Update(ts);
  return Status::OK();
}

StatusOr<PushResult> KVCluster::ResolveAbandonedStaging(TxnId id) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return RecoverStagedTxnLocked(id, /*coordinator_abandoned=*/true);
}

size_t KVCluster::GarbageCollectTxns() {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  // Expired staging records (the coordinator died mid-parallel-commit) are
  // finalized through the recovery procedure — implicit commit when every
  // declared write is present, abort with tscache fencing otherwise — so
  // they cannot accumulate forever. Failures (e.g. a range temporarily
  // unavailable) leave the record for the next sweep.
  for (const TxnId id : txn_registry_.ExpiredStaging()) {
    (void)RecoverStagedTxnLocked(id);
  }
  return txn_registry_.GarbageCollect();
}

Status KVCluster::AbortTxn(TxnId id, const std::vector<std::string>& intent_keys) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  Status s = txn_registry_.Abort(id);
  if (!s.ok() && !s.IsNotFound()) return s;
  for (const auto& key : intent_keys) {
    RangeState* range = LookupRangeLocked(key);
    if (range == nullptr) continue;
    Latch latch(range->latch);
    LogRecord rec;
    rec.kind = LogRecord::Kind::kResolveIntent;
    rec.key = key;
    rec.txn_id = id;
    rec.commit = false;
    VELOCE_RETURN_IF_ERROR(ReplicateRecordLocked(range, std::move(rec), nullptr,
                                                 /*require_quorum=*/false));
  }
  return Status::OK();
}

StatusOr<bool> KVCluster::AnyNewerVersions(TenantId tenant, Slice start, Slice end,
                                           Timestamp after, Timestamp upto,
                                           TxnId txn) {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  (void)tenant;
  // A single-key span is recorded as a point, as the Get that read it was.
  const bool point = IsPointSpan(start, end);
  std::string cursor = start.ToString();
  while (true) {
    RangeState* range = LookupRangeLocked(cursor);
    if (range == nullptr) return Status::NotFound("no range for refresh span");
    std::string span_end = end.ToString();
    const std::string& range_end = range->desc.end_key;
    if (!range_end.empty() && (span_end.empty() || Slice(range_end) < Slice(span_end))) {
      span_end = range_end;
    }
    {
      // Check and record under one latch hold: a write that lands after the
      // check is pushed above `upto` by the entry, so the validated read
      // stays valid until the txn commits at or below `upto`.
      Latch latch(range->latch);
      VELOCE_ASSIGN_OR_RETURN(
          bool any, MvccAnyNewerVersions(LeaseholderEngineLocked(*range), cursor,
                                         span_end, after, upto, txn));
      if (any) return true;
      if (point) {
        range->tscache.RecordRead(start, upto, txn);
      } else {
        range->tscache.RecordReadSpan(cursor, span_end, upto, txn);
      }
    }
    if (range_end.empty()) return false;
    if (!end.empty() && Slice(range_end) >= end) return false;
    cursor = range_end;
  }
}

// --- Ranges / leases ---------------------------------------------------------

std::vector<RangeDescriptor> KVCluster::Ranges() const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  std::vector<RangeDescriptor> out;
  out.reserve(ranges_.size());
  for (const auto& [start, rid] : by_start_) {
    out.push_back(ranges_.at(rid)->desc);
  }
  return out;
}

int KVCluster::CountLeases(NodeId node) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  int count = 0;
  for (const auto& [rid, state] : ranges_) {
    if (state->desc.leaseholder == node) ++count;
  }
  return count;
}

uint64_t KVCluster::RangeLogCommittedIndex(RangeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  auto it = ranges_.find(id);
  if (it == ranges_.end()) return 0;
  Latch latch(it->second->latch);
  return it->second->log.committed_index();
}

uint64_t KVCluster::RangeReplicaApplied(RangeId id, NodeId node) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  auto it = ranges_.find(id);
  if (it == ranges_.end()) return 0;
  Latch latch(it->second->latch);
  return it->second->log.Applied(node);
}

// --- Heartbeat liveness / epoch leases / catch-up ----------------------------

void KVCluster::set_transport(ReplicaTransport* transport) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  transport_ = transport != nullptr ? transport : &passthrough_;
}

bool KVCluster::liveness_enabled() const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return liveness_enabled_;
}

uint64_t KVCluster::NodeLivenessEpoch(NodeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  return id < liveness_.size() ? liveness_[id].epoch : 0;
}

bool KVCluster::NodeLivenessValid(NodeId id) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  if (!liveness_enabled_) return true;
  return id < liveness_.size() && LivenessValidLocked(id, clock_->Now());
}

void KVCluster::TickHeartbeats() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const Nanos now = clock_->Now();
  if (!liveness_enabled_) {
    // Arming grace period: every node starts with a fresh record and gets
    // one full liveness_duration to prove itself.
    liveness_enabled_ = true;
    for (NodeLiveness& lv : liveness_) lv.last_heartbeat = now;
  }
  // Heartbeat round: an up node refreshes its record iff its heartbeats
  // reach a majority of the cluster (itself included) — a minority-side
  // node of a partition cannot, so its record ages out.
  const int majority = static_cast<int>(nodes_.size()) / 2 + 1;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (!NodeUpLocked(n)) continue;
    int reached = 1;  // self
    for (NodeId m = 0; m < nodes_.size(); ++m) {
      if (m == n || !NodeUpLocked(m)) continue;
      if (transport_->DeliverHeartbeat(n, m)) ++reached;
    }
    if (reached >= majority) {
      NodeLiveness& lv = liveness_[n];
      lv.last_heartbeat = now;
      lv.expired = false;  // the epoch stays bumped; only freshness returns
    } else {
      heartbeat_failures_c_->Inc();
    }
  }
  // Expiry: bump the epoch once per transition, invalidating every lease
  // granted under the old epoch — the split-brain fence.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    NodeLiveness& lv = liveness_[n];
    const bool stale =
        !NodeUpLocked(n) || now - lv.last_heartbeat > options_.liveness_duration;
    if (stale && !lv.expired) {
      lv.expired = true;
      ++lv.epoch;
      epoch_bumps_c_->Inc();
    }
  }
  // Lease maintenance + catch-up: invalid leases move to a caught-up
  // replica with valid liveness; lagging replicas reachable through the
  // transport replay what they missed.
  for (auto& [rid, state] : ranges_) {
    MaybeReassignLeaseLocked(state.get());
    const uint64_t committed = state->log.committed_index();
    for (NodeId r : state->desc.replicas) {
      if (r == state->desc.leaseholder || !NodeUpLocked(r)) continue;
      if (state->log.Applied(r) >= committed) continue;
      if (!transport_->DeliverHeartbeat(state->desc.leaseholder, r)) continue;
      (void)CatchUpReplicaLocked(state.get(), r, committed);
    }
    TruncateLogLocked(state.get());
  }
}

void KVCluster::MaybeReassignLeaseLocked(RangeState* range) {
  if (!liveness_enabled_) return;
  if (nodes_[range->desc.leaseholder]->live() && LeaseValidLocked(*range)) return;
  const Nanos now = clock_->Now();
  for (NodeId n : range->desc.replicas) {
    if (!NodeUpLocked(n) || !LivenessValidLocked(n, now) ||
        !CatchUpCandidateLocked(range, n)) {
      continue;
    }
    if (range->desc.leaseholder == n &&
        range->desc.lease_epoch == liveness_[n].epoch) {
      return;  // current lease is actually fine
    }
    TransferLeaseLocked(range, n);
    return;
  }
}

Status KVCluster::CatchUpNode(NodeId id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  if (id >= nodes_.size()) return Status::InvalidArgument("no such node");
  if (nodes_[id]->engine() == nullptr) {
    return Status::Unavailable("node has no engine (failed crash-restart)");
  }
  Status first = Status::OK();
  for (auto& [rid, state] : ranges_) {
    if (!state->desc.HasReplica(id)) continue;
    Status s = CatchUpReplicaLocked(state.get(), id, state->log.committed_index());
    if (!s.ok() && first.ok()) first = s;
    TruncateLogLocked(state.get());
  }
  return first;
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
  for (auto& [rid, state] : ranges_) {
    if (state->desc.leaseholder != id) continue;
    for (NodeId n : state->desc.replicas) {
      if (n == id || !NodeUpLocked(n) || !CatchUpCandidateLocked(state.get(), n)) {
        continue;
      }
      TransferLeaseLocked(state.get(), n);
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
  for (auto& [start, rid] : by_start_) {
    RangeState* state = ranges_[rid].get();
    // Pick the next live, caught-up replica in round-robin order over the
    // replica set; a behind candidate that cannot replay the gap is skipped
    // rather than handed a lease over a divergent engine.
    for (size_t i = 0; i < state->desc.replicas.size(); ++i) {
      const NodeId candidate =
          state->desc.replicas[(next + i) % state->desc.replicas.size()];
      if (!NodeUpLocked(candidate) || !CatchUpCandidateLocked(state, candidate)) {
        continue;
      }
      if (state->desc.leaseholder != candidate) TransferLeaseLocked(state, candidate);
      break;
    }
    ++next;
  }
}

Status KVCluster::SplitRange(Slice split_key) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  return SplitRangeLocked(split_key);
}

Status KVCluster::SplitRangeLocked(Slice split_key, SplitReason reason) {
  RangeState* range = LookupRangeLocked(split_key);
  if (range == nullptr) return Status::NotFound("no range for split key");
  if (range->desc.start_key == split_key.ToString()) {
    return Status::OK();  // already a boundary
  }
  if (range->pending_move.has_value()) {
    return Status::Unavailable("replica move in progress; split deferred");
  }
  RangeDescriptor right = range->desc;
  right.range_id = next_range_id_++;
  right.start_key = split_key.ToString();
  // The fallible step (the directory insert) runs before the left range
  // mutates and before any counter moves: an aborted split leaves the
  // directory, the left range, and the metrics exactly as they were.
  VELOCE_RETURN_IF_ERROR(AddRangeLocked(right));
  RangeState* right_state = ranges_[right.range_id].get();
  range->desc.end_key = split_key.ToString();
  // Both halves keep every read constraint: a write to the right half must
  // still land above the reads the parent served there.
  right_state->tscache.MergeFrom(range->tscache);
  range->approx_bytes /= 2;  // rough: data divides between halves
  right_state->approx_bytes = range->approx_bytes;
  // Each half inherits half the parent's load; key samples restart on both
  // sides (old samples may fall outside the new spans).
  range->load.OnSplit();
  right_state->load = range->load;
  range->cooled_since = -1;
  right_state->cooled_since = -1;
  range->desc.generation++;
  right_state->desc.generation = range->desc.generation;
  switch (reason) {
    case SplitReason::kManual: splits_manual_c_->Inc(); break;
    case SplitReason::kSize: splits_size_c_->Inc(); break;
    case SplitReason::kLoad: splits_load_c_->Inc(); break;
  }
  return Status::OK();
}

StatusOr<int> KVCluster::MaybeSplitRanges() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  int splits = 0;
  // Collect candidates first; splitting mutates the maps.
  std::vector<RangeId> oversized;
  for (const auto& [rid, state] : ranges_) {
    if (state->pending_move.has_value()) continue;
    if (state->approx_bytes > options_.range_split_bytes) oversized.push_back(rid);
  }
  for (RangeId rid : oversized) {
    RangeState* state = ranges_[rid].get();
    // Find an approximate midpoint key by scanning the leaseholder engine.
    storage::Engine* engine = LeaseholderEngineLocked(*state);
    if (engine == nullptr) continue;  // leaseholder down; next sweep
    const auto [start_bound, end_bound] = EngineSpan(state->desc);
    auto it = engine->NewBoundedIterator(start_bound, end_bound);
    uint64_t seen = 0;
    std::string mid_key;
    const uint64_t target = state->approx_bytes / 2;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      seen += it->key().size() + it->value().size();
      if (seen >= target) {
        std::string user_key;
        Timestamp ts;
        bool is_intent;
        if (DecodeMvccKey(it->key(), &user_key, &ts, &is_intent) &&
            user_key > state->desc.start_key) {
          mid_key = user_key;
        }
        break;
      }
    }
    if (mid_key.empty()) continue;
    VELOCE_RETURN_IF_ERROR(SplitRangeLocked(mid_key, SplitReason::kSize));
    ++splits;
  }
  // Load splits: a hot range divides at a key drawn from its own sample
  // reservoir — no engine scan, which is what keeps this sweep cheap at
  // 100k ranges. Any sampled key is tenant-aligned by construction (it was
  // served by this range, and ranges never span tenants).
  if (options_.load_split_qps > 0) {
    const Nanos now = clock_->Now();
    std::vector<RangeId> hot;
    for (const auto& [rid, state] : ranges_) {
      if (state->pending_move.has_value()) continue;
      if (state->load.Qps(now) > options_.load_split_qps) hot.push_back(rid);
    }
    for (RangeId rid : hot) {
      RangeState* state = ranges_[rid].get();
      const std::string hot_key = state->load.SuggestSplitKey(state->desc.start_key);
      if (hot_key.empty() || !state->desc.Contains(hot_key)) continue;
      VELOCE_RETURN_IF_ERROR(SplitRangeLocked(hot_key, SplitReason::kLoad));
      ++splits;
    }
  }
  return splits;
}

// --- Range merges ------------------------------------------------------------

bool KVCluster::CanMergeLocked(const RangeState& left, const RangeState& right,
                               Nanos now) const {
  // Tenant, adjacency and in-flight-move checks are MergeRangesLocked's,
  // which runs them before any side effect. Hysteresis: both sides must
  // have dwelled below the QPS threshold.
  auto dwelled = [&](const RangeState& r) {
    return r.cooled_since >= 0 && now - r.cooled_since >= options_.merge_dwell;
  };
  if (!dwelled(left) || !dwelled(right)) return false;
  // Keep the merged range well under the split threshold so a merge never
  // immediately re-triggers a size split (split/merge flapping).
  const uint64_t cap = options_.merge_max_bytes != 0
                           ? options_.merge_max_bytes
                           : options_.range_split_bytes / 2;
  if (left.approx_bytes + right.approx_bytes > cap) return false;
  // The merged range keeps the left range's lease, so that lease must be
  // valid right now — the merge can never install (or later resurrect) a
  // stale epoch.
  return LeaseValidLocked(left) && NodeUpLocked(left.desc.leaseholder);
}

Status KVCluster::MergeRangesLocked(RangeState* left, RangeState* right,
                                    obs::Counter* reason_counter) {
  if (left->desc.tenant_id != right->desc.tenant_id) {
    return Status::InvalidArgument("merge would fuse ranges across tenants");
  }
  if (left->desc.end_key.empty() || left->desc.end_key != right->desc.start_key) {
    return Status::InvalidArgument("ranges are not adjacent");
  }
  if (left->pending_move.has_value() || right->pending_move.has_value()) {
    return Status::Unavailable("replica move in progress; merge deferred");
  }
  // Align the replica sets: the merged range has one replica set and one
  // log, so every right-side replica on a node outside the left set moves
  // onto one of left's nodes first. A failed move vetoes the merge.
  if (left->desc.replicas.size() != right->desc.replicas.size()) {
    return Status::InvalidArgument("replica sets differ in size");
  }
  std::vector<NodeId> extras;   // right's nodes not in left's set
  std::vector<NodeId> missing;  // left's nodes right lacks
  for (NodeId n : right->desc.replicas) {
    if (!left->desc.HasReplica(n)) extras.push_back(n);
  }
  for (NodeId n : left->desc.replicas) {
    if (!right->desc.HasReplica(n)) missing.push_back(n);
  }
  for (size_t i = 0; i < extras.size(); ++i) {
    VELOCE_RETURN_IF_ERROR(
        MoveReplicaLocked(right->desc.range_id, extras[i], missing[i]));
  }
  // Every replica must be reachable and fully applied on BOTH logs: the
  // right log dies with the merge, and a replica missing right-side records
  // would silently diverge under the surviving left log.
  const NodeId leader = left->desc.leaseholder;
  const uint64_t left_committed = left->log.committed_index();
  const uint64_t right_committed = right->log.committed_index();
  for (NodeId n : left->desc.replicas) {
    if (!NodeUpLocked(n)) {
      return Status::Unavailable("replica down; merge deferred");
    }
    if (n != leader && !transport_->DeliverHeartbeat(leader, n)) {
      return Status::Unavailable("replica unreachable; merge deferred");
    }
    VELOCE_RETURN_IF_ERROR(CatchUpReplicaLocked(left, n, left_committed));
    VELOCE_RETURN_IF_ERROR(CatchUpReplicaLocked(right, n, right_committed));
    if (left->log.Applied(n) < left_committed ||
        right->log.Applied(n) < right_committed) {
      return Status::Unavailable("replica behind; merge deferred");
    }
  }
  // Commit: widen left over right's span and fold in its read constraints
  // and load. Left's (validated) lease carries over unchanged; right's
  // lease epoch is discarded with its descriptor, so a stale epoch can
  // never resurrect through a merge.
  const Nanos now = clock_->Now();
  const std::string right_start = right->desc.start_key;
  const RangeId right_id = right->desc.range_id;
  left->desc.end_key = right->desc.end_key;
  left->approx_bytes += right->approx_bytes;
  left->tscache.MergeFrom(right->tscache);
  left->load.Absorb(right->load, now);
  left->load.ResetSamples();
  left->cooled_since = -1;
  left->desc.generation =
      std::max(left->desc.generation, right->desc.generation) + 1;
  by_start_.erase(right_start);
  ranges_.erase(right_id);  // invalidates `right`
  reason_counter->Inc();
  TruncateLogLocked(left);
  return Status::OK();
}

Status KVCluster::MergeRanges(RangeId left_id) {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  VELOCE_ASSIGN_OR_RETURN(RangeState * left, FindRangeLocked(left_id));
  if (left->desc.end_key.empty()) {
    return Status::InvalidArgument("range has no right neighbour");
  }
  auto nit = by_start_.find(left->desc.end_key);
  if (nit == by_start_.end()) {
    return Status::NotFound("no right neighbour in directory");
  }
  RangeState* right = ranges_[nit->second].get();
  VELOCE_RETURN_IF_ERROR(CheckLeaseLocked(*left));
  return MergeRangesLocked(left, right, merges_manual_c_);
}

StatusOr<int> KVCluster::MaybeMergeRanges() {
  std::unique_lock<std::shared_mutex> dir(dir_mu_);
  const Nanos now = clock_->Now();
  // Pass 1: advance the cooldown dwell clocks.
  for (auto& [rid, state] : ranges_) {
    if (state->load.Qps(now) < options_.merge_qps_threshold) {
      if (state->cooled_since < 0) state->cooled_since = now;
    } else {
      state->cooled_since = -1;
    }
  }
  // Pass 2: fuse dwelled-cold adjacent pairs left to right. After a merge
  // the surviving range may absorb its next neighbour in the same sweep
  // (the byte cap bounds the chain), so the cursor only advances on a
  // skipped pair.
  int merges = 0;
  auto it = by_start_.begin();
  while (it != by_start_.end()) {
    RangeState* left = ranges_[it->second].get();
    if (left->desc.end_key.empty()) break;  // last range
    auto nit = by_start_.find(left->desc.end_key);
    if (nit == by_start_.end()) {
      ++it;  // directory seam (shouldn't happen); skip defensively
      continue;
    }
    RangeState* right = ranges_[nit->second].get();
    if (!CanMergeLocked(*left, *right, now) ||
        !MergeRangesLocked(left, right, merges_cooldown_c_).ok()) {
      it = nit;
      continue;
    }
    ++merges;
  }
  return merges;
}

double KVCluster::RangeQps(Slice key) const {
  std::shared_lock<std::shared_mutex> dir(dir_mu_);
  RangeState* range = const_cast<KVCluster*>(this)->LookupRangeLocked(key);
  if (range == nullptr) return 0.0;
  Latch latch(range->latch);
  return range->load.Qps(clock_->Now());
}

}  // namespace veloce::kv
