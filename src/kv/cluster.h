#ifndef VELOCE_KV_CLUSTER_H_
#define VELOCE_KV_CLUSTER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "kv/batch.h"
#include "obs/obs_context.h"
#include "kv/keys.h"
#include "kv/liveness.h"
#include "kv/node.h"
#include "kv/range_directory.h"
#include "kv/replica_transport.h"
#include "kv/replication.h"
#include "kv/timestamp_oracle.h"
#include "kv/txn.h"
#include "kv/txn_recovery.h"

namespace veloce::kv {

struct KVClusterOptions {
  int num_nodes = 3;
  int replication_factor = 3;
  /// Clock for HLC, txn expiration, leases. Null = process RealClock.
  Clock* clock = nullptr;
  /// Ranges larger than this (approximate ingested bytes) are split by
  /// MaybeSplitRanges().
  uint64_t range_split_bytes = 64ull << 20;
  /// Load-based splits: a range whose decayed QPS exceeds this is split at
  /// a sampled hot-key boundary by MaybeSplitRanges(). 0 disables (size
  /// splits only — the pre-existing behaviour).
  double load_split_qps = 0;
  /// Cooldown merges: a range counts as "cooled" while its decayed QPS
  /// stays below this threshold.
  double merge_qps_threshold = 32.0;
  /// How long both neighbours must stay cooled before MaybeMergeRanges()
  /// fuses them (hysteresis against split/merge flapping). Merged ranges
  /// stay below half of range_split_bytes, so a merge never immediately
  /// re-triggers a size split.
  Nanos merge_dwell = 10 * kSecond;
  /// Region per node; sized to num_nodes or empty (all "local").
  std::vector<std::string> node_regions;
  /// Template for each node's engine (dir is overridden per node).
  storage::EngineOptions engine_options;
  /// Reads at or below now - this interval are "closed" and may be served
  /// by follower replicas; writes are always pushed above the closed
  /// timestamp so follower reads stay consistent.
  Nanos closed_timestamp_interval = 3 * kSecond;
  /// Telemetry injection shared by the cluster, its nodes and their
  /// engines (per-node series carry a node=<id> label). When obs.metrics
  /// is null the cluster owns a private registry. obs.clock is a fallback
  /// for `clock` above.
  obs::ObsContext obs;
  /// Heartbeat-driven liveness: how long a node's liveness record stays
  /// valid past its last successful heartbeat round. Epoch-based lease
  /// enforcement arms on the first TickHeartbeats() call; until then
  /// leases behave exactly as before (no epochs, test-flipped liveness).
  Nanos liveness_duration = 3 * kSecond;
  /// Seam for leaseholder→replica deliveries and node heartbeats (see
  /// kv/replica_transport.h). Null = in-process passthrough, bit-identical
  /// to direct engine writes. Swappable later with set_transport().
  ReplicaTransport* transport = nullptr;
};

/// Hook invoked for every batch executed at a leaseholder, before the work
/// runs. Admission control and the eCPU metering attach here. Returning a
/// non-OK status rejects the batch.
using BatchInterceptor =
    std::function<Status(NodeId leaseholder, const BatchRequest&)>;

/// Batch fragment evaluator for pushdown scans (the paper's future-work
/// Section 8): invoked at the KV node once per range segment with all
/// visible rows when the scan carries a spec, it returns the entries to
/// ship back — filtered/projected rows or whole query fragments (e.g. one
/// partial-aggregate entry per group). The spec format is owned by whoever
/// registers the hook (the SQL layer here), keeping the KV layer
/// schema-agnostic.
using ScanFragmentHook = std::function<StatusOr<std::vector<MvccScanEntry>>(
    std::vector<MvccScanEntry> rows, Slice spec)>;

/// KVCluster is the shared, multi-tenant KV layer: nodes, ranges, the range
/// directory, the transaction registry, and the client routing logic
/// (DistSender). In production these are separate processes exchanging
/// RPCs; here they are one object graph, with the process boundary's
/// marshaling cost modeled explicitly at the SQL/KV connector.
///
/// The class keeps the data path (cluster.cc); each other mechanism is a
/// component whose .cc file also holds the entry points that drive it:
/// RangeDirectory, Liveness, Replication and TxnRecovery. Their shared lock
/// order is written down in range_directory.h.
class KVCluster {
 public:
  explicit KVCluster(KVClusterOptions options);
  ~KVCluster();

  KVCluster(const KVCluster&) = delete;
  KVCluster& operator=(const KVCluster&) = delete;

  // --- Topology -----------------------------------------------------------
  size_t num_nodes() const { return nodes_.size(); }
  KVNode* node(NodeId id) { return nodes_[id].get(); }
  Clock* clock() const { return clock_; }
  /// Registry holding the cluster's `veloce_kv_*` / `veloce_storage_*`
  /// series (the injected one, or the cluster's private default).
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  HybridLogicalClock* hlc() { return &hlc_; }
  TxnRegistry* txn_registry() { return &txn_registry_; }
  TimestampOracle* timestamp_oracle() { return oracle_.get(); }
  /// The executor shared with the storage engines (null = none configured).
  storage::BackgroundExecutor* background_executor() const {
    return options_.engine_options.background_executor;
  }

  /// Adds a KV node at runtime (the paper's future-work automatic KV
  /// scaling, Section 8). The node starts empty; move replicas onto it
  /// with MoveReplica/RebalanceReplicas.
  StatusOr<NodeId> AddNode(const std::string& region = "local");

  /// Moves one replica of `range_id` from node `from` to node `to`:
  /// streams the range's keyspan into the target engine (snapshot
  /// transfer), then swaps the descriptor entry. The leaseholder moves too
  /// if it was `from`. Implemented as Start/Step*/Finish below, driven to
  /// completion in one call.
  Status MoveReplica(RangeId range_id, NodeId from, NodeId to);

  // --- Pipelined replica moves --------------------------------------------
  /// Begins a snapshot-pipelined replica move: records the committed log
  /// position as the snapshot floor (pinning log truncation there) and
  /// selects a caught-up source replica. The range keeps serving reads and
  /// writes for the whole copy; only Finish's cutover is atomic. One move
  /// per range at a time; splits and merges skip ranges mid-move.
  Status StartReplicaMove(RangeId range_id, NodeId from, NodeId to);
  /// Copies the next ~`max_bytes` of the span (after first clearing the
  /// target's stale span, also chunked). Returns true when the copy is
  /// complete and FinishReplicaMove may run. Callers release the cluster
  /// between calls, so writes interleave with the stream; every mutation
  /// after the snapshot floor is re-delivered by Finish's delta replay
  /// (records are idempotent, so overlap with streamed state is safe).
  StatusOr<bool> StepReplicaMove(RangeId range_id, size_t max_bytes = 1 << 20);
  /// Atomic cutover: replays the log delta above the snapshot floor to the
  /// target (falling back to a full snapshot if retention caps truncated
  /// past it), swaps the descriptor entry, and unpins the log.
  Status FinishReplicaMove(RangeId range_id);
  /// Cancels an in-flight move: unpins the log and wipes the partially
  /// streamed span from the target engine.
  Status AbortReplicaMove(RangeId range_id);

  /// Spreads replicas across all live nodes: ranges on overloaded nodes
  /// move one replica each toward the emptiest nodes. Returns moves made.
  StatusOr<int> RebalanceReplicas();

  // --- Tenant keyspaces ---------------------------------------------------
  /// Carves out the tenant's keyspan as dedicated ranges (ranges never span
  /// tenants). Idempotent.
  Status CreateTenantKeyspace(TenantId id);
  /// Drops directory entries and data for a tenant's keyspan.
  Status DestroyTenantKeyspace(TenantId id);

  /// Simulated crash-restart of one node's engine (KVNode::Restart), run
  /// with the directory held exclusively so no request is mid-flight on
  /// the engine being torn down.
  Status RestartNode(NodeId id);

  // --- Data path ----------------------------------------------------------
  /// Executes a batch. `req.tenant_id` is the *authenticated* identity (the
  /// transport validated the tenant's certificate); the KV boundary check
  /// rejects any key outside that tenant's keyspace unless the identity is
  /// the system tenant. Scans may span ranges transparently.
  StatusOr<BatchResponse> Send(const BatchRequest& req);

  /// Current HLC time (helper for clients).
  Timestamp Now() { return hlc_.Now(); }

  /// Highest timestamp at which follower reads are allowed (Section
  /// 3.2.5): writes may no longer commit at or below this.
  Timestamp ClosedTimestamp() const {
    return Timestamp{clock_->Now() - options_.closed_timestamp_interval, 0};
  }

  // --- Transactions (client-side coordination) -----------------------------
  TxnRecord BeginTxn(int32_t priority = 0);
  /// Parallel commit, phase 1: moves the record to STAGING at its current
  /// write timestamp with `in_flight_keys` as the commit condition. The
  /// staged timestamp is returned; once every in-flight write is proven to
  /// have succeeded at or below it, the txn is committed and the client may
  /// be acknowledged before intent resolution.
  ///
  /// Staging makes the commit a distributed fact — a concurrent recovery
  /// may finalize the txn the moment the last declared intent lands — so
  /// the coordinator must have validated its reads up to the staged
  /// timestamp BEFORE staging. Pass the refreshed read timestamp as
  /// `validated_ts`: if the record's write timestamp has moved above it
  /// (an in-flight write bump or a reader's push), nothing is staged,
  /// `*staged_ts` receives the timestamp to refresh to, and
  /// TransactionRetry is returned. nullopt skips the check (the txn
  /// performed no reads).
  Status StageTxn(TxnId id, const std::vector<std::string>& in_flight_keys,
                  Timestamp* staged_ts,
                  std::optional<Timestamp> validated_ts = std::nullopt);
  /// Commits: finalizes the record (at staged_ts when staging), then
  /// resolves the given intents. commit_ts (optional) receives the final
  /// commit timestamp. For a pending record, `validated_ts` guards the
  /// same race as in StageTxn: if the write timestamp moved above it,
  /// nothing commits, `*commit_ts` receives the refresh target, and
  /// TransactionRetry is returned.
  Status CommitTxn(TxnId id, const std::vector<std::string>& intent_keys,
                   Timestamp* commit_ts,
                   std::optional<Timestamp> validated_ts = std::nullopt);
  Status AbortTxn(TxnId id, const std::vector<std::string>& intent_keys);
  /// A coordinator abandoning its own parallel commit (a pipelined batch
  /// failed after the record was staged, so whether the writes applied is
  /// unknown) runs the recovery check instead of blindly aborting: the
  /// result states whether the txn is committed (every declared write
  /// present at or below staged_ts) or was safely aborted. The record must
  /// be staging or already finalized.
  StatusOr<PushResult> ResolveAbandonedStaging(TxnId id);
  /// Txn-record GC: runs the recovery procedure on expired STAGING records
  /// (finalizing them as implicitly-committed or aborted), then reaps old
  /// finalized records. Returns records removed. Abandoned coordinators
  /// therefore cannot leak staging records forever.
  size_t GarbageCollectTxns();
  /// The read refresh that moves txn `txn`'s read timestamp forward: true
  /// if any key in [start,end) has a committed version in (after, upto] or
  /// another txn's intent at or below `upto`. When the span is clean it is
  /// recorded in the timestamp cache as read by `txn` at `upto` (check and
  /// record under each range's latch), so no write can later land beneath
  /// the refreshed read.
  StatusOr<bool> AnyNewerVersions(TenantId tenant, Slice start, Slice end,
                                  Timestamp after, Timestamp upto, TxnId txn);

  // --- Ranges / leases (introspection & experiment control) ---------------
  std::vector<RangeDescriptor> Ranges() const;
  StatusOr<RangeDescriptor> LookupRange(Slice key) const;
  int CountLeases(NodeId node) const;
  uint64_t RangeLogCommittedIndex(RangeId id) const;
  /// Highest contiguously applied log index of one replica of `id`
  /// (partition-tolerance introspection; 0 for unknown range/replica).
  uint64_t RangeReplicaApplied(RangeId id, NodeId node) const;
  void SetNodeLive(NodeId id, bool live);

  // --- Heartbeat liveness / epoch leases / catch-up ------------------------
  /// Swaps the replica transport (null restores the passthrough). Not
  /// thread-safe to set while serving.
  void set_transport(ReplicaTransport* transport);
  /// Runs one heartbeat round: every up node that can reach a majority of
  /// its peers (through the transport) refreshes its liveness record;
  /// nodes that cannot expire and have their epoch bumped, invalidating
  /// every lease granted under the old epoch. Expired or orphaned leases
  /// move to a caught-up replica with valid liveness, and lagging-but-
  /// reachable replicas are caught up. The first call arms epoch-based
  /// lease enforcement for the rest of the cluster's lifetime.
  void TickHeartbeats();
  bool liveness_enabled() const;
  /// Current liveness epoch of a node (1 until its first expiry).
  uint64_t NodeLivenessEpoch(NodeId id) const;
  /// Whether the node's liveness record is valid right now (always true
  /// before TickHeartbeats arms enforcement).
  bool NodeLivenessValid(NodeId id) const;
  /// Replays (or snapshots) every range replica on `id` up to its range's
  /// committed log position — the heal/restart convergence path. Bypasses
  /// the transport: healing is an explicit admin/recovery action.
  Status CatchUpNode(NodeId id);
  /// Moves leases off `node` to another live replica (liveness failure).
  void ShedLeases(NodeId id);
  /// Rebalances leases evenly across live nodes (round-robin).
  void BalanceLeases();
  /// Splits the range containing `split_key` at that key.
  Status SplitRange(Slice split_key);
  /// Size-triggered splits across all ranges, plus — when
  /// options.load_split_qps > 0 — load-triggered splits of hot ranges at a
  /// sampled hot-key boundary. Returns number of splits.
  StatusOr<int> MaybeSplitRanges();
  /// Merges `left_id` with its right neighbour (admin/test path). Refuses
  /// to fuse across tenant boundaries, over an invalid lease, or while
  /// either side has a replica move in flight.
  Status MergeRanges(RangeId left_id);
  /// Cooldown sweep: adjacent ranges of one tenant whose load stayed below
  /// merge_qps_threshold for merge_dwell are fused, so scale-to-zero
  /// shrinks the range count. Replica sets are aligned (via replica moves)
  /// when they drifted apart; unreachable replicas veto the merge. Returns
  /// merges performed.
  StatusOr<int> MaybeMergeRanges();
  /// Decayed QPS of the range owning `key` (introspection; 0 when absent).
  double RangeQps(Slice key) const;

  /// Garbage-collects MVCC versions older than `threshold` across the
  /// tenant's keyspace, on every node's engine. Returns versions removed
  /// (summed across replicas).
  StatusOr<uint64_t> GarbageCollectTenant(TenantId tenant, Timestamp threshold);

  /// Interceptor called before every per-range execution (see
  /// BatchInterceptor), under that range's latch; it must not call back
  /// into the cluster. Not thread-safe to set while serving.
  void set_batch_interceptor(BatchInterceptor interceptor) {
    interceptor_ = std::move(interceptor);
  }

  /// Registers the batch fragment evaluator (see ScanFragmentHook). Scans
  /// carrying a spec while no hook is registered fail with NotSupported.
  void set_scan_fragment_hook(ScanFragmentHook hook) {
    fragment_hook_ = std::move(hook);
  }

  /// Transaction hot-path telemetry, shared with client-side coordinators
  /// (kv::Transaction increments the per-path commit counters and records
  /// commit latency; the cluster itself counts pushes and recoveries).
  struct TxnMetricSet {
    obs::Counter* commits_1pc = nullptr;       ///< veloce_txn_commits_total{path=1pc}
    obs::Counter* commits_parallel = nullptr;  ///< {path=parallel}
    obs::Counter* commits_classic = nullptr;   ///< {path=classic}
    obs::Counter* retries = nullptr;           ///< veloce_txn_retries_total
    obs::Counter* pushes = nullptr;            ///< veloce_txn_pushes_total
    obs::Counter* recoveries = nullptr;        ///< veloce_txn_staging_recoveries_total
    obs::HistogramMetric* commit_latency = nullptr;  ///< veloce_txn_commit_latency_ns
  };
  const TxnMetricSet& txn_metrics() const { return txn_metrics_; }

 private:
  using Writes = std::vector<const RequestUnion*>;

  // --- Data path (cluster.cc) ---------------------------------------------
  /// Picks the node to serve a request: the leaseholder while it is up
  /// with a valid lease, or — for follower-eligible stale reads — any up,
  /// caught-up replica. Unavailable or LeaseEpochMismatch otherwise.
  StatusOr<NodeId> PickReadNodeLocked(const RangeState& range,
                                      const BatchRequest& req,
                                      const RequestUnion& r) const;
  /// Runs the interceptor and counts the batch at `node` the first time
  /// the batch reaches that node (`counted` is indexed by node id).
  Status AdmitLocked(KVNode* node, const BatchRequest& req,
                     std::vector<bool>* counted);
  /// Repeats `read` (an MVCC get or scan) until it meets no foreign intent,
  /// handling each one it meets at key_of(result), up to a retry cap.
  template <typename Read, typename KeyOf>
  auto ReadPastIntentsLocked(RangeState* range, Latch* latch, const BatchRequest& req,
                             Read read, KeyOf key_of) -> decltype(read());
  Status ExecuteReadLocked(RangeState* range, Latch* latch,
                           const BatchRequest& req, const RequestUnion& r,
                           ResponseUnion* out, NodeId serving_node);
  /// The timestamp a write group applies at, shared by Send and 1PC. Clears
  /// foreign intents off the group's keys first: a resolution may release
  /// `latch`, and another txn may meanwhile lay an intent on a key already
  /// checked, so every resolution restarts from the first key (with
  /// `one_pc`, the txn's own intent means 1PC no longer applies). Then the
  /// timestamp is pushed above the group's reads in the timestamp cache
  /// and above the closed timestamp. Counts each write at the leaseholder.
  StatusOr<Timestamp> WriteTimestampLocked(RangeState* range, Latch* latch,
                                           const BatchRequest& req,
                                           const Writes& writes, bool one_pc);
  /// Writes the group at `ts` as one storage WriteBatch and one replication
  /// round (under a "replication" span of the request's trace): intents of
  /// `intent_txn`, or committed versions when it is 0.
  Status ApplyWritesLocked(RangeState* range, const BatchRequest& req,
                           const Writes& writes, TxnId intent_txn, Timestamp ts);
  /// One-phase commit: the batch carries the txn's entire buffered write
  /// set; commits at a single timestamp with committed versions written
  /// directly (no intents, no separate record round). NotSupported when the
  /// writes span ranges (the client falls back to the general path).
  StatusOr<BatchResponse> ExecuteOnePhaseLocked(const BatchRequest& req);
  /// Handles a foreign intent encountered by a read/write. Pushes the owner
  /// and resolves the intent if the push succeeds. Returns OK if the caller
  /// should retry its operation, WriteIntentError if it must back off.
  /// Staging recovery runs with `latch` released, so callers re-check their
  /// keys and read the timestamp cache only after the conflict loop.
  Status HandleConflictLocked(RangeState* range, Latch* latch, Slice key,
                              const IntentMeta& intent, const BatchRequest& req,
                              bool for_write);
  /// Resolves txn `id`'s intents on `keys` through each range's log (best
  /// effort: no quorum needed).
  Status ResolveIntentsLocked(TxnId id, const std::vector<std::string>& keys,
                              bool commit, Timestamp ts);

  // --- Topology (range_directory.cc, liveness.cc) -------------------------
  Status MoveReplicaLocked(RangeId range_id, NodeId from, NodeId to);
  Status StartReplicaMoveLocked(RangeId range_id, NodeId from, NodeId to);
  StatusOr<bool> StepReplicaMoveLocked(RangeId range_id, size_t max_bytes);
  Status FinishReplicaMoveLocked(RangeId range_id);
  Status AbortReplicaMoveLocked(RangeId range_id);
  /// Fuses `right` into `left` (spans must be adjacent, tenants equal,
  /// replica sets identical and fully caught up on both logs).
  Status MergeRangesLocked(RangeState* left, RangeState* right, bool cooldown);

  KVClusterOptions options_;
  Clock* clock_;
  obs::RegistryRef metrics_;
  obs::ObsContext obs_;  // resolved context handed to nodes/engines
  HybridLogicalClock hlc_;
  TxnRegistry txn_registry_;
  std::unique_ptr<TimestampOracle> oracle_;
  NodeList nodes_;

  mutable std::shared_mutex dir_mu_;  // lock order: kv/range_directory.h
  RangeDirectory directory_;
  Liveness liveness_;
  Replication replication_;
  TxnRecovery recovery_;
  BatchInterceptor interceptor_;
  ScanFragmentHook fragment_hook_;

  obs::Counter* replica_moves_c_ = nullptr;
  obs::Counter* intent_conflicts_c_ = nullptr;
  TxnMetricSet txn_metrics_;
  // Declared last: unregisters (and stops touching cluster state) before
  // any other member is destroyed.
  obs::MetricsRegistry::CallbackToken lease_gauge_cb_;
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_CLUSTER_H_
