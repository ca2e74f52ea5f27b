#ifndef VELOCE_KV_TRANSACTION_H_
#define VELOCE_KV_TRANSACTION_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "kv/cluster.h"

namespace veloce::kv {

/// Commit-path knobs for a client-side transaction coordinator. The
/// defaults enable the whole hot path: writes are buffered until they must
/// become intents, flushed intent batches are pipelined (the client does
/// not wait for them), single-range write-only commits take the one-phase
/// fast path, and everything else commits in parallel (STAGING record +
/// in-flight write proof, acking the client before intent resolution).
struct TxnOptions {
  /// Hold Put/Delete in a client-side buffer instead of writing an intent
  /// per statement. Enables 1PC; reads-own-writes are served from the
  /// buffer.
  bool buffer_writes = true;
  /// Flushed intent batches return after enqueueing; Commit() proves they
  /// all succeeded. Requires an executor (falls back to sync sends).
  bool pipeline_writes = true;
  /// Write-only txns whose buffered writes land in one range commit
  /// server-side in a single batch at a single timestamp.
  bool one_phase_commit = true;
  /// Commit via STAGING with the pipelined writes as the commit condition;
  /// the client is acked one round trip before intents resolve.
  bool parallel_commit = true;
  /// Buffer flush threshold (writes, not bytes).
  size_t max_buffered_writes = 128;
  /// After a parallel-commit ack, resolve intents on the executor instead
  /// of inline. Off by default: the cluster must outlive the task, which
  /// only controlled callers (benches draining the executor) guarantee.
  bool async_finalize = false;
  /// Executor for pipelined flushes / async finalize. Null = the cluster's
  /// background executor; if that is also null, sends are synchronous.
  storage::BackgroundExecutor* executor = nullptr;

  /// The pre-overhaul behaviour: synchronous intent per write, refresh +
  /// committed record + resolution all before the ack.
  static TxnOptions Classic() {
    TxnOptions o;
    o.buffer_writes = false;
    o.pipeline_writes = false;
    o.one_phase_commit = false;
    o.parallel_commit = false;
    return o;
  }
};

/// Client-side transaction coordinator: tracks the keys it wrote (for
/// intent resolution at commit/rollback) and the spans it read (for the
/// read-refresh that validates a commit whose write timestamp was pushed
/// above its read timestamp). This is the interface the SQL layer's
/// executor drives.
///
/// Serializable isolation:
///  * reads happen at read_ts; the range timestamp cache pushes later
///    conflicting writes of other txns above read_ts (never this txn's
///    own, which are at or above read_ts anyway);
///  * writes lay intents at write_ts >= read_ts;
///  * commit at write_ts; if write_ts > read_ts the txn first verifies no
///    foreign commit landed in its read spans within (read_ts, write_ts]
///    and no foreign intent sits at or below write_ts (refresh), else it
///    must retry. A refresh that passes records the spans as read at
///    write_ts.
///
/// Not thread-safe: one thread drives the coordinator. The internal write
/// pipeline runs on the executor and is synchronized separately.
class Transaction {
 public:
  /// Pluggable transport: how batches reach the KV layer. The default sends
  /// in-process; the SQL layer substitutes a sender that marshals through
  /// the authorized service (modeling the separate-process boundary).
  /// With pipelining the sender is also invoked from executor threads and
  /// must be thread-safe.
  using Sender = std::function<StatusOr<BatchResponse>(const BatchRequest&)>;

  Transaction(KVCluster* cluster, TenantId tenant, int32_t priority = 0,
              Sender sender = nullptr, TxnOptions options = {});
  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Batched point read: (*values)[i] is the value of keys[i]. Keys in the
  /// write buffer are answered from it; the rest go out as one batch, after
  /// the write pipeline drains if any of them has a flushed intent. Each
  /// key read from KV is tracked as a point read span.
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* values);
  /// MultiGet of one key.
  Status Get(Slice key, std::optional<std::string>* value);
  Status Put(Slice key, Slice value);
  Status Delete(Slice key);
  /// Scan with limit (0 = unlimited); resume_key set when the limit stopped
  /// the scan early.
  Status Scan(Slice start, Slice end, uint64_t limit,
              std::vector<MvccScanEntry>* rows, std::string* resume_key = nullptr);

  /// Turns buffered writes into (pipelined) intent writes. Idempotent; a
  /// no-op when nothing is buffered.
  Status Flush();

  /// Commits; returns TransactionRetry if refresh fails (caller re-runs) or
  /// TransactionAborted if a pusher won. Either error guarantees the txn
  /// did not and will not commit. Unavailable with "result unknown" is the
  /// one exception: a pipelined batch failed after the commit was staged
  /// and the outcome could not be resolved either way — the caller must
  /// not assume the writes are absent.
  Status Commit();
  Status Rollback();

  TxnId id() const { return record_.id; }
  Timestamp read_ts() const { return record_.read_ts; }
  Timestamp commit_ts() const { return commit_ts_; }
  bool finalized() const { return finalized_; }
  /// Number of KV batches this transaction issued (eCPU feature probe).
  uint64_t batches_sent() const { return batches_sent_; }
  /// Coalesced read spans currently tracked (refresh cost probe).
  size_t read_span_count() const { return read_spans_.size(); }

  /// Attaches a request trace: every batch this transaction issues carries
  /// it (see BatchRequest::trace). Caller keeps ownership; clear with null.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }

 private:
  struct BufferedWrite {
    std::string value;
    bool tombstone = false;
  };

  /// Shared with pipelined flush tasks; outlives the coordinator only in
  /// the sense that tasks hold the state alive — every public exit path
  /// waits for the pipeline to drain before touching coordinator fields.
  struct PipelineState {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<BatchRequest> queue;
    bool draining = false;     ///< a drainer task is scheduled/running
    size_t outstanding = 0;    ///< queued + in-flight batches
    Status first_error = Status::OK();
    Timestamp max_bump;        ///< max bumped_write_ts across batches
  };

  BatchRequest MakeRequest() const;
  StatusOr<BatchResponse> SendTracked(const BatchRequest& req);
  /// Records [start, end) as read (end empty = +inf; point reads pass
  /// key..key+'\0'), merging overlapping/adjacent spans.
  void AddReadSpan(const std::string& start, const std::string& end);
  /// True if any tracked key in `keys` intersects [start, end).
  static bool AnyKeyInSpan(const std::set<std::string>& keys, Slice start,
                           Slice end);
  /// Put and Delete: buffered until Flush (at once when unbuffered).
  Status Write(Slice key, Slice value, bool tombstone);
  /// Enqueues a flushed batch on the pipeline (schedules a drainer if none
  /// is running).
  void EnqueuePipelined(BatchRequest req);
  /// Drains queued batches one at a time, in order (single-drainer FIFO).
  static void DrainPipeline(std::shared_ptr<PipelineState> st, Sender send);
  /// Blocks until every pipelined batch completed; folds bumps into
  /// max_write_ts_ and returns the pipeline's first error (sticky).
  Status WaitPipeline();
  /// Re-reads the read spans at `to`: fails if a foreign commit landed in
  /// them within (read_ts, to] or a foreign intent sits at or below `to`;
  /// on success the spans are recorded as read at `to` and read_ts
  /// advances to it.
  Status RefreshReads(Timestamp to);
  /// The one-phase commit attempt loop. OK = committed; NotSupported =
  /// caller falls back to the general path; anything else is final.
  Status TryOnePhaseCommit(Nanos start_ns);
  /// A pipelined batch failed after the txn was staged: the failed batch
  /// may still have applied server-side, so the commit outcome is
  /// indeterminate and a blind rollback could contradict a concurrent
  /// recovery. Runs the recovery check to settle it: OK when the commit
  /// condition holds (the txn IS committed), the pipeline error when the
  /// txn was safely aborted, Unavailable("result unknown") when neither
  /// could be proven.
  Status ResolveIndeterminateCommit(const Status& pipeline_error,
                                    const std::vector<std::string>& keys,
                                    Nanos start_ns);
  /// Rolls back when `s` failed before anything could commit: on any error,
  /// or with `any_error` false only on an abort or a retry. Returns `s`.
  Status RollbackIfFailed(Status s, bool any_error = true);
  void RecordCommit(obs::Counter* path_counter, Nanos start_ns);

  KVCluster* cluster_;
  Sender sender_;
  storage::BackgroundExecutor* executor_ = nullptr;
  TxnOptions options_;
  obs::TraceContext* trace_ = nullptr;
  TenantId tenant_;
  TxnRecord record_;
  Timestamp max_write_ts_;  ///< highest bumped write timestamp observed
  std::map<std::string, BufferedWrite> buffer_;  ///< not yet intents
  std::set<std::string> intent_keys_;            ///< flushed (or in flight)
  std::map<std::string, std::string> read_spans_;  ///< start -> end, coalesced
  std::shared_ptr<PipelineState> pipeline_;
  Timestamp commit_ts_;
  bool finalized_ = false;
  std::atomic<uint64_t> batches_sent_{0};
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_TRANSACTION_H_
