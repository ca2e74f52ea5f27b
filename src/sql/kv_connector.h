#ifndef VELOCE_SQL_KV_CONNECTOR_H_
#define VELOCE_SQL_KV_CONNECTOR_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "billing/ecpu_model.h"
#include "kv/range_cache.h"
#include "kv/transaction.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "tenant/controller.h"

namespace veloce::sql {

/// How the SQL layer reaches the KV layer.
///  * kColocated: same process (the paper's "Traditional" deployment):
///    requests pass as in-memory objects.
///  * kSeparateProcess: Serverless deployment — every batch is serialized
///    and deserialized through the wire codec, modeling the RPC hop between
///    the tenant's SQL process and the shared KV process. This marshaling
///    is the measured extra CPU for scan-heavy OLAP work in Fig 6 (2.3x on
///    TPC-H Q1).
enum class ProcessMode {
  kColocated,
  kSeparateProcess,
};

/// Prefix-aware transaction handle: exposes the kv::Transaction interface
/// in the tenant's logical (un-prefixed) keyspace. The SQL executor only
/// ever sees logical keys.
class TenantTxn {
 public:
  TenantTxn(std::unique_ptr<kv::Transaction> txn, std::string prefix)
      : txn_(std::move(txn)), prefix_(std::move(prefix)) {}

  Status Get(Slice key, std::optional<std::string>* value) {
    return txn_->Get(prefix_ + key.ToString(), value);
  }
  Status MultiGet(const std::vector<std::string>& keys,
                  std::vector<std::optional<std::string>>* values) {
    std::vector<std::string> prefixed;
    prefixed.reserve(keys.size());
    for (const auto& key : keys) prefixed.push_back(prefix_ + key);
    return txn_->MultiGet(prefixed, values);
  }
  Status Put(Slice key, Slice value) {
    return txn_->Put(prefix_ + key.ToString(), value);
  }
  Status Delete(Slice key) { return txn_->Delete(prefix_ + key.ToString()); }
  Status Scan(Slice start, Slice end, uint64_t limit,
              std::vector<kv::MvccScanEntry>* rows,
              std::string* resume_key = nullptr) {
    std::string resume;
    // An empty logical end key means "to the end of the tenant keyspace".
    const std::string end_key =
        end.empty() ? PrefixEnd(prefix_) : prefix_ + end.ToString();
    VELOCE_RETURN_IF_ERROR(
        txn_->Scan(prefix_ + start.ToString(), end_key, limit, rows, &resume));
    for (auto& row : *rows) {
      if (row.key.size() >= prefix_.size()) row.key.erase(0, prefix_.size());
    }
    if (resume_key != nullptr) {
      if (resume.size() >= prefix_.size()) resume.erase(0, prefix_.size());
      *resume_key = std::move(resume);
    }
    return Status::OK();
  }

  Status Flush() { return txn_->Flush(); }
  Status Commit() { return txn_->Commit(); }
  Status Rollback() { return txn_->Rollback(); }
  bool finalized() const { return txn_->finalized(); }
  kv::Timestamp commit_ts() const { return txn_->commit_ts(); }
  kv::Timestamp read_ts() const { return txn_->read_ts(); }
  kv::Transaction* raw() { return txn_.get(); }

 private:
  std::unique_ptr<kv::Transaction> txn_;
  std::string prefix_;
};

/// KvConnector is a SQL node's client to the KV layer: it authenticates
/// with the tenant certificate, prepends/strips the tenant key prefix, and
/// (in Serverless mode) pays the marshaling cost. It also accumulates the
/// six per-feature counters the estimated-CPU model consumes.
class KvConnector {
 public:
  /// `obs` wires the connector's `veloce_sql_*` series into a shared
  /// registry (null metrics = private registry); `instance` distinguishes
  /// connectors sharing a registry (exported as label sql_node=...).
  KvConnector(tenant::AuthorizedKvService* service, kv::KVCluster* cluster,
              tenant::TenantCert cert, ProcessMode mode,
              const obs::ObsContext& obs = {}, std::string instance = "");

  kv::TenantId tenant_id() const { return cert_.tenant_id; }
  ProcessMode mode() const { return mode_; }
  kv::KVCluster* cluster() { return cluster_; }

  /// Non-transactional send. Keys in `req` are logical (un-prefixed); the
  /// connector prefixes them and strips prefixes from scan results.
  StatusOr<kv::BatchResponse> Send(kv::BatchRequest req);

  /// Starts a KV transaction whose batches flow through this connector
  /// (marshaled + authorized), with logical keys.
  std::unique_ptr<TenantTxn> BeginTransaction(int32_t priority = 0);

  /// Commit-path options applied to transactions started after the call
  /// (SET txn_mode switches between the fast defaults and Classic()). A
  /// null executor resolves to the cluster's background executor.
  void set_txn_options(const kv::TxnOptions& options) { txn_options_ = options; }
  const kv::TxnOptions& txn_options() const { return txn_options_; }

  /// Cumulative eCPU feature counters for this SQL node.
  billing::IntervalFeatures features() const {
    std::lock_guard<std::mutex> l(acct_mu_);
    return features_;
  }
  void ResetFeatures() {
    std::lock_guard<std::mutex> l(acct_mu_);
    features_ = {};
  }

  /// Bytes pushed through the wire codec (Serverless mode only).
  uint64_t marshaled_bytes() const {
    std::lock_guard<std::mutex> l(acct_mu_);
    return marshaled_bytes_;
  }

  /// The KV node this SQL process is colocated with in Traditional mode
  /// (requests to ranges led elsewhere are remote RPCs and marshal).
  void set_home_node(kv::NodeId node) { home_node_ = node; }

  /// Thread CPU time spent inside the KV layer (below the SQL/KV
  /// boundary), measured per call. In production this is the part of a
  /// tenant's cost that cannot be directly attributed and must be modeled;
  /// benches use it to calibrate and evaluate the estimated-CPU model.
  /// Timed with ThreadCpuNanos() (CLOCK_THREAD_CPUTIME_ID), not the steady
  /// clock: a KV call can block on latches and group commit, and that wait
  /// is not CPU the model should learn.
  Nanos kv_cpu_nanos() const {
    std::lock_guard<std::mutex> l(acct_mu_);
    return kv_cpu_nanos_;
  }

  /// Request trace attached to every batch this connector sends until
  /// cleared (the session sets it around each statement). The marshal path
  /// records its CPU into the trace as stage "marshal" (steady-clock time,
  /// as veloce_sql_marshal_cpu_ns_total).
  void set_current_trace(obs::TraceContext* trace) { current_trace_ = trace; }
  obs::TraceContext* current_trace() const { return current_trace_; }

  /// Client-side range directory cache (introspection/tests). Every batch
  /// this connector sends resolves through it; RangeKeyMismatch redirects
  /// invalidate and refresh.
  kv::RangeDirectoryCache* range_cache() { return &range_cache_; }

 private:
  /// Resolves the batch through the range directory cache, attaches the
  /// range id when one cached range covers every request key, and handles
  /// RangeKeyMismatch redirects (invalidate → refresh → retry, bounded).
  StatusOr<kv::BatchResponse> SendAddressed(kv::BatchRequest req);
  StatusOr<kv::BatchResponse> SendPrefixed(const kv::BatchRequest& req);
  /// Cache lookup with miss-fill from the cluster directory.
  std::optional<kv::RangeDescriptor> CachedRange(Slice key);
  void CountFeatures(const kv::BatchRequest& req, const kv::BatchResponse& resp);

  tenant::AuthorizedKvService* service_;
  kv::KVCluster* cluster_;
  tenant::TenantCert cert_;
  ProcessMode mode_;
  std::string prefix_;
  kv::TxnOptions txn_options_;
  kv::NodeId home_node_ = 0;
  obs::TraceContext* current_trace_ = nullptr;

  /// Pipelined transaction batches invoke the sender from executor
  /// threads; the accounting they touch is guarded here.
  mutable std::mutex acct_mu_;
  billing::IntervalFeatures features_;
  uint64_t marshaled_bytes_ = 0;
  Nanos kv_cpu_nanos_ = 0;

  kv::RangeDirectoryCache range_cache_;

  obs::RegistryRef metrics_;
  obs::Counter* batches_c_ = nullptr;
  obs::Counter* marshaled_bytes_c_ = nullptr;
  /// Encode, checksum and decode time on the steady clock. These sections
  /// never block, so their wall time is their CPU time, and a steady-clock
  /// read (~40 ns) is far cheaper than a thread-CPU syscall (~0.3-1 us),
  /// which would otherwise cost more than a small batch's marshaling.
  obs::Counter* marshal_cpu_ns_c_ = nullptr;
  obs::Counter* range_cache_hits_c_ = nullptr;
  obs::Counter* range_cache_misses_c_ = nullptr;
  obs::Counter* range_cache_invalidations_c_ = nullptr;
};

}  // namespace veloce::sql

#endif  // VELOCE_SQL_KV_CONNECTOR_H_
