#ifndef VELOCE_KV_NODE_H_
#define VELOCE_KV_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kv/batch.h"
#include "kv/range.h"
#include "obs/obs_context.h"
#include "storage/engine.h"

namespace veloce::kv {

/// Per-node batch counters, broken down the same way the estimated-CPU
/// model's six input features are (Section 5.2.1): read/write batches,
/// requests per batch, bytes per batch.
///
/// Snapshot view: the source of truth is the node's `veloce_kv_*` series
/// (labelled node=<id>) in its obs::MetricsRegistry; KVNode::stats()
/// materializes them here for typed consumers.
struct NodeBatchStats {
  uint64_t read_batches = 0;
  uint64_t write_batches = 0;
  uint64_t read_requests = 0;
  uint64_t write_requests = 0;
  uint64_t read_bytes = 0;   ///< bytes returned by reads
  uint64_t write_bytes = 0;  ///< bytes ingested by writes
};

/// One KV (storage) node: an LSM engine plus liveness state. KV nodes are
/// shared by all tenants — the multi-tenant half of the paper's hybrid
/// process model. Ranges place replicas on nodes; each replica's data lives
/// in that node's engine.
class KVNode {
 public:
  /// `obs` wires the node (and its engine, labelled node=<id>) into a
  /// shared metrics registry; the default no-op context gives the node a
  /// private registry so stats() works standalone.
  KVNode(NodeId id, std::string region, storage::EngineOptions engine_options,
         const obs::ObsContext& obs = {});

  NodeId id() const { return id_; }
  const std::string& region() const { return region_; }
  storage::Engine* engine() { return engine_.get(); }

  /// Simulated crash-restart: tears the engine down (dropping all volatile
  /// state) and reopens it against the node's Env, replaying retained WALs.
  /// Everything acked as durable before the crash must be readable again
  /// afterwards; the serverless fault tests verify exactly that. On failure
  /// the node is left engine-less — callers must treat the node as dead.
  /// Inside a KVCluster, call KVCluster::RestartNode instead, which holds
  /// the directory exclusively while the engine is swapped.
  Status Restart();

  /// Liveness: an overloaded node fails its liveness checks and sheds
  /// leases (Fig 12). The experiment harness toggles this.
  bool live() const { return live_.load(std::memory_order_acquire); }
  void SetLive(bool live) { live_.store(live, std::memory_order_release); }
  /// Live and holding an engine: a node whose crash-restart failed has
  /// none, and can neither serve nor accept replicated writes.
  bool up() const { return live() && engine_ != nullptr; }

  /// Batch accounting, invoked by the cluster's data path.
  void RecordBatch(bool read_only) {
    (read_only ? read_batches_c_ : write_batches_c_)->Inc();
  }
  void RecordReadRequest() { read_requests_c_->Inc(); }
  void AddReadBytes(uint64_t bytes) { read_bytes_c_->Inc(bytes); }
  void RecordWriteRequest(uint64_t bytes) {
    write_requests_c_->Inc();
    write_bytes_c_->Inc(bytes);
  }

  /// Cumulative batch counters, materialized from the metrics registry.
  const NodeBatchStats& stats() const;

  /// Per-tenant cumulative engine payload bytes written via this node
  /// (storage attribution for billing). Replicas of different ranges apply
  /// concurrently, so the map sits behind its own leaf lock.
  void AddTenantWriteBytes(TenantId tenant, uint64_t bytes) {
    std::lock_guard<std::mutex> l(tenant_bytes_mu_);
    tenant_write_bytes_[tenant] += bytes;
  }
  uint64_t TenantWriteBytes(TenantId tenant) const {
    std::lock_guard<std::mutex> l(tenant_bytes_mu_);
    auto it = tenant_write_bytes_.find(tenant);
    return it == tenant_write_bytes_.end() ? 0 : it->second;
  }

 private:
  const NodeId id_;
  const std::string region_;
  /// Declared before the engine, which registers a collect callback in it.
  obs::RegistryRef metrics_;
  /// The node (not the engine) owns the filesystem so a crash-restart can
  /// reopen the same files. Only set when the caller passed no env.
  std::unique_ptr<storage::Env> owned_env_;
  storage::EngineOptions engine_options_;  ///< retained for Restart()
  std::unique_ptr<storage::Engine> engine_;
  std::atomic<bool> live_{true};
  mutable std::mutex tenant_bytes_mu_;
  std::unordered_map<TenantId, uint64_t> tenant_write_bytes_;

  obs::Counter* read_batches_c_ = nullptr;
  obs::Counter* write_batches_c_ = nullptr;
  obs::Counter* read_requests_c_ = nullptr;
  obs::Counter* write_requests_c_ = nullptr;
  obs::Counter* read_bytes_c_ = nullptr;
  obs::Counter* write_bytes_c_ = nullptr;
  mutable NodeBatchStats stats_snapshot_;
};

using NodeList = std::vector<std::unique_ptr<KVNode>>;

}  // namespace veloce::kv

#endif  // VELOCE_KV_NODE_H_
