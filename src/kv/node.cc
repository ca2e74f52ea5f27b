#include "kv/node.h"

#include "common/logging.h"
#include "kv/mvcc.h"

namespace veloce::kv {

KVNode::KVNode(NodeId id, std::string region,
               storage::EngineOptions engine_options, const obs::ObsContext& obs)
    : id_(id), region_(std::move(region)), metrics_(obs.metrics) {
  const obs::Labels labels = {{"node", std::to_string(id_)}};
  read_batches_c_ = metrics_->counter("veloce_kv_read_batches_total", labels);
  write_batches_c_ = metrics_->counter("veloce_kv_write_batches_total", labels);
  read_requests_c_ = metrics_->counter("veloce_kv_read_requests_total", labels);
  write_requests_c_ = metrics_->counter("veloce_kv_write_requests_total", labels);
  read_bytes_c_ = metrics_->counter("veloce_kv_read_bytes_total", labels);
  write_bytes_c_ = metrics_->counter("veloce_kv_write_bytes_total", labels);

  engine_options.dir = "kvnode-" + std::to_string(id);
  // Blooms over logical MVCC keys: one probe covers a key's intent slot and
  // every version, so point reads can reject whole SSTables.
  engine_options.prefix_extractor = MvccPrefixExtractor;
  engine_options.obs = obs;
  engine_options.obs.metrics = metrics_.get();
  engine_options.metrics_instance = std::to_string(id);
  if (engine_options.env == nullptr) {
    // The node owns the filesystem (rather than letting the engine own a
    // private one) so Restart() can reopen the same files and replay WALs.
    owned_env_ = storage::NewMemEnv();
    engine_options.env = owned_env_.get();
  }
  engine_options_ = engine_options;
  auto engine_or = storage::Engine::Open(engine_options_);
  VELOCE_CHECK(engine_or.ok()) << engine_or.status().ToString();
  engine_ = std::move(engine_or).value();
}

Status KVNode::Restart() {
  // Destroy first: volatile state (memtables, block cache) dies exactly as
  // it would in a crash; the WALs and SSTables survive in the env.
  engine_.reset();
  auto engine_or = storage::Engine::Open(engine_options_);
  if (!engine_or.ok()) return engine_or.status();
  engine_ = std::move(engine_or).value();
  return Status::OK();
}

const NodeBatchStats& KVNode::stats() const {
  stats_snapshot_.read_batches = read_batches_c_->value();
  stats_snapshot_.write_batches = write_batches_c_->value();
  stats_snapshot_.read_requests = read_requests_c_->value();
  stats_snapshot_.write_requests = write_requests_c_->value();
  stats_snapshot_.read_bytes = read_bytes_c_->value();
  stats_snapshot_.write_bytes = write_bytes_c_->value();
  return stats_snapshot_;
}

}  // namespace veloce::kv
