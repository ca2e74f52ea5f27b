#include "serverless/cluster.h"

namespace veloce::serverless {

namespace {
/// One master seed fans out into per-component streams (docs/SCENARIOS.md).
serverless::KubeSim::Options SeededKube(serverless::KubeSim::Options kube,
                                        uint64_t seed) {
  kube.seed = DeriveSeed(seed, "kube");
  return kube;
}
}  // namespace

ServerlessCluster::ServerlessCluster(Options options)
    : options_(options),
      metrics_(options.obs.metrics),
      owned_traces_(options.obs.traces == nullptr
                        ? std::make_unique<obs::TraceCollector>()
                        : nullptr),
      obs_{loop_.clock(), metrics_.get(),
           options.obs.traces != nullptr ? options.obs.traces
                                         : owned_traces_.get()},
      kube_(&loop_, SeededKube(options.kube, options.seed)),
      meter_(loop_.clock(), billing::EstimatedCpuModel::Default(), obs_) {
  options_.kv.clock = loop_.clock();
  options_.kv.obs = obs_;
  options_.pool.seed = DeriveSeed(options_.seed, "pool");
  options_.proxy.seed = DeriveSeed(options_.seed, "proxy");
  // Storage background work (flushes, compactions) runs as loop events so
  // the whole cluster — including engine internals — replays exactly.
  storage_executor_ = std::make_unique<sim::SimExecutor>(&loop_);
  options_.kv.engine_options.background_executor = storage_executor_.get();
  kv_ = std::make_unique<kv::KVCluster>(options_.kv);
  controller_ = std::make_unique<tenant::TenantController>(kv_.get(), &ca_);
  service_ = std::make_unique<tenant::AuthorizedKvService>(kv_.get(), &ca_);
  options_.pool.obs = obs_;
  options_.pool.node_options.obs = obs_;
  pool_ = std::make_unique<SqlNodePool>(&loop_, &kube_, service_.get(), kv_.get(),
                                        controller_.get(), options_.pool);
  options_.proxy.obs = obs_;
  proxy_ = std::make_unique<Proxy>(&loop_, pool_.get(), options_.proxy);
  // A node leaving service invalidates the proxy's sessions on it before
  // any connection can touch a freed Session.
  pool_->SetNodeFailureListener(
      [this](sql::SqlNode* node) { proxy_->OnNodeFailure(node); });
  for (kv::NodeId id = 0; id < static_cast<kv::NodeId>(kv_->num_nodes()); ++id) {
    admission::NodeAdmissionController::Options opts = options_.admission;
    opts.obs = obs_;
    opts.instance = std::to_string(id);
    // Sync-only admission: no periodic tasks, so loop_.Run() still drains.
    opts.background_tasks = false;
    auto cpu = std::make_unique<sim::VirtualCpu>(&loop_, opts.vcpus, kMilli,
                                                 obs_, std::to_string(id));
    admission_[id] = std::make_unique<admission::NodeAdmissionController>(
        &loop_, cpu.get(), opts);
    admission_cpus_.push_back(std::move(cpu));
  }
  kv_->set_batch_interceptor(
      [this](kv::NodeId leaseholder, const kv::BatchRequest& req) {
        auto it = admission_.find(leaseholder);
        if (it == admission_.end()) return Status::OK();
        admission::KvWork work;
        work.tenant_id = req.tenant_id;
        work.is_write = !req.IsReadOnly();
        work.write_bytes = work.is_write ? req.PayloadBytes() : 0;
        // Rough per-request execution estimate feeding the slot model.
        work.cpu_cost = static_cast<Nanos>(req.requests.size()) * 20 * kMicro;
        work.trace = req.trace;
        it->second->AdmitSync(work);
        return Status::OK();
      });
  autoscaler_ = std::make_unique<Autoscaler>(
      &loop_, pool_.get(), proxy_.get(),
      [this](kv::TenantId tenant) {
        auto it = cpu_usage_.find(tenant);
        return it == cpu_usage_.end() ? 0.0 : it->second;
      },
      options_.autoscaler);
  // Let the warm pool finish its initial provisioning.
  loop_.Run();
  // The proxy's periodic connection re-balance pass (opt-in: it keeps the
  // event queue non-empty, so loop_.Run() callers must use RunFor/RunUntil).
  if (options_.proxy_rebalance_interval > 0) {
    rebalancer_ = std::make_unique<sim::PeriodicTask>(
        &loop_, options_.proxy_rebalance_interval,
        [this] { proxy_->RebalanceAll(); });
    rebalancer_->Start();
  }
}

void ServerlessCluster::CalibrateAdmission() {
  for (auto& [id, ctrl] : admission_) {
    storage::Engine* engine = kv_->node(id)->engine();
    ctrl->UpdateWriteCapacity(engine->stats(), engine->NumFilesAtLevel(0));
  }
}

void ServerlessCluster::HarvestUsage() {
  auto tenants = controller_->ListTenants();
  if (!tenants.ok()) return;
  for (const auto& meta : *tenants) {
    const kv::TenantId tenant = meta.id;
    for (sql::SqlNode* node : pool_->NodesForTenant(tenant)) {
      sql::KvConnector* connector = node->connector();
      if (connector == nullptr) continue;
      const Nanos total_sql = node->sql_cpu();
      Nanos& billed = harvested_sql_cpu_[node->id()];
      const double sql_secs = static_cast<double>(total_sql - billed) / 1e9;
      billed = total_sql;
      meter_.Record(tenant, connector->features(), sql_secs);
      connector->ResetFeatures();
    }
  }
}

StatusOr<tenant::TenantMetadata> ServerlessCluster::CreateTenant(
    const std::string& name) {
  VELOCE_ASSIGN_OR_RETURN(tenant::TenantMetadata meta,
                          controller_->CreateTenant(name));
  autoscaler_->WatchTenant(meta.id);
  return meta;
}

namespace {
/// Starts an asynchronous operation with a completion callback, then steps
/// the sim loop until the callback fires (bounded by a sim-time cap).
template <typename T, typename Start>
StatusOr<T> RunToCompletion(sim::EventLoop* loop, const char* timeout_message,
                            Start start) {
  StatusOr<T> result = Status::DeadlineExceeded(timeout_message);
  bool done = false;
  start([&](StatusOr<T> r) {
    result = std::move(r);
    done = true;
  });
  const Nanos deadline = loop->Now() + 10 * kMinute;
  while (!done && loop->Now() < deadline && loop->pending_events() > 0) {
    loop->Step();
  }
  return result;
}
}  // namespace

StatusOr<Proxy::Connection*> ServerlessCluster::ConnectSync(
    kv::TenantId tenant, const std::string& client_ip) {
  return RunToCompletion<Proxy::Connection*>(
      &loop_, "connect never completed",
      [&](auto on_done) { proxy_->Connect(tenant, client_ip, on_done); });
}

StatusOr<sql::ResultSet> ServerlessCluster::ExecuteSync(Proxy::Connection* conn,
                                                        const std::string& sql,
                                                        bool idempotent) {
  return RunToCompletion<sql::ResultSet>(
      &loop_, "execute never completed", [&](auto on_done) {
        proxy_->ExecuteWithFailover(conn, sql, idempotent, on_done);
      });
}

Status ServerlessCluster::CrashAndRestartKvNode(kv::NodeId id) {
  const Status restarted = kv_->RestartNode(id);
  if (!restarted.ok()) {
    // The reboot failed (e.g. the disk fault persists): the node stays
    // down and sheds its leases; surviving replicas keep serving.
    kv_->SetNodeLive(id, false);
    return restarted;
  }
  // The reboot recovered only what its WALs held: replay whatever the
  // replication log committed while the node was down so it converges
  // with the leaseholder and counts toward quorum again.
  return kv_->CatchUpNode(id);
}

}  // namespace veloce::serverless
