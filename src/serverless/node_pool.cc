#include "serverless/node_pool.h"

#include "common/logging.h"

namespace veloce::serverless {

SqlNodePool::SqlNodePool(sim::EventLoop* loop, KubeSim* kube,
                         tenant::AuthorizedKvService* service,
                         kv::KVCluster* cluster, tenant::TenantController* controller,
                         Options options)
    : loop_(loop),
      kube_(kube),
      service_(service),
      cluster_(cluster),
      controller_(controller),
      options_(options),
      rng_(options.seed),
      metrics_(options.obs.metrics) {
  InitMetrics();
  kube_->SetPodFailureListener([this](PodId pod) { OnPodFailure(pod); });
  Replenish();
}

void SqlNodePool::InitMetrics() {
  pod_starts_c_ = metrics_->counter("veloce_serverless_pod_starts_total");
  node_failures_c_ = metrics_->counter("veloce_serverless_node_failures_total");
  acquire_drain_c_ =
      metrics_->counter("veloce_serverless_acquires_total", {{"path", "drain"}});
  acquire_warm_c_ =
      metrics_->counter("veloce_serverless_acquires_total", {{"path", "warm"}});
  acquire_cold_c_ =
      metrics_->counter("veloce_serverless_acquires_total", {{"path", "cold"}});
  acquire_warm_h_ =
      metrics_->histogram("veloce_serverless_acquire_ns", {{"path", "warm"}});
  acquire_cold_h_ =
      metrics_->histogram("veloce_serverless_acquire_ns", {{"path", "cold"}});
  stage_pod_create_h_ = metrics_->histogram("veloce_serverless_cold_start_stage_ns",
                                            {{"stage", "pod_create"}});
  stage_process_start_h_ = metrics_->histogram(
      "veloce_serverless_cold_start_stage_ns", {{"stage", "process_start"}});
  stage_stamp_h_ = metrics_->histogram("veloce_serverless_cold_start_stage_ns",
                                       {{"stage", "stamp"}});
  gauge_cb_ = metrics_->AddCollectCallback([this] {
    metrics_->gauge("veloce_serverless_warm_available")
        ->Set(static_cast<double>(warm_.size()));
    metrics_->gauge("veloce_serverless_ready_nodes")
        ->Set(static_cast<double>(num_ready_nodes()));
    metrics_->gauge("veloce_serverless_active_nodes")
        ->Set(static_cast<double>(active_.size()));
    // Connections (sessions) per SQL node — the proxy's balancing signal.
    for (const auto& [id, managed] : active_) {
      metrics_
          ->gauge("veloce_serverless_node_sessions", {{"sql_node", std::to_string(id)}})
          ->Set(static_cast<double>(managed->node->num_sessions()));
    }
  });
}

void SqlNodePool::StartNode(
    bool boot, std::function<void(std::unique_ptr<ManagedNode>, Nanos)> on_node) {
  pod_starts_c_->Inc();
  kube_->CreatePod([this, boot, on_node = std::move(on_node)](PodId pod) {
    const Nanos pod_ready = loop_->Now();
    auto build = [this, boot, on_node, pod, pod_ready] {
      auto managed = std::make_unique<ManagedNode>();
      managed->pod = pod;
      managed->node = std::make_unique<sql::SqlNode>(
          next_node_id_++, options_.node_options, loop_->clock());
      if (boot) VELOCE_CHECK_OK(managed->node->StartProcess());
      on_node(std::move(managed), pod_ready);
    };
    if (boot) {
      kube_->StartProcess(pod, build);
    } else {
      build();
    }
  });
}

void SqlNodePool::Replenish() {
  while (warm_.size() + static_cast<size_t>(replenish_inflight_) <
         options_.warm_pool_target) {
    ++replenish_inflight_;
    // Optimized flow: the process boots *before* a tenant is known.
    StartNode(options_.prewarm_process,
              [this](std::unique_ptr<ManagedNode> managed, Nanos /*pod_ready*/) {
                warm_.push_back(std::move(managed));
                --replenish_inflight_;
              });
  }
}

Nanos SqlNodePool::StampLatency() {
  Nanos latency = options_.stamp_latency;
  if (options_.stamp_jitter > 0) {
    latency += static_cast<Nanos>(
        rng_.Uniform(static_cast<uint64_t>(options_.stamp_jitter)));
  }
  return latency;
}

SqlNodePool::ManagedNode* SqlNodePool::Activate(std::unique_ptr<ManagedNode> managed) {
  ManagedNode* raw = managed.get();
  active_[raw->node->id()] = std::move(managed);
  return raw;
}

void SqlNodePool::Acquire(kv::TenantId tenant, ReadyCallback on_ready) {
  // (1) Un-drain a draining node of this tenant.
  for (auto& [id, managed] : active_) {
    sql::SqlNode* node = managed->node.get();
    if (node->tenant_id() == tenant &&
        node->state() == sql::SqlNode::State::kDraining) {
      node->Undrain();
      acquire_drain_c_->Inc();
      loop_->Schedule(0, [node, cb = std::move(on_ready)]() mutable { cb(node); });
      return;
    }
  }

  const Nanos t0 = loop_->Now();
  // (2) Pre-warmed node.
  if (!warm_.empty()) {
    acquire_warm_c_->Inc();
    std::unique_ptr<ManagedNode> managed = std::move(warm_.front());
    warm_.pop_front();
    Replenish();
    ManagedNode* raw = Activate(std::move(managed));
    if (options_.prewarm_process) {
      // Certificate write + fs watch + KV init.
      Stamp(raw, tenant, /*delay=*/0, t0, acquire_warm_h_, std::move(on_ready));
      return;
    }
    // Unoptimized: boot the process now, plus the TCP-reset retry penalty
    // (the proxy's connection attempts bounce until the listener opens,
    // roughly doubling observed startup). A node killed meanwhile stays
    // stopped, and its stamp fails.
    kube_->StartProcess(raw->pod, [this, raw, tenant, t0,
                                   cb = std::move(on_ready)]() mutable {
      (void)raw->node->StartProcess();
      stage_process_start_h_->Record(loop_->Now() - t0);
      Stamp(raw, tenant, kube_->options().process_start_latency, t0,
            acquire_warm_h_, std::move(cb));
    });
    return;
  }

  // (3) Pool empty: create a cold pod end to end.
  acquire_cold_c_->Inc();
  StartNode(/*boot=*/true, [this, tenant, t0, cb = std::move(on_ready)](
                               std::unique_ptr<ManagedNode> managed,
                               Nanos pod_ready) mutable {
    stage_pod_create_h_->Record(pod_ready - t0);
    stage_process_start_h_->Record(loop_->Now() - pod_ready);
    Stamp(Activate(std::move(managed)), tenant, /*delay=*/0, t0, acquire_cold_h_,
          std::move(cb));
  });
}

void SqlNodePool::Stamp(ManagedNode* managed, kv::TenantId tenant, Nanos delay,
                        Nanos t0, obs::HistogramMetric* acquire_h,
                        ReadyCallback on_ready) {
  const Nanos stage_start = loop_->Now();
  loop_->Schedule(delay + StampLatency(), [this, managed, tenant, t0, stage_start,
                                           acquire_h,
                                           cb = std::move(on_ready)]() mutable {
    stage_stamp_h_->Record(loop_->Now() - stage_start);
    acquire_h->Record(loop_->Now() - t0);
    sql::SqlNode* node = managed->node.get();
    auto cert_or = controller_->IssueCert(tenant);
    Status s = cert_or.ok() ? node->StampTenant(service_, cluster_, *cert_or)
                            : cert_or.status();
    if (!s.ok()) {
      // A node that cannot serve the tenant leaves service (a kill during
      // the stamp already retired it).
      auto it = active_.find(node->id());
      if (it != active_.end()) Retire(std::move(active_.extract(it).mapped()), false);
      cb(s);
      return;
    }
    cb(node);
  });
}

void SqlNodePool::StartDraining(sql::SqlNode* node) {
  if (active_.count(node->id()) == 0) return;
  node->StartDraining();
  // Poll until sessions are gone or the drain timeout passes; a reused
  // (un-drained) or retired node cancels the poll implicitly.
  const Nanos deadline = loop_->Now() + options_.drain_timeout;
  loop_->Schedule(10 * kSecond,
                  [this, id = node->id(), deadline] { DrainPoll(id, deadline); });
}

void SqlNodePool::DrainPoll(uint64_t node_id, Nanos deadline) {
  auto it = active_.find(node_id);
  if (it == active_.end()) return;
  sql::SqlNode* node = it->second->node.get();
  if (node->state() != sql::SqlNode::State::kDraining) return;
  if (node->num_sessions() == 0 || loop_->Now() >= deadline) {
    Retire(std::move(active_.extract(it).mapped()), /*killed=*/false);
    return;
  }
  loop_->Schedule(10 * kSecond,
                  [this, node_id, deadline] { DrainPoll(node_id, deadline); });
}

void SqlNodePool::KillNode(sql::SqlNode* node) {
  auto it = active_.find(node->id());
  if (it == active_.end()) return;
  kube_->KillPod(it->second->pod);  // fires OnPodFailure synchronously
}

void SqlNodePool::OnPodFailure(PodId pod) {
  // A warm (tenant-less) node dying is just pool shrinkage.
  for (auto it = warm_.begin(); it != warm_.end(); ++it) {
    if ((*it)->pod != pod) continue;
    node_failures_c_->Inc();
    std::unique_ptr<ManagedNode> managed = std::move(*it);
    warm_.erase(it);
    Retire(std::move(managed), /*killed=*/true);
    return;
  }
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    if (it->second->pod != pod) continue;
    node_failures_c_->Inc();
    VLOG_WARN << "serverless: SQL node " << it->first << " (pod " << pod << ") died";
    Retire(std::move(active_.extract(it).mapped()), /*killed=*/true);
    return;
  }
}

void SqlNodePool::Remove(sql::SqlNode* node) {
  auto it = active_.find(node->id());
  if (it == active_.end()) return;
  Retire(std::move(active_.extract(it).mapped()), /*killed=*/false);
}

void SqlNodePool::Retire(std::unique_ptr<ManagedNode> managed, bool killed) {
  sql::SqlNode* node = managed->node.get();
  node->Stop();  // sessions are gone; state -> kStopped
  if (!killed) kube_->DeletePod(managed->pod);
  graveyard_.push_back(std::move(managed));
  if (node_failure_listener_) node_failure_listener_(node);
  Replenish();
}

std::vector<sql::SqlNode*> SqlNodePool::NodesForTenant(kv::TenantId tenant) const {
  std::vector<sql::SqlNode*> out;
  for (const auto& [id, managed] : active_) {
    sql::SqlNode* node = managed->node.get();
    if (node->tenant_id() == tenant && node->state() == sql::SqlNode::State::kReady) {
      out.push_back(node);
    }
  }
  return out;
}

size_t SqlNodePool::num_ready_nodes() const {
  size_t count = 0;
  for (const auto& [id, managed] : active_) {
    if (managed->node->state() == sql::SqlNode::State::kReady) ++count;
  }
  return count;
}

}  // namespace veloce::serverless
