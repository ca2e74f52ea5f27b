#include "serverless/autoscaler.h"

#include <algorithm>
#include <cmath>

namespace veloce::serverless {

Autoscaler::Autoscaler(sim::EventLoop* loop, SqlNodePool* pool, Proxy* proxy,
                       CpuUsageFn usage_fn, Options options)
    : loop_(loop),
      pool_(pool),
      proxy_(proxy),
      usage_fn_(std::move(usage_fn)),
      options_(options) {}

void Autoscaler::WatchTenant(kv::TenantId tenant) { tenants_[tenant]; }

void Autoscaler::UnwatchTenant(kv::TenantId tenant) { tenants_.erase(tenant); }

void Autoscaler::Start() {
  scraper_ = std::make_unique<sim::PeriodicTask>(loop_, options_.scrape_interval,
                                                 [this] { Tick(); });
  scraper_->Start();
}

void Autoscaler::Stop() { scraper_.reset(); }

void Autoscaler::EnableKvScaling(kv::KVCluster* cluster,
                                 std::function<double()> utilization_fn) {
  kv_cluster_ = cluster;
  kv_utilization_fn_ = std::move(utilization_fn);
}

void Autoscaler::Tick() {
  const Nanos now = loop_->Now();
  if (kv_cluster_ != nullptr && kv_utilization_fn_) {
    // KV scaling reacts on sustained overload: a full window of hot
    // scrapes (KV nodes are stateful; adding one is expensive, so this is
    // deliberately much less twitchy than SQL scaling).
    const double util = kv_utilization_fn_();
    const int window_scrapes =
        static_cast<int>(options_.window / options_.scrape_interval);
    if (util > options_.kv_scale_up_utilization) {
      ++kv_hot_scrapes_;
    } else {
      kv_hot_scrapes_ = 0;
    }
    if (kv_hot_scrapes_ >= window_scrapes &&
        static_cast<int>(kv_cluster_->num_nodes()) < options_.max_kv_nodes) {
      (void)kv_cluster_->AddNode();
      (void)kv_cluster_->RebalanceReplicas();
      kv_cluster_->BalanceLeases();
      ++kv_nodes_added_;
      kv_hot_scrapes_ = 0;
    }
  }
  for (auto& [tenant, state] : tenants_) {
    const double usage = usage_fn_(tenant);
    state.samples.emplace_back(now, usage);
    while (!state.samples.empty() &&
           state.samples.front().first < now - options_.window) {
      state.samples.pop_front();
    }
    // Track the idle stretch for scale-to-zero.
    const bool active =
        usage > 0.001 || proxy_->ConnectionsForTenant(tenant) > 0;
    if (active) {
      state.zero_since = -1;
      state.suspended = false;
    } else if (state.zero_since < 0) {
      state.zero_since = now;
    }
    Reconcile(tenant, &state);
  }
}

double Autoscaler::AvgUsage(kv::TenantId tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.samples.empty()) return 0;
  double sum = 0;
  for (const auto& [t, v] : it->second.samples) sum += v;
  return sum / static_cast<double>(it->second.samples.size());
}

double Autoscaler::PeakUsage(kv::TenantId tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  double peak = 0;
  for (const auto& [t, v] : it->second.samples) peak = std::max(peak, v);
  return peak;
}

int Autoscaler::TargetNodes(kv::TenantId tenant) const {
  const double target_capacity =
      std::max(options_.avg_multiplier * AvgUsage(tenant),
               options_.peak_multiplier * PeakUsage(tenant));
  if (target_capacity <= 0.001) return 0;
  const double node_vcpus = pool_->node_options().vcpus;
  return static_cast<int>(std::ceil(target_capacity / node_vcpus));
}

int Autoscaler::CurrentNodes(kv::TenantId tenant) const {
  return static_cast<int>(pool_->NodesForTenant(tenant).size());
}

bool Autoscaler::suspended(kv::TenantId tenant) const {
  auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.suspended;
}

void Autoscaler::Reconcile(kv::TenantId tenant, TenantState* state) {
  const Nanos now = loop_->Now();
  int target = TargetNodes(tenant);

  // Scale to zero: only after a sustained idle period AND no connections.
  if (target == 0) {
    const bool idle_long_enough =
        state->zero_since >= 0 && now - state->zero_since >= options_.suspend_after;
    if (!idle_long_enough && CurrentNodes(tenant) > 0) {
      target = 1;  // keep one node while connections may come back
    } else if (idle_long_enough) {
      for (sql::SqlNode* node : pool_->NodesForTenant(tenant)) {
        pool_->StartDraining(node);
      }
      state->suspended = proxy_->ConnectionsForTenant(tenant) == 0;
      return;
    }
  }

  const int current = CurrentNodes(tenant) + state->acquisitions_inflight;
  if (target > current) {
    for (int i = 0; i < target - current; ++i) {
      ++state->acquisitions_inflight;
      pool_->Acquire(tenant, [this, tenant](StatusOr<sql::SqlNode*> node_or) {
        auto it = tenants_.find(tenant);
        if (it != tenants_.end()) --it->second.acquisitions_inflight;
        if (node_or.ok()) {
          // Spread existing connections onto the new node.
          proxy_->RebalanceTenant(tenant);
        }
      });
    }
  } else if (target < current && state->acquisitions_inflight == 0) {
    // Drain the nodes with the fewest connections, oldest first among
    // equals (NodesForTenant is in node-id order); ignore single-node
    // jitter to avoid churn.
    int excess = current - target;
    if (excess <= 0) return;
    std::vector<sql::SqlNode*> nodes = pool_->NodesForTenant(tenant);
    std::stable_sort(nodes.begin(), nodes.end(),
                     [this](sql::SqlNode* a, sql::SqlNode* b) {
                       return proxy_->ConnectionsOnNode(a) <
                              proxy_->ConnectionsOnNode(b);
                     });
    for (int i = 0; i < excess && i < static_cast<int>(nodes.size()); ++i) {
      pool_->StartDraining(nodes[static_cast<size_t>(i)]);
    }
    proxy_->RebalanceTenant(tenant);  // move connections off draining nodes
  }
}

}  // namespace veloce::serverless
