#include "scenario/env_builder.h"

#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "kv/keys.h"
#include "sql/row.h"

namespace veloce::scenario {

ScenarioEnvBuilder& ScenarioEnvBuilder::Seed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::KvNodes(int nodes) {
  VELOCE_CHECK(nodes > 0);
  kv_nodes_ = nodes;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::Replication(int factor) {
  VELOCE_CHECK(factor > 0);
  replication_ = factor;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::Regions(std::vector<std::string> regions) {
  regions_ = std::move(regions);
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::Obs(const obs::ObsContext& obs) {
  obs_ = obs;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::Clock(veloce::Clock* clock) {
  clock_ = clock;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::WithFaultEnv(bool enabled) {
  fault_env_ = enabled;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::WarmPool(size_t target) {
  warm_pool_ = target;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::ProcessMode(sql::ProcessMode mode) {
  mode_ = mode;
  return *this;
}

ScenarioEnvBuilder& ScenarioEnvBuilder::Tune(
    std::function<void(serverless::ServerlessCluster::Options*)> fn) {
  tune_ = std::move(fn);
  return *this;
}

void ScenarioEnvBuilder::ApplyEnv(storage::EngineOptions* engine,
                                  std::unique_ptr<storage::Env>* base,
                                  std::unique_ptr<storage::FaultInjectionEnv>* fault) {
  if (fault_env_) {
    // One shared fault env across every node's engine: per-node dirs
    // ("kvnode-<id>") let fault rules target single nodes via path_substr.
    *base = storage::NewMemEnv();
    *fault = std::make_unique<storage::FaultInjectionEnv>(
        base->get(), DeriveSeed(seed_, "fault"), obs_.metrics);
    engine->env = fault->get();
  }
}

namespace {
std::vector<std::string> ExpandRegions(const std::vector<std::string>& regions,
                                       int nodes) {
  std::vector<std::string> out;
  if (regions.empty()) return out;
  out.reserve(static_cast<size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    out.push_back(regions[static_cast<size_t>(i) % regions.size()]);
  }
  return out;
}
}  // namespace

ServerlessEnv ScenarioEnvBuilder::BuildServerless() {
  ServerlessEnv env;
  serverless::ServerlessCluster::Options opts;
  opts.seed = seed_;
  opts.kv.num_nodes = kv_nodes_;
  opts.kv.replication_factor =
      replication_ > 0 ? replication_ : (kv_nodes_ < 3 ? kv_nodes_ : 3);
  opts.kv.node_regions = ExpandRegions(regions_, kv_nodes_);
  ApplyEnv(&opts.kv.engine_options, &env.base_env, &env.fault);
  opts.pool.warm_pool_target = warm_pool_;
  opts.obs = obs_;
  if (tune_) tune_(&opts);
  env.cluster = std::make_unique<serverless::ServerlessCluster>(std::move(opts));
  return env;
}

KvEnv ScenarioEnvBuilder::BuildKv() {
  KvEnv env;
  kv::KVClusterOptions opts;
  opts.num_nodes = kv_nodes_;
  opts.replication_factor =
      replication_ > 0 ? replication_ : (kv_nodes_ < 3 ? kv_nodes_ : 3);
  opts.node_regions = ExpandRegions(regions_, kv_nodes_);
  opts.clock = clock_;
  opts.obs = obs_;
  ApplyEnv(&opts.engine_options, &env.base_env, &env.fault);
  env.cluster = std::make_unique<kv::KVCluster>(std::move(opts));
  return env;
}

std::unique_ptr<SqlStack> ScenarioEnvBuilder::BuildSqlStack() {
  auto stack = std::make_unique<SqlStack>();
  kv::KVClusterOptions opts;
  opts.num_nodes = kv_nodes_;
  opts.replication_factor =
      replication_ > 0 ? replication_ : (kv_nodes_ < 3 ? kv_nodes_ : 3);
  opts.node_regions = ExpandRegions(regions_, kv_nodes_);
  opts.clock = clock_;
  opts.obs = obs_;
  stack->cluster = std::make_unique<kv::KVCluster>(std::move(opts));
  stack->controller =
      std::make_unique<tenant::TenantController>(stack->cluster.get(), &stack->ca);
  stack->service = std::make_unique<tenant::AuthorizedKvService>(
      stack->cluster.get(), &stack->ca);
  auto meta = stack->controller->CreateTenant("bench");
  VELOCE_CHECK(meta.ok());
  stack->tenant = meta->id;
  auto cert = stack->controller->IssueCert(stack->tenant);
  VELOCE_CHECK(cert.ok());
  sql::SqlNode::Options node_opts;
  node_opts.mode = mode_;
  stack->node =
      std::make_unique<sql::SqlNode>(1, node_opts, stack->cluster->clock());
  VELOCE_CHECK_OK(stack->node->StartProcess());
  VELOCE_CHECK_OK(
      stack->node->StampTenant(stack->service.get(), stack->cluster.get(), *cert));
  auto session = stack->node->NewSession();
  VELOCE_CHECK(session.ok());
  stack->session = *session;
  return stack;
}

void ScatterRanges(SqlStack* stack, int num_tables) {
  for (int t = 0; t < num_tables; ++t) {
    const std::string key = kv::AddTenantPrefix(
        stack->tenant, sql::IndexPrefix(static_cast<sql::TableId>(100 + t),
                                        sql::kPrimaryIndexId));
    VELOCE_CHECK_OK(stack->cluster->SplitRange(key));
  }
  stack->cluster->BalanceLeases();
}

}  // namespace veloce::scenario
