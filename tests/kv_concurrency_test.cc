// Concurrent KV data path: client threads on disjoint tenants of one
// real-clock KVCluster run point reads, writes, cross-range scans, 1PC
// transactions and two-key parallel commits (finalized asynchronously, so
// readers meet staging intents and run recovery with their latch released)
// while an admin thread splits, merges, moves replicas, rebalances leases,
// ticks heartbeats and sweeps txn records. Every observed operation goes
// into a per-key history that the Wing–Gong checker must accept. A second
// test has the client threads contend on two shared counters with
// read-modify-write increments, which drive reads, pushes and latch-held
// read refreshes against each other. Built to run under the TSan preset
// (label kv_concurrency_test), where the same runs also check the
// range-latch / directory-lock discipline for races. A third test batch-
// reads a transaction's own keys while its pipelined intent batches are
// still draining on executor threads.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/linearizability.h"
#include "kv/transaction.h"
#include "storage/background.h"

namespace veloce::kv {
namespace {

constexpr int kClients = 4;
constexpr int kOpsPerClient = 150;
constexpr int kKeysPerTenant = 6;
constexpr uint64_t kSeed = 0x5EED14;

TenantId TenantOf(int client) { return static_cast<TenantId>(20 + client); }

std::string KeyName(int i) { return "k" + std::to_string(i); }

std::string TenantKey(int client, int i) {
  return AddTenantPrefix(TenantOf(client), KeyName(i));
}

/// History key: the checker treats keys as independent registers, so one
/// namespace across tenants is enough.
std::string HistoryKey(int client, int i) {
  return std::to_string(client) + "/" + KeyName(i);
}

/// Failures that prove the operation did not apply. Anything else
/// (Unavailable, quorum loss) is recorded as "maybe applied".
bool DefinitelyNotApplied(const Status& s) {
  return s.IsLeaseEpochMismatch() || s.IsRangeKeyMismatch() ||
         s.IsTransactionRetry() || s.IsWriteIntentError() ||
         s.code() == Code::kTransactionAborted || s.code() == Code::kNotSupported;
}

class KvConcurrencyTest : public ::testing::Test {
 protected:
  KvConcurrencyTest() {
    KVClusterOptions opts;
    opts.num_nodes = 4;  // one spare node, so replica moves have a target
    opts.replication_factor = 3;
    cluster_ = std::make_unique<KVCluster>(opts);
    for (int c = 0; c < kClients; ++c) {
      VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(TenantOf(c)));
    }
  }

  void Client(int c) {
    Random rng(kSeed + static_cast<uint64_t>(c));
    const TenantId tenant = TenantOf(c);
    for (int op = 0; op < kOpsPerClient; ++op) {
      const int i = static_cast<int>(rng.Uniform(kKeysPerTenant));
      const std::string value = "c" + std::to_string(c) + "-" + std::to_string(op);
      switch (rng.Uniform(6)) {
        case 0: {  // non-transactional write
          BatchRequest req;
          req.tenant_id = tenant;
          req.AddPut(TenantKey(c, i), value);
          const size_t id = history_.BeginWrite(HistoryKey(c, i), value);
          const StatusOr<BatchResponse> resp = cluster_->Send(req);
          history_.EndWrite(id, resp.ok(),
                            !resp.ok() && !DefinitelyNotApplied(resp.status()));
          break;
        }
        case 1: {  // point read
          BatchRequest req;
          req.tenant_id = tenant;
          req.AddGet(TenantKey(c, i));
          const size_t id = history_.BeginRead(HistoryKey(c, i));
          const StatusOr<BatchResponse> resp = cluster_->Send(req);
          if (resp.ok()) {
            history_.EndRead(id, true, resp->responses[0].found,
                             resp->responses[0].value);
          } else {
            history_.EndRead(id, false, false, "");
          }
          break;
        }
        case 2: {  // 1PC transaction (blind write: the commit may forward)
          const size_t id = history_.BeginWrite(HistoryKey(c, i), value);
          Transaction txn(cluster_.get(), tenant);
          Status s = txn.Put(TenantKey(c, i), value);
          if (s.ok()) s = txn.Commit();
          history_.EndWrite(id, s.ok(), !s.ok() && !DefinitelyNotApplied(s));
          break;
        }
        case 3: {  // two-key txn through the pipelined parallel-commit path
          const int j = (i + 1 + static_cast<int>(rng.Uniform(kKeysPerTenant - 1))) %
                        kKeysPerTenant;
          const size_t id_i = history_.BeginWrite(HistoryKey(c, i), value);
          const size_t id_j = history_.BeginWrite(HistoryKey(c, j), value);
          TxnOptions opts;
          opts.one_phase_commit = false;
          opts.max_buffered_writes = 1;  // each Put flushes a pipelined batch
          opts.async_finalize = true;
          opts.executor = &pool_;
          Transaction txn(cluster_.get(), tenant, 0, nullptr, opts);
          Status s = txn.Put(TenantKey(c, i), value);
          if (s.ok()) s = txn.Put(TenantKey(c, j), value);
          if (s.ok()) s = txn.Commit();
          const bool maybe = !s.ok() && !DefinitelyNotApplied(s);
          history_.EndWrite(id_i, s.ok(), maybe);
          history_.EndWrite(id_j, s.ok(), maybe);
          break;
        }
        default: {  // scan over the whole tenant span, crossing splits
          std::vector<size_t> ids;
          for (int k = 0; k < kKeysPerTenant; ++k) {
            ids.push_back(history_.BeginRead(HistoryKey(c, k)));
          }
          BatchRequest req;
          req.tenant_id = tenant;
          req.AddScan(TenantPrefix(tenant), TenantPrefixEnd(tenant));
          const StatusOr<BatchResponse> resp = cluster_->Send(req);
          for (int k = 0; k < kKeysPerTenant; ++k) {
            if (!resp.ok()) {
              history_.EndRead(ids[k], false, false, "");
              continue;
            }
            std::optional<std::string> seen;
            for (const auto& row : resp->responses[0].rows) {
              if (row.key == TenantKey(c, k)) seen = row.value;
            }
            history_.EndRead(ids[k], true, seen.has_value(), seen.value_or(""));
          }
          break;
        }
      }
    }
  }

  void Admin(const std::atomic<int>* clients_left) {
    Random rng(kSeed ^ 0xAD);
    for (int iter = 0; clients_left->load() > 0 && iter < 2000; ++iter) {
      const int c = static_cast<int>(rng.Uniform(kClients));
      switch (rng.Uniform(5)) {
        case 0:
          if (cluster_->SplitRange(TenantKey(
                  c, 1 + static_cast<int>(rng.Uniform(kKeysPerTenant - 1)))).ok()) {
            ++splits_;
          }
          break;
        case 1: {
          StatusOr<RangeDescriptor> left =
              cluster_->LookupRange(TenantPrefix(TenantOf(c)));
          if (left.ok() && cluster_->MergeRanges(left->range_id).ok()) ++merges_;
          break;
        }
        case 2: {
          StatusOr<RangeDescriptor> desc = cluster_->LookupRange(
              TenantKey(c, static_cast<int>(rng.Uniform(kKeysPerTenant))));
          if (!desc.ok()) break;
          NodeId to = 0;
          while (desc->HasReplica(to)) ++to;
          const NodeId from = desc->replicas[rng.Uniform(desc->replicas.size())];
          if (cluster_->MoveReplica(desc->range_id, from, to).ok()) ++moves_;
          break;
        }
        case 3:
          cluster_->BalanceLeases();
          break;
        case 4:
          (void)cluster_->GarbageCollectTxns();
          break;
        default:
          cluster_->TickHeartbeats();
          // Pull-style gauges walk every range under the shared lock.
          (void)cluster_->metrics()->Value("veloce_kv_ranges");
          break;
      }
    }
  }

  std::unique_ptr<KVCluster> cluster_;
  // Runs pipelined flushes and async finalizes; declared after the cluster
  // so it is torn down (and drained) first.
  storage::ThreadPoolExecutor pool_{2};
  HistoryRecorder history_;
  int splits_ = 0, merges_ = 0, moves_ = 0;
};

TEST_F(KvConcurrencyTest, DisjointTenantsStayLinearizableUnderTopologyChurn) {
  std::atomic<int> clients_left{kClients};
  std::thread admin([&] { Admin(&clients_left); });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client(c);
      clients_left.fetch_sub(1);
    });
  }
  for (auto& t : clients) t.join();
  admin.join();
  pool_.Drain();

  EXPECT_GT(splits_ + merges_ + moves_, 0) << "the admin thread never changed topology";
  EXPECT_GT(cluster_->txn_metrics().commits_parallel->value(), 0u);
  RecordProperty("staging_recoveries",
                 static_cast<int>(cluster_->txn_metrics().recoveries->value()));
  const std::vector<HistoryOp> ops = history_.Snapshot();
  size_t acked = 0;
  for (const HistoryOp& op : ops) acked += op.acked ? 1 : 0;
  // Topology churn may fail a few operations (retryable redirects), but
  // the bulk must succeed or the check below proves little.
  EXPECT_GT(acked, ops.size() / 2);
  const LinearizabilityResult result = CheckLinearizability(ops);
  EXPECT_TRUE(result.ok) << result.explanation;
  EXPECT_EQ(result.keys_checked, static_cast<size_t>(kClients * kKeysPerTenant));

  // Ranges still partition the keyspace, tenant-aligned.
  const std::vector<RangeDescriptor> ranges = cluster_->Ranges();
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().start_key, "");
  EXPECT_EQ(ranges.back().end_key, "");
  for (size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i - 1].end_key, ranges[i].start_key);
  }
}

TEST(KvContentionTest, ContendedReadModifyWritesLoseNoIncrement) {
  constexpr TenantId kTenant = 40;
  constexpr int kIncrementsPerClient = 60;
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.replication_factor = 3;
  KVCluster cluster(opts);
  VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(kTenant));
  const std::string counters[2] = {AddTenantPrefix(kTenant, "a"),
                                   AddTenantPrefix(kTenant, "b")};
  // One counter per range, so refreshes latch two ranges.
  VELOCE_CHECK_OK(cluster.SplitRange(counters[1]));

  std::atomic<int> acked[2] = {0, 0};
  std::atomic<int> ambiguous{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Random rng(kSeed + 100 + static_cast<uint64_t>(c));
      for (int op = 0; op < kIncrementsPerClient; ++op) {
        const int which = static_cast<int>(rng.Uniform(2));
        Transaction txn(&cluster, kTenant);
        std::optional<std::string> value;
        if (!txn.Get(counters[which], &value).ok()) continue;
        const int cur = value.has_value() ? std::stoi(*value) : 0;
        if (!txn.Put(counters[which], std::to_string(cur + 1)).ok()) continue;
        const Status s = txn.Commit();
        if (s.ok()) {
          acked[which].fetch_add(1);
        } else if (!DefinitelyNotApplied(s)) {
          ambiguous.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(ambiguous.load(), 0);
  EXPECT_GT(acked[0].load() + acked[1].load(), 0);
  RecordProperty("txn_retries",
                 static_cast<int>(cluster.txn_metrics().retries->value()));
  for (int which = 0; which < 2; ++which) {
    BatchRequest get;
    get.tenant_id = kTenant;
    get.AddGet(counters[which]);
    const StatusOr<BatchResponse> resp = cluster.Send(get);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    const int final_value = resp->responses[0].found
                                ? std::stoi(resp->responses[0].value)
                                : 0;
    EXPECT_EQ(final_value, acked[which].load()) << "counter " << which;
  }
}

TEST(KvPipelineReadTest, MultiGetReadsPipelinedIntentsWhileTheyDrain) {
  constexpr int kRounds = 10;
  constexpr int kKeys = 12;
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.replication_factor = 3;
  KVCluster cluster(opts);
  for (int c = 0; c < kClients; ++c) {
    VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(TenantOf(c)));
  }
  // Declared after the cluster, so it drains and stops first.
  storage::ThreadPoolExecutor pool(2);
  std::atomic<int> committed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        TxnOptions txn_opts;
        txn_opts.executor = &pool;
        txn_opts.max_buffered_writes = 4;  // every 4th Put pipelines a batch
        Transaction txn(&cluster, TenantOf(c), 0, nullptr, txn_opts);
        std::vector<std::string> keys;
        const std::string value = "r" + std::to_string(round);
        for (int i = 0; i < kKeys; ++i) {
          keys.push_back(TenantKey(c, i));
          ASSERT_TRUE(txn.Put(keys.back(), value).ok());
        }
        // The intents are still in flight on the pool's threads.
        std::vector<std::optional<std::string>> values;
        ASSERT_TRUE(txn.MultiGet(keys, &values).ok());
        for (int i = 0; i < kKeys; ++i) ASSERT_EQ(values[i], value) << i;
        if (txn.Commit().ok()) committed.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  pool.Drain();
  // Disjoint tenants never conflict: every round commits.
  EXPECT_EQ(committed.load(), kClients * kRounds);
}

}  // namespace
}  // namespace veloce::kv
