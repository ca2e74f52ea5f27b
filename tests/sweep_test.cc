// Parameterized configuration sweeps: the same invariants checked across a
// grid of configurations (block sizes, replication factors, cache sizes).

#include <gtest/gtest.h>

#include <map>

#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "storage/engine.h"
#include "storage/sstable.h"

namespace veloce {
namespace {

// ---------------------------------------------------------------------------
// SSTable block-size sweep
// ---------------------------------------------------------------------------

class BlockSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockSizeSweep, BuildSeekScanRoundTrip) {
  auto env = storage::NewMemEnv();
  std::unique_ptr<storage::WritableFile> wfile;
  ASSERT_TRUE(env->NewWritableFile("t.sst", &wfile).ok());
  storage::TableBuilder builder(std::move(wfile),
                                storage::TableOptions{.block_size = GetParam()});
  Random rnd(static_cast<uint64_t>(GetParam()));
  std::map<std::string, std::string> model;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i * 3);
    const std::string value = rnd.String(1 + rnd.Uniform(200));
    ASSERT_TRUE(builder
                    .Add(storage::MakeInternalKey(key, 1, storage::ValueType::kValue),
                         value)
                    .ok());
    model[key] = value;
  }
  ASSERT_TRUE(builder.Finish().ok());

  std::unique_ptr<storage::RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("t.sst", &rfile).ok());
  auto table = *storage::Table::Open(std::move(rfile));

  // Point lookups for present and absent keys.
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", static_cast<int>(rnd.Uniform(1200)));
    std::string fkey, fvalue;
    Status s = table->SeekEntry(
        storage::MakeInternalKey(key, storage::kMaxSequenceNumber,
                                 storage::ValueType::kValue),
        &fkey, &fvalue);
    auto it = model.lower_bound(key);
    if (it == model.end()) {
      EXPECT_TRUE(s.IsNotFound());
    } else {
      ASSERT_TRUE(s.ok());
      EXPECT_EQ(storage::ExtractUserKey(Slice(fkey)).ToString(), it->first);
      EXPECT_EQ(fvalue, it->second);
    }
  }
  // Full scan matches the model exactly.
  auto iter = table->NewIterator();
  auto model_it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    EXPECT_EQ(storage::ExtractUserKey(iter->key()).ToString(), model_it->first);
    EXPECT_EQ(iter->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeSweep,
                         ::testing::Values(32, 256, 4096, 65536));

// ---------------------------------------------------------------------------
// KV cluster topology sweep: (num_nodes, replication_factor)
// ---------------------------------------------------------------------------

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopologySweep, ServesReadsWritesAndToleratesMinorityFailure) {
  const auto [num_nodes, rf] = GetParam();
  kv::KVClusterOptions opts;
  opts.num_nodes = num_nodes;
  opts.replication_factor = rf;
  kv::KVCluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTenantKeyspace(10).ok());

  for (int i = 0; i < 40; ++i) {
    kv::BatchRequest put;
    put.tenant_id = 10;
    put.ts = cluster.Now();
    put.AddPut(kv::AddTenantPrefix(10, "k" + std::to_string(i)),
               "v" + std::to_string(i));
    ASSERT_TRUE(cluster.Send(put).ok());
  }
  kv::BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = cluster.Now();
  scan.AddScan(kv::TenantPrefix(10), kv::TenantPrefixEnd(10), 0);
  EXPECT_EQ((*cluster.Send(scan)).responses[0].rows.size(), 40u);

  // A minority of replicas failing keeps the range available (RF >= 3).
  if (rf >= 3) {
    const int can_lose = (rf - 1) / 2;
    for (int i = 0; i < can_lose; ++i) {
      cluster.SetNodeLive(static_cast<kv::NodeId>(i), false);
    }
    kv::BatchRequest put;
    put.tenant_id = 10;
    put.ts = cluster.Now();
    put.AddPut(kv::AddTenantPrefix(10, "after-failure"), "v");
    EXPECT_TRUE(cluster.Send(put).ok()) << "nodes=" << num_nodes << " rf=" << rf;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(3, 3),
                                           std::make_tuple(5, 3),
                                           std::make_tuple(5, 5),
                                           std::make_tuple(7, 5)));

// ---------------------------------------------------------------------------
// Engine block-cache capacity sweep: correctness is cache-size independent
// ---------------------------------------------------------------------------

class CacheSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheSizeSweep, ReadsCorrectAtAnyCacheSize) {
  storage::EngineOptions opts;
  opts.memtable_bytes = 8 << 10;
  opts.block_cache_bytes = GetParam();
  auto engine = *storage::Engine::Open(opts);
  Random rnd(5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(300));
    const std::string value = rnd.String(64);
    ASSERT_TRUE(engine->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(engine->Flush().ok());
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(engine->Get(key, &got).ok()) << key << " cache=" << GetParam();
    EXPECT_EQ(got, value);
  }
}

INSTANTIATE_TEST_SUITE_P(CacheSizes, CacheSizeSweep,
                         ::testing::Values(0,        // disabled
                                           1 << 10,  // constant thrash
                                           64 << 10, 8 << 20));

}  // namespace
}  // namespace veloce
