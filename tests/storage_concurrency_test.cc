// Write-path concurrency stress: group commit + background flush/compaction
// under real threads. Run under the `tsan` preset (scripts/check.sh --tsan)
// this doubles as the data-race gate for the storage engine's lock-free
// pieces (atomic skiplist publication, commit I/O outside the engine mutex,
// unlocked background table builds, inline-executor drains on writer
// threads).
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/background.h"
#include "storage/engine.h"

namespace veloce::storage {
namespace {

EngineOptions StressOptions(BackgroundExecutor* executor) {
  EngineOptions options;
  options.memtable_bytes = 32 << 10;  // rotate often
  options.sstable_target_bytes = 16 << 10;
  options.block_bytes = 1024;
  options.level_base_bytes = 128 << 10;
  options.background_executor = executor;
  return options;
}

std::string Key(int writer, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%02d-k%05d", writer, i);
  return buf;
}

std::string Value(int writer, int i, int version) {
  return "v" + std::to_string(version) + "-" + Key(writer, i) +
         std::string(64, 'x');
}

TEST(StorageConcurrencyTest, WritersReadersFlushCompactStress) {
  ThreadPoolExecutor executor(2);
  auto engine_or = Engine::Open(StressOptions(&executor));
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();

  constexpr int kWriters = 4;
  constexpr int kBatches = 300;
  constexpr int kOpsPerBatch = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        WriteBatch batch;
        for (int op = 0; op < kOpsPerBatch; ++op) {
          const int i = b * kOpsPerBatch + op;
          batch.Put(Key(w, i), Value(w, i, 0));
        }
        // Rewrite a rolling window so compaction sees shadowed versions.
        if (b > 0) batch.Put(Key(w, (b - 1) * kOpsPerBatch), Value(w, (b - 1) * kOpsPerBatch, 1));
        if (!engine->Write(batch).ok()) failures.fetch_add(1);
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      uint64_t probes = 0;
      while (!done.load(std::memory_order_acquire)) {
        // Point reads race the writers; a key is either absent or intact.
        std::string value;
        bool found = false;
        const std::string key = Key(probes % kWriters, (probes * 7) % (kBatches * kOpsPerBatch));
        Status s = engine->GetVisible(Slice(key), &value, &found);
        if (found && s.ok() && value.find(key) == std::string::npos) {
          failures.fetch_add(1);  // torn value
        }
        if (r == 0 && probes % 64 == 0) {
          // Snapshot scans must see a consistent prefix-free view.
          auto it = engine->NewBoundedIterator(Slice("w00"), Slice("w01"));
          int n = 0;
          for (it->SeekToFirst(); it->Valid() && n < 50; it->Next()) ++n;
        }
        if (r == 1 && probes % 256 == 0) {
          if (!engine->Flush().ok()) failures.fetch_add(1);
        }
        ++probes;
      }
    });
  }

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  ASSERT_TRUE(engine->CompactAll().ok());
  EXPECT_EQ(failures.load(), 0);

  // Full verification: every key present with an intact value.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kBatches * kOpsPerBatch; ++i) {
      std::string value;
      Status s = engine->Get(Slice(Key(w, i)), &value);
      ASSERT_TRUE(s.ok()) << Key(w, i) << ": " << s.ToString();
      EXPECT_NE(value.find(Key(w, i)), std::string::npos);
    }
  }
  // Group commit accounted every operation exactly once.
  const uint64_t expected_ops =
      uint64_t{kWriters} * (kBatches * kOpsPerBatch + (kBatches - 1));
  EXPECT_EQ(engine->LastSequence(), expected_ops);
}

TEST(StorageConcurrencyTest, ConcurrentWritersStallAndRecover) {
  // Tight thresholds force rotation + stalls while two workers drain.
  ThreadPoolExecutor executor(2);
  EngineOptions options = StressOptions(&executor);
  options.max_immutable_memtables = 1;
  options.l0_stall_files = 4;
  auto engine_or = Engine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 150;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        if (!engine->Put(Key(w, i), Value(w, i, 0)).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(engine->Flush().ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      std::string value;
      ASSERT_TRUE(engine->Get(Slice(Key(w, i)), &value).ok()) << Key(w, i);
    }
  }
  const EngineStats& stats = engine->stats();
  EXPECT_GT(stats.num_flushes, 0u);
}

TEST(StorageConcurrencyTest, InlineExecutorDrainedByConcurrentWriters) {
  // No injected executor: the engine's private inline executor is drained
  // by each writer after it leaves the queue, so flushes and L0 compactions
  // run on several writer threads at once.
  EngineOptions options;
  options.memtable_bytes = 4 << 10;
  options.sstable_target_bytes = 4 << 10;
  options.block_bytes = 512;
  options.l0_compaction_trigger = 2;
  auto engine_or = Engine::Open(options);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).value();

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 400;
  constexpr int kKeysPerWriter = 100;  // every key is overwritten 4 times
  std::vector<std::map<std::string, std::string>> expected(kWriters);
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string key = Key(w, i % kKeysPerWriter);
        const std::string value = Value(w, i % kKeysPerWriter, i);
        if (!engine->Put(Slice(key), Slice(value)).ok()) failures.fetch_add(1);
        expected[w][key] = value;
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  std::map<std::string, std::string> all;
  for (const auto& m : expected) all.insert(m.begin(), m.end());
  for (const auto& [key, value] : all) {
    std::string got;
    ASSERT_TRUE(engine->Get(Slice(key), &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  auto it = engine->NewIterator();
  auto want = all.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++want) {
    ASSERT_NE(want, all.end()) << "extra key " << it->key().ToString();
    EXPECT_EQ(it->key().ToString(), want->first);
    EXPECT_EQ(it->value().ToString(), want->second);
  }
  EXPECT_EQ(want, all.end());
  EXPECT_EQ(engine->LastSequence(), uint64_t{kWriters} * kPerWriter);
  const EngineStats& stats = engine->stats();
  EXPECT_GT(stats.num_flushes, 0u);
  EXPECT_GT(stats.num_compactions, 0u);
  EXPECT_FALSE(engine->degraded());
}

}  // namespace
}  // namespace veloce::storage
