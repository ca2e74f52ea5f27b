// Point-lookup microbenchmark for the LSM read fast path: bounded
// iterators + key-range pruning + bloom filters + sharded block cache.
//
// Compares, in one binary over the same data layout:
//   fast   — MvccGet via Engine::NewBoundedIterator (prunes tables by key
//            range, rejects tables by bloom probe, lazy per-table iterators)
//   legacy — the pre-fast-path read: a full engine iterator seeked to the
//            key, merging every table regardless of relevance
// across {uniform, zipfian} key distributions and {cold, warm} block cache
// regimes.
//
// Emits BENCH_point_lookup.json (scenario::BenchReport schema) with
// ops/sec per configuration plus the engine's bloom/pruning counters, and
// prints the headline speedup on uniform cold-cache reads (the acceptance
// gate is >= 2x).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/logging.h"
#include "common/random.h"
#include "kv/mvcc.h"
#include "scenario/report.h"
#include "storage/engine.h"

namespace veloce {
namespace {

constexpr int kNumKeys = 20000;
constexpr int kNumLookups = 2000;
constexpr size_t kValueLen = 64;
const kv::Timestamp kWriteTs{1000, 0};
const kv::Timestamp kReadTs{2000, 0};

std::string KeyAt(uint64_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "user%08llu",
                static_cast<unsigned long long>(i));
  return buf;
}

/// Loads kNumKeys MVCC rows in shuffled order with a tiny memtable, leaving
/// many overlapping L0 tables — the layout where an unpruned merge is most
/// expensive and filters help most.
std::unique_ptr<storage::Engine> MakeEngine(bool warm_cache) {
  storage::EngineOptions opts;
  opts.memtable_bytes = 128 << 10;
  opts.l0_compaction_trigger = 1000;  // keep every flushed table in L0
  opts.prefix_extractor = kv::MvccPrefixExtractor;
  // Cold regime: a one-block cache, so essentially every read goes to the
  // Env. Warm regime: everything fits.
  opts.block_cache_bytes = warm_cache ? (64 << 20) : 4096;
  auto engine = *storage::Engine::Open(std::move(opts));

  std::vector<uint64_t> order(kNumKeys);
  for (int i = 0; i < kNumKeys; ++i) order[i] = i;
  Random rnd(42);
  for (int i = kNumKeys - 1; i > 0; --i) {
    std::swap(order[i], order[rnd.Uniform(i + 1)]);
  }
  Random vals(43);
  storage::WriteBatch batch;
  for (int i = 0; i < kNumKeys; ++i) {
    kv::MvccPutValue(&batch, KeyAt(order[i]), kWriteTs, vals.String(kValueLen));
    if (batch.Count() == 100) {
      VELOCE_CHECK_OK(engine->Write(batch));
      batch.Clear();
    }
  }
  if (batch.Count() > 0) VELOCE_CHECK_OK(engine->Write(batch));
  VELOCE_CHECK_OK(engine->Flush());
  return engine;
}

/// The read path this PR replaced: an unbounded merged iterator positioned
/// by Seek, then a manual scan of the key's version slots.
bool LegacyLookup(storage::Engine* engine, const std::string& user_key) {
  auto it = engine->NewIterator();
  it->Seek(kv::EncodeIntentKey(user_key));
  if (!it->Valid()) return false;
  std::string uk;
  kv::Timestamp ts;
  bool is_intent = false;
  if (!kv::DecodeMvccKey(it->key(), &uk, &ts, &is_intent)) return false;
  return uk == user_key && !is_intent && ts <= kReadTs;
}

bool FastLookup(storage::Engine* engine, const std::string& user_key) {
  auto result = kv::MvccGet(engine, user_key, kReadTs);
  VELOCE_CHECK(result.ok());
  return result->value.has_value();
}

struct RunResult {
  double ops_per_sec = 0;
  uint64_t found = 0;
};

template <typename LookupFn, typename NextKeyFn>
RunResult RunLookups(storage::Engine* engine, LookupFn&& lookup,
                     NextKeyFn&& next_key) {
  RunResult r;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kNumLookups; ++i) {
    if (lookup(engine, KeyAt(next_key()))) ++r.found;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed).count();
  r.ops_per_sec = kNumLookups / (secs > 0 ? secs : 1e-9);
  return r;
}

struct ConfigResult {
  std::string mode, dist, cache;
  RunResult run;
  storage::EngineStats stats;
};

}  // namespace
}  // namespace veloce

int main() {
  using namespace veloce;

  std::vector<ConfigResult> results;
  double fast_uniform_cold = 0;
  double legacy_uniform_cold = 0;

  for (const bool warm : {false, true}) {
    auto engine = MakeEngine(warm);
    std::printf("layout: cache=%s l0_files=%d\n", warm ? "warm" : "cold",
                engine->NumFilesAtLevel(0));
    if (warm) {
      // Pre-touch every key so the working set is resident.
      for (int i = 0; i < kNumKeys; ++i) {
        (void)FastLookup(engine.get(), KeyAt(i));
      }
    }
    for (const char* mode : {"fast", "legacy"}) {
      for (const char* dist : {"uniform", "zipfian"}) {
        Random uniform_rng(7);
        ZipfianGenerator zipf(kNumKeys, 0.99, 7);
        auto next_key = [&]() -> uint64_t {
          if (std::string(dist) == "uniform") {
            return uniform_rng.Uniform(kNumKeys);
          }
          const uint64_t z = zipf.Next();  // YCSB formula can round to n
          return z < kNumKeys ? z : kNumKeys - 1;
        };
        RunResult run;
        if (std::string(mode) == "fast") {
          run = RunLookups(engine.get(), FastLookup, next_key);
        } else {
          run = RunLookups(engine.get(), LegacyLookup, next_key);
        }
        VELOCE_CHECK(run.found == static_cast<uint64_t>(kNumLookups))
            << mode << "/" << dist << " found only " << run.found;
        ConfigResult cr{mode, dist, warm ? "warm" : "cold", run, engine->stats()};
        std::printf("  %-6s %-7s %-4s : %10.0f ops/sec\n", cr.mode.c_str(),
                    cr.dist.c_str(), cr.cache.c_str(), run.ops_per_sec);
        if (!warm && cr.dist == "uniform") {
          if (cr.mode == "fast") fast_uniform_cold = run.ops_per_sec;
          if (cr.mode == "legacy") legacy_uniform_cold = run.ops_per_sec;
        }
        results.push_back(std::move(cr));
      }
    }
  }

  const double speedup =
      legacy_uniform_cold > 0 ? fast_uniform_cold / legacy_uniform_cold : 0;
  std::printf("\nuniform cold-cache speedup (fast vs legacy): %.2fx\n", speedup);

  scenario::BenchReport report("point_lookup");
  report.AddParam("num_keys", kNumKeys);
  report.AddParam("num_lookups", kNumLookups);
  report.AddMetric("uniform_cold_speedup", speedup);
  for (const auto& r : results) {
    report.AddMetric("ops_per_sec__" + r.mode + "_" + r.dist + "_" + r.cache,
                     r.run.ops_per_sec);
  }
  // Filter and pruning counters of the headline configuration.
  for (const auto& r : results) {
    if (r.cache == "cold" && r.mode == "fast" && r.dist == "uniform") {
      report.AddMetric("bloom_checked", r.stats.bloom_checked);
      report.AddMetric("bloom_useful", r.stats.bloom_useful);
      report.AddMetric("bloom_false_positive", r.stats.bloom_false_positive);
      report.AddMetric("tables_pruned", r.stats.tables_pruned);
    }
  }
  report.Gate("uniform_cold_speedup", speedup, 2.0);

  auto path = report.WriteFile(".");
  VELOCE_CHECK(path.ok());
  std::printf("wrote %s\n", path->c_str());
  std::printf("%s\n", report.Summary().c_str());
  if (!report.passed()) {
    std::printf("WARNING: speedup below the 2x acceptance gate\n");
    return 1;
  }
  return 0;
}
