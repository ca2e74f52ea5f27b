// Property-style suites on cross-cutting invariants: MVCC visibility
// against a reference model, engine crash-recovery durability, timestamp
// cache and replication-log behaviour, and fairness accounting.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "common/logging.h"
#include "common/random.h"
#include "kv/mvcc.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/range.h"
#include "storage/engine.h"

namespace veloce {
namespace {

// ---------------------------------------------------------------------------
// MVCC vs. a reference model under randomized histories
// ---------------------------------------------------------------------------

class MvccPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MvccPropertyTest, VisibilityMatchesModelAtEveryTimestamp) {
  auto engine = std::move(storage::Engine::Open({})).value();
  Random rng(GetParam());
  // Model: per key, a sorted version history (ts -> value or tombstone).
  std::map<std::string, std::map<kv::Timestamp, std::optional<std::string>>> model;

  Nanos wall = 10;
  for (int i = 0; i < 800; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(30));
    wall += 1 + static_cast<Nanos>(rng.Uniform(5));
    const kv::Timestamp ts{wall, 0};
    storage::WriteBatch batch;
    if (rng.Bernoulli(0.2)) {
      kv::MvccPutTombstone(&batch, key, ts);
      model[key][ts] = std::nullopt;
    } else {
      const std::string value = rng.String(1 + rng.Uniform(40));
      kv::MvccPutValue(&batch, key, ts, value);
      model[key][ts] = value;
    }
    ASSERT_TRUE(engine->Write(batch).ok());
  }

  // Probe random (key, timestamp) pairs, including exact write timestamps.
  for (int probe = 0; probe < 500; ++probe) {
    const std::string key = "k" + std::to_string(rng.Uniform(30));
    const kv::Timestamp read_ts{1 + static_cast<Nanos>(rng.Uniform(wall + 5)), 0};
    auto result = kv::MvccGet(engine.get(), key, read_ts);
    ASSERT_TRUE(result.ok());
    // Model answer: newest version <= read_ts.
    std::optional<std::string> expected;
    auto it = model.find(key);
    if (it != model.end()) {
      auto version = it->second.upper_bound(read_ts);
      if (version != it->second.begin()) {
        --version;
        expected = version->second;
      }
    }
    if (expected.has_value()) {
      ASSERT_TRUE(result->value.has_value()) << key << "@" << read_ts.ToString();
      EXPECT_EQ(*result->value, *expected);
    } else {
      EXPECT_FALSE(result->value.has_value()) << key << "@" << read_ts.ToString();
    }
  }

  // Scans at random timestamps match the model too.
  for (int probe = 0; probe < 30; ++probe) {
    const kv::Timestamp read_ts{1 + static_cast<Nanos>(rng.Uniform(wall + 5)), 0};
    auto scan = kv::MvccScan(engine.get(), "k", "l", read_ts, 0);
    ASSERT_TRUE(scan.ok());
    size_t expected_count = 0;
    for (const auto& [key, versions] : model) {
      auto version = versions.upper_bound(read_ts);
      if (version == versions.begin()) continue;
      --version;
      if (version->second.has_value()) ++expected_count;
    }
    EXPECT_EQ(scan->entries.size(), expected_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvccPropertyTest,
                         ::testing::Values(1, 7, 42, 1337));

// ---------------------------------------------------------------------------
// Engine crash-recovery durability under random workloads
// ---------------------------------------------------------------------------

class RecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryPropertyTest, ReopenPreservesEveryWrite) {
  auto env = storage::NewMemEnv();
  storage::EngineOptions opts;
  opts.env = env.get();
  opts.dir = "db";
  opts.memtable_bytes = 8 << 10;
  opts.sstable_target_bytes = 8 << 10;
  opts.level_base_bytes = 64 << 10;

  Random rng(GetParam());
  std::map<std::string, std::string> model;
  // Several open/mutate/close cycles; every cycle must see everything the
  // previous cycles wrote (WAL replay + manifest recovery together).
  for (int cycle = 0; cycle < 4; ++cycle) {
    auto engine = std::move(storage::Engine::Open(opts)).value();
    // Everything from previous cycles is visible.
    for (const auto& [key, value] : model) {
      std::string got;
      ASSERT_TRUE(engine->Get(key, &got).ok()) << "cycle " << cycle << " " << key;
      ASSERT_EQ(got, value);
    }
    for (int i = 0; i < 400; ++i) {
      const std::string key = "key" + std::to_string(rng.Uniform(120));
      if (rng.Bernoulli(0.15)) {
        ASSERT_TRUE(engine->Delete(key).ok());
        model.erase(key);
      } else {
        const std::string value = rng.String(1 + rng.Uniform(80));
        ASSERT_TRUE(engine->Put(key, value).ok());
        model[key] = value;
      }
    }
    if (cycle % 2 == 1) ASSERT_TRUE(engine->Flush().ok());
    // Engine destructor = crash point (no clean shutdown path exists).
  }
  auto engine = std::move(storage::Engine::Open(opts)).value();
  auto it = engine->NewIterator();
  auto model_it = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++model_it) {
    ASSERT_NE(model_it, model.end());
    EXPECT_EQ(it->key().ToString(), model_it->first);
    EXPECT_EQ(it->value().ToString(), model_it->second);
  }
  EXPECT_EQ(model_it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryPropertyTest, ::testing::Values(3, 11, 29));

// ---------------------------------------------------------------------------
// TimestampCache
// ---------------------------------------------------------------------------

TEST(TimestampCacheTest, PointReadsRemembered) {
  kv::TimestampCache cache;
  cache.RecordRead("a", {100, 0});
  cache.RecordRead("a", {50, 0});  // older read doesn't regress
  EXPECT_EQ(cache.MaxReadTimestamp("a").wall, 100);
  EXPECT_EQ(cache.MaxReadTimestamp("b").wall, 0);
}

TEST(TimestampCacheTest, SpanReadsCoverContainedKeys) {
  kv::TimestampCache cache;
  cache.RecordReadSpan("b", "d", {200, 0});
  EXPECT_EQ(cache.MaxReadTimestamp("b").wall, 200);
  EXPECT_EQ(cache.MaxReadTimestamp("c").wall, 200);
  EXPECT_EQ(cache.MaxReadTimestamp("d").wall, 0);  // exclusive end
  EXPECT_EQ(cache.MaxReadTimestamp("a").wall, 0);
}

TEST(TimestampCacheTest, OverflowFoldsIntoLowWaterConservatively) {
  kv::TimestampCache cache;
  // Blow past the span cap; correctness must be preserved (the fold can
  // only raise other keys' timestamps, never lower a covered key's).
  for (size_t i = 0; i < kv::TimestampCache::kMaxSpans + 10; ++i) {
    cache.RecordReadSpan("k" + std::to_string(i), "k" + std::to_string(i) + "x",
                         {static_cast<Nanos>(100 + i), 0});
  }
  // Every recorded span's timestamp is still covered (possibly via the
  // low-water mark).
  EXPECT_GE(cache.MaxReadTimestamp("k5").wall, 105);
  EXPECT_GE(cache.MaxReadTimestamp("k100").wall, 200);
}

TEST(TimestampCacheTest, PointOverflowSafe) {
  kv::TimestampCache cache;
  for (size_t i = 0; i < kv::TimestampCache::kMaxPoints + 100; ++i) {
    cache.RecordRead("p" + std::to_string(i), {static_cast<Nanos>(10 + i), 0});
  }
  // A key recorded before the fold keeps (at least) its timestamp.
  EXPECT_GE(cache.MaxReadTimestamp("p10").wall, 20);
}

TEST(TimestampCacheTest, OwnReadDoesNotPush) {
  kv::TimestampCache cache;
  cache.RecordRead("a", {100, 0}, /*txn=*/7);
  cache.RecordReadSpan("s", "u", {120, 0}, /*txn=*/7);
  // Txn 7 writes at or above its own reads: nothing to protect.
  EXPECT_EQ(cache.MaxReadTimestamp("a", 7).wall, 0);
  EXPECT_EQ(cache.MaxReadTimestamp("t", 7).wall, 0);
}

TEST(TimestampCacheTest, ForeignReadPushes) {
  kv::TimestampCache cache;
  cache.RecordRead("a", {100, 0}, /*txn=*/7);
  cache.RecordReadSpan("s", "u", {120, 0}, /*txn=*/7);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 8).wall, 100);
  EXPECT_EQ(cache.MaxReadTimestamp("t", 8).wall, 120);
  // A non-transactional writer is pushed by every entry.
  EXPECT_EQ(cache.MaxReadTimestamp("a").wall, 100);
  // A higher read by another txn takes the entry over.
  cache.RecordRead("a", {150, 0}, /*txn=*/8);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 7).wall, 150);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 8).wall, 0);
}

TEST(TimestampCacheTest, EqualTimestampReadBySecondTxnClearsOwner) {
  kv::TimestampCache cache;
  cache.RecordRead("a", {100, 0}, /*txn=*/7);
  cache.RecordRead("a", {100, 0}, /*txn=*/8);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 7).wall, 100);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 8).wall, 100);
  // Re-reading by the same txn keeps its ownership.
  cache.RecordRead("b", {100, 0}, /*txn=*/7);
  cache.RecordRead("b", {100, 0}, /*txn=*/7);
  EXPECT_EQ(cache.MaxReadTimestamp("b", 7).wall, 0);
}

TEST(TimestampCacheTest, OwnerlessEntryPushesEveryTxn) {
  kv::TimestampCache cache;
  // The fence a staging recovery lays for txn 7's own late write.
  cache.RecordRead("a", {100, 0}, /*txn=*/0);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 7).wall, 100);
  EXPECT_EQ(cache.MaxReadTimestamp("a", 8).wall, 100);
  // An owner-less read below an owned entry cannot hide under it.
  cache.RecordRead("b", {200, 0}, /*txn=*/7);
  cache.RecordRead("b", {100, 0}, /*txn=*/0);
  EXPECT_EQ(cache.MaxReadTimestamp("b", 7).wall, 200);
  // A lower read by another txn is absorbed: the owner writes above 200.
  cache.RecordRead("c", {200, 0}, /*txn=*/7);
  cache.RecordRead("c", {100, 0}, /*txn=*/8);
  EXPECT_EQ(cache.MaxReadTimestamp("c", 7).wall, 0);
  EXPECT_EQ(cache.MaxReadTimestamp("c", 8).wall, 200);
}

TEST(TimestampCacheTest, OverflowFoldPushesEveryone) {
  kv::TimestampCache points, spans;
  for (size_t i = 0; i < kv::TimestampCache::kMaxPoints + 1; ++i) {
    points.RecordRead("p" + std::to_string(i), {static_cast<Nanos>(10 + i), 0},
                      /*txn=*/7);
  }
  for (size_t i = 0; i < kv::TimestampCache::kMaxSpans + 1; ++i) {
    spans.RecordReadSpan("s" + std::to_string(i), "s" + std::to_string(i) + "x",
                         {static_cast<Nanos>(10 + i), 0}, /*txn=*/7);
  }
  // The folded reads lost their owner: even txn 7 is pushed above them.
  EXPECT_GE(points.MaxReadTimestamp("p10", 7).wall, 20);
  EXPECT_GE(spans.MaxReadTimestamp("s5", 7).wall, 15);
  // The read recorded after each fold keeps its owner.
  const std::string last = "p" + std::to_string(kv::TimestampCache::kMaxPoints);
  EXPECT_EQ(points.MaxReadTimestamp(last, 7), points.low_water());
}

TEST(TimestampCacheTest, MergeFromKeepsOwners) {
  kv::TimestampCache left, right;
  right.RecordRead("r", {100, 0}, /*txn=*/7);
  right.RecordReadSpan("s", "u", {120, 0}, /*txn=*/7);
  right.RecordRead("x", {130, 0}, /*txn=*/0);
  left.MergeFrom(right);
  EXPECT_EQ(left.MaxReadTimestamp("r", 7).wall, 0);
  EXPECT_EQ(left.MaxReadTimestamp("t", 7).wall, 0);
  EXPECT_EQ(left.MaxReadTimestamp("r", 8).wall, 100);
  EXPECT_EQ(left.MaxReadTimestamp("t", 8).wall, 120);
  EXPECT_EQ(left.MaxReadTimestamp("x", 7).wall, 130);
}

// ---------------------------------------------------------------------------
// ReplicationLog
// ---------------------------------------------------------------------------

TEST(ReplicationLogTest, AppendsAndTerms) {
  kv::ReplicationLog log;
  EXPECT_EQ(log.term(), 1u);
  kv::LogRecord r1;
  r1.payload = "cmd1";
  kv::LogRecord r2;
  r2.payload = "cmd22";
  EXPECT_EQ(log.Append(std::move(r1)), 1u);
  EXPECT_EQ(log.Append(std::move(r2)), 2u);
  EXPECT_EQ(log.committed_index(), 2u);
  EXPECT_EQ(log.committed_bytes(), 9u);
  log.BumpTerm();
  EXPECT_EQ(log.term(), 2u);
  EXPECT_EQ(log.committed_index(), 2u);  // term change preserves the log
}

TEST(ReplicationLogTest, AppliedTrackingAndTruncation) {
  kv::ReplicationLog log;
  for (int i = 0; i < 10; ++i) {
    kv::LogRecord rec;
    rec.payload = "cmd" + std::to_string(i);
    log.Append(std::move(rec));
  }
  log.SetApplied(0, 10);
  log.SetApplied(1, 4);
  EXPECT_EQ(log.Applied(0), 10u);
  EXPECT_EQ(log.Applied(1), 4u);
  EXPECT_EQ(log.Applied(7), 0u);  // unknown replica: nothing applied
  EXPECT_EQ(log.first_index(), 1u);
  EXPECT_TRUE(log.CanReplayFrom(4));
  log.TruncateTo(4);  // min applied across {10, 4}
  EXPECT_EQ(log.first_index(), 5u);
  EXPECT_TRUE(log.CanReplayFrom(4));
  EXPECT_FALSE(log.CanReplayFrom(2));  // truncated away: snapshot path
  log.TruncateTo(10);
  EXPECT_EQ(log.first_index(), 11u);  // empty log: committed + 1
  EXPECT_EQ(log.committed_index(), 10u);
}

// ---------------------------------------------------------------------------
// Range directory: arbitrary split/merge/move interleavings keep the
// keyspace a partition (no gaps, no overlaps, tenant-aligned)
// ---------------------------------------------------------------------------

/// One randomized directory mutation. Operands are raw draws; the applier
/// reduces them modulo whatever is currently valid, so every (kind, a, b,
/// c) triple is applicable to any directory state — which is what makes
/// shrinking by plain subsequence removal sound.
struct DirOp {
  enum class Kind { kSplit, kMerge, kMove } kind;
  uint64_t a = 0, b = 0, c = 0;

  std::string ToString() const {
    const char* names[] = {"split", "merge", "move"};
    return std::string(names[static_cast<int>(kind)]) + "(" +
           std::to_string(a) + "," + std::to_string(b) + "," +
           std::to_string(c) + ")";
  }
};

constexpr int kDirTenants = 3;
constexpr int kDirNodes = 4;

std::vector<DirOp> GenDirOps(uint64_t seed, int n) {
  Random rng(seed);
  std::vector<DirOp> ops;
  ops.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    DirOp op;
    const uint64_t k = rng.Uniform(10);
    // Splits weighted heaviest so directories actually grow.
    op.kind = k < 5   ? DirOp::Kind::kSplit
              : k < 8 ? DirOp::Kind::kMerge
                      : DirOp::Kind::kMove;
    op.a = rng.Next();
    op.b = rng.Next();
    op.c = rng.Next();
    ops.push_back(op);
  }
  return ops;
}

/// Replays `ops` against a fresh cluster, checking the partition invariant
/// after every step. Individual ops are allowed to be rejected (merge
/// guards, move guards) — the property is about the directory's shape, not
/// op success. Returns "" or the violation (with the op index).
std::string ApplyDirOps(const std::vector<DirOp>& ops) {
  ManualClock clock(100 * kSecond);
  kv::KVClusterOptions co;
  co.num_nodes = kDirNodes;
  co.replication_factor = 3;
  co.clock = &clock;
  auto cluster = std::make_unique<kv::KVCluster>(co);
  for (int t = 0; t < kDirTenants; ++t) {
    VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(10 + t));
  }

  auto check = [&cluster]() -> std::string {
    std::vector<kv::RangeDescriptor> ranges = cluster->Ranges();
    std::sort(ranges.begin(), ranges.end(),
              [](const kv::RangeDescriptor& x, const kv::RangeDescriptor& y) {
                return x.start_key < y.start_key;
              });
    if (ranges.empty() || !ranges.front().start_key.empty()) {
      return "first range does not start at -inf";
    }
    for (size_t i = 0; i < ranges.size(); ++i) {
      const kv::RangeDescriptor& d = ranges[i];
      if (i + 1 == ranges.size()) {
        if (!d.end_key.empty()) return "last range does not end at +inf";
      } else if (d.end_key.empty() || d.end_key != ranges[i + 1].start_key) {
        return "gap/overlap after range " + std::to_string(d.range_id);
      }
      if (d.tenant_id != 0) {
        if (d.start_key < kv::TenantPrefix(d.tenant_id) ||
            d.end_key.empty() ||
            d.end_key > kv::TenantPrefixEnd(d.tenant_id)) {
          return "range " + std::to_string(d.range_id) +
                 " escapes tenant " + std::to_string(d.tenant_id);
        }
      }
    }
    return "";
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const DirOp& op = ops[i];
    switch (op.kind) {
      case DirOp::Kind::kSplit: {
        const kv::TenantId t = 10 + static_cast<kv::TenantId>(op.a % kDirTenants);
        char buf[8];
        std::snprintf(buf, sizeof(buf), "k%03d",
                      static_cast<int>(op.b % 64));
        (void)cluster->SplitRange(kv::AddTenantPrefix(t, buf));
        break;
      }
      case DirOp::Kind::kMerge: {
        const auto ranges = cluster->Ranges();
        const auto& d = ranges[op.a % ranges.size()];
        (void)cluster->MergeRanges(d.range_id);
        break;
      }
      case DirOp::Kind::kMove: {
        const auto ranges = cluster->Ranges();
        const auto& d = ranges[op.a % ranges.size()];
        const kv::NodeId from =
            d.replicas[op.b % d.replicas.size()];
        const kv::NodeId to = static_cast<kv::NodeId>(op.c % kDirNodes);
        (void)cluster->MoveReplica(d.range_id, from, to);
        break;
      }
    }
    std::string err = check();
    if (!err.empty()) {
      return "after op #" + std::to_string(i) + " " + ops[i].ToString() +
             ": " + err;
    }
  }
  return "";
}

/// Greedy delta-debugging: repeatedly try dropping chunks (halving sizes
/// down to single ops); keep any removal that still fails. Returns the
/// minimized sequence.
std::vector<DirOp> ShrinkDirOps(
    std::vector<DirOp> ops,
    const std::function<bool(const std::vector<DirOp>&)>& fails) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t chunk = std::max<size_t>(1, ops.size() / 2); chunk >= 1;
         chunk /= 2) {
      for (size_t at = 0; at + chunk <= ops.size();) {
        std::vector<DirOp> candidate = ops;
        candidate.erase(candidate.begin() + static_cast<long>(at),
                        candidate.begin() + static_cast<long>(at + chunk));
        if (fails(candidate)) {
          ops = std::move(candidate);
          progress = true;
        } else {
          at += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }
  return ops;
}

class DirectoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectoryPropertyTest, InterleavingsKeepKeyspacePartitioned) {
  const auto ops = GenDirOps(GetParam(), 60);
  std::string violation = ApplyDirOps(ops);
  if (!violation.empty()) {
    // Shrink before failing so the report carries a minimal reproducer.
    const auto minimal = ShrinkDirOps(
        ops, [](const std::vector<DirOp>& c) { return !ApplyDirOps(c).empty(); });
    std::string repro;
    for (const DirOp& op : minimal) repro += "  " + op.ToString() + "\n";
    FAIL() << violation << "\nminimal reproducer (" << minimal.size()
           << " ops):\n"
           << repro;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The shrinker itself must minimize: against a synthetic failure predicate
// ("sequence contains a merge and a move"), any failing sequence reduces
// to exactly those two ops.
TEST(DirectoryPropertyTest, ShrinkerFindsMinimalReproducer) {
  auto fails = [](const std::vector<DirOp>& ops) {
    bool merge = false, move = false;
    for (const DirOp& op : ops) {
      merge |= op.kind == DirOp::Kind::kMerge;
      move |= op.kind == DirOp::Kind::kMove;
    }
    return merge && move;
  };
  const auto ops = GenDirOps(99, 60);
  ASSERT_TRUE(fails(ops)) << "generator produced no merge+move ops";
  const auto minimal = ShrinkDirOps(ops, fails);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_TRUE(fails(minimal));
}

}  // namespace
}  // namespace veloce
