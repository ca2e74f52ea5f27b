#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/mvcc.h"
#include "kv/timestamp.h"
#include "kv/transaction.h"
#include "kv/txn.h"

namespace veloce::kv {
namespace {

// ---------------------------------------------------------------------------
// Timestamps / HLC
// ---------------------------------------------------------------------------

TEST(TimestampTest, Ordering) {
  Timestamp a{100, 0}, b{100, 1}, c{101, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a.Next(), b);
  EXPECT_EQ(b.Prev(), a);
  EXPECT_LT(Timestamp::Min(), a);
  EXPECT_LT(c, Timestamp::Max());
}

TEST(HlcTest, StrictlyMonotonic) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  Timestamp prev = hlc.Now();
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = hlc.Now();
    EXPECT_LT(prev, t);
    prev = t;
  }
  // Logical component grows while wall time is frozen.
  EXPECT_EQ(prev.wall, 1000);
  EXPECT_GT(prev.logical, 0u);
}

TEST(HlcTest, AdvancesWithPhysicalClock) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  hlc.Now();
  physical.Advance(500);
  const Timestamp t = hlc.Now();
  EXPECT_EQ(t.wall, 1500);
  EXPECT_EQ(t.logical, 0u);
}

TEST(HlcTest, UpdateFoldsRemoteTimestamps) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  hlc.Update({5000, 7});
  const Timestamp t = hlc.Now();
  EXPECT_GT(t, (Timestamp{5000, 7}));
}

// ---------------------------------------------------------------------------
// KVNode
// ---------------------------------------------------------------------------

TEST(KvNodeTest, StandaloneNodeRegistryOutlivesItsEngine) {
  // No injected registry: the node's private one must outlive the engine,
  // whose collect callback unregisters from it when the engine closes.
  auto node = std::make_unique<KVNode>(0, "local", storage::EngineOptions{},
                                       obs::ObsContext{});
  ASSERT_NE(node->engine(), nullptr);
  node->RecordBatch(/*read_only=*/true);
  EXPECT_EQ(node->stats().read_batches, 1u);
  node.reset();
}

// ---------------------------------------------------------------------------
// MVCC key encoding
// ---------------------------------------------------------------------------

TEST(MvccKeyTest, RoundTrip) {
  const std::string encoded = EncodeMvccKey("table/row1", {123456, 7});
  std::string user_key;
  Timestamp ts;
  bool is_intent = true;
  ASSERT_TRUE(DecodeMvccKey(encoded, &user_key, &ts, &is_intent));
  EXPECT_EQ(user_key, "table/row1");
  EXPECT_EQ(ts.wall, 123456);
  EXPECT_EQ(ts.logical, 7u);
  EXPECT_FALSE(is_intent);
}

TEST(MvccKeyTest, IntentSlotSortsFirst) {
  const std::string intent = EncodeIntentKey("key");
  const std::string newest = EncodeMvccKey("key", Timestamp::Max().Prev());
  const std::string old_version = EncodeMvccKey("key", {1, 0});
  EXPECT_LT(intent, newest);
  EXPECT_LT(newest, old_version);  // newer versions sort before older
}

TEST(MvccKeyTest, VersionsGroupedByUserKey) {
  // Every slot of "a" sorts before any slot of "b".
  EXPECT_LT(EncodeMvccKey("a", {1, 0}), EncodeIntentKey("b"));
  EXPECT_LT(EncodeIntentKey("a"), EncodeMvccKey("a", Timestamp::Max().Prev()));
  // Keys with embedded zero bytes don't interleave.
  const std::string k1("a", 1), k2("a\x00", 2);
  EXPECT_LT(EncodeMvccKey(k1, {1, 0}), EncodeIntentKey(k2));
}

// ---------------------------------------------------------------------------
// MVCC operations on a raw engine
// ---------------------------------------------------------------------------

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_ = std::move(storage::Engine::Open({})).value(); }

  void PutValue(Slice key, Timestamp ts, Slice value) {
    storage::WriteBatch batch;
    MvccPutValue(&batch, key, ts, value);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }
  void PutTombstone(Slice key, Timestamp ts) {
    storage::WriteBatch batch;
    MvccPutTombstone(&batch, key, ts);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }
  void PutIntent(Slice key, TxnId txn, Timestamp ts, Slice value) {
    storage::WriteBatch batch;
    MvccPutIntent(&batch, key, txn, ts, false, value);
    ASSERT_TRUE(engine_->Write(batch).ok());
  }

  std::unique_ptr<storage::Engine> engine_;
};

TEST_F(MvccTest, ReadsAtTimestamp) {
  PutValue("k", {10, 0}, "v10");
  PutValue("k", {20, 0}, "v20");
  auto r5 = *MvccGet(engine_.get(), "k", {5, 0});
  EXPECT_FALSE(r5.value.has_value());
  auto r15 = *MvccGet(engine_.get(), "k", {15, 0});
  ASSERT_TRUE(r15.value.has_value());
  EXPECT_EQ(*r15.value, "v10");
  auto r25 = *MvccGet(engine_.get(), "k", {25, 0});
  ASSERT_TRUE(r25.value.has_value());
  EXPECT_EQ(*r25.value, "v20");
  // Reading exactly at the write timestamp sees the write.
  auto r20 = *MvccGet(engine_.get(), "k", {20, 0});
  ASSERT_TRUE(r20.value.has_value());
  EXPECT_EQ(*r20.value, "v20");
}

TEST_F(MvccTest, TombstoneHidesValue) {
  PutValue("k", {10, 0}, "v");
  PutTombstone("k", {20, 0});
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.value.has_value());
  EXPECT_FALSE(r.conflict.has_value());
  // Time travel below the tombstone still sees the value.
  auto old = *MvccGet(engine_.get(), "k", {15, 0});
  ASSERT_TRUE(old.value.has_value());
}

TEST_F(MvccTest, ForeignIntentBelowReadTsConflicts) {
  PutValue("k", {10, 0}, "committed");
  PutIntent("k", /*txn=*/42, {20, 0}, "provisional");
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.conflict.has_value());
  EXPECT_EQ(r.conflict->txn_id, 42u);
  EXPECT_EQ(r.conflict->ts.wall, 20);
}

TEST_F(MvccTest, ForeignIntentAboveReadTsInvisible) {
  PutValue("k", {10, 0}, "committed");
  PutIntent("k", 42, {100, 0}, "future");
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.conflict.has_value());
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "committed");
}

TEST_F(MvccTest, OwnIntentReadable) {
  PutValue("k", {10, 0}, "old");
  PutIntent("k", 42, {20, 0}, "mine");
  auto r = *MvccGet(engine_.get(), "k", {30, 0}, /*own_txn=*/42);
  EXPECT_FALSE(r.conflict.has_value());
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "mine");
}

TEST_F(MvccTest, ResolveIntentCommit) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 42, true, {25, 0}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "value");
  // The committed version is at the commit timestamp, not the intent's.
  auto r22 = *MvccGet(engine_.get(), "k", {22, 0});
  EXPECT_FALSE(r22.value.has_value());
  auto intent = *MvccGetIntent(engine_.get(), "k");
  EXPECT_FALSE(intent.has_value());
}

TEST_F(MvccTest, ResolveIntentAbort) {
  PutValue("k", {10, 0}, "old");
  PutIntent("k", 42, {20, 0}, "aborted-write");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 42, false, {}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  ASSERT_TRUE(r.value.has_value());
  EXPECT_EQ(*r.value, "old");
}

TEST_F(MvccTest, ResolveWrongTxnIsNoop) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccResolveIntent(engine_.get(), "k", 99, true, {25, 0}).ok());
  auto intent = *MvccGetIntent(engine_.get(), "k");
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->txn_id, 42u);
}

TEST_F(MvccTest, UpdateIntentTimestamp) {
  PutIntent("k", 42, {20, 0}, "value");
  ASSERT_TRUE(MvccUpdateIntentTimestamp(engine_.get(), "k", 42, {50, 0}).ok());
  auto r = *MvccGet(engine_.get(), "k", {30, 0});
  EXPECT_FALSE(r.conflict.has_value()) << "pushed intent should be invisible";
  auto intent = *MvccGetIntent(engine_.get(), "k");
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->ts.wall, 50);
}

TEST_F(MvccTest, ScanVisibleVersions) {
  PutValue("a", {10, 0}, "1");
  PutValue("b", {10, 0}, "2");
  PutValue("b", {20, 0}, "2new");
  PutTombstone("c", {15, 0});
  PutValue("c", {5, 0}, "3");
  PutValue("d", {10, 0}, "4");
  auto res = *MvccScan(engine_.get(), "a", "e", {30, 0}, 0);
  ASSERT_EQ(res.entries.size(), 3u);
  EXPECT_EQ(res.entries[0].key, "a");
  EXPECT_EQ(res.entries[1].value, "2new");
  EXPECT_EQ(res.entries[2].key, "d");
}

TEST_F(MvccTest, ScanHonorsLimitAndResume) {
  for (int i = 0; i < 10; ++i) {
    PutValue("k" + std::to_string(i), {10, 0}, "v");
  }
  auto res = *MvccScan(engine_.get(), "k0", "k9\xff", {30, 0}, 4);
  EXPECT_EQ(res.entries.size(), 4u);
  EXPECT_EQ(res.resume_key, "k4");
  auto res2 = *MvccScan(engine_.get(), res.resume_key, "k9\xff", {30, 0}, 0);
  EXPECT_EQ(res2.entries.size(), 6u);
}

TEST_F(MvccTest, ScanStopsAtConflict) {
  PutValue("a", {10, 0}, "1");
  PutIntent("b", 42, {10, 0}, "locked");
  PutValue("c", {10, 0}, "3");
  auto res = *MvccScan(engine_.get(), "a", "z", {30, 0}, 0);
  ASSERT_TRUE(res.conflict.has_value());
  EXPECT_EQ(res.conflict->txn_id, 42u);
}

TEST_F(MvccTest, AnyNewerVersionsProbe) {
  PutValue("k1", {10, 0}, "v");
  PutValue("k2", {50, 0}, "v");
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {50, 0}, {100, 0}));
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {20, 0}, {60, 0}));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "k", "l", {60, 0}, {200, 0}));
}

TEST_F(MvccTest, AnyNewerVersionsSkipsOlderHistoryButNotNextKey) {
  // Blooms over logical MVCC keys, as on every KV node, so single-key
  // probes may reject tables by prefix.
  storage::EngineOptions options;
  options.prefix_extractor = MvccPrefixExtractor;
  engine_ = std::move(storage::Engine::Open(options)).value();
  // Long histories below `after` on the first keys; once a key's version
  // is at or below `after` the probe jumps to the next key, which must
  // still be examined (its versions above `upto` first).
  for (int ts = 1; ts <= 20; ++ts) {
    PutValue("a", {ts, 0}, "v");
    PutValue("a2", {ts, 0}, "v");
  }
  PutIntent("b", 42, {90, 0}, "provisional");
  PutValue("b", {80, 0}, "v");
  PutValue("b", {45, 0}, "v");
  PutValue("c", {5, 0}, "v");
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "a", "d", {30, 0}, {50, 0}));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "a", "d", {45, 0}, {70, 0}));
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "a", "d", {10, 0}, {15, 0}));
  // Single-key spans [k, k\0) probe the key's blooms, before and after
  // the versions reach an SSTable.
  const std::string b_end("b\0", 2);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "b", b_end, {30, 0}, {50, 0}));
    EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "b", b_end, {45, 0}, {70, 0}));
    EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "c", std::string("c\0", 2),
                                       {5, 0}, {100, 0}));
    ASSERT_TRUE(engine_->Flush().ok());
  }
}

TEST_F(MvccTest, AbsentIntentSlotIsNoBloomFalsePositive) {
  // Each flushed table holds versions of "k" between other keys, so its key
  // range covers k's intent slot and the "k" prefix passes its filter. An
  // intent lookup then misses the slot, but the filter answered correctly:
  // the table does hold that logical key.
  storage::EngineOptions options;
  options.prefix_extractor = MvccPrefixExtractor;
  engine_ = std::move(storage::Engine::Open(options)).value();
  for (int i = 1; i <= 3; ++i) {
    PutValue("a", {10 * i, 0}, "v");
    PutValue("k", {10 * i, 0}, "v" + std::to_string(i));
    PutValue("z", {10 * i, 0}, "v");
    ASSERT_TRUE(engine_->Flush().ok());
  }
  EXPECT_FALSE(MvccGetIntent(engine_.get(), "k")->has_value());
  auto got = MvccGet(engine_.get(), "k", {100, 0});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value.value_or(""), "v3");
  const storage::EngineStats& stats = engine_->stats();
  EXPECT_GE(stats.bloom_checked, 3u);
  EXPECT_EQ(stats.bloom_false_positive, 0u);
}

TEST_F(MvccTest, AnyNewerVersionsFailsOnForeignIntentAtOrBelowTarget) {
  PutValue("b", {10, 0}, "v");
  PutIntent("b", 42, {90, 0}, "provisional");
  // Txn 42 may commit at 90, beneath a read refreshed to 100.
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "a", "c", {20, 0}, {100, 0}));
  EXPECT_TRUE(*MvccAnyNewerVersions(engine_.get(), "a", "c", {20, 0}, {90, 0}, 7));
  // Its own intent does not fail txn 42's refresh; an intent above the
  // target commits above it and fails no one.
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "a", "c", {20, 0}, {100, 0}, 42));
  EXPECT_FALSE(*MvccAnyNewerVersions(engine_.get(), "a", "c", {20, 0}, {80, 0}, 7));
}

// ---------------------------------------------------------------------------
// MVCC readers against a reference model
// ---------------------------------------------------------------------------

// The versions and intent of every logical key, kept in a std::map. Reads are
// evaluated by the rules in mvcc.h, independently of the engine encoding.
class MvccModel {
 public:
  struct Intent {
    TxnId txn = 0;
    Timestamp ts;
    bool tombstone = false;
    std::string value;
  };
  struct Key {
    std::map<Timestamp, std::optional<std::string>> versions;  // nullopt: tombstone
    std::optional<Intent> intent;
  };

  std::map<std::string, Key> keys;

  MvccGetResult Get(const std::string& key, Timestamp ts, TxnId own) const {
    MvccGetResult r;
    auto k = keys.find(key);
    if (k == keys.end()) return r;
    const auto& intent = k->second.intent;
    if (intent.has_value()) {
      if (own != 0 && intent->txn == own) {
        if (!intent->tombstone) r.value = intent->value;
        return r;
      }
      if (intent->ts <= ts) {
        r.conflict = IntentMeta{intent->txn, intent->ts};
        return r;
      }
    }
    const auto& versions = k->second.versions;
    auto v = versions.upper_bound(ts);  // first version above ts
    if (v != versions.begin()) r.value = std::prev(v)->second;
    return r;
  }

  MvccScanResult Scan(const std::string& start, const std::string& end, Timestamp ts,
                      uint64_t limit, TxnId own) const {
    MvccScanResult r;
    for (auto k = keys.lower_bound(start);
         k != keys.end() && (end.empty() || k->first < end); ++k) {
      if (k->second.versions.empty() && !k->second.intent.has_value()) continue;
      if (limit != 0 && r.entries.size() >= limit) {
        r.resume_key = k->first;
        break;
      }
      MvccGetResult g = Get(k->first, ts, own);
      if (g.conflict.has_value()) {
        r.conflict = g.conflict;
        break;
      }
      if (g.value.has_value()) r.entries.push_back({k->first, *g.value});
    }
    return r;
  }
};

std::string Printable(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    static const char kHex[] = "0123456789abcdef";
    out += "\\x";
    out += kHex[c >> 4];
    out += kHex[c & 15];
  }
  return out;
}

void ExpectSameGet(const MvccGetResult& got, const MvccGetResult& want,
                   const std::string& where) {
  EXPECT_EQ(got.value, want.value) << where;
  ASSERT_EQ(got.conflict.has_value(), want.conflict.has_value()) << where;
  if (want.conflict.has_value()) {
    EXPECT_EQ(got.conflict->txn_id, want.conflict->txn_id) << where;
    EXPECT_EQ(got.conflict->ts, want.conflict->ts) << where;
  }
}

void ExpectSameScan(const MvccScanResult& got, const MvccScanResult& want,
                    const std::string& where) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
  for (size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].key, want.entries[i].key) << where << " row " << i;
    EXPECT_EQ(got.entries[i].value, want.entries[i].value) << where << " row " << i;
  }
  EXPECT_EQ(got.resume_key, want.resume_key) << where;
  ASSERT_EQ(got.conflict.has_value(), want.conflict.has_value()) << where;
  if (want.conflict.has_value()) {
    EXPECT_EQ(got.conflict->txn_id, want.conflict->txn_id) << where;
    EXPECT_EQ(got.conflict->ts, want.conflict->ts) << where;
  }
}

class MvccDifferentialTest : public MvccTest {
 protected:
  void SetUp() override {
    // Bloom filters over logical keys, as on every KV node.
    storage::EngineOptions options;
    options.prefix_extractor = MvccPrefixExtractor;
    engine_ = std::move(storage::Engine::Open(options)).value();
  }

  void WriteVersion(const std::string& key, Timestamp ts,
                    const std::optional<std::string>& value) {
    if (value.has_value()) {
      PutValue(key, ts, *value);
    } else {
      PutTombstone(key, ts);
    }
    model_.keys[key].versions[ts] = value;
  }

  void WriteIntent(const std::string& key, TxnId txn, Timestamp ts, bool tombstone,
                   const std::string& value) {
    storage::WriteBatch batch;
    MvccPutIntent(&batch, key, txn, ts, tombstone, value);
    ASSERT_TRUE(engine_->Write(batch).ok());
    model_.keys[key].intent = MvccModel::Intent{txn, ts, tombstone, value};
  }

  // Every key the model holds, plus absent keys that sort between them.
  void CheckGets(const std::vector<Timestamp>& read_ts,
                 const std::vector<std::string>& extra_keys) {
    std::vector<std::string> probe = extra_keys;
    for (const auto& [key, unused] : model_.keys) probe.push_back(key);
    for (const auto& key : probe) {
      for (Timestamp ts : read_ts) {
        for (TxnId own : {TxnId{0}, TxnId{1}, TxnId{2}}) {
          auto got = MvccGet(engine_.get(), key, ts, own);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ExpectSameGet(*got, model_.Get(key, ts, own),
                        "get " + Printable(key) + " @" + ts.ToString() +
                            " own=" + std::to_string(own));
        }
      }
    }
  }

  // Scans [start, end) at ts in pages of `limit`, following resume keys.
  void CheckScan(const std::string& start, const std::string& end, Timestamp ts,
                 uint64_t limit, TxnId own) {
    std::string cursor = start;
    for (int page = 0; page < 1000; ++page) {
      const std::string where = "scan [" + Printable(cursor) + ", " + Printable(end) +
                                ") @" + ts.ToString() + " limit=" +
                                std::to_string(limit) + " own=" + std::to_string(own);
      auto got = MvccScan(engine_.get(), cursor, end, ts, limit, own);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const MvccScanResult want = model_.Scan(cursor, end, ts, limit, own);
      ExpectSameScan(*got, want, where);
      if (want.resume_key.empty() || want.conflict.has_value()) return;
      cursor = want.resume_key;
    }
    FAIL() << "scan did not finish";
  }

  MvccModel model_;
};

TEST_F(MvccDifferentialTest, RandomizedReadersMatchModel) {
  Random rng(20261017);
  // Keys over an alphabet with the escape-relevant bytes, so escaped forms
  // of different keys share long prefixes ("\x00" vs "\x00\x01", ...).
  const char kAlphabet[] = {'\x00', '\x01', 'a', '\xFF'};
  auto random_key = [&] {
    std::string k(1 + rng.Uniform(3), '\0');
    for (char& c : k) c = kAlphabet[rng.Uniform(4)];
    return k;
  };
  auto random_ts = [&] {
    return Timestamp{static_cast<Nanos>(1 + rng.Uniform(1000)),
                     static_cast<uint32_t>(rng.Uniform(3))};
  };
  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) keys.push_back(random_key());

  for (int round = 0; round < 6; ++round) {
    for (int op = 0; op < 400; ++op) {
      const std::string& key = keys[rng.Uniform(keys.size())];
      const uint64_t kind = rng.Uniform(100);
      if (kind < 60) {
        WriteVersion(key, random_ts(), "v" + std::to_string(rng.Next() % 1000));
      } else if (kind < 72) {
        WriteVersion(key, random_ts(), std::nullopt);
      } else if (kind < 88) {
        WriteIntent(key, 1 + rng.Uniform(3), random_ts(), rng.Bernoulli(0.2),
                    std::string("i\x00", 2) + std::to_string(op));
      } else {
        // Resolve whatever intent is there: commit or abort.
        auto& mk = model_.keys[key];
        if (!mk.intent.has_value()) continue;
        const bool commit = rng.Bernoulli(0.5);
        const Timestamp commit_ts = mk.intent->ts.Next();
        ASSERT_TRUE(
            MvccResolveIntent(engine_.get(), key, mk.intent->txn, commit, commit_ts).ok());
        if (commit) {
          mk.versions[commit_ts] = mk.intent->tombstone
                                       ? std::nullopt
                                       : std::optional<std::string>(mk.intent->value);
        }
        mk.intent.reset();
      }
    }
    // Alternate between reading from the memtable and across flushed tables.
    if (round % 2 == 1) {
      ASSERT_TRUE(engine_->Flush().ok());
    }

    std::vector<Timestamp> read_ts = {Timestamp{0, 1}, Timestamp{1001, 0}};
    for (int i = 0; i < 4; ++i) read_ts.push_back(random_ts());
    CheckGets(read_ts, {"", std::string("\x00\x00\x00\x00", 4), "b", random_key()});
    for (int i = 0; i < 12; ++i) {
      std::string start = random_key(), end = random_key();
      if (end < start) std::swap(start, end);
      if (i % 4 == 0) end.clear();  // unbounded
      if (i % 4 == 1) start.clear();
      const Timestamp ts = read_ts[rng.Uniform(read_ts.size())];
      CheckScan(start, end, ts, rng.Uniform(5), rng.Uniform(3));
    }
  }
}

TEST_F(MvccDifferentialTest, HotKeysWithLongVersionChains) {
  // Two hot keys (one with an embedded 0x00, one carrying an intent) between
  // cold neighbours, so scans must leave each long chain for the next key.
  const std::string hot = "hot", hot0("hot\x00", 4), hot_intent("hot\x00\x00", 5);
  WriteVersion("a", {5, 0}, "cold-a");
  WriteVersion("z", {5, 0}, "cold-z");
  for (int i = 0; i < 1200; ++i) {
    const Timestamp ts{100 + 10 * i, 0};
    WriteVersion(hot, ts, i % 97 == 3 ? std::nullopt
                                      : std::optional<std::string>("h" + std::to_string(i)));
    if (i < 1000) WriteVersion(hot0, ts.Next(), "z" + std::to_string(i));
    if (i < 1100) WriteVersion(hot_intent, ts, "k" + std::to_string(i));
    if (i == 600) {
      ASSERT_TRUE(engine_->Flush().ok());  // chains span tables
    }
  }
  WriteIntent(hot_intent, /*txn=*/1, {5000, 0}, false, "provisional");

  const Timestamp newest{100 + 10 * 1199, 0};
  const Timestamp oldest{100, 0};
  const std::vector<Timestamp> read_ts = {
      Timestamp::Max().Prev(), newest, newest.Prev(), {6095, 0}, {6100, 0},
      {4999, 7},  {5000, 0},  oldest.Next(), oldest, oldest.Prev(), {1, 0}};
  CheckGets(read_ts, {"hot\x01", std::string("hot\x00\x00\x00", 6)});
  for (Timestamp ts : read_ts) {
    for (uint64_t limit : {0, 1, 2}) {
      for (TxnId own : {TxnId{0}, TxnId{1}}) {
        CheckScan("", "", ts, limit, own);
        CheckScan(hot, "z", ts, limit, own);
      }
    }
  }
}

TEST_F(MvccTest, MalformedVisitedKeysAreCorruption) {
  const std::string escaped_k = EncodeMvccPrefix("k");
  auto expect_corrupt = [&](const std::string& bad_key, bool get_visits) {
    SCOPED_TRACE(Printable(bad_key));
    engine_ = std::move(storage::Engine::Open({})).value();
    PutValue("a", {10, 0}, "a");
    PutValue("k", {30, 0}, "k30");
    PutValue("k", {20, 0}, "k20");
    PutValue("z", {10, 0}, "z");
    ASSERT_TRUE(engine_->Put(bad_key, std::string("\x00v", 2)).ok());
    auto scan = MvccScan(engine_.get(), "a", "", {40, 0}, 0);
    EXPECT_EQ(scan.status().code(), Code::kCorruption) << scan.status().ToString();
    if (get_visits) {
      auto get = MvccGet(engine_.get(), "k", {40, 0});
      EXPECT_EQ(get.status().code(), Code::kCorruption) << get.status().ToString();
    }
  };
  // Between "k"'s intent slot and its newest version: the point read visits it.
  const std::string after_intent = escaped_k + std::string(7, '\0') + "\x01";
  expect_corrupt(after_intent, /*get_visits=*/true);                 // 8-byte suffix
  expect_corrupt(after_intent + std::string(5, '\x01'), true);       // 13-byte suffix
  // A bad escape (0x00 then 0x02) right after the terminator.
  expect_corrupt(escaped_k + std::string("\x00\x02", 2) + std::string(12, '\x01'), true);
  // A bad escape (0x00 then 0x02) in a key between "a" and "k".
  expect_corrupt(std::string("b\x00\x02x\x00\x01", 6) + std::string(12, '\x01'), false);
  // A 0x00 escaped as {0x00, 0xFF} whose terminator is missing.
  expect_corrupt(std::string("c\x00\xFF", 3) + std::string(12, '\x02'), false);
  // Just below "k"'s version at ts 30, i.e. the next slot a scan steps to
  // after reading it: an 11-byte suffix.
  const std::string k25 = EncodeMvccKey("k", {25, 0});
  expect_corrupt(k25.substr(0, k25.size() - 1), false);
}

// ---------------------------------------------------------------------------
// TxnRegistry
// ---------------------------------------------------------------------------

class TxnRegistryTest : public ::testing::Test {
 protected:
  TxnRegistryTest() : clock_(1000), registry_(&clock_) {}
  ManualClock clock_;
  TxnRegistry registry_;
};

TEST_F(TxnRegistryTest, BeginCommit) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  EXPECT_EQ(rec.status, TxnStatus::kPending);
  ASSERT_TRUE(registry_.Commit(rec.id, {110, 0}).ok());
  auto got = *registry_.Get(rec.id);
  EXPECT_EQ(got.status, TxnStatus::kCommitted);
  EXPECT_EQ(got.write_ts.wall, 110);
}

TEST_F(TxnRegistryTest, CommitAfterAbortFails) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Abort(rec.id).ok());
  EXPECT_EQ(registry_.Commit(rec.id, {110, 0}).code(), Code::kTransactionAborted);
}

TEST_F(TxnRegistryTest, PushLosesAgainstHealthyEqualPriority) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_FALSE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kPending);
}

TEST_F(TxnRegistryTest, HigherPriorityPusherAborts) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr = registry_.Push(rec.id, 10, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, TimestampPushMovesWriteTs) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  PushResult pr =
      registry_.Push(rec.id, 10, TxnRegistry::PushType::kTimestamp, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kPending);
  auto got = *registry_.Get(rec.id);
  EXPECT_GT(got.write_ts, (Timestamp{200, 0}));
  EXPECT_EQ(got.status, TxnStatus::kPending);
}

TEST_F(TxnRegistryTest, ExpiredTxnAbortable) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, HeartbeatPreventsExpiration) {
  TxnRecord rec = registry_.Begin({100, 0}, 0);
  for (int i = 0; i < 5; ++i) {
    clock_.Advance(TxnRegistry::kExpiration / 2);
    ASSERT_TRUE(registry_.Heartbeat(rec.id).ok());
  }
  PushResult pr = registry_.Push(rec.id, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_FALSE(pr.pushed);
}

TEST_F(TxnRegistryTest, PushUnknownTxnTreatedAborted) {
  PushResult pr = registry_.Push(9999, 0, TxnRegistry::PushType::kAbort, {200, 0});
  EXPECT_TRUE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryTest, GarbageCollectRemovesOldFinalized) {
  TxnRecord a = registry_.Begin({100, 0}, 0);
  TxnRecord b = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Commit(a.id, {110, 0}).ok());
  clock_.Advance(TxnRegistry::kExpiration * 2);
  const size_t removed = registry_.GarbageCollect();
  EXPECT_EQ(removed, 1u);
  EXPECT_TRUE(registry_.Get(a.id).status().IsNotFound());
  EXPECT_TRUE(registry_.Get(b.id).ok());  // pending records are kept
}

// ---------------------------------------------------------------------------
// Batch encode/decode
// ---------------------------------------------------------------------------

TEST(BatchCodecTest, RequestRoundTrip) {
  BatchRequest req;
  req.tenant_id = 7;
  req.ts = {123, 4};
  req.txn_id = 99;
  req.txn_priority = -3;
  req.AddGet("key1");
  req.AddPut("key2", "value2");
  req.AddDelete("key3");
  req.AddScan("a", "z", 100);

  auto decoded = *BatchRequest::Decode(req.Encode());
  EXPECT_EQ(decoded.tenant_id, 7u);
  EXPECT_EQ(decoded.ts, req.ts);
  EXPECT_EQ(decoded.txn_id, 99u);
  EXPECT_EQ(decoded.txn_priority, -3);
  ASSERT_EQ(decoded.requests.size(), 4u);
  EXPECT_EQ(decoded.requests[0].type, RequestType::kGet);
  EXPECT_EQ(decoded.requests[1].value, "value2");
  EXPECT_EQ(decoded.requests[3].limit, 100u);
  EXPECT_EQ(decoded.PayloadBytes(), req.PayloadBytes());
}

TEST(BatchCodecTest, ResponseRoundTrip) {
  BatchResponse resp;
  resp.now = {55, 1};
  ResponseUnion r1;
  r1.found = true;
  r1.value = "hello";
  ResponseUnion r2;
  r2.rows.push_back({"k1", "v1"});
  r2.rows.push_back({"k2", "v2"});
  r2.resume_key = "k3";
  resp.responses = {r1, r2};

  auto decoded = *BatchResponse::Decode(resp.Encode());
  ASSERT_EQ(decoded.responses.size(), 2u);
  EXPECT_TRUE(decoded.responses[0].found);
  EXPECT_EQ(decoded.responses[0].value, "hello");
  ASSERT_EQ(decoded.responses[1].rows.size(), 2u);
  EXPECT_EQ(decoded.responses[1].resume_key, "k3");
  EXPECT_EQ(decoded.PayloadBytes(), resp.PayloadBytes());
}

TEST(BatchCodecTest, DecodeGarbageFails) {
  EXPECT_FALSE(BatchRequest::Decode("short").ok());
  EXPECT_FALSE(BatchResponse::Decode("x").ok());
}

// ---------------------------------------------------------------------------
// Tenant key helpers
// ---------------------------------------------------------------------------

TEST(TenantKeysTest, PrefixesAreDisjointAndOrdered) {
  const std::string p1 = TenantPrefix(1), p2 = TenantPrefix(2);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(TenantPrefixEnd(1), p2);  // adjacent ids are adjacent spans
  EXPECT_TRUE(KeyInTenantKeyspace(AddTenantPrefix(1, "table/1"), 1));
  EXPECT_FALSE(KeyInTenantKeyspace(AddTenantPrefix(1, "table/1"), 2));
}

TEST(TenantKeysTest, AddStripRoundTrip) {
  const std::string prefixed = AddTenantPrefix(42, "some/key");
  EXPECT_EQ(*DecodeTenantFromKey(prefixed), 42u);
  EXPECT_EQ(*StripTenantPrefix(42, prefixed), "some/key");
  EXPECT_TRUE(StripTenantPrefix(43, prefixed).status().IsUnauthorized());
}

// ---------------------------------------------------------------------------
// KVCluster end-to-end
// ---------------------------------------------------------------------------

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() {
    KVClusterOptions opts;
    opts.num_nodes = 3;
    opts.replication_factor = 3;
    cluster_ = std::make_unique<KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(11));
  }

  BatchRequest Req(TenantId tenant) {
    BatchRequest req;
    req.tenant_id = tenant;
    req.ts = cluster_->Now();
    return req;
  }

  std::string Key(TenantId tenant, const std::string& k) {
    return AddTenantPrefix(tenant, k);
  }

  std::unique_ptr<KVCluster> cluster_;
};

TEST_F(ClusterTest, PutThenGet) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "row1"), "hello");
  ASSERT_TRUE(cluster_->Send(put).ok());

  BatchRequest get = Req(10);
  get.AddGet(Key(10, "row1"));
  auto resp = *cluster_->Send(get);
  ASSERT_TRUE(resp.responses[0].found);
  EXPECT_EQ(resp.responses[0].value, "hello");
}

TEST_F(ClusterTest, TenantCannotTouchForeignKeyspace) {
  BatchRequest put = Req(10);
  put.AddPut(Key(11, "row1"), "stolen");
  EXPECT_TRUE(cluster_->Send(put).status().IsUnauthorized());

  BatchRequest get = Req(10);
  get.AddGet(Key(11, "row1"));
  EXPECT_TRUE(cluster_->Send(get).status().IsUnauthorized());

  BatchRequest scan = Req(10);
  scan.AddScan(TenantPrefix(10), TenantPrefixEnd(11), 0);
  EXPECT_TRUE(cluster_->Send(scan).status().IsUnauthorized());
}

TEST_F(ClusterTest, SystemTenantSeesEverything) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "row1"), "data");
  ASSERT_TRUE(cluster_->Send(put).ok());

  BatchRequest get = Req(kSystemTenantId);
  get.AddGet(Key(10, "row1"));
  auto resp = *cluster_->Send(get);
  EXPECT_TRUE(resp.responses[0].found);
}

TEST_F(ClusterTest, TenantsAreIsolatedLogically) {
  BatchRequest p10 = Req(10);
  p10.AddPut(Key(10, "same"), "ten");
  ASSERT_TRUE(cluster_->Send(p10).ok());
  BatchRequest p11 = Req(11);
  p11.AddPut(Key(11, "same"), "eleven");
  ASSERT_TRUE(cluster_->Send(p11).ok());

  BatchRequest g10 = Req(10);
  g10.AddGet(Key(10, "same"));
  EXPECT_EQ((*cluster_->Send(g10)).responses[0].value, "ten");
  BatchRequest g11 = Req(11);
  g11.AddGet(Key(11, "same"));
  EXPECT_EQ((*cluster_->Send(g11)).responses[0].value, "eleven");
}

TEST_F(ClusterTest, RangesNeverSpanTenants) {
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.tenant_id == 0) continue;
    EXPECT_GE(Slice(desc.start_key), Slice(TenantPrefix(desc.tenant_id)));
    EXPECT_LE(Slice(desc.end_key), Slice(TenantPrefixEnd(desc.tenant_id)));
  }
  // Tenant creation produced at least one dedicated range per tenant.
  int tenant10 = 0, tenant11 = 0;
  for (const auto& desc : cluster_->Ranges()) {
    if (desc.tenant_id == 10) ++tenant10;
    if (desc.tenant_id == 11) ++tenant11;
  }
  EXPECT_GE(tenant10, 1);
  EXPECT_GE(tenant11, 1);
}

TEST_F(ClusterTest, ScanWithinTenant) {
  for (int i = 0; i < 20; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v" + std::to_string(i));
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row05"), Key(10, "row15"), 0);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 10u);
  EXPECT_EQ(resp.responses[0].rows[0].value, "v5");
}

TEST_F(ClusterTest, ScanAcrossRangeSplits) {
  for (int i = 0; i < 30; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v");
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row10")).ok());
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row20")).ok());
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row"), Key(10, "row99"), 0);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 30u);
}

TEST_F(ClusterTest, ScanLimitAcrossRanges) {
  for (int i = 0; i < 30; ++i) {
    BatchRequest put = Req(10);
    char name[16];
    std::snprintf(name, sizeof(name), "row%02d", i);
    put.AddPut(Key(10, name), "v");
    ASSERT_TRUE(cluster_->Send(put).ok());
  }
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "row10")).ok());
  BatchRequest scan = Req(10);
  scan.AddScan(Key(10, "row"), Key(10, "row99"), 15);
  auto resp = *cluster_->Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 15u);
  EXPECT_FALSE(resp.responses[0].resume_key.empty());
}

TEST_F(ClusterTest, ReplicationReachesAllNodes) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "replicated"), "value");
  ASSERT_TRUE(cluster_->Send(put).ok());
  // With RF=3 on 3 nodes, every engine holds the data.
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    auto res = *MvccGet(cluster_->node(static_cast<NodeId>(n))->engine(),
                        Key(10, "replicated"), Timestamp::Max().Prev());
    EXPECT_TRUE(res.value.has_value()) << "node " << n;
  }
}

TEST_F(ClusterTest, LosesQuorumWhenMajorityDown) {
  cluster_->SetNodeLive(1, false);
  cluster_->SetNodeLive(2, false);
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "k"), "v");
  EXPECT_EQ(cluster_->Send(put).status().code(), Code::kUnavailable);
}

TEST_F(ClusterTest, LeaseShedsToLiveReplica) {
  const auto ranges = cluster_->Ranges();
  cluster_->SetNodeLive(0, false);
  for (const auto& desc : cluster_->Ranges()) {
    EXPECT_NE(desc.leaseholder, 0u) << "range " << desc.range_id;
  }
  // Still serving with one node down (quorum of 2/3).
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "after-failure"), "v");
  EXPECT_TRUE(cluster_->Send(put).ok());
  (void)ranges;
}

TEST_F(ClusterTest, BalanceLeasesSpreadsLoad) {
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(cluster_->SplitRange(Key(10, "split" + std::to_string(i))).ok());
  }
  cluster_->BalanceLeases();
  int with_leases = 0;
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    if (cluster_->CountLeases(static_cast<NodeId>(n)) > 0) ++with_leases;
  }
  EXPECT_EQ(with_leases, 3);
}

TEST_F(ClusterTest, SizeTriggeredSplits) {
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.range_split_bytes = 8 << 10;
  KVCluster small(opts);
  ASSERT_TRUE(small.CreateTenantKeyspace(10).ok());
  Random rnd(3);
  for (int i = 0; i < 200; ++i) {
    BatchRequest put;
    put.tenant_id = 10;
    put.ts = small.Now();
    put.AddPut(AddTenantPrefix(10, "key" + std::to_string(i)), rnd.String(200));
    ASSERT_TRUE(small.Send(put).ok());
  }
  const int splits = *small.MaybeSplitRanges();
  EXPECT_GT(splits, 0);
  // Data remains intact after splits.
  BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = small.Now();
  scan.AddScan(TenantPrefix(10), TenantPrefixEnd(10), 0);
  auto resp = *small.Send(scan);
  EXPECT_EQ(resp.responses[0].rows.size(), 200u);
}

TEST_F(ClusterTest, NodeStatsCountBatches) {
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "a"), "1");
  put.AddPut(Key(10, "b"), "2");
  ASSERT_TRUE(cluster_->Send(put).ok());
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "a"));
  ASSERT_TRUE(cluster_->Send(get).ok());

  uint64_t write_batches = 0, write_requests = 0, read_batches = 0;
  for (size_t n = 0; n < cluster_->num_nodes(); ++n) {
    const auto& s = cluster_->node(static_cast<NodeId>(n))->stats();
    write_batches += s.write_batches;
    write_requests += s.write_requests;
    read_batches += s.read_batches;
  }
  EXPECT_EQ(write_batches, 1u);
  EXPECT_EQ(write_requests, 2u);
  EXPECT_EQ(read_batches, 1u);
}

// ---------------------------------------------------------------------------
// Transactions end-to-end
// ---------------------------------------------------------------------------

class TransactionTest : public ClusterTest {};

TEST_F(TransactionTest, CommitMakesWritesVisible) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "t1"), "v1").ok());
    ASSERT_TRUE(txn.Put(Key(10, "t2"), "v2").ok());
    // Not yet visible to others.
    BatchRequest get = Req(10);
    get.AddGet(Key(10, "t1"));
    auto resp = *cluster_->Send(get);
    EXPECT_FALSE(resp.responses[0].found);
    ASSERT_TRUE(txn.Commit().ok());
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "t1"));
  auto resp = *cluster_->Send(get);
  EXPECT_TRUE(resp.responses[0].found);
}

TEST_F(TransactionTest, RollbackDiscardsWrites) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "gone"), "v").ok());
    ASSERT_TRUE(txn.Rollback().ok());
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "gone"));
  EXPECT_FALSE((*cluster_->Send(get)).responses[0].found);
}

TEST_F(TransactionTest, ReadYourOwnWrites) {
  Transaction txn(cluster_.get(), 10);
  ASSERT_TRUE(txn.Put(Key(10, "k"), "mine").ok());
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "k"), &value).ok());
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "mine");
  ASSERT_TRUE(txn.Rollback().ok());
}

TEST_F(TransactionTest, DestructorRollsBack) {
  {
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key(10, "leak"), "v").ok());
    // No commit: destructor must clean up the intent.
  }
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "leak"));
  EXPECT_FALSE((*cluster_->Send(get)).responses[0].found);
  // And the intent is gone from the engines.
  auto intent = *MvccGetIntent(cluster_->node(0)->engine(), Key(10, "leak"));
  EXPECT_FALSE(intent.has_value());
}

TEST_F(TransactionTest, WriteWriteConflictBlocksSecondWriter) {
  Transaction t1(cluster_.get(), 10);
  ASSERT_TRUE(t1.Put(Key(10, "contended"), "t1").ok());
  // Buffered writes conflict only once flushed as intents.
  ASSERT_TRUE(t1.Flush().ok());
  Transaction t2(cluster_.get(), 10);
  // Equal priority, healthy t1: t2's flushed write must fail with an
  // intent error.
  ASSERT_TRUE(t2.Put(Key(10, "contended"), "t2").ok());
  EXPECT_TRUE(t2.Flush().IsWriteIntentError());
  ASSERT_TRUE(t1.Commit().ok());
  // After t1 finishes, t2 can proceed.
  ASSERT_TRUE(t2.Put(Key(10, "contended"), "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "contended"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "t2");
}

TEST_F(TransactionTest, HighPriorityWriterAbortsLowPriority) {
  Transaction low(cluster_.get(), 10, /*priority=*/0);
  ASSERT_TRUE(low.Put(Key(10, "k"), "low").ok());
  ASSERT_TRUE(low.Flush().ok());
  Transaction high(cluster_.get(), 10, /*priority=*/100);
  ASSERT_TRUE(high.Put(Key(10, "k"), "high").ok());
  ASSERT_TRUE(high.Flush().ok());
  ASSERT_TRUE(high.Commit().ok());
  EXPECT_EQ(low.Commit().code(), Code::kTransactionAborted);
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "high");
}

TEST_F(TransactionTest, ReaderPushesWriterTimestamp) {
  Transaction writer(cluster_.get(), 10);
  ASSERT_TRUE(writer.Put(Key(10, "k"), "pending").ok());
  // A non-transactional read at a later timestamp pushes the writer's
  // timestamp instead of blocking, and sees the key as absent.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  auto resp = *cluster_->Send(get);
  EXPECT_FALSE(resp.responses[0].found);
  // The writer can still commit (at a pushed timestamp).
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_GT(writer.commit_ts(), get.ts);
}

TEST_F(TransactionTest, WriteBelowReadTimestampGetsBumped) {
  // Someone reads key k at ts T.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  // A later non-txn write at a timestamp <= T must commit above T.
  BatchRequest put;
  put.tenant_id = 10;
  put.ts = get.ts.Prev();
  put.AddPut(Key(10, "k"), "v");
  auto resp = *cluster_->Send(put);
  EXPECT_GT(resp.bumped_write_ts, get.ts);
}

TEST_F(TransactionTest, SplitKeepsReadsServedByTheParent) {
  // A read at T is served by the parent range; the split puts the key in
  // the new right half, whose timestamp cache must still hold the read.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "k"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(cluster_->SplitRange(Key(10, "k")).ok());
  BatchRequest put;
  put.tenant_id = 10;
  put.ts = {get.ts.wall - kMicro, get.ts.logical};
  put.AddPut(Key(10, "k"), "v");
  auto resp = cluster_->Send(put);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_GT(resp->bumped_write_ts, get.ts);
}

TEST_F(TransactionTest, RefreshAllowsCommitWhenReadSetUnchanged) {
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "read-key"), &value).ok());
  // Force a push: another client reads txn's write target above read_ts.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "write-key"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(txn.Put(Key(10, "write-key"), "v").ok());
  // Nothing in the read set changed: refresh passes and the commit lands
  // above the timestamp the txn started reading at.
  const Timestamp initial_read_ts = txn.read_ts();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_GT(txn.commit_ts(), initial_read_ts);
}

TEST_F(TransactionTest, RefreshFailsWhenReadSetChanged) {
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key(10, "watched"), &value).ok());
  // Concurrent writer commits to the watched key above txn.read_ts.
  BatchRequest put = Req(10);
  put.AddPut(Key(10, "watched"), "changed");
  ASSERT_TRUE(cluster_->Send(put).ok());
  // Force txn's write timestamp above read_ts via a read of its target.
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "target"));
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(txn.Put(Key(10, "target"), "v").ok());
  EXPECT_EQ(txn.Commit().code(), Code::kTransactionRetry);
}

TEST_F(TransactionTest, SerializabilityUnderConcurrentCounters) {
  // Two txns increment a counter; with W-W conflict handling one must
  // observe the other or fail; the final value must be exactly 2.
  BatchRequest init = Req(10);
  init.AddPut(Key(10, "counter"), "0");
  ASSERT_TRUE(cluster_->Send(init).ok());

  int committed = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    Transaction txn(cluster_.get(), 10);
    std::optional<std::string> value;
    ASSERT_TRUE(txn.Get(Key(10, "counter"), &value).ok());
    const int cur = std::stoi(value.value_or("0"));
    ASSERT_TRUE(txn.Put(Key(10, "counter"), std::to_string(cur + 1)).ok());
    if (txn.Commit().ok()) ++committed;
  }
  ASSERT_EQ(committed, 2);
  BatchRequest get = Req(10);
  get.AddGet(Key(10, "counter"));
  EXPECT_EQ((*cluster_->Send(get)).responses[0].value, "2");
}

}  // namespace
}  // namespace veloce::kv
