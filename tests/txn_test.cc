// Transaction hot-path suite: the batched timestamp oracle, parallel-commit
// staging/recovery, read-span coalescing, per-path commit telemetry, and a
// seeded differential check that the classic, buffered-1PC, and fully
// pipelined/parallel commit paths produce identical committed state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/mvcc.h"
#include "kv/timestamp.h"
#include "kv/timestamp_oracle.h"
#include "kv/transaction.h"
#include "kv/txn.h"
#include "obs/metrics.h"
#include "storage/background.h"

namespace veloce::kv {
namespace {

// ---------------------------------------------------------------------------
// HLC batch reservation
// ---------------------------------------------------------------------------

TEST(HlcBatchTest, GenerateTimestampsReservesContiguousWindow) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  const Timestamp first = hlc.GenerateTimestamps(10);
  // The whole batch shares one wall value; the i-th reserved timestamp is
  // {first.wall, first.logical + i}.
  const Timestamp last = {first.wall, first.logical + 9};
  EXPECT_EQ(hlc.Latest(), last);
  // Nothing else may be handed out inside the reserved window.
  const Timestamp after = hlc.Now();
  EXPECT_GT(after, last);
  // A second batch sits strictly above the first.
  const Timestamp second = hlc.GenerateTimestamps(10);
  EXPECT_GT(second, after);
}

TEST(HlcBatchTest, BatchNeverStraddlesWallValues) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  // Push the logical component near the top of its range.
  hlc.Update({2000, UINT32_MAX - 3});
  const Timestamp first = hlc.GenerateTimestamps(16);
  // 16 timestamps no longer fit at wall=2000; the batch moves to a fresh
  // wall value so holders can enumerate it as {wall, logical + i}.
  EXPECT_EQ(first.logical, 0u);
  EXPECT_GT(first.wall, 2000);
}

// ---------------------------------------------------------------------------
// Batched timestamp oracle
// ---------------------------------------------------------------------------

TEST(OracleTest, BatchAmortizesClockTraffic) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  TimestampOracleOptions opts;
  opts.batch_size = 8;
  opts.refill_threshold = 0;  // no prefetch: count exact refills
  TimestampOracle oracle(&hlc, opts);
  Timestamp prev = oracle.Next();
  for (int i = 1; i < 8; ++i) {
    const Timestamp t = oracle.Next();
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_EQ(oracle.sync_refills(), 1u);  // 8 Next() calls, one HLC trip
  oracle.Next();
  EXPECT_EQ(oracle.sync_refills(), 2u);
}

TEST(OracleTest, ObserveInsideWindowFastForwards) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  TimestampOracleOptions opts;
  opts.batch_size = 100;
  opts.refill_threshold = 0;
  TimestampOracle oracle(&hlc, opts);
  const Timestamp first = oracle.Next();
  const Timestamp committed = {first.wall, first.logical + 50};
  oracle.Observe(committed);
  // Session guarantee: the next timestamp exceeds the observed commit, and
  // the fast-forward did not force a new HLC batch.
  EXPECT_GT(oracle.Next(), committed);
  EXPECT_EQ(oracle.sync_refills(), 1u);
}

TEST(OracleTest, ObserveBeyondWindowInvalidates) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  TimestampOracleOptions opts;
  opts.batch_size = 100;
  opts.refill_threshold = 0;
  TimestampOracle oracle(&hlc, opts);
  oracle.Next();
  const Timestamp committed = {999999, 5};  // far past the cached window
  oracle.Observe(committed);
  EXPECT_GT(oracle.Next(), committed);
  EXPECT_EQ(oracle.sync_refills(), 2u);  // window was discarded and refilled
}

TEST(OracleTest, AsyncRefillRunsOnExecutor) {
  ManualClock physical(1000);
  HybridLogicalClock hlc(&physical);
  storage::ThreadPoolExecutor pool(2);
  TimestampOracleOptions opts;
  opts.batch_size = 16;
  opts.refill_threshold = 8;
  opts.executor = &pool;
  TimestampOracle oracle(&hlc, opts);
  // Draw the cache below the refill threshold, then let the prefetch land.
  for (int i = 0; i < 12; ++i) oracle.Next();
  pool.Drain();
  EXPECT_GE(oracle.async_refills(), 1u);
  // The refilled window keeps handing out strictly increasing timestamps.
  Timestamp prev = oracle.Next();
  for (int i = 0; i < 32; ++i) {
    const Timestamp t = oracle.Next();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// TSan target (label `txn`): foreground Next() callers race with executor
// refills and Observe(); every handed-out timestamp must stay globally
// unique and per-thread strictly monotonic.
TEST(OracleTest, MonotonicUnderConcurrentRefills) {
  ManualClock physical(1000);  // frozen wall clock: logical-only pressure
  HybridLogicalClock hlc(&physical);
  storage::ThreadPoolExecutor pool(4);
  TimestampOracleOptions opts;
  opts.batch_size = 8;  // small batches: constant refill churn
  opts.refill_threshold = 4;
  opts.executor = &pool;
  TimestampOracle oracle(&hlc, opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<Timestamp>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&oracle, &seen, t] {
      seen[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        const Timestamp ts = oracle.Next();
        seen[t].push_back(ts);
        if ((i & 63) == 0) oracle.Observe(ts);  // commit-ack interleaving
      }
    });
  }
  for (auto& th : threads) th.join();
  pool.Drain();

  std::set<std::pair<Nanos, uint32_t>> unique;
  for (const auto& per_thread : seen) {
    for (size_t i = 0; i < per_thread.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(per_thread[i - 1], per_thread[i]);
      }
      unique.emplace(per_thread[i].wall, per_thread[i].logical);
    }
  }
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// TxnRegistry staging transitions
// ---------------------------------------------------------------------------

class TxnRegistryStagingTest : public ::testing::Test {
 protected:
  TxnRegistryStagingTest() : clock_(1000), registry_(&clock_) {}

  ManualClock clock_;
  TxnRegistry registry_;
};

TEST_F(TxnRegistryStagingTest, StageDeclaresCommitCondition) {
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(rec.id, {100, 5}, {"a", "b"}).ok());
  const TxnRecord staged = *registry_.Get(rec.id);
  EXPECT_EQ(staged.status, TxnStatus::kStaging);
  EXPECT_EQ(staged.staged_ts, (Timestamp{100, 5}));
  EXPECT_GE(staged.write_ts, staged.staged_ts);
  ASSERT_EQ(staged.in_flight_writes.size(), 2u);
}

TEST_F(TxnRegistryStagingTest, PushLeavesStagingForRecovery) {
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(rec.id, {100, 5}, {"a"}).ok());
  // Even a max-priority abort push cannot touch a staged record — it may
  // already be implicitly committed. The pusher must run recovery.
  const PushResult pr = registry_.Push(rec.id, INT32_MAX,
                                       TxnRegistry::PushType::kAbort,
                                       Timestamp{200, 0});
  EXPECT_FALSE(pr.pushed);
  EXPECT_EQ(pr.pushee_status, TxnStatus::kStaging);
  EXPECT_EQ(pr.commit_ts, (Timestamp{100, 5}));
  EXPECT_EQ(registry_.Get(rec.id)->status, TxnStatus::kStaging);
}

TEST_F(TxnRegistryStagingTest, ReStagingAfterBumpMovesCommitCondition) {
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(rec.id, {100, 5}, {"a"}).ok());
  // A late pipelined write got bumped above the staged timestamp: the
  // commit condition fails and the coordinator refreshes + re-stages.
  ASSERT_TRUE(registry_.BumpWriteTimestamp(rec.id, {150, 0}).ok());
  ASSERT_TRUE(registry_.Stage(rec.id, {150, 0}, {"a", "b"}).ok());
  const TxnRecord staged = *registry_.Get(rec.id);
  EXPECT_EQ(staged.staged_ts, (Timestamp{150, 0}));
  EXPECT_EQ(staged.in_flight_writes.size(), 2u);
}

TEST_F(TxnRegistryStagingTest, StageFailsAfterPusherAborts) {
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Abort(rec.id).ok());
  const Status s = registry_.Stage(rec.id, {100, 5}, {"a"});
  EXPECT_EQ(s.code(), Code::kTransactionAborted);
}

TEST_F(TxnRegistryStagingTest, CommitFinalizesStagedRecord) {
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(rec.id, {100, 5}, {"a"}).ok());
  ASSERT_TRUE(registry_.Commit(rec.id, {100, 5}).ok());
  const TxnRecord committed = *registry_.Get(rec.id);
  EXPECT_EQ(committed.status, TxnStatus::kCommitted);
  EXPECT_EQ(committed.write_ts, (Timestamp{100, 5}));
  EXPECT_TRUE(committed.in_flight_writes.empty());
  // Commit is idempotent (recovery may have finalized first).
  EXPECT_TRUE(registry_.Commit(rec.id, {100, 5}).ok());
}

TEST_F(TxnRegistryStagingTest, CommitRefusesRecordThatMovedSinceRead) {
  // Commit races a concurrent push or re-stage once the cluster no longer
  // serializes them: committing at a timestamp read before the record
  // moved must be refused, not silently land below the push.
  const TxnRecord pending = registry_.Begin({100, 0}, 0);
  const PushResult pr =
      registry_.Push(pending.id, 0, TxnRegistry::PushType::kTimestamp, {150, 0});
  ASSERT_TRUE(pr.pushed);
  EXPECT_TRUE(registry_.Commit(pending.id, {100, 0}).IsTransactionRetry());
  EXPECT_EQ(registry_.Get(pending.id)->status, TxnStatus::kPending);
  EXPECT_TRUE(registry_.Commit(pending.id, (Timestamp{150, 0}).Next()).ok());

  const TxnRecord staged = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(staged.id, {110, 0}, {"a"}).ok());
  ASSERT_TRUE(registry_.Stage(staged.id, {120, 0}, {"a"}).ok());  // re-staged
  EXPECT_TRUE(registry_.Commit(staged.id, {110, 0}).IsTransactionRetry());
  EXPECT_TRUE(registry_.Commit(staged.id, {120, 0}).ok());
}

TEST_F(TxnRegistryStagingTest, RecoveryAbortRefusesReStagedRecord) {
  // Recovery checked the commit condition of the staging it read; a
  // re-stage since then declared a new one, which the check says nothing
  // about.
  const TxnRecord rec = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Stage(rec.id, {110, 0}, {"a"}).ok());
  ASSERT_TRUE(registry_.Stage(rec.id, {120, 0}, {"a"}).ok());
  EXPECT_TRUE(registry_.Abort(rec.id, Timestamp{110, 0}).IsTransactionRetry());
  EXPECT_EQ(registry_.Get(rec.id)->status, TxnStatus::kStaging);
  EXPECT_TRUE(registry_.Abort(rec.id, Timestamp{120, 0}).ok());
  EXPECT_EQ(registry_.Get(rec.id)->status, TxnStatus::kAborted);
}

TEST_F(TxnRegistryStagingTest, GcCollectsFinalizedButNeverStaging) {
  const TxnRecord committed = registry_.Begin({100, 0}, 0);
  const TxnRecord aborted = registry_.Begin({100, 0}, 0);
  const TxnRecord staged = registry_.Begin({100, 0}, 0);
  const TxnRecord pending = registry_.Begin({100, 0}, 0);
  ASSERT_TRUE(registry_.Commit(committed.id, {100, 1}).ok());
  ASSERT_TRUE(registry_.Abort(aborted.id).ok());
  ASSERT_TRUE(registry_.Stage(staged.id, {100, 2}, {"a"}).ok());
  clock_.Advance(TxnRegistry::kExpiration + 1);
  EXPECT_EQ(registry_.GarbageCollect(), 2u);  // committed + aborted
  EXPECT_EQ(registry_.size(), 2u);
  // The staged record may still be implicitly committed; only recovery may
  // finalize it. The pending record is abandoned but not yet finalized.
  EXPECT_EQ(registry_.Get(staged.id)->status, TxnStatus::kStaging);
  EXPECT_EQ(registry_.Get(pending.id)->status, TxnStatus::kPending);
}

// ---------------------------------------------------------------------------
// Parallel-commit recovery at the cluster
// ---------------------------------------------------------------------------

class TxnRecoveryTest : public ::testing::Test {
 protected:
  TxnRecoveryTest() : clock_(10 * kSecond) {
    KVClusterOptions opts;
    opts.num_nodes = 3;
    opts.replication_factor = 3;
    opts.clock = &clock_;
    cluster_ = std::make_unique<KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
  }

  std::string Key(const std::string& k) { return AddTenantPrefix(10, k); }

  Status WriteIntent(const TxnRecord& rec, const std::string& key,
                     const std::string& value) {
    BatchRequest req;
    req.tenant_id = 10;
    req.ts = rec.read_ts;
    req.txn_id = rec.id;
    req.txn_priority = rec.priority;
    req.AddPut(key, value);
    return cluster_->Send(req).status();
  }

  StatusOr<BatchResponse> Read(const std::string& key) {
    BatchRequest req;
    req.tenant_id = 10;
    req.ts = cluster_->Now();
    req.AddGet(key);
    return cluster_->Send(req);
  }

  double Recoveries() {
    return cluster_->metrics()->Sum("veloce_txn_staging_recoveries_total");
  }

  ManualClock clock_;
  std::unique_ptr<KVCluster> cluster_;
};

TEST_F(TxnRecoveryTest, RecoveryCommitsImplicitlyCommittedTxn) {
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  ASSERT_TRUE(WriteIntent(rec, Key("b"), "vb").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a"), Key("b")}, &staged).ok());

  // Every declared write holds an intent at or below staged_ts, so the txn
  // is implicitly committed: a conflicting reader's push triggers recovery,
  // which finalizes the record and lets the read observe the value.
  auto resp = Read(Key("a"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->responses[0].found);
  EXPECT_EQ(resp->responses[0].value, "va");
  EXPECT_EQ(Recoveries(), 1.0);

  const TxnRecord after = *cluster_->txn_registry()->Get(rec.id);
  EXPECT_EQ(after.status, TxnStatus::kCommitted);
  EXPECT_EQ(after.write_ts, staged);

  // The coordinator's own commit arrives later and is an idempotent no-op
  // landing on the same timestamp recovery chose.
  Timestamp commit_ts;
  ASSERT_TRUE(cluster_->CommitTxn(rec.id, {Key("a"), Key("b")}, &commit_ts).ok());
  EXPECT_EQ(commit_ts, staged);
  auto b = Read(Key("b"));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->responses[0].found);
}

TEST_F(TxnRecoveryTest, RecoveryBacksOffWhileCoordinatorIsLive) {
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  // Declare a write that has not landed yet: the commit condition is not
  // provable, and the record is fresh — the pusher must wait.
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a"), Key("b")}, &staged).ok());

  const Status s = Read(Key("a")).status();
  EXPECT_TRUE(s.IsWriteIntentError()) << s.ToString();
  EXPECT_EQ(Recoveries(), 1.0);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kStaging);
}

TEST_F(TxnRecoveryTest, RecoveryAbortsExpiredStagingAndFencesLateWrites) {
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a"), Key("b")}, &staged).ok());

  // The coordinator dies: the record expires with the commit condition
  // unprovable, so recovery aborts it and the reader proceeds.
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  auto resp = Read(Key("a"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp->responses[0].found);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kAborted);

  // A late pipelined write from the dead coordinator cannot land and
  // retroactively satisfy the stale staging.
  const Status late = WriteIntent(rec, Key("b"), "vb");
  EXPECT_EQ(late.code(), Code::kTransactionAborted) << late.ToString();
}

TEST_F(TxnRecoveryTest, StageRefusesUnvalidatedWriteTimestamp) {
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  // A reader pushed the write timestamp above what the coordinator
  // validated its reads at. Staging anyway would let a concurrent recovery
  // commit the txn with unvalidated reads — StageTxn must refuse, hand
  // back the refresh target, and leave the record pending.
  const Timestamp bumped{20 * kSecond, 0};
  ASSERT_TRUE(cluster_->txn_registry()->BumpWriteTimestamp(rec.id, bumped).ok());
  Timestamp staged;
  const Status s = cluster_->StageTxn(rec.id, {Key("a")}, &staged, rec.read_ts);
  EXPECT_TRUE(s.IsTransactionRetry()) << s.ToString();
  EXPECT_EQ(staged, bumped);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kPending);
  // Validated up to the bump, staging proceeds at it.
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a")}, &staged, bumped).ok());
  EXPECT_EQ(staged, bumped);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kStaging);
}

TEST_F(TxnRecoveryTest, CommitRefusesUnvalidatedWriteTimestamp) {
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  const Timestamp bumped{20 * kSecond, 0};
  ASSERT_TRUE(cluster_->txn_registry()->BumpWriteTimestamp(rec.id, bumped).ok());
  Timestamp target;
  const Status s = cluster_->CommitTxn(rec.id, {Key("a")}, &target, rec.read_ts);
  EXPECT_TRUE(s.IsTransactionRetry()) << s.ToString();
  EXPECT_EQ(target, bumped);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kPending);
}

TEST_F(TxnRecoveryTest, GcSweepAbortsExpiredUnprovableStaging) {
  // Coordinator died right after staging with a declared write missing:
  // the record must not leak forever.
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a"), Key("b")}, &staged).ok());
  // A fresh staging record is left alone by the sweep.
  EXPECT_EQ(cluster_->GarbageCollectTxns(), 0u);
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kStaging);
  // Past expiration the sweep runs recovery: the commit condition is
  // unprovable, so the record is aborted and reaped in the same pass.
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  EXPECT_EQ(cluster_->GarbageCollectTxns(), 1u);
  EXPECT_TRUE(cluster_->txn_registry()->Get(rec.id).status().IsNotFound());
  // The leftover intent resolves as aborted on the next contact (unknown
  // record => aborted), so the write stays invisible.
  auto resp = Read(Key("a"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp->responses[0].found);
}

TEST_F(TxnRecoveryTest, GcSweepCommitsExpiredImplicitlyCommittedStaging) {
  // Coordinator died after every declared write landed: the sweep's
  // recovery pass must finalize the txn as COMMITTED, not abort it.
  const TxnRecord rec = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntent(rec, Key("a"), "va").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(rec.id, {Key("a")}, &staged).ok());
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  EXPECT_EQ(cluster_->GarbageCollectTxns(), 0u);  // finalized now, reaped later
  EXPECT_EQ(cluster_->txn_registry()->Get(rec.id)->status, TxnStatus::kCommitted);
  auto resp = Read(Key("a"));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->responses[0].found);
  EXPECT_EQ(resp->responses[0].value, "va");
  clock_.Advance(TxnRegistry::kExpiration + kSecond);
  EXPECT_EQ(cluster_->GarbageCollectTxns(), 1u);
  EXPECT_TRUE(cluster_->txn_registry()->Get(rec.id).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Races with staging recovery, which runs with no range latch held
// ---------------------------------------------------------------------------

/// Manual clock that, once armed, runs a hook on another thread at the
/// first clock read after a staging recovery began. The recovering thread
/// holds no range latch at that read, so the hook plays a concurrent
/// client slipping into the window the recovery leaves open.
class RecoveryWindowClock final : public Clock {
 public:
  explicit RecoveryWindowClock(Nanos start) : manual_(start) {}

  Nanos Now() const override {
    if (armed_.load(std::memory_order_acquire) &&
        recoveries_->value() > baseline_ && !fired_.exchange(true)) {
      std::thread(hook_).join();
    }
    return manual_.Now();
  }

  void Advance(Nanos delta) { manual_.Advance(delta); }
  void Arm(const obs::Counter* recoveries, std::function<void()> hook) {
    recoveries_ = recoveries;
    baseline_ = recoveries->value();
    hook_ = std::move(hook);
    armed_.store(true, std::memory_order_release);
  }
  bool fired() const { return fired_.load(); }

 private:
  ManualClock manual_;
  const obs::Counter* recoveries_ = nullptr;
  uint64_t baseline_ = 0;
  std::function<void()> hook_;
  std::atomic<bool> armed_{false};
  mutable std::atomic<bool> fired_{false};
};

class TxnRecoveryRaceTest : public ::testing::Test {
 protected:
  TxnRecoveryRaceTest() : clock_(10 * kSecond) {
    KVClusterOptions opts;
    opts.num_nodes = 3;
    opts.replication_factor = 3;
    opts.clock = &clock_;
    // Keep the closed timestamp below every txn here, so a late write is
    // not forwarded by it and can land exactly at the staged timestamp.
    opts.closed_timestamp_interval = kHour;
    cluster_ = std::make_unique<KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
  }

  std::string Key(const std::string& k) { return AddTenantPrefix(10, k); }

  StatusOr<BatchResponse> WriteIntents(const TxnRecord& rec,
                                       const std::vector<std::string>& keys,
                                       const std::string& value) {
    BatchRequest req;
    req.tenant_id = 10;
    req.ts = rec.read_ts;
    req.txn_id = rec.id;
    req.txn_priority = rec.priority;
    for (const auto& k : keys) req.AddPut(Key(k), value);
    return cluster_->Send(req);
  }

  std::optional<IntentMeta> IntentOn(const std::string& k) {
    const NodeId lh = cluster_->LookupRange(Key(k))->leaseholder;
    return *MvccGetIntent(cluster_->node(lh)->engine(), Key(k));
  }

  void ArmRecoveryWindow(std::function<void()> hook) {
    clock_.Arm(cluster_->txn_metrics().recoveries, std::move(hook));
  }

  RecoveryWindowClock clock_;
  std::unique_ptr<KVCluster> cluster_;
};

TEST_F(TxnRecoveryRaceTest, WriteGroupRechecksEveryKeyAfterRecovery) {
  // S died mid-parallel-commit: its intent on b is staged, c never landed.
  const TxnRecord s = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntents(s, {"b"}, "s").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(s.id, {Key("b"), Key("c")}, &staged).ok());
  clock_.Advance(TxnRegistry::kExpiration + kSecond);

  // P writes {a, b} as one pipelined group: a is clear, b sends P into
  // recovery of S with the range latch released. F lays an intent on a in
  // that window. P must see it when it re-takes the latch, not write over
  // it (the intent slot holds one txn, so F's write would be lost).
  const TxnRecord f = cluster_->BeginTxn();
  const TxnRecord p = cluster_->BeginTxn();
  ArmRecoveryWindow([&] { EXPECT_TRUE(WriteIntents(f, {"a"}, "f").ok()); });
  const Status sent = WriteIntents(p, {"a", "b"}, "p").status();
  ASSERT_TRUE(clock_.fired());
  EXPECT_EQ(cluster_->txn_registry()->Get(s.id)->status, TxnStatus::kAborted);

  // Equal priorities: P cannot abort the live F, so it backs off.
  EXPECT_TRUE(sent.IsWriteIntentError()) << sent.ToString();
  EXPECT_EQ(cluster_->txn_registry()->Get(f.id)->status, TxnStatus::kPending);
  const std::optional<IntentMeta> on_a = IntentOn("a");
  ASSERT_TRUE(on_a.has_value());
  EXPECT_EQ(on_a->txn_id, f.id);
  Timestamp committed;
  ASSERT_TRUE(cluster_->CommitTxn(f.id, {Key("a")}, &committed).ok());
  BatchRequest read;
  read.tenant_id = 10;
  read.ts = cluster_->Now();
  read.AddGet(Key("a"));
  auto resp = cluster_->Send(read);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->responses[0].value, "f");
}

TEST_F(TxnRecoveryRaceTest, LateWriteLandingDuringRecoveryCommitsOrIsFenced) {
  // S staged {a, b} but only a landed before its coordinator stalled past
  // expiration. A GC sweep recovers S while S's pipelined write to b,
  // still in flight, lands at the staged timestamp. If that write lands
  // at or below staged_ts the coordinator acks the commit, so recovery
  // must then commit S too; it may only abort S if it fenced b first.
  const TxnRecord s = cluster_->BeginTxn();
  ASSERT_TRUE(WriteIntents(s, {"a"}, "va").ok());
  Timestamp staged;
  ASSERT_TRUE(cluster_->StageTxn(s.id, {Key("a"), Key("b")}, &staged).ok());
  clock_.Advance(TxnRegistry::kExpiration + kSecond);

  StatusOr<BatchResponse> late = Status::Internal("late write never ran");
  ArmRecoveryWindow([&] { late = WriteIntents(s, {"b"}, "vb"); });
  (void)cluster_->GarbageCollectTxns();
  ASSERT_TRUE(clock_.fired());
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  const Timestamp landed_at = late->bumped_write_ts.IsEmpty() ? s.read_ts
                                                              : late->bumped_write_ts;
  const StatusOr<TxnRecord> after = cluster_->txn_registry()->Get(s.id);
  if (landed_at <= staged) {
    // The coordinator acks here: S must be committed, at staged.
    ASSERT_TRUE(after.ok()) << "S was aborted and reaped";
    EXPECT_EQ(after->status, TxnStatus::kCommitted);
    EXPECT_EQ(after->write_ts, staged);
  } else {
    // Fenced: the write moved above staged_ts, so S cannot be committed
    // by it and its coordinator would refresh and re-stage instead.
    EXPECT_TRUE(!after.ok() || after->status == TxnStatus::kAborted);
  }
}

// ---------------------------------------------------------------------------
// Coordinator paths: span coalescing, telemetry, pipelining, differential
// ---------------------------------------------------------------------------

class TxnPathTest : public ::testing::Test {
 protected:
  TxnPathTest() {
    KVClusterOptions opts;
    opts.num_nodes = 3;
    opts.replication_factor = 3;
    cluster_ = std::make_unique<KVCluster>(opts);
    VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(10));
  }

  std::string Key(const std::string& k) { return AddTenantPrefix(10, k); }

  double CommitCount(const std::string& path) {
    return cluster_->metrics()->Value("veloce_txn_commits_total",
                                      {{"path", path}});
  }

  std::unique_ptr<KVCluster> cluster_;
};

TEST_F(TxnPathTest, ReadSpansCoalesce) {
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(Key("a"), &value).ok());
  ASSERT_TRUE(txn.Get(Key("c"), &value).ok());
  EXPECT_EQ(txn.read_span_count(), 2u);
  // A scan covering both point reads absorbs them into one span.
  std::vector<MvccScanEntry> rows;
  ASSERT_TRUE(txn.Scan(Key("a"), Key("d"), 0, &rows).ok());
  EXPECT_EQ(txn.read_span_count(), 1u);
  // A point read inside the merged span adds nothing.
  ASSERT_TRUE(txn.Get(Key("b"), &value).ok());
  EXPECT_EQ(txn.read_span_count(), 1u);
  // A disjoint read opens a second span.
  ASSERT_TRUE(txn.Get(Key("z"), &value).ok());
  EXPECT_EQ(txn.read_span_count(), 2u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(TxnPathTest, CommitPathCountersDistinguishPaths) {
  {
    // Write-only, single range, still buffered at commit: 1PC.
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key("p1"), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(CommitCount("1pc"), 1.0);
  {
    // An explicit flush lays intents, so commit goes through STAGING.
    Transaction txn(cluster_.get(), 10);
    ASSERT_TRUE(txn.Put(Key("p2"), "v").ok());
    ASSERT_TRUE(txn.Flush().ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(CommitCount("parallel"), 1.0);
  {
    Transaction txn(cluster_.get(), 10, 0, nullptr, TxnOptions::Classic());
    ASSERT_TRUE(txn.Put(Key("p3"), "v").ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(CommitCount("classic"), 1.0);
  EXPECT_EQ(CommitCount("1pc"), 1.0);
  EXPECT_EQ(CommitCount("parallel"), 1.0);
}

TEST_F(TxnPathTest, OracleObservesAcknowledgedCommits) {
  Transaction txn(cluster_.get(), 10);
  ASSERT_TRUE(txn.Put(Key("obs"), "v").ok());
  ASSERT_TRUE(txn.Commit().ok());
  // Session guarantee: a transaction started after the commit ack must read
  // above the commit timestamp, or it would miss the committed write.
  const TxnRecord next = cluster_->BeginTxn();
  EXPECT_GT(next.read_ts, txn.commit_ts());
}

TEST_F(TxnPathTest, RacingReadModifyWritesCannotLoseAnUpdate) {
  // T2 begins first (R2 < R1); both read k; T2 writes and commits by 1PC;
  // then T1 writes k and commits. If T1 committed, T2's update would be
  // lost. There is no write-too-old check: what refuses T1 is the
  // timestamp cache. T1's read at R1 pushes T2's write above R1; T2's
  // refresh to that timestamp records T2's read of k there, and that entry
  // pushes T1's write above T2's commit, so T1's refresh finds it. (T1's
  // own read at R1 does not push T1's write.)
  const std::string k = Key("lost-update");
  {
    Transaction init(cluster_.get(), 10);
    ASSERT_TRUE(init.Put(k, "0").ok());
    ASSERT_TRUE(init.Commit().ok());
  }
  Transaction t2(cluster_.get(), 10);
  Transaction t1(cluster_.get(), 10);
  ASSERT_LT(t2.read_ts(), t1.read_ts());
  std::optional<std::string> v1, v2;
  ASSERT_TRUE(t1.Get(k, &v1).ok());
  ASSERT_TRUE(t2.Get(k, &v2).ok());
  ASSERT_EQ(v1, "0");
  ASSERT_EQ(v2, "0");
  const double one_pc_before = CommitCount("1pc");
  ASSERT_TRUE(t2.Put(k, "t2").ok());
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_EQ(CommitCount("1pc"), one_pc_before + 1);
  ASSERT_TRUE(t1.Put(k, "t1").ok());
  const Status s = t1.Commit();
  EXPECT_TRUE(s.IsTransactionRetry() || s.code() == Code::kTransactionAborted)
      << s.ToString();
  Transaction reader(cluster_.get(), 10);
  std::optional<std::string> now;
  ASSERT_TRUE(reader.Get(k, &now).ok());
  EXPECT_EQ(now, "t2");
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(TxnPathTest, ReadModifyWriteCommitsByOnePhaseWithoutRefresh) {
  const std::string k = Key("rmw");
  {
    Transaction init(cluster_.get(), 10);
    ASSERT_TRUE(init.Put(k, "0").ok());
    ASSERT_TRUE(init.Commit().ok());
  }
  const double retries_before = cluster_->metrics()->Sum("veloce_txn_retries_total");
  const double one_pc_before = CommitCount("1pc");
  Transaction txn(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(txn.Get(k, &value).ok());
  ASSERT_EQ(value, "0");
  ASSERT_TRUE(txn.Put(k, "1").ok());
  ASSERT_TRUE(txn.Commit().ok());
  // The txn's own read does not push its write: one Get, one 1PC batch.
  EXPECT_EQ(txn.batches_sent(), 2u);
  EXPECT_EQ(CommitCount("1pc"), one_pc_before + 1);
  EXPECT_EQ(cluster_->metrics()->Sum("veloce_txn_retries_total"), retries_before);
  EXPECT_EQ(txn.commit_ts(), txn.read_ts());
}

TEST_F(TxnPathTest, RefreshedReadFencesLaterWritesBelowIt) {
  // T reads j and is pushed (a non-txn read of k, its write target), so it
  // refreshes j up to X and commits at X: T claims j was unchanged up to X.
  // A write to j below X would undercut that claim; the refresh must leave
  // the same trace a read at X does.
  const std::string j = Key("skew-j");
  const std::string k = Key("skew-k");
  Transaction t(cluster_.get(), 10);
  Transaction v(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(t.Get(j, &value).ok());
  BatchRequest get;
  get.tenant_id = 10;
  get.ts = cluster_->Now();
  get.AddGet(k);
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(t.Put(k, "t").ok());
  ASSERT_TRUE(t.Commit().ok());
  ASSERT_GT(t.commit_ts(), v.read_ts());
  // V's blind write of j starts below X; it must land above it.
  ASSERT_TRUE(v.Put(j, "v").ok());
  ASSERT_TRUE(v.Commit().ok());
  EXPECT_GT(v.commit_ts(), t.commit_ts());
}

TEST_F(TxnPathTest, RefreshOutsideItsTenantIsUnauthorized) {
  // A refresh is checked against the txn's tenant like any request: one
  // over another tenant's span fails and records nothing in that range's
  // timestamp cache, so the other tenant's writes are not pushed by it.
  VELOCE_CHECK_OK(cluster_->CreateTenantKeyspace(11));
  const std::string other = AddTenantPrefix(11, "victim");
  const Timestamp after = cluster_->Now();
  const Timestamp mid = cluster_->Now();
  const Timestamp upto = cluster_->Now();
  const TxnRecord txn = cluster_->BeginTxn();
  auto refresh = cluster_->AnyNewerVersions(10, other, other + '\0', after, upto,
                                            txn.id);
  EXPECT_TRUE(refresh.status().IsUnauthorized()) << refresh.status().ToString();

  BatchRequest put;
  put.tenant_id = 11;
  put.ts = mid;
  put.AddPut(other, "v");
  auto resp = cluster_->Send(put);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->bumped_write_ts.IsEmpty())
      << "write pushed to " << resp->bumped_write_ts.ToString();
}

TEST_F(TxnPathTest, ScanResolvesTheIntentItMeets) {
  // A committed txn whose intent on c was never resolved: a scan over a..z
  // meets it, and must resolve it at c, where it lies, to read past it.
  const TxnRecord rec = cluster_->BeginTxn();
  BatchRequest put;
  put.tenant_id = 10;
  put.ts = rec.read_ts;
  put.txn_id = rec.id;
  put.txn_priority = rec.priority;
  put.AddPut(Key("c"), "vc");
  ASSERT_TRUE(cluster_->Send(put).ok());
  Timestamp commit_ts;
  ASSERT_TRUE(cluster_->CommitTxn(rec.id, {}, &commit_ts).ok());

  BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = cluster_->Now();
  scan.AddScan(Key("a"), Key("z"), 0);
  auto resp = cluster_->Send(scan);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->responses[0].rows.size(), 1u);
  EXPECT_EQ(resp->responses[0].rows[0].key, Key("c"));
  EXPECT_EQ(resp->responses[0].rows[0].value, "vc");
}

TEST_F(TxnPathTest, RefreshFailsOnForeignIntentBelowItsTarget) {
  // T reads j; U (begun later, classic: its intent is laid at once) writes
  // j above T's read. A non-txn read of k pushes T's write of k, so T must
  // refresh j past U's intent. U may still commit beneath T's refreshed
  // read, so the refresh must fail: T and U cannot both commit.
  const std::string j = Key("intent-j");
  const std::string k = Key("intent-k");
  Transaction t(cluster_.get(), 10);
  std::optional<std::string> value;
  ASSERT_TRUE(t.Get(j, &value).ok());
  Transaction u(cluster_.get(), 10, 0, nullptr, TxnOptions::Classic());
  ASSERT_GT(u.read_ts(), t.read_ts());
  ASSERT_TRUE(u.Put(j, "u").ok());
  BatchRequest get;
  get.tenant_id = 10;
  get.ts = cluster_->Now();
  get.AddGet(k);
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(t.Put(k, "t").ok());
  const Status ts = t.Commit();
  const Status us = u.Commit();
  EXPECT_FALSE(ts.ok() && us.ok())
      << "both committed: T at " << t.commit_ts().ToString() << ", U at "
      << u.commit_ts().ToString();
  EXPECT_TRUE(ts.IsTransactionRetry()) << ts.ToString();
  EXPECT_TRUE(us.ok()) << us.ToString();
}

TEST_F(TxnPathTest, PipelinedFlushesProveBeforeParallelCommit) {
  storage::ThreadPoolExecutor pool(2);
  TxnOptions opts;
  opts.executor = &pool;
  opts.max_buffered_writes = 16;  // force several pipelined intent batches
  {
    Transaction txn(cluster_.get(), 10, 0, nullptr, opts);
    std::optional<std::string> value;
    for (int i = 0; i < 60; ++i) {
      const std::string k = "pipe" + std::to_string(100 + i);
      ASSERT_TRUE(txn.Put(Key(k), "v" + std::to_string(i)).ok());
    }
    // Reading an already-flushed key must wait for its in-flight batch.
    ASSERT_TRUE(txn.Get(Key("pipe100"), &value).ok());
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, "v0");
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_GE(txn.batches_sent(), 4u);  // 3 pipelined flushes + final
  }
  pool.Drain();
  BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = cluster_->Now();
  scan.AddScan(Key("pipe"), Key("pipf"), 0);
  auto resp = cluster_->Send(scan);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->responses[0].rows.size(), 60u);
}

TEST_F(TxnPathTest, MultiGetAnswersBufferedKeysWithoutSendingThem) {
  {
    Transaction init(cluster_.get(), 10);
    ASSERT_TRUE(init.Put(Key("mg-b"), "b0").ok());
    ASSERT_TRUE(init.Commit().ok());
  }
  std::vector<std::string> sent_keys;
  auto sender = [&](const BatchRequest& req) {
    for (const auto& r : req.requests) sent_keys.push_back(r.key);
    return cluster_->Send(req);
  };
  Transaction txn(cluster_.get(), 10, 0, sender);
  ASSERT_TRUE(txn.Put(Key("mg-a"), "a1").ok());
  ASSERT_TRUE(txn.Delete(Key("mg-d")).ok());
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(txn.MultiGet({Key("mg-a"), Key("mg-b"), Key("mg-c"), Key("mg-d")},
                           &values)
                  .ok());
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0], "a1");
  EXPECT_EQ(values[1], "b0");
  EXPECT_FALSE(values[2].has_value());
  EXPECT_FALSE(values[3].has_value());
  // One batch carried the two keys the buffer could not answer; only those
  // two are tracked as read.
  EXPECT_EQ(txn.batches_sent(), 1u);
  EXPECT_EQ(sent_keys, (std::vector<std::string>{Key("mg-b"), Key("mg-c")}));
  EXPECT_EQ(txn.read_span_count(), 2u);
  // Every key buffered: nothing is sent.
  ASSERT_TRUE(txn.MultiGet({Key("mg-d"), Key("mg-a")}, &values).ok());
  EXPECT_EQ(values[1], "a1");
  EXPECT_EQ(txn.batches_sent(), 1u);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(TxnPathTest, MultiGetWaitsForFlushedIntents) {
  storage::ThreadPoolExecutor pool(2);
  TxnOptions opts;
  opts.executor = &pool;
  opts.max_buffered_writes = 8;
  // Intent batches land late, so a read that does not wait for the
  // pipeline misses the txn's own writes.
  auto slow_writes = [&](const BatchRequest& req) {
    if (!req.IsReadOnly()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return cluster_->Send(req);
  };
  {
    Transaction txn(cluster_.get(), 10, 0, slow_writes, opts);
    std::vector<std::string> keys;
    for (int i = 0; i < 16; ++i) {
      keys.push_back(Key("mgw" + std::to_string(100 + i)));
      ASSERT_TRUE(txn.Put(keys.back(), "v" + std::to_string(i)).ok());
    }
    keys.push_back(Key("mgw-absent"));
    std::vector<std::optional<std::string>> values;
    ASSERT_TRUE(txn.MultiGet(keys, &values).ok());
    for (int i = 0; i < 16; ++i) EXPECT_EQ(values[i], "v" + std::to_string(i)) << i;
    EXPECT_FALSE(values[16].has_value());
    ASSERT_TRUE(txn.Commit().ok());
  }
  pool.Drain();
}

TEST_F(TxnPathTest, MultiGetRefreshesEveryKeyItRead) {
  // T reads a, b and c in one batch; U commits a write of b above T's read.
  // A non-txn read of k pushes T's write of k, so T must refresh its reads:
  // b's span must be among them, and U's version fails the refresh.
  const std::string k = Key("mgr-k");
  Transaction t(cluster_.get(), 10);
  std::vector<std::optional<std::string>> values;
  ASSERT_TRUE(
      t.MultiGet({Key("mgr-a"), Key("mgr-b"), Key("mgr-c")}, &values).ok());
  EXPECT_EQ(t.read_span_count(), 3u);
  {
    Transaction u(cluster_.get(), 10);
    ASSERT_TRUE(u.Put(Key("mgr-b"), "u").ok());
    ASSERT_TRUE(u.Commit().ok());
    ASSERT_GT(u.commit_ts(), t.read_ts());
  }
  BatchRequest get;
  get.tenant_id = 10;
  get.ts = cluster_->Now();
  get.AddGet(k);
  ASSERT_TRUE(cluster_->Send(get).ok());
  ASSERT_TRUE(t.Put(k, "t").ok());
  const Status s = t.Commit();
  EXPECT_TRUE(s.IsTransactionRetry()) << s.ToString();
}

TEST_F(TxnPathTest, PipelineFailureAfterStagingCommitsWhenWritesApplied) {
  // The second pipelined batch applies server-side but its response is
  // lost. The coordinator cannot know whether the writes landed, and a
  // blind rollback could contradict a concurrent recovery that proves the
  // commit condition. The recovery check must settle it: here every
  // declared write IS present, so the txn is committed and Commit succeeds.
  int batch_no = 0;
  Transaction::Sender sender =
      [this, &batch_no](const BatchRequest& req) -> StatusOr<BatchResponse> {
    auto resp = cluster_->Send(req);
    if (resp.ok() && ++batch_no == 2) {
      return Status::IOError("batch response lost after apply");
    }
    return resp;
  };
  storage::ThreadPoolExecutor pool(2);
  TxnOptions opts;
  opts.executor = &pool;
  opts.max_buffered_writes = 2;  // three pipelined intent batches
  Transaction txn(cluster_.get(), 10, 0, sender, opts);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(txn.Put(Key("pf" + std::to_string(i)), "v" + std::to_string(i)).ok());
  }
  const Status s = txn.Commit();
  EXPECT_TRUE(s.ok()) << s.ToString();
  pool.Drain();
  EXPECT_EQ(cluster_->txn_registry()->Get(txn.id())->status, TxnStatus::kCommitted);
  for (int i = 0; i < 6; ++i) {
    BatchRequest req;
    req.tenant_id = 10;
    req.ts = cluster_->Now();
    req.AddGet(Key("pf" + std::to_string(i)));
    auto resp = cluster_->Send(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->responses[0].found) << "pf" << i;
  }
  EXPECT_EQ(CommitCount("parallel"), 1.0);
}

TEST_F(TxnPathTest, PipelineFailureAfterStagingAbortsWhenWritesMissing) {
  // The second pipelined batch is dropped before reaching the cluster: the
  // recovery check finds its declared writes missing, so the txn aborts
  // atomically — the batches that did land are resolved away.
  int batch_no = 0;
  Transaction::Sender sender =
      [this, &batch_no](const BatchRequest& req) -> StatusOr<BatchResponse> {
    if (++batch_no == 2) return Status::IOError("batch dropped before apply");
    return cluster_->Send(req);
  };
  storage::ThreadPoolExecutor pool(2);
  TxnOptions opts;
  opts.executor = &pool;
  opts.max_buffered_writes = 2;
  Transaction txn(cluster_.get(), 10, 0, sender, opts);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(txn.Put(Key("pd" + std::to_string(i)), "v" + std::to_string(i)).ok());
  }
  const Status s = txn.Commit();
  EXPECT_EQ(s.code(), Code::kIOError) << s.ToString();
  EXPECT_TRUE(txn.finalized());
  pool.Drain();
  EXPECT_EQ(cluster_->txn_registry()->Get(txn.id())->status, TxnStatus::kAborted);
  for (int i = 0; i < 6; ++i) {
    BatchRequest req;
    req.tenant_id = 10;
    req.ts = cluster_->Now();
    req.AddGet(Key("pd" + std::to_string(i)));
    auto resp = cluster_->Send(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_FALSE(resp->responses[0].found) << "pd" << i;
  }
  EXPECT_EQ(CommitCount("parallel"), 0.0);
}

TEST_F(TxnPathTest, OnePhaseReplicationFailureLeavesRecordUncommitted) {
  // Quorum is lost before the 1PC batch replicates: the registry must not
  // claim COMMITTED for a txn that wrote nothing, and the client's
  // rollback must still work.
  cluster_->SetNodeLive(1, false);
  cluster_->SetNodeLive(2, false);
  Transaction txn(cluster_.get(), 10);
  ASSERT_TRUE(txn.Put(Key("q1"), "v").ok());
  const Status s = txn.Commit();
  EXPECT_EQ(s.code(), Code::kUnavailable) << s.ToString();
  EXPECT_EQ(cluster_->txn_registry()->Get(txn.id())->status, TxnStatus::kPending);
  EXPECT_TRUE(txn.Rollback().ok());
  EXPECT_EQ(cluster_->txn_registry()->Get(txn.id())->status, TxnStatus::kAborted);
  cluster_->SetNodeLive(1, true);
  cluster_->SetNodeLive(2, true);
  BatchRequest req;
  req.tenant_id = 10;
  req.ts = cluster_->Now();
  req.AddGet(Key("q1"));
  auto resp = cluster_->Send(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_FALSE(resp->responses[0].found);
  EXPECT_EQ(CommitCount("1pc"), 0.0);
}

// Differential check: the same seeded op script runs against three clusters
// whose transactions use (1) the classic path, (2) buffered writes + 1PC
// only, and (3) the full pipelined/parallel hot path. Every read observation
// and the final committed state must be identical.
std::vector<std::string> RunScript(const TxnOptions& opts) {
  KVClusterOptions copts;
  copts.num_nodes = 3;
  copts.replication_factor = 3;
  KVCluster cluster(copts);
  VELOCE_CHECK_OK(cluster.CreateTenantKeyspace(10));

  std::vector<std::string> log;
  Random rng(0xD1FFE7);
  auto key = [&](uint64_t i) {
    return AddTenantPrefix(10, "k" + std::to_string(10 + i));
  };
  for (int t = 0; t < 25; ++t) {
    Transaction txn(&cluster, 10, 0, nullptr, opts);
    const uint64_t nops = 1 + rng.Uniform(6);
    bool aborted = false;
    for (uint64_t i = 0; i < nops && !aborted; ++i) {
      const uint64_t kind = rng.Uniform(10);
      if (kind < 4) {
        const Status s =
            txn.Put(key(rng.Uniform(24)), "v" + std::to_string(rng.Next() % 1000));
        if (!s.ok()) aborted = true;
      } else if (kind < 5) {
        if (!txn.Delete(key(rng.Uniform(24))).ok()) aborted = true;
      } else if (kind < 8) {
        std::optional<std::string> value;
        const Status s = txn.Get(key(rng.Uniform(24)), &value);
        if (!s.ok()) {
          aborted = true;
        } else {
          log.push_back("get:" + (value.has_value() ? *value : "<miss>"));
        }
      } else {
        uint64_t a = rng.Uniform(24), b = rng.Uniform(24);
        if (a > b) std::swap(a, b);
        std::vector<MvccScanEntry> rows;
        const Status s = txn.Scan(key(a), key(b + 1), 0, &rows);
        if (!s.ok()) {
          aborted = true;
        } else {
          std::string line = "scan:";
          for (const auto& row : rows) line += row.key + "=" + row.value + ",";
          log.push_back(std::move(line));
        }
      }
    }
    if (aborted) {
      (void)txn.Rollback();
      log.push_back("txn:aborted-midway");
    } else if (rng.Uniform(10) < 9) {
      log.push_back("commit:" + std::to_string(static_cast<int>(txn.Commit().code())));
    } else {
      log.push_back("rollback:" +
                    std::to_string(static_cast<int>(txn.Rollback().code())));
    }
  }
  // Final committed state, observed outside any transaction.
  BatchRequest scan;
  scan.tenant_id = 10;
  scan.ts = cluster.Now();
  scan.AddScan(AddTenantPrefix(10, "k"), AddTenantPrefix(10, "l"), 0);
  auto resp = cluster.Send(scan);
  VELOCE_CHECK_OK(resp.status());
  std::string fin = "final:";
  for (const auto& row : resp->responses[0].rows) {
    fin += row.key + "=" + row.value + ",";
  }
  log.push_back(std::move(fin));
  return log;
}

TEST(TxnDifferentialTest, CommitPathsProduceIdenticalState) {
  const std::vector<std::string> classic = RunScript(TxnOptions::Classic());

  TxnOptions buffered_1pc;
  buffered_1pc.pipeline_writes = false;
  buffered_1pc.parallel_commit = false;
  const std::vector<std::string> buffered = RunScript(buffered_1pc);

  storage::ThreadPoolExecutor pool(4);
  TxnOptions fast;
  fast.executor = &pool;
  fast.max_buffered_writes = 4;  // exercise mid-txn pipelined flushes
  const std::vector<std::string> pipelined = RunScript(fast);
  pool.Drain();

  EXPECT_EQ(classic, buffered);
  EXPECT_EQ(classic, pipelined);
}

}  // namespace
}  // namespace veloce::kv
