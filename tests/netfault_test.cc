#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/random.h"
#include "kv/cluster.h"
#include "kv/keys.h"
#include "kv/linearizability.h"
#include "kv/mvcc.h"
#include "obs/metrics.h"
#include "sim/faulty_mesh.h"
#include "storage/fault_env.h"
#include "tests/range_storm_harness.h"

namespace veloce::kv {
namespace {

uint64_t EnvOr(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::strtoull(v, nullptr, 0);
}

constexpr TenantId kTenant = 10;

std::string K(const std::string& k) { return AddTenantPrefix(kTenant, k); }

StatusOr<BatchResponse> PutKV(KVCluster* cluster, const std::string& key,
                              const std::string& value) {
  BatchRequest req;
  req.tenant_id = kTenant;
  req.ts = cluster->Now();
  req.AddPut(K(key), value);
  return cluster->Send(req);
}

StatusOr<BatchResponse> GetKV(KVCluster* cluster, const std::string& key) {
  BatchRequest req;
  req.tenant_id = kTenant;
  req.ts = cluster->Now();
  req.AddGet(K(key));
  return cluster->Send(req);
}

/// Full engine-level (key, value) contents of one range's keyspan —
/// includes MVCC versions and intent slots, so two replicas compare
/// byte-identical only if they truly converged.
std::vector<std::pair<std::string, std::string>> RangeSpan(
    storage::Engine* engine, const RangeDescriptor& desc) {
  const std::string lower = EncodeIntentKey(desc.start_key);
  std::string upper;
  if (!desc.end_key.empty()) OrderedPutString(&upper, desc.end_key);
  std::vector<std::pair<std::string, std::string>> out;
  auto it = engine->NewBoundedIterator(lower, upper);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace_back(it->key().ToString(), it->value().ToString());
  }
  return out;
}

/// Asserts every replica of every range holding tenant data is
/// byte-identical to the leaseholder over the range's engine keyspan.
void ExpectReplicasConverged(KVCluster* cluster) {
  for (const RangeDescriptor& desc : cluster->Ranges()) {
    if (desc.tenant_id != kTenant) continue;
    auto lead = RangeSpan(cluster->node(desc.leaseholder)->engine(), desc);
    for (NodeId r : desc.replicas) {
      if (r == desc.leaseholder) continue;
      auto replica = RangeSpan(cluster->node(r)->engine(), desc);
      ASSERT_EQ(lead.size(), replica.size())
          << "range " << desc.range_id << " replica " << r << " has "
          << replica.size() << " engine keys vs leaseholder's " << lead.size();
      for (size_t i = 0; i < lead.size(); ++i) {
        ASSERT_EQ(lead[i], replica[i])
            << "range " << desc.range_id << " replica " << r
            << " diverges at engine key #" << i;
      }
    }
  }
}

std::unique_ptr<KVCluster> MakeCluster(Clock* clock,
                                       ReplicaTransport* transport,
                                       Nanos liveness = 3 * kSecond) {
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.replication_factor = 3;
  opts.clock = clock;
  opts.transport = transport;
  opts.liveness_duration = liveness;
  auto cluster = std::make_unique<KVCluster>(opts);
  VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(kTenant));
  return cluster;
}

RangeDescriptor TenantRange(KVCluster* cluster, const std::string& key) {
  auto desc = cluster->LookupRange(K(key));
  VELOCE_CHECK_OK(desc.status());
  return *desc;
}

// ---------------------------------------------------------------------------
// Transport seam
// ---------------------------------------------------------------------------

/// A healthy FaultyMesh (no profile, no partitions) must behave exactly
/// like the built-in passthrough: same responses, all replicas current.
TEST(ReplicaTransportTest, HealthyMeshIsPassthrough) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(42);
  auto meshed = MakeCluster(&clock, &mesh);
  auto plain = MakeCluster(&clock, nullptr);

  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i % 7);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(PutKV(meshed.get(), key, value).ok());
    ASSERT_TRUE(PutKV(plain.get(), key, value).ok());
  }
  for (int i = 0; i < 7; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto a = GetKV(meshed.get(), key);
    auto b = GetKV(plain.get(), key);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->responses[0].value, b->responses[0].value);
  }
  ExpectReplicasConverged(meshed.get());
  ExpectReplicasConverged(plain.get());
  const RangeDescriptor desc = TenantRange(meshed.get(), "k0");
  for (NodeId r : desc.replicas) {
    EXPECT_EQ(meshed->RangeReplicaApplied(desc.range_id, r),
              meshed->RangeLogCommittedIndex(desc.range_id));
  }
}

TEST(ReplicaTransportTest, FaultyMeshIsDeterministic) {
  sim::MeshProfile profile;
  profile.drop = 0.2;
  profile.dup = 0.1;
  profile.delay_base = kMilli;
  profile.delay_jitter = 2 * kMilli;
  sim::FaultyMesh a(7), b(7), c(8);
  a.set_profile(profile);
  b.set_profile(profile);
  c.set_profile(profile);
  bool c_diverged = false;
  for (uint64_t i = 0; i < 2000; ++i) {
    const LinkDecision da = a.DeliverReplication(0, 1 + i % 2, i);
    const LinkDecision db = b.DeliverReplication(0, 1 + i % 2, i);
    const LinkDecision dc = c.DeliverReplication(0, 1 + i % 2, i);
    ASSERT_EQ(da.deliver, db.deliver);
    ASSERT_EQ(da.copies, db.copies);
    ASSERT_EQ(da.delay, db.delay);
    ASSERT_EQ(a.DeliverHeartbeat(1, 2), b.DeliverHeartbeat(1, 2));
    c_diverged |= (da.deliver != dc.deliver || da.delay != dc.delay);
    (void)c.DeliverHeartbeat(1, 2);
  }
  EXPECT_TRUE(c_diverged) << "different seeds produced identical trajectories";
  EXPECT_GT(a.stats().dropped, 0u);
  EXPECT_GT(a.stats().duplicated, 0u);
}

// ---------------------------------------------------------------------------
// Epoch-based leases (acceptance criterion a)
// ---------------------------------------------------------------------------

TEST(EpochLeaseTest, PartitionedLeaseholderRejectsWithEpochMismatch) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0xEB0C);
  auto cluster = MakeCluster(&clock, &mesh);

  ASSERT_TRUE(PutKV(cluster.get(), "key", "before").ok());
  cluster->TickHeartbeats();  // arm epoch-based lease enforcement
  ASSERT_TRUE(cluster->liveness_enabled());

  const RangeDescriptor before = TenantRange(cluster.get(), "key");
  const NodeId old_holder = before.leaseholder;
  const uint64_t old_epoch = cluster->NodeLivenessEpoch(old_holder);
  mesh.Isolate(old_holder, 3);

  // Phase 1 — lease still valid but quorum unreachable: the write is
  // rejected outright. No ack, nothing applied anywhere.
  auto during = PutKV(cluster.get(), "key", "split-brain");
  ASSERT_FALSE(during.ok());
  EXPECT_EQ(during.status().code(), Code::kUnavailable)
      << during.status().ToString();

  // Phase 2 — liveness expires: the same write now fails with the epoch
  // fence, the error the proxy/txn layers classify as redirectable.
  clock.Advance(4 * kSecond);
  auto expired = PutKV(cluster.get(), "key", "split-brain");
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsLeaseEpochMismatch())
      << expired.status().ToString();
  auto read = GetKV(cluster.get(), "key");
  ASSERT_FALSE(read.ok());  // stale leaseholder cannot serve reads either

  // Heartbeat tick: the isolated node's epoch bumps and the lease moves to
  // a caught-up majority-side replica. The retry (= the redirect) succeeds.
  cluster->TickHeartbeats();
  EXPECT_EQ(cluster->NodeLivenessEpoch(old_holder), old_epoch + 1);
  EXPECT_FALSE(cluster->NodeLivenessValid(old_holder));
  const RangeDescriptor after = TenantRange(cluster.get(), "key");
  EXPECT_NE(after.leaseholder, old_holder);
  ASSERT_TRUE(PutKV(cluster.get(), "key", "after-failover").ok());
  auto reread = GetKV(cluster.get(), "key");
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->responses[0].value, "after-failover");

  // The epoch fence fired for both the expired put and the stale read.
  EXPECT_EQ(cluster->metrics()->Sum("veloce_kv_lease_epoch_mismatches_total"),
            2.0);

  // Heal: the deposed leaseholder rejoins, catches up, and converges.
  mesh.HealAll();
  clock.Advance(kSecond);
  cluster->TickHeartbeats();  // regains fresh liveness
  ASSERT_TRUE(cluster->CatchUpNode(old_holder).ok());
  ExpectReplicasConverged(cluster.get());
}

// ---------------------------------------------------------------------------
// Replica catch-up (acceptance criterion b + satellite: crash/heal)
// ---------------------------------------------------------------------------

TEST(CatchUpTest, HealedMinorityReplicaConverges) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0xCA7C);
  auto cluster = MakeCluster(&clock, &mesh);

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        PutKV(cluster.get(), "k" + std::to_string(i % 5), "w0-" + std::to_string(i))
            .ok());
  }
  const RangeDescriptor desc = TenantRange(cluster.get(), "k0");
  NodeId victim = 0;
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder) victim = r;
  }

  // Crash the minority replica mid-workload; quorum (2/3) keeps serving.
  cluster->SetNodeLive(victim, false);
  for (int i = 20; i < 60; ++i) {
    ASSERT_TRUE(
        PutKV(cluster.get(), "k" + std::to_string(i % 5), "w1-" + std::to_string(i))
            .ok());
  }
  const uint64_t committed = cluster->RangeLogCommittedIndex(desc.range_id);
  EXPECT_LT(cluster->RangeReplicaApplied(desc.range_id, victim), committed);

  // Heal: SetNodeLive(true) replays the missed suffix of the range log.
  cluster->SetNodeLive(victim, true);
  EXPECT_GE(cluster->RangeReplicaApplied(desc.range_id, victim), committed);
  ExpectReplicasConverged(cluster.get());
  EXPECT_GT(cluster->metrics()->Sum("veloce_kv_replica_catchups_total"), 0.0);
  EXPECT_GT(cluster->metrics()->Sum("veloce_kv_replica_catchup_records_total"),
            0.0);

  // The healed replica counts toward quorum again: cut a *different*
  // replica's links; writes must still reach a majority through the healed
  // one.
  NodeId other = 0;
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder && r != victim) other = r;
  }
  mesh.Isolate(other, 3);
  for (int i = 60; i < 70; ++i) {
    ASSERT_TRUE(
        PutKV(cluster.get(), "k" + std::to_string(i % 5), "w2-" + std::to_string(i))
            .ok())
        << "healed replica did not count toward quorum";
  }
  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));
}

/// A replica that falls behind further than the log's retention window
/// converges through the snapshot path instead of replay.
TEST(CatchUpTest, SnapshotPathWhenLogTruncated) {
  ManualClock clock(100 * kSecond);
  auto cluster = MakeCluster(&clock, nullptr);

  ASSERT_TRUE(PutKV(cluster.get(), "k", "seed").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  NodeId victim = 0;
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder) victim = r;
  }
  cluster->SetNodeLive(victim, false);
  // Push the retained window past the victim's applied position: large
  // values overflow ReplicationLog::kMaxRetainedBytes quickly.
  const std::string big(64 << 10, 'x');
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "big" + std::to_string(i % 8), big).ok());
  }
  cluster->SetNodeLive(victim, true);
  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));
  ExpectReplicasConverged(cluster.get());
  EXPECT_GT(cluster->metrics()->Value("veloce_kv_replica_catchups_total",
                                      {{"mode", "snapshot"}}),
            0.0);
}

// ---------------------------------------------------------------------------
// Satellite: minority engine-write failure demotes instead of failing
// ---------------------------------------------------------------------------

TEST(CatchUpTest, MinorityEngineFailureDemotesNotFails) {
  auto base = storage::NewMemEnv();
  storage::FaultInjectionEnv fault(base.get(), 0xD3);

  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.replication_factor = 3;
  opts.engine_options.env = &fault;
  opts.engine_options.sync_wal = true;
  auto cluster = std::make_unique<KVCluster>(opts);
  VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(kTenant));

  ASSERT_TRUE(PutKV(cluster.get(), "k", "healthy").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  NodeId victim = 0;
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder) victim = r;
  }

  // Every WAL append on the victim's engine fails while the rule is live:
  // its replica apply errors mid-loop, after the leaseholder applied.
  storage::FaultRule rule;
  rule.op = storage::FaultOp::kAppend;
  rule.path_substr = "kvnode-" + std::to_string(victim) + "/";
  rule.count = 1000000;
  const int rule_id = fault.AddRule(rule);

  const double demotions_before =
      cluster->metrics()->Sum("veloce_kv_replica_demotions_total");
  // Quorum (leaseholder + healthy replica) holds: the batch must succeed,
  // the victim is demoted to needs-catch-up.
  auto resp = PutKV(cluster.get(), "k", "during-fault");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_GT(cluster->metrics()->Sum("veloce_kv_replica_demotions_total"),
            demotions_before);
  EXPECT_LT(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));

  fault.RemoveRule(rule_id);
  (void)cluster->node(victim)->engine()->Resume();
  ASSERT_TRUE(cluster->CatchUpNode(victim).ok());
  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));
  ExpectReplicasConverged(cluster.get());
  EXPECT_GT(cluster->metrics()->Sum("veloce_kv_replica_catchups_total"), 0.0);
}

/// Engine keys (versions and intent slots) a node holds in `tenant`'s span.
size_t TenantEngineKeys(KVCluster* cluster, NodeId node, TenantId tenant) {
  RangeDescriptor span;
  span.start_key = TenantPrefix(tenant);
  span.end_key = TenantPrefixEnd(tenant);
  return RangeSpan(cluster->node(node)->engine(), span).size();
}

/// Destroying a tenant clears its span through the range log: a replica
/// partitioned away during the destroy replays the clear after the writes
/// it missed, so catch-up cannot bring the destroyed tenant's keys back.
TEST(CatchUpTest, DestroyedTenantStaysClearedOnHealedReplica) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0xDE57);
  auto cluster = MakeCluster(&clock, &mesh);
  ASSERT_TRUE(PutKV(cluster.get(), "k", "before").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  NodeId victim = 0;
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder) victim = r;
  }

  mesh.Isolate(victim, 3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k" + std::to_string(i), "during").ok());
  }
  ASSERT_TRUE(cluster->DestroyTenantKeyspace(kTenant).ok());
  mesh.HealAll();
  cluster->TickHeartbeats();

  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    EXPECT_EQ(TenantEngineKeys(cluster.get(), n, kTenant), 0u) << "node " << n;
  }
}

/// A node whose crash-restart failed has no engine but may still be marked
/// live. Destroying a tenant, GC of a tenant, reads and read refreshes skip
/// it instead of dereferencing the missing engine.
TEST(CatchUpTest, DestroyTenantSkipsNodeWithFailedRestart) {
  auto base = storage::NewMemEnv();
  storage::FaultInjectionEnv fault(base.get(), 0xDE5);
  KVClusterOptions opts;
  opts.num_nodes = 3;
  opts.replication_factor = 3;
  opts.engine_options.env = &fault;
  auto cluster = std::make_unique<KVCluster>(opts);
  VELOCE_CHECK_OK(cluster->CreateTenantKeyspace(kTenant));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k" + std::to_string(i), "v").ok());
  }
  const NodeId victim = TenantRange(cluster.get(), "k0").leaseholder;

  // Every read of the victim's files fails, so reopening its engine does.
  storage::FaultRule rule;
  rule.op = storage::FaultOp::kRead;
  rule.path_substr = "kvnode-" + std::to_string(victim) + "/";
  rule.count = -1;
  fault.AddRule(rule);
  ASSERT_FALSE(cluster->RestartNode(victim).ok());
  ASSERT_EQ(cluster->node(victim)->engine(), nullptr);
  EXPECT_EQ(GetKV(cluster.get(), "k0").status().code(), Code::kUnavailable);
  const std::string k0 = K("k0");
  EXPECT_EQ(cluster->AnyNewerVersions(kTenant, k0, k0 + '\0', cluster->Now(),
                                      cluster->Now(), 0)
                .status()
                .code(),
            Code::kUnavailable);

  const Status destroyed = cluster->DestroyTenantKeyspace(kTenant);
  EXPECT_TRUE(destroyed.ok()) << destroyed.ToString();
  EXPECT_TRUE(cluster->GarbageCollectTenant(kTenant, cluster->Now()).ok());
  for (NodeId n = 0; n < cluster->num_nodes(); ++n) {
    if (n == victim) continue;
    EXPECT_EQ(TenantEngineKeys(cluster.get(), n, kTenant), 0u) << "node " << n;
  }
}

/// A finished replica move clears the range's span from the node it left:
/// nothing reads or catches up that copy any more.
TEST(CatchUpTest, FinishedMoveClearsTheOutgoingReplica) {
  ManualClock clock(100 * kSecond);
  auto cluster = MakeCluster(&clock, nullptr);
  auto added = cluster->AddNode();
  ASSERT_TRUE(added.ok());
  ASSERT_EQ(*added, 3u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k" + std::to_string(i), "v").ok());
  }
  const RangeDescriptor desc = TenantRange(cluster.get(), "k0");
  const NodeId from = desc.replicas[1];
  ASSERT_EQ(RangeSpan(cluster->node(from)->engine(), desc).size(), 20u);

  ASSERT_TRUE(cluster->MoveReplica(desc.range_id, from, *added).ok());
  EXPECT_EQ(RangeSpan(cluster->node(from)->engine(), desc).size(), 0u);
  const RangeDescriptor after = TenantRange(cluster.get(), "k0");
  EXPECT_FALSE(after.HasReplica(from));
  EXPECT_EQ(RangeSpan(cluster->node(*added)->engine(), after).size(), 20u);
  ExpectReplicasConverged(cluster.get());
  auto read = GetKV(cluster.get(), "k7");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->responses[0].value, "v");
}

// ---------------------------------------------------------------------------
// Lease/replica handoff safety: only caught-up replicas take over
// ---------------------------------------------------------------------------

/// Returns the first replica in descriptor order that is not the
/// leaseholder — the candidate ShedLeases considers first.
NodeId FirstFollower(const RangeDescriptor& desc) {
  for (NodeId r : desc.replicas) {
    if (r != desc.leaseholder) return r;
  }
  VELOCE_CHECK(false);
  return 0;
}

/// A replica demoted to needs-catch-up (dropped deliveries) must not take
/// the lease as-is when the old holder dies: ShedLeases catches the
/// candidate up first, so the new leaseholder never serves reads missing
/// acked writes.
TEST(LeaseSafetyTest, ShedLeasesCatchesUpBehindReplica) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0x5AFE);
  auto cluster = MakeCluster(&clock, &mesh);

  ASSERT_TRUE(PutKV(cluster.get(), "k", "w0").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  const NodeId leader = desc.leaseholder;
  const NodeId victim = FirstFollower(desc);

  // Drop every delivery to the victim; quorum (leaseholder + the other
  // replica) keeps acking writes the victim never sees.
  mesh.PartitionLink(leader, victim);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k", "w" + std::to_string(i)).ok());
  }
  const uint64_t committed = cluster->RangeLogCommittedIndex(desc.range_id);
  ASSERT_LT(cluster->RangeReplicaApplied(desc.range_id, victim), committed);

  // Network heals, then the leaseholder dies. The lease must land on a
  // replica holding every committed record.
  mesh.HealAll();
  cluster->SetNodeLive(leader, false);
  const RangeDescriptor after = TenantRange(cluster.get(), "k");
  ASSERT_NE(after.leaseholder, leader);
  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, after.leaseholder),
            committed)
      << "lease landed on a behind replica";
  auto read = GetKV(cluster.get(), "k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->responses[0].value, "w10");  // the last acked write
}

/// BalanceLeases round-robins leases across replicas; any replica it hands
/// a lease must hold every committed record afterwards.
TEST(LeaseSafetyTest, BalanceLeasesOnlyGrantsCaughtUpLeaseholders) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0xBA1A);
  auto cluster = MakeCluster(&clock, &mesh);

  ASSERT_TRUE(PutKV(cluster.get(), "k", "w0").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  const NodeId leader = desc.leaseholder;
  const NodeId victim = FirstFollower(desc);

  mesh.PartitionLink(leader, victim);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k", "w" + std::to_string(i)).ok());
  }
  ASSERT_LT(cluster->RangeReplicaApplied(desc.range_id, victim),
            cluster->RangeLogCommittedIndex(desc.range_id));

  // Rebalance while the victim is still behind (catch-up replays from the
  // shared log, so the partition does not block it). Every lease must land
  // on a fully-applied replica.
  cluster->BalanceLeases();
  for (const RangeDescriptor& d : cluster->Ranges()) {
    EXPECT_EQ(cluster->RangeReplicaApplied(d.range_id, d.leaseholder),
              cluster->RangeLogCommittedIndex(d.range_id))
        << "range " << d.range_id << " lease landed on a behind replica";
  }
  auto read = GetKV(cluster.get(), "k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->responses[0].value, "w10");
}

/// MoveReplica records the target as fully applied, so its snapshot source
/// must itself hold every committed record — even right after a leader
/// death left a recently-behind replica in the survivor set.
TEST(LeaseSafetyTest, MoveReplicaSnapshotsFromCaughtUpSource) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0x30FE);
  auto cluster = MakeCluster(&clock, &mesh);

  ASSERT_TRUE(PutKV(cluster.get(), "k", "w0").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  const NodeId leader = desc.leaseholder;
  const NodeId victim = FirstFollower(desc);

  mesh.PartitionLink(leader, victim);
  for (int i = 1; i <= 10; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k", "w" + std::to_string(i)).ok());
  }
  mesh.HealAll();
  cluster->SetNodeLive(leader, false);  // lease moves to a caught-up replica

  // Replace the dead leader's replica with a fresh node: the snapshot must
  // come from a fully-applied source, and the target's recorded position
  // must match what its engine actually holds.
  auto added = cluster->AddNode();
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(cluster->MoveReplica(desc.range_id, leader, *added).ok());
  EXPECT_EQ(cluster->RangeReplicaApplied(desc.range_id, *added),
            cluster->RangeLogCommittedIndex(desc.range_id));
  const RangeDescriptor after = TenantRange(cluster.get(), "k");
  EXPECT_EQ(RangeSpan(cluster->node(after.leaseholder)->engine(), after),
            RangeSpan(cluster->node(*added)->engine(), after));

  // The new replica serves in quorum with the dead leader gone.
  ASSERT_TRUE(PutKV(cluster.get(), "k", "w11").ok());
  auto read = GetKV(cluster.get(), "k");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->responses[0].value, "w11");
  ExpectReplicasConverged(cluster.get());
}

// ---------------------------------------------------------------------------
// Tenant byte attribution: catch-up replay is not re-charged
// ---------------------------------------------------------------------------

/// Delivers everything but loses the ack from one replica, so the
/// leaseholder re-replays records that replica already applied.
class LostAckTransport final : public ReplicaTransport {
 public:
  LinkDecision DeliverReplication(uint32_t, uint32_t to, uint64_t) override {
    LinkDecision d;
    if (to == victim) d.ack = false;
    return d;
  }
  bool DeliverHeartbeat(uint32_t, uint32_t) override { return true; }

  static constexpr uint32_t kNoVictim = UINT32_MAX;
  uint32_t victim = kNoVictim;
};

TEST(TenantAccountingTest, CatchUpReplayDoesNotDoubleChargeWriteBytes) {
  ManualClock clock(100 * kSecond);
  LostAckTransport transport;
  auto cluster = MakeCluster(&clock, &transport);

  ASSERT_TRUE(PutKV(cluster.get(), "k", "w0").ok());
  const RangeDescriptor desc = TenantRange(cluster.get(), "k");
  const NodeId victim = FirstFollower(desc);
  transport.victim = victim;

  // Each write applies (and charges) on the victim, but the lost ack keeps
  // its recorded position behind — so every subsequent write re-replays the
  // previous, already-applied record first.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(PutKV(cluster.get(), "k", "w" + std::to_string(i)).ok());
  }
  transport.victim = LostAckTransport::kNoVictim;
  ASSERT_TRUE(PutKV(cluster.get(), "k", "w6").ok());  // final replay + heal

  ExpectReplicasConverged(cluster.get());
  const uint64_t leader_bytes =
      cluster->node(desc.leaseholder)->TenantWriteBytes(kTenant);
  ASSERT_GT(leader_bytes, 0u);
  for (NodeId r : desc.replicas) {
    EXPECT_EQ(cluster->node(r)->TenantWriteBytes(kTenant), leader_bytes)
        << "replica " << r << " was charged for replayed records";
  }
}

// ---------------------------------------------------------------------------
// Linearizability checker: unit tests
// ---------------------------------------------------------------------------

HistoryOp Op(HistoryOp::Kind kind, const std::string& key,
             const std::string& value, bool acked, uint64_t invoke,
             uint64_t complete) {
  HistoryOp op;
  op.kind = kind;
  op.key = key;
  op.value = value;
  op.acked = acked;
  op.invoke = invoke;
  op.complete = complete;
  return op;
}

TEST(LinearizabilityTest, AcceptsSequentialHistory) {
  std::vector<HistoryOp> h;
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "1", true, 1, 2));
  h.push_back(Op(HistoryOp::Kind::kRead, "a", "1", true, 3, 4));
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "2", true, 5, 6));
  h.push_back(Op(HistoryOp::Kind::kRead, "a", "2", true, 7, 8));
  const auto r = CheckLinearizability(h);
  EXPECT_TRUE(r.ok) << r.explanation;
  EXPECT_EQ(r.keys_checked, 1u);
  EXPECT_EQ(r.ops_checked, 4u);
}

TEST(LinearizabilityTest, AcceptsConcurrentOverlap) {
  // w(1) overlaps w(2) and the read: r=2 is valid with order w1, w2, r.
  std::vector<HistoryOp> h;
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "1", true, 1, 10));
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "2", true, 2, 9));
  h.push_back(Op(HistoryOp::Kind::kRead, "a", "2", true, 3, 8));
  EXPECT_TRUE(CheckLinearizability(h).ok);
}

TEST(LinearizabilityTest, RejectsStaleRead) {
  // w(1) completed strictly before the read, yet the read saw nothing.
  std::vector<HistoryOp> h;
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "1", true, 1, 2));
  HistoryOp read = Op(HistoryOp::Kind::kRead, "a", "", true, 3, 4);
  read.found = false;
  h.push_back(read);
  const auto r = CheckLinearizability(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("\"a\""), std::string::npos);
}

TEST(LinearizabilityTest, RejectsValueFromNowhere) {
  std::vector<HistoryOp> h;
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "1", true, 1, 2));
  h.push_back(Op(HistoryOp::Kind::kRead, "a", "ghost", true, 3, 4));
  EXPECT_FALSE(CheckLinearizability(h).ok);
}

TEST(LinearizabilityTest, MaybeWriteMayOrMayNotApply) {
  // An indeterminate write may be read...
  std::vector<HistoryOp> h1;
  HistoryOp maybe = Op(HistoryOp::Kind::kWrite, "a", "m", false, 1,
                       HistoryOp::kForever);
  maybe.maybe = true;
  h1.push_back(maybe);
  h1.push_back(Op(HistoryOp::Kind::kRead, "a", "m", true, 2, 3));
  EXPECT_TRUE(CheckLinearizability(h1).ok);
  // ...or never surface.
  std::vector<HistoryOp> h2;
  h2.push_back(maybe);
  HistoryOp miss = Op(HistoryOp::Kind::kRead, "a", "", true, 2, 3);
  miss.found = false;
  h2.push_back(miss);
  EXPECT_TRUE(CheckLinearizability(h2).ok);
  // ...but it cannot flicker: once read, a strictly-later read (no
  // overlap) cannot observe its absence.
  std::vector<HistoryOp> h3;
  h3.push_back(maybe);
  h3.push_back(Op(HistoryOp::Kind::kRead, "a", "m", true, 2, 3));
  HistoryOp later_miss = Op(HistoryOp::Kind::kRead, "a", "", true, 4, 5);
  later_miss.found = false;
  h3.push_back(later_miss);
  EXPECT_FALSE(CheckLinearizability(h3).ok);
}

TEST(LinearizabilityTest, FailedDefiniteWriteNeverApplies) {
  std::vector<HistoryOp> h;
  h.push_back(Op(HistoryOp::Kind::kWrite, "a", "rejected", false, 1, 2));
  h.push_back(Op(HistoryOp::Kind::kRead, "a", "rejected", true, 3, 4));
  EXPECT_FALSE(CheckLinearizability(h).ok);
}

// ---------------------------------------------------------------------------
// Checker self-test (the "deliberately broken transport" criterion)
// ---------------------------------------------------------------------------

/// A lying transport: acks every delivery without ever performing it.
/// Physically impossible on a real network — it exists to manufacture a
/// split-brain history and prove the checker catches it.
class LyingTransport final : public ReplicaTransport {
 public:
  LinkDecision DeliverReplication(uint32_t, uint32_t, uint64_t) override {
    LinkDecision d;
    d.deliver = false;
    d.ack = true;
    return d;
  }
  bool DeliverHeartbeat(uint32_t, uint32_t) override { return true; }
};

TEST(LinearizabilityTest, CheckerRejectsBrokenTransport) {
  ManualClock clock(100 * kSecond);
  LyingTransport lying;
  auto cluster = MakeCluster(&clock, &lying);
  HistoryRecorder history;

  // Acked write: the leaseholder applied it; every "replicated" copy is a
  // phantom ack.
  size_t w = history.BeginWrite("key", "v1");
  auto put = PutKV(cluster.get(), "key", "v1");
  history.EndWrite(w, put.ok(), /*maybe=*/false);
  ASSERT_TRUE(put.ok());

  // The leaseholder dies; a phantom-acked replica takes the lease and
  // serves a read that has never seen v1 — split-brain made visible.
  const RangeDescriptor desc = TenantRange(cluster.get(), "key");
  cluster->SetNodeLive(desc.leaseholder, false);
  size_t r = history.BeginRead("key");
  auto get = GetKV(cluster.get(), "key");
  ASSERT_TRUE(get.ok()) << get.status().ToString();
  history.EndRead(r, true, get->responses[0].found, get->responses[0].value);

  const auto result = CheckLinearizability(history.Snapshot());
  EXPECT_FALSE(result.ok)
      << "checker accepted a history produced by a lying transport";
}

// ---------------------------------------------------------------------------
// Seeded partition-chaos harness (acceptance criterion c)
// ---------------------------------------------------------------------------

/// Runs a short seeded workload against a 3-node cluster behind a FaultyMesh
/// that drops, duplicates, delays, and asymmetrically partitions links,
/// with heartbeat ticks and clock advancement interleaved. Every operation
/// is recorded; the history must check out linearizable for EVERY seed.
void RunPartitionChaosIteration(uint64_t seed) {
  Random rnd(DeriveSeed(seed, "netfault-harness"));
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(seed);
  sim::MeshProfile profile;
  profile.drop = rnd.NextDouble() * 0.3;
  profile.dup = rnd.NextDouble() * 0.2;
  profile.reorder = rnd.NextDouble() * 0.2;
  profile.delay_base = rnd.Uniform(2 * kMilli);
  profile.delay_jitter = rnd.Uniform(5 * kMilli);
  mesh.set_profile(profile);

  auto cluster = MakeCluster(&clock, &mesh, /*liveness=*/2 * kSecond);
  cluster->TickHeartbeats();

  HistoryRecorder history;
  const int kKeys = 3;
  int next_value = 0;
  const int ops = 30 + static_cast<int>(rnd.Uniform(30));
  for (int i = 0; i < ops; ++i) {
    // Mutate the partition set occasionally: isolate one node, cut one
    // directed link (a gray, asymmetric partition), or heal.
    const uint64_t dice = rnd.Uniform(12);
    if (dice == 0) {
      mesh.Isolate(static_cast<uint32_t>(rnd.Uniform(3)), 3);
    } else if (dice == 1) {
      const uint32_t from = static_cast<uint32_t>(rnd.Uniform(3));
      mesh.PartitionLink(from, static_cast<uint32_t>((from + 1) % 3));
    } else if (dice <= 3) {
      mesh.HealAll();
    }
    clock.Advance(rnd.Uniform(800 * kMilli));
    if (rnd.Uniform(3) == 0) cluster->TickHeartbeats();

    const std::string key = "k" + std::to_string(rnd.Uniform(kKeys));
    if (rnd.Uniform(2) == 0) {
      const std::string value = "v" + std::to_string(next_value++);
      const size_t id = history.BeginWrite(key, value);
      auto resp = PutKV(cluster.get(), key, value);
      // Any failure is conservatively "maybe": sound (acked stays strict),
      // and robust to new indeterminate failure modes.
      history.EndWrite(id, resp.ok(), /*maybe=*/!resp.ok());
    } else {
      const size_t id = history.BeginRead(key);
      auto resp = GetKV(cluster.get(), key);
      if (resp.ok()) {
        history.EndRead(id, true, resp->responses[0].found,
                        resp->responses[0].value);
      } else {
        history.EndRead(id, false, false, "");
      }
    }
  }
  // Quiesce: heal everything, let liveness recover, converge all replicas.
  mesh.HealAll();
  clock.Advance(3 * kSecond);
  cluster->TickHeartbeats();
  cluster->TickHeartbeats();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_TRUE(cluster->CatchUpNode(n).ok());
  }
  ExpectReplicasConverged(cluster.get());

  // Final acked reads must see the converged state too.
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "k" + std::to_string(k);
    const size_t id = history.BeginRead(key);
    auto resp = GetKV(cluster.get(), key);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    history.EndRead(id, true, resp->responses[0].found,
                    resp->responses[0].value);
  }

  const auto result = CheckLinearizability(history.Snapshot());
  ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.explanation;
}

TEST(PartitionChaosTest, LinearizableAcrossSeeds) {
  const uint64_t iters = EnvOr("VELOCE_NETFAULT_ITERS", 200);
  const uint64_t base_seed = EnvOr("VELOCE_NETFAULT_SEED", 0x9E7F);
  for (uint64_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    SCOPED_TRACE("partition chaos iteration " + std::to_string(iter) +
                 " seed " + std::to_string(seed));
    RunPartitionChaosIteration(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Range-storm slice under partitions (splits/merges/moves + fault weather)
// ---------------------------------------------------------------------------

/// A fixed-seed slice of the range storm (tests/range_storm_harness.h) with
/// FaultyMesh partitions layered on top of the split/merge/move churn: the
/// harness asserts the directory invariants every iteration — including
/// that no lease ever carries an epoch ahead of its holder's liveness
/// record — and the whole run must linearize.
TEST(RangeStormSliceTest, StormUnderPartitionsIsLinearizable) {
  ManualClock clock(100 * kSecond);
  const uint64_t seed = EnvOr("VELOCE_RANGESTORM_SEED", 0x570A);
  sim::FaultyMesh mesh(seed);
  storm::StormOptions opts;
  opts.seed = seed;
  opts.nodes = 3;
  opts.replication = 3;
  opts.tenants = 2;
  opts.keys_per_tenant = 12;
  opts.iterations = 16;
  opts.ops_per_iteration = 24;
  opts.mesh = &mesh;
  KVClusterOptions co = storm::RangeStormHarness::ClusterOptions(opts, &clock);
  co.transport = &mesh;
  auto cluster = std::make_unique<KVCluster>(co);
  for (int i = 0; i < opts.tenants; ++i) {
    ASSERT_TRUE(cluster
                    ->CreateTenantKeyspace(opts.first_tenant +
                                           static_cast<TenantId>(i))
                    .ok());
  }
  storm::RangeStormHarness storm(opts, &clock, cluster.get());
  ASSERT_EQ(storm.Run(), "");
  // After the storm quiesces (mesh healed, every node caught up), all
  // replicas of all tenant ranges must be byte-identical.
  for (const RangeDescriptor& desc : cluster->Ranges()) {
    if (desc.tenant_id == 0) continue;
    auto lead = RangeSpan(cluster->node(desc.leaseholder)->engine(), desc);
    for (NodeId r : desc.replicas) {
      if (r == desc.leaseholder) continue;
      EXPECT_EQ(lead, RangeSpan(cluster->node(r)->engine(), desc))
          << "range " << desc.range_id << " replica " << r << " diverged";
    }
  }
}

/// A merge adopts the left range's *validated* lease, never the right's.
/// Scenario: one node holds both neighbours' leases, gets partitioned, and
/// only the left range fails over (bumping the holder's liveness epoch).
/// The right range still carries a lease stamped with the deposed epoch.
/// Merging must not resurrect it: the merged range serves under the
/// surviving lease, and its epoch can never be ahead of its holder's
/// liveness record.
TEST(RangeStormSliceTest, MergeNeverResurrectsStaleLeaseEpoch) {
  ManualClock clock(100 * kSecond);
  sim::FaultyMesh mesh(0x5EA1);
  auto cluster = MakeCluster(&clock, &mesh);
  ASSERT_TRUE(PutKV(cluster.get(), "a", "left").ok());
  ASSERT_TRUE(PutKV(cluster.get(), "z", "right").ok());
  ASSERT_TRUE(cluster->SplitRange(K("m")).ok());
  cluster->TickHeartbeats();  // arm epoch-based lease enforcement

  const RangeDescriptor left0 = TenantRange(cluster.get(), "a");
  const RangeDescriptor right0 = TenantRange(cluster.get(), "z");
  // The split inherits the parent's leaseholder, so one node holds both.
  ASSERT_EQ(left0.leaseholder, right0.leaseholder);
  const NodeId old_holder = left0.leaseholder;
  const uint64_t old_epoch = cluster->NodeLivenessEpoch(old_holder);

  // Partition the holder, expire its liveness, and fail over only the
  // left range (the right sees no traffic, so its lease stays stale).
  mesh.Isolate(old_holder, 3);
  clock.Advance(4 * kSecond);
  cluster->TickHeartbeats();
  ASSERT_EQ(cluster->NodeLivenessEpoch(old_holder), old_epoch + 1);
  ASSERT_TRUE(PutKV(cluster.get(), "a", "failover").ok());
  const RangeDescriptor left1 = TenantRange(cluster.get(), "a");
  ASSERT_NE(left1.leaseholder, old_holder);

  // Heal; the deposed node regains liveness at the bumped epoch.
  mesh.HealAll();
  clock.Advance(kSecond);
  cluster->TickHeartbeats();
  ASSERT_TRUE(cluster->CatchUpNode(old_holder).ok());

  ASSERT_TRUE(cluster->MergeRanges(left1.range_id).ok());
  const RangeDescriptor merged = TenantRange(cluster.get(), "z");
  EXPECT_EQ(merged.range_id, left1.range_id);
  EXPECT_EQ(merged.leaseholder, left1.leaseholder);
  EXPECT_EQ(merged.lease_epoch, left1.lease_epoch);
  // The stale (old_holder, old_epoch) lease is gone for good, and the
  // merged lease is consistent with liveness.
  EXPECT_FALSE(merged.leaseholder == old_holder &&
               merged.lease_epoch == old_epoch);
  EXPECT_LE(merged.lease_epoch,
            cluster->NodeLivenessEpoch(merged.leaseholder));

  // The merged range serves both halves of the keyspace.
  ASSERT_TRUE(PutKV(cluster.get(), "z", "post-merge").ok());
  auto a = GetKV(cluster.get(), "a");
  auto z = GetKV(cluster.get(), "z");
  ASSERT_TRUE(a.ok() && z.ok());
  EXPECT_EQ(a->responses[0].value, "failover");
  EXPECT_EQ(z->responses[0].value, "post-merge");
}

}  // namespace
}  // namespace veloce::kv
