// End-to-end benchmark of the serverless statement path:
//   proxy -> SQL session/executor/KvConnector -> tenant authorizer
//   -> KV routing/txn/replication -> storage::Engine
// driven by closed-loop clients over a fixed, seeded operation stream.
//
//   perfbench --workload <oltp-tenants|htap-scan|write-parallel> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>] [--corrupt 1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// again with spans and counters and prints the per-layer ledger. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. perfbench/README.md describes the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/sysinfo.h"
#include "serverless/cluster.h"
#include "sql/parser.h"
#include "sql/sql_node.h"
#include "storage/background.h"
#include "tracing.h"

namespace perfbench {
namespace {

using veloce::Nanos;
using veloce::Random;
using veloce::Status;
using veloce::StatusOr;
namespace kv = veloce::kv;
namespace sql = veloce::sql;
namespace obs = veloce::obs;
namespace storage = veloce::storage;
namespace serverless = veloce::serverless;

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

constexpr int kBankRows = 2000;
constexpr int kBankPadBytes = 100;     // ~2.5 MB per KV node for 8 tenants
constexpr int kLineitemRows = 150000;  // ~16 MB per KV node: 2x the block cache
constexpr int kLineitemCommentBytes = 44;
constexpr int kInsertBatchRows = 100;
// htap-scan runs one Q1-lite scan per 1,000 neighbour reads (and 500
// updates). A scan leaves the next few neighbour operations cold; at 200
// reads per scan those were about 1% of the reads, which put read p99 on the
// edge between the two modes, and it swung by 30-40% from run to run.
constexpr int kNeighbourReadsPerScan = 1000;
constexpr int kNeighbourUpdatesPerScan = 500;
constexpr int kMaxAttempts = 5;
constexpr int kProbeSlices = 80;
// Median probe slices on the reference host (4-core x86-64 VM at 2.1 GHz);
// fixed once.
constexpr double kNominalRegProbeMs = 2.4;
constexpr double kNominalMapProbeMs = 10.0;

// Operations each run does per --seconds, sized so a run measures for about
// --seconds on the reference host. The stream is fixed by the seed and this
// count, so every run of a workload does the same work.
constexpr int kOltpOpsPerSecond = 11000;
constexpr double kHtapRoundsPerSecond = 1;
constexpr int kWriteOpsPerSecond = 7000;

enum OpType { kRead = 0, kUpdate, kInsert, kTransfer, kScan, kNumOpTypes };
constexpr const char* kOpNames[kNumOpTypes] = {"read", "update", "insert",
                                               "transfer", "scan"};

struct Op {
  OpType type = kRead;
  int tenant = 0;
  int64_t a = 0;       // key (read/update/transfer source), new id (insert)
  int64_t b = 0;       // transfer destination
  int64_t amount = 0;  // update delta, transfer amount, inserted balance
  std::vector<std::string> sql;
};

struct TenantPlan {
  bool lineitem = false;
  std::vector<int64_t> balances;  // bank tenants: initial balances
  std::vector<std::string> load_sql;
};

struct Plan {
  std::string workload;
  std::vector<TenantPlan> tenants;
  Q1Model q1;
  std::vector<std::vector<Op>> streams;  // one per client thread
  int threads = 1;
  size_t epochs = 1;  // end-to-end runs: parts of the stream, each on a fresh stack
  bool sim_stack = true;
  std::string digest;
};

const char* kQ1Sql =
    "SELECT returnflag, linestatus, SUM(qty) AS sum_qty, "
    "SUM(extprice) AS sum_price, SUM(extprice * (100 - discount)) AS sum_disc, "
    "COUNT(*) AS n FROM lineitem WHERE shipdate <= 19980902 "
    "GROUP BY returnflag, linestatus ORDER BY returnflag, linestatus";

/// Zipfian ranks (theta 0.99) over [0, n), scattered over the key space so
/// hot keys are not adjacent.
class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int64_t Next(Random& rng) const {
    const double u = rng.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return static_cast<int64_t>((std::min(rank, cdf_.size() - 1) * 1009 + 17) %
                                cdf_.size());
  }

 private:
  std::vector<double> cdf_;
};

std::string Pad(Random& rng, int bytes) {
  std::string s(static_cast<size_t>(bytes), 'a');
  for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
  return s;
}

TenantPlan BankTenant(Random& rng) {
  TenantPlan t;
  t.load_sql.push_back(
      "CREATE TABLE acct (id INT PRIMARY KEY, balance INT, pad STRING)");
  std::string stmt;
  for (int id = 0; id < kBankRows; ++id) {
    const int64_t balance = 1000 + static_cast<int64_t>(rng.Uniform(9000));
    t.balances.push_back(balance);
    stmt += (id % kInsertBatchRows == 0 ? "INSERT INTO acct VALUES (" : ", (") +
            std::to_string(id) + ", " + std::to_string(balance) + ", '" +
            Pad(rng, kBankPadBytes) + "')";
    if (id % kInsertBatchRows == kInsertBatchRows - 1) {
      t.load_sql.push_back(std::move(stmt));
      stmt.clear();
    }
  }
  return t;
}

TenantPlan LineitemTenant(Random& rng, Q1Model* q1) {
  static const char* kFlags[] = {"A", "N", "R"};
  static const char* kStatuses[] = {"F", "O"};
  TenantPlan t;
  t.lineitem = true;
  t.load_sql.push_back(
      "CREATE TABLE lineitem (id INT PRIMARY KEY, returnflag STRING, "
      "linestatus STRING, qty INT, extprice INT, discount INT, tax INT, "
      "shipdate INT, comment STRING)");
  std::string stmt;
  for (int id = 0; id < kLineitemRows; ++id) {
    const std::string flag = kFlags[rng.Uniform(3)];
    const std::string status = kStatuses[rng.Uniform(2)];
    const int64_t qty = 1 + static_cast<int64_t>(rng.Uniform(50));
    const int64_t price = 90000 + static_cast<int64_t>(rng.Uniform(1000000));
    const int64_t discount = static_cast<int64_t>(rng.Uniform(11));
    const int64_t tax = static_cast<int64_t>(rng.Uniform(9));
    const int64_t shipdate = 19920000 + static_cast<int64_t>(rng.Uniform(70000));
    q1->AddRow(flag, status, qty, price, discount, shipdate);
    stmt += (id % kInsertBatchRows == 0 ? "INSERT INTO lineitem VALUES ("
                                        : ", (") +
            std::to_string(id) + ", '" + flag + "', '" + status + "', " +
            std::to_string(qty) + ", " + std::to_string(price) + ", " +
            std::to_string(discount) + ", " + std::to_string(tax) + ", " +
            std::to_string(shipdate) + ", '" + Pad(rng, kLineitemCommentBytes) +
            "')";
    if (id % kInsertBatchRows == kInsertBatchRows - 1) {
      t.load_sql.push_back(std::move(stmt));
      stmt.clear();
    }
  }
  return t;
}

std::string SelectSql(int64_t id) {
  return "SELECT balance FROM acct WHERE id = " + std::to_string(id);
}

std::string AddSql(int64_t id, int64_t delta) {
  return "UPDATE acct SET balance = balance " +
         std::string(delta < 0 ? "- " : "+ ") + std::to_string(std::llabs(delta)) +
         " WHERE id = " + std::to_string(id);
}

/// Operation types in seeded order with exact proportions: every block of
/// deck.size() draws holds each type exactly as often as the deck does, so
/// runs with different seeds do the same mix of work.
class Deck {
 public:
  Deck(std::vector<std::pair<OpType, int>> counts) {
    for (const auto& [type, n] : counts) cards_.insert(cards_.end(), n, type);
    next_ = cards_.size();
  }
  OpType Draw(Random& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Uniform(i + 1)]);
      }
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  std::vector<OpType> cards_;
  size_t next_ = 0;
};

/// One bank operation of the given type on `tenant`.
Op BankOp(Random& rng, const Zipf& zipf, OpType type, int tenant, int64_t* next_id) {
  Op op;
  op.type = type;
  op.tenant = tenant;
  op.a = zipf.Next(rng);
  switch (type) {
    case kRead:
      op.sql = {SelectSql(op.a)};
      break;
    case kUpdate:
      op.amount = static_cast<int64_t>(rng.Uniform(100)) - 50;
      if (op.amount >= 0) ++op.amount;  // never a no-op update
      op.sql = {AddSql(op.a, op.amount)};
      break;
    case kInsert:
      op.a = (*next_id)++;
      op.amount = 1000 + static_cast<int64_t>(rng.Uniform(9000));
      op.sql = {"INSERT INTO acct VALUES (" + std::to_string(op.a) + ", " +
                std::to_string(op.amount) + ", '" + Pad(rng, kBankPadBytes) + "')"};
      break;
    default:
      op.type = kTransfer;
      do {
        op.b = zipf.Next(rng);
      } while (op.b == op.a);
      op.amount = 1 + static_cast<int64_t>(rng.Uniform(100));
      op.sql = {"BEGIN", SelectSql(op.a), AddSql(op.a, -op.amount),
                AddSql(op.b, op.amount), "COMMIT"};
  }
  return op;
}

Plan MakePlan(const std::string& workload, uint64_t seed, int seconds) {
  Plan plan;
  plan.workload = workload;
  Random rng(veloce::DeriveSeed(seed, "perfbench-" + workload));
  const Zipf zipf(kBankRows, 0.99);
  if (workload == "oltp-tenants") {
    for (int t = 0; t < 8; ++t) plan.tenants.push_back(BankTenant(rng));
    plan.epochs = static_cast<size_t>(std::max(1, seconds / 2));  // 22k ops each
    std::vector<int64_t> next_id(8, kBankRows);
    // 50% point SELECT, 25% UPDATE, 15% INSERT, 10% transfer.
    Deck deck({{kRead, 10}, {kUpdate, 5}, {kInsert, 3}, {kTransfer, 2}});
    plan.streams.resize(1);
    for (int i = 0; i < seconds * kOltpOpsPerSecond; ++i) {
      const int t = static_cast<int>(rng.Uniform(8));
      plan.streams[0].push_back(BankOp(rng, zipf, deck.Draw(rng), t, &next_id[t]));
    }
  } else if (workload == "htap-scan") {
    const int rounds = std::max(1, static_cast<int>(seconds * kHtapRoundsPerSecond));
    plan.epochs = static_cast<size_t>(std::min(3, rounds));
    plan.tenants.push_back(LineitemTenant(rng, &plan.q1));
    for (int t = 0; t < 3; ++t) plan.tenants.push_back(BankTenant(rng));
    int64_t no_inserts = kBankRows;
    Deck deck({{kRead, kNeighbourReadsPerScan}, {kUpdate, kNeighbourUpdatesPerScan}});
    plan.streams.resize(1);
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < kNeighbourReadsPerScan + kNeighbourUpdatesPerScan; ++i) {
        const int t = 1 + static_cast<int>(rng.Uniform(3));
        plan.streams[0].push_back(BankOp(rng, zipf, deck.Draw(rng), t, &no_inserts));
      }
      Op scan;
      scan.type = kScan;
      scan.tenant = 0;
      scan.sql = {kQ1Sql};
      plan.streams[0].push_back(std::move(scan));
    }
  } else if (workload == "write-parallel") {
    plan.threads = 3;
    plan.epochs = static_cast<size_t>(std::max(1, seconds));  // 7k ops each
    plan.sim_stack = false;
    for (int t = 0; t < plan.threads; ++t) plan.tenants.push_back(BankTenant(rng));
    int64_t no_inserts = kBankRows;
    // 60% UPDATE, 30% point SELECT, 10% transfer.
    Deck deck({{kUpdate, 6}, {kRead, 3}, {kTransfer, 1}});
    plan.streams.resize(plan.threads);
    for (int t = 0; t < plan.threads; ++t) {
      for (int i = 0; i < seconds * kWriteOpsPerSecond / plan.threads; ++i) {
        plan.streams[t].push_back(BankOp(rng, zipf, deck.Draw(rng), t, &no_inserts));
      }
    }
  } else {
    return plan;  // empty: unknown workload
  }
  Digest digest;
  for (const TenantPlan& t : plan.tenants) {
    for (const std::string& s : t.load_sql) digest.Add(s);
  }
  for (const auto& stream : plan.streams) {
    for (const Op& op : stream) {
      digest.Add(static_cast<uint64_t>(op.tenant));
      for (const std::string& s : op.sql) digest.Add(s);
    }
  }
  plan.digest = digest.Hex();
  return plan;
}

// ---------------------------------------------------------------------------
// Stacks
// ---------------------------------------------------------------------------

/// Seams the traced run installs; null members keep the program defaults.
struct Instrumentation {
  storage::Env* env = nullptr;
  kv::ReplicaTransport* transport = nullptr;
};

class Stack {
 public:
  virtual ~Stack() = default;
  /// Executes one statement as tenant `tenant`'s client.
  virtual StatusOr<sql::ResultSet> Exec(int tenant, const std::string& text,
                                        bool idempotent) = 0;
  /// Runs background work that is due (flushes, compactions, timestamp
  /// prefetches) on the simulated-loop stack; the real-clock stack runs it
  /// on its own executor thread.
  virtual void Pump() {}
  /// Waits until no background work is running.
  virtual void Quiesce() {}
  virtual obs::MetricsRegistry* metrics() = 0;
  virtual kv::KVCluster* kv() = 0;
  /// Thread CPU the tenants' connectors spent below the SQL/KV boundary.
  virtual Nanos KvCpuNanos() = 0;
};

/// The simulated-loop deployment: ServerlessCluster (proxy, warm pool, SQL
/// nodes, admission, in-memory storage with background work on the loop).
class SimStack final : public Stack {
 public:
  SimStack(size_t tenants, uint64_t seed, const Instrumentation& inst) {
    serverless::ServerlessCluster::Options options;
    options.seed = veloce::DeriveSeed(seed, "perfbench-cluster");
    options.kv.engine_options.env = inst.env;
    options.kv.transport = inst.transport;
    cluster_ = std::make_unique<serverless::ServerlessCluster>(options);
    for (size_t t = 0; t < tenants; ++t) {
      auto meta = cluster_->CreateTenant("tenant" + std::to_string(t));
      VELOCE_CHECK(meta.ok()) << meta.status().ToString();
      auto conn = cluster_->ConnectSync(meta->id);
      VELOCE_CHECK(conn.ok()) << conn.status().ToString();
      conns_.push_back(*conn);
    }
  }
  StatusOr<sql::ResultSet> Exec(int tenant, const std::string& text,
                                bool idempotent) override {
    return cluster_->ExecuteSync(conns_[static_cast<size_t>(tenant)], text,
                                 idempotent);
  }
  void Pump() override { cluster_->loop()->RunUntil(cluster_->loop()->Now()); }
  obs::MetricsRegistry* metrics() override { return cluster_->metrics(); }
  kv::KVCluster* kv() override { return cluster_->kv_cluster(); }
  Nanos KvCpuNanos() override {
    Nanos total = 0;
    for (auto* conn : conns_) total += conn->node->connector()->kv_cpu_nanos();
    return total;
  }

 private:
  std::unique_ptr<serverless::ServerlessCluster> cluster_;
  std::vector<serverless::Proxy::Connection*> conns_;
};

/// The real-clock deployment: one KVCluster with balanced leases, and one
/// SqlNode and session per tenant, each used by its own client thread.
class RealStack final : public Stack {
 public:
  RealStack(size_t tenants, const Instrumentation& inst) {
    kv::KVClusterOptions options;
    options.obs.metrics = &metrics_;
    options.engine_options.env = inst.env;
    options.engine_options.background_executor = &executor_;
    options.transport = inst.transport;
    cluster_ = std::make_unique<kv::KVCluster>(options);
    controller_ = std::make_unique<veloce::tenant::TenantController>(cluster_.get(), &ca_);
    service_ = std::make_unique<veloce::tenant::AuthorizedKvService>(cluster_.get(), &ca_);
    for (size_t t = 0; t < tenants; ++t) {
      auto meta = controller_->CreateTenant("tenant" + std::to_string(t));
      VELOCE_CHECK(meta.ok()) << meta.status().ToString();
      auto cert = controller_->IssueCert(meta->id);
      VELOCE_CHECK(cert.ok()) << cert.status().ToString();
      sql::SqlNode::Options node_options;
      node_options.obs.metrics = &metrics_;
      auto node = std::make_unique<sql::SqlNode>(t, node_options, cluster_->clock());
      VELOCE_CHECK_OK(node->StartProcess());
      VELOCE_CHECK_OK(node->StampTenant(service_.get(), cluster_.get(), *cert));
      auto session = node->NewSession();
      VELOCE_CHECK(session.ok()) << session.status().ToString();
      sessions_.push_back(*session);
      nodes_.push_back(std::move(node));
    }
    cluster_->BalanceLeases();
  }
  ~RealStack() override {
    executor_.Drain();
    nodes_.clear();
    service_.reset();
    controller_.reset();
    cluster_.reset();
  }
  StatusOr<sql::ResultSet> Exec(int tenant, const std::string& text, bool) override {
    return sessions_[static_cast<size_t>(tenant)]->Execute(text);
  }
  void Quiesce() override { executor_.Drain(); }
  obs::MetricsRegistry* metrics() override { return &metrics_; }
  kv::KVCluster* kv() override { return cluster_.get(); }
  Nanos KvCpuNanos() override {
    Nanos total = 0;
    for (auto& node : nodes_) total += node->connector()->kv_cpu_nanos();
    return total;
  }

 private:
  obs::MetricsRegistry metrics_;
  storage::ThreadPoolExecutor executor_{1};
  std::unique_ptr<kv::KVCluster> cluster_;
  veloce::tenant::CertificateAuthority ca_;
  std::unique_ptr<veloce::tenant::TenantController> controller_;
  std::unique_ptr<veloce::tenant::AuthorizedKvService> service_;
  std::vector<std::unique_ptr<sql::SqlNode>> nodes_;
  std::vector<sql::Session*> sessions_;
};

// ---------------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------------

/// Both host-speed probes, run back to back in each slice. Slices are
/// spread through set-up and the measured phase and excluded from every
/// timing.
class Probe {
 public:
  /// Runs one slice; returns its wall time in ns.
  int64_t Slice() {
    const int64_t t0 = NowNanos();
    sink_ ^= ProbeKernel(sink_ + reg_ms_.size(), kProbeIterations);
    const int64_t t1 = NowNanos();
    sink_ ^= map_.Run(sink_);
    const int64_t t2 = NowNanos();
    reg_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
    map_ms_.push_back(static_cast<double>(t2 - t1) / 1e6);
    return t2 - t0;
  }
  size_t slices() const { return reg_ms_.size(); }
  double reg_median_ms() const { return Median(reg_ms_); }
  double map_median_ms() const { return Median(map_ms_); }
  /// Median slices since slice number `first`.
  double RegMedianSince(size_t first) const { return MedianSince(reg_ms_, first); }
  double MapMedianSince(size_t first) const { return MedianSince(map_ms_, first); }
  uint64_t sink() const { return sink_; }

 private:
  static double MedianSince(const std::vector<double>& v, size_t first) {
    return Median(std::vector<double>(
        v.begin() + static_cast<std::ptrdiff_t>(std::min(first, v.size())), v.end()));
  }

  MapProbe map_;
  std::vector<double> reg_ms_, map_ms_;
  uint64_t sink_ = 1;
};

// ---------------------------------------------------------------------------
// Client: executes operations, checks them against the shadow models and
// keeps the per-type accounting.
// ---------------------------------------------------------------------------

struct TypeStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  std::vector<double> latency_ms;  // failed operations as kFailedLatency
};

struct ClientStats {
  TypeStats types[kNumOpTypes];
  uint64_t statements = 0;
  uint64_t rows_returned = 0;
  uint64_t write_statements = 0;
  int64_t statement_cpu_ns = 0;  // traced runs only
  std::vector<std::string> mismatches;

  void Merge(const ClientStats& other) {
    for (int i = 0; i < kNumOpTypes; ++i) {
      types[i].attempted += other.types[i].attempted;
      types[i].failed += other.types[i].failed;
      types[i].retries += other.types[i].retries;
      types[i].latency_ms.insert(types[i].latency_ms.end(),
                                 other.types[i].latency_ms.begin(),
                                 other.types[i].latency_ms.end());
    }
    statements += other.statements;
    rows_returned += other.rows_returned;
    write_statements += other.write_statements;
    statement_cpu_ns += other.statement_cpu_ns;
    mismatches.insert(mismatches.end(), other.mismatches.begin(),
                      other.mismatches.end());
  }
};

/// Self-test hook (--corrupt 1): every result the client checks is altered
/// before the check, which verification must then reject.
bool g_corrupt = false;

/// Integer column `i` of `row`; false when the column is missing or of
/// another type, so a changed result shape fails verification instead of
/// aborting the run.
bool IntAt(const sql::Row& row, size_t i, int64_t* out) {
  if (i >= row.size() || row[i].kind() != sql::TypeKind::kInt) return false;
  *out = row[i].int_value();
  return true;
}

bool Retryable(const Status& s) {
  switch (s.code()) {
    case veloce::Code::kTransactionRetry:
    case veloce::Code::kTransactionAborted:
    case veloce::Code::kWriteIntentError:
    case veloce::Code::kRangeKeyMismatch:
    case veloce::Code::kLeaseEpochMismatch:
      return true;
    default:
      return false;
  }
}

class Client {
 public:
  Client(Stack* stack, std::vector<BankModel>* banks, const Q1Model* q1)
      : stack_(stack), banks_(banks), q1_(q1) {}

  ClientStats& stats() { return stats_; }

  void Run(const Op& op) {
    TypeStats& ts = stats_.types[op.type];
    ++ts.attempted;
    const int64_t t0 = NowNanos();
    Status s;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) ++ts.retries;
      s = Attempt(op);
      if (!Retryable(s)) break;
    }
    const int64_t t1 = NowNanos();
    if (s.ok()) {
      ts.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else {
      ++ts.failed;
      ts.latency_ms.push_back(kFailedLatency);
      Mismatch(std::string(kOpNames[op.type]) + " failed: " + s.ToString());
    }
  }

  /// Final checks: every bank tenant's row count and total.
  void VerifyBanks(const std::vector<int>& tenants) {
    for (int t : tenants) {
      auto r = Stmt(t, "SELECT COUNT(*), SUM(balance) FROM acct", true);
      const BankModel& m = (*banks_)[static_cast<size_t>(t)];
      int64_t count = 0, sum = 0;
      if (!r.ok() || r->rows.size() != 1 || !IntAt(r->rows[0], 0, &count) ||
          !IntAt(r->rows[0], 1, &sum)) {
        Mismatch("tenant " + std::to_string(t) + " totals query failed");
        continue;
      }
      if (g_corrupt) ++count;
      if (count != static_cast<int64_t>(m.rows()) || sum != m.total()) {
        Mismatch("tenant " + std::to_string(t) + " has " + std::to_string(count) +
                 " rows totalling " + std::to_string(sum) + ", model " +
                 std::to_string(m.rows()) + " / " + std::to_string(m.total()));
      }
    }
  }

  StatusOr<sql::ResultSet> Stmt(int tenant, const std::string& text, bool idempotent) {
    Tracer& tracer = Tracer::Get();
    const bool traced = tracer.enabled();
    int64_t cpu0 = 0;
    if (traced) {
      tracer.BeginStatement("sql.statement");
      cpu0 = veloce::ThreadCpuNanos();
    }
    auto r = stack_->Exec(tenant, text, idempotent);
    if (traced) {
      stats_.statement_cpu_ns += veloce::ThreadCpuNanos() - cpu0;
      tracer.EndStatement();
    }
    ++stats_.statements;
    if (r.ok()) stats_.rows_returned += r->rows.size();
    return r;
  }

 private:
  void Mismatch(std::string what) {
    if (stats_.mismatches.size() < 20) stats_.mismatches.push_back(std::move(what));
    else if (stats_.mismatches.size() == 20) stats_.mismatches.push_back("...");
  }

  BankModel& bank(const Op& op) { return (*banks_)[static_cast<size_t>(op.tenant)]; }

  /// Checks a point SELECT against the model; false on mismatch.
  bool CheckBalance(const Op& op, const sql::ResultSet& rs) {
    const int64_t want = bank(op).balance(static_cast<size_t>(op.a));
    int64_t got = 0;
    if (rs.rows.size() == 1 && rs.rows[0].size() == 1 && IntAt(rs.rows[0], 0, &got) &&
        got + (g_corrupt ? 1 : 0) == want) {
      return true;
    }
    Mismatch("tenant " + std::to_string(op.tenant) + " id " + std::to_string(op.a) +
             ": read " + (rs.rows.size() == 1 ? rs.rows[0][0].ToString() : "no row") +
             ", model " + std::to_string(want));
    return false;
  }

  bool CheckOneRow(const Op& op, const sql::ResultSet& rs) {
    if (rs.rows_affected == 1) return true;
    Mismatch(std::string(kOpNames[op.type]) + " on tenant " +
             std::to_string(op.tenant) + " affected " +
             std::to_string(rs.rows_affected) + " rows");
    return false;
  }

  Status Attempt(const Op& op) {
    switch (op.type) {
      case kRead: {
        VELOCE_ASSIGN_OR_RETURN(sql::ResultSet rs, Stmt(op.tenant, op.sql[0], true));
        CheckBalance(op, rs);
        return Status::OK();
      }
      case kUpdate:
      case kInsert: {
        ++stats_.write_statements;
        VELOCE_ASSIGN_OR_RETURN(sql::ResultSet rs, Stmt(op.tenant, op.sql[0], false));
        if (CheckOneRow(op, rs)) {
          if (op.type == kUpdate) {
            bank(op).Add(static_cast<size_t>(op.a), op.amount);
          } else {
            bank(op).Insert(static_cast<size_t>(op.a), op.amount);
          }
        }
        return Status::OK();
      }
      case kTransfer: {
        Status s = Transfer(op);
        if (!s.ok()) (void)Stmt(op.tenant, "ROLLBACK", true);
        return s;
      }
      case kScan: {
        VELOCE_ASSIGN_OR_RETURN(sql::ResultSet rs, Stmt(op.tenant, op.sql[0], true));
        Q1Result got;
        for (const auto& row : rs.rows) {
          Q1Group g;
          if (row.size() != 6 || row[0].kind() != sql::TypeKind::kString ||
              row[1].kind() != sql::TypeKind::kString || !IntAt(row, 2, &g.sum_qty) ||
              !IntAt(row, 3, &g.sum_price) || !IntAt(row, 4, &g.sum_disc_price) ||
              !IntAt(row, 5, &g.count)) {
            Mismatch("Q1-lite: unexpected row " + std::to_string(row.size()) + " columns");
            break;
          }
          got[{row[0].string_value(), row[1].string_value()}] = g;
        }
        if (g_corrupt && !got.empty()) got.begin()->second.count += 1;
        const std::string diff = CompareQ1(q1_->expected(), got);
        if (!diff.empty()) Mismatch("Q1-lite: " + diff);
        return Status::OK();
      }
      default:
        return Status::InvalidArgument("unknown op");
    }
  }

  Status Transfer(const Op& op) {
    VELOCE_RETURN_IF_ERROR(Stmt(op.tenant, op.sql[0], false).status());
    VELOCE_ASSIGN_OR_RETURN(sql::ResultSet rs, Stmt(op.tenant, op.sql[1], false));
    CheckBalance(op, rs);
    stats_.write_statements += 2;
    VELOCE_ASSIGN_OR_RETURN(sql::ResultSet debit, Stmt(op.tenant, op.sql[2], false));
    VELOCE_ASSIGN_OR_RETURN(sql::ResultSet credit, Stmt(op.tenant, op.sql[3], false));
    VELOCE_RETURN_IF_ERROR(Stmt(op.tenant, op.sql[4], false).status());
    if (CheckOneRow(op, debit) && CheckOneRow(op, credit)) {
      bank(op).Add(static_cast<size_t>(op.a), -op.amount);
      bank(op).Add(static_cast<size_t>(op.b), op.amount);
    }
    return Status::OK();
  }

  Stack* stack_;
  std::vector<BankModel>* banks_;
  const Q1Model* q1_;
  ClientStats stats_;
};

// ---------------------------------------------------------------------------
// Passes: set up a stack, run the stream, verify.
// ---------------------------------------------------------------------------

struct Prepared {
  std::unique_ptr<Stack> stack;
  std::vector<BankModel> banks;
  double setup_s = 0;
  std::vector<std::string> errors;
};

std::unique_ptr<Stack> MakeStack(const Plan& plan, uint64_t seed,
                                 const Instrumentation& inst) {
  if (plan.sim_stack) return std::make_unique<SimStack>(plan.tenants.size(), seed, inst);
  return std::make_unique<RealStack>(plan.tenants.size(), inst);
}

/// Builds the stack and loads every tenant's data through SQL.
Prepared Prepare(const Plan& plan, uint64_t seed, const Instrumentation& inst) {
  Prepared p;
  const int64_t t0 = NowNanos();
  p.stack = MakeStack(plan, seed, inst);
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    for (const std::string& s : plan.tenants[t].load_sql) {
      auto r = p.stack->Exec(static_cast<int>(t), s, false);
      if (!r.ok()) p.errors.push_back("load tenant " + std::to_string(t) + ": " + r.status().ToString());
      p.stack->Pump();
    }
  }
  p.setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
  for (const TenantPlan& t : plan.tenants) p.banks.emplace_back(t.balances);
  return p;
}

struct PassResult {
  ClientStats stats;
  double wall_s = 0;          // measured phase, probe slices excluded
  double early_ops_s = 0;     // first tenth of the segment
  double late_ops_s = 0;      // last tenth of the segment
  uint64_t ops = 0;
};

/// Part `index` of `count` equal, contiguous parts of every stream. An
/// end-to-end run measures each part on a freshly set-up stack (an epoch).
struct Segment {
  size_t index = 0;
  size_t count = 1;

  size_t begin(size_t n) const { return n * index / count; }
  size_t end(size_t n) const { return n * (index + 1) / count; }
};

std::vector<int> BankTenants(const Plan& plan) {
  std::vector<int> out;
  for (size_t t = 0; t < plan.tenants.size(); ++t) {
    if (!plan.tenants[t].lineitem) out.push_back(static_cast<int>(t));
  }
  return out;
}

/// Runs the single client stream, with probe slices spread through it.
PassResult RunSingle(const Plan& plan, Prepared* p, Segment seg, Probe* probe,
                     int probe_slices) {
  PassResult result;
  const std::vector<Op>& stream = plan.streams[0];
  const size_t first = seg.begin(stream.size());
  const size_t n = seg.end(stream.size()) - first;
  Client client(p->stack.get(), &p->banks, &plan.q1);
  const size_t tenth = std::max<size_t>(1, n / 10);
  int64_t excluded = 0;
  int next_probe = 0;
  const int64_t start = NowNanos();
  int64_t early_end = 0, late_start = 0;
  for (size_t i = 0; i < n; ++i) {
    if (probe != nullptr && next_probe < probe_slices &&
        i >= static_cast<size_t>(next_probe) * n / static_cast<size_t>(probe_slices)) {
      excluded += probe->Slice();
      ++next_probe;
    }
    if (i == n - tenth) late_start = NowNanos() - excluded;
    client.Run(stream[first + i]);
    p->stack->Pump();
    if (i + 1 == tenth) early_end = NowNanos() - excluded;
  }
  const int64_t end = NowNanos() - excluded;
  result.wall_s = static_cast<double>(end - start) / 1e9;
  result.early_ops_s = static_cast<double>(tenth) * 1e9 / static_cast<double>(early_end - start);
  result.late_ops_s = static_cast<double>(tenth) * 1e9 / static_cast<double>(end - late_start);
  result.ops = n;
  client.VerifyBanks(BankTenants(plan));
  result.stats = std::move(client.stats());
  return result;
}

/// Runs every stream on its own thread, started together, or all of them
/// round-robin on the calling thread when `one_thread`.
PassResult RunParallel(const Plan& plan, Prepared* p, Segment seg, bool one_thread) {
  PassResult result;
  const size_t threads = plan.streams.size();
  std::vector<ClientStats> stats(threads);
  auto ops_of = [&](size_t t) {
    const auto& s = plan.streams[t];
    return std::make_pair(s.begin() + static_cast<std::ptrdiff_t>(seg.begin(s.size())),
                          s.begin() + static_cast<std::ptrdiff_t>(seg.end(s.size())));
  };
  int64_t start = 0;
  if (one_thread) {
    Client client(p->stack.get(), &p->banks, &plan.q1);
    start = NowNanos();
    for (size_t i = 0;; ++i) {
      bool any = false;
      for (size_t t = 0; t < threads; ++t) {
        auto [b, e] = ops_of(t);
        if (b + static_cast<std::ptrdiff_t>(i) < e) {
          client.Run(*(b + static_cast<std::ptrdiff_t>(i)));
          any = true;
        }
      }
      if (!any) break;
    }
    stats[0] = std::move(client.stats());
  } else {
    std::atomic<size_t> ready{0};
    std::atomic<bool> go{false};
    auto worker = [&](size_t t) {
      Client client(p->stack.get(), &p->banks, &plan.q1);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      auto [b, e] = ops_of(t);
      for (auto it = b; it != e; ++it) client.Run(*it);
      stats[t] = std::move(client.stats());
    };
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    while (ready.load() < threads) std::this_thread::yield();
    start = NowNanos();
    go.store(true);
    for (auto& th : pool) th.join();
  }
  result.wall_s = static_cast<double>(NowNanos() - start) / 1e9;
  for (size_t t = 0; t < threads; ++t) {
    auto [b, e] = ops_of(t);
    result.ops += static_cast<uint64_t>(e - b);
  }
  Client checker(p->stack.get(), &p->banks, &plan.q1);
  checker.VerifyBanks(BankTenants(plan));
  for (auto& s : stats) result.stats.Merge(s);
  result.stats.Merge(checker.stats());
  result.early_ops_s = result.late_ops_s = 1;  // measured on single streams only
  return result;
}

PassResult RunPass(const Plan& plan, Prepared* p, Segment seg, Probe* probe,
                   int probe_slices) {
  if (plan.threads == 1) return RunSingle(plan, p, seg, probe, probe_slices);
  return RunParallel(plan, p, seg, /*one_thread=*/false);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Restarts the peak-RSS count from the current resident set (Linux
/// clear_refs "5"), so each epoch's peak is its own. Best effort: where
/// the reset is unavailable, the peak stays cumulative.
void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e12" : "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%-36s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %-8s %llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintAccounting(const ClientStats& s) {
  std::printf("\n%-10s %10s %8s %8s %12s %12s %12s\n", "op", "attempted", "failed",
              "retries", "p50_ms", "p99_ms", "samples");
  for (int i = 0; i < kNumOpTypes; ++i) {
    const TypeStats& t = s.types[i];
    if (t.attempted == 0) continue;
    const double p99 = SupportsPercentile(t.latency_ms.size(), 0.99)
                           ? Percentile(t.latency_ms, 0.99)
                           : std::nan("");
    std::printf("%-10s %10llu %8llu %8llu %12.4f %12.4f %12zu\n", kOpNames[i],
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.retries),
                Percentile(t.latency_ms, 0.5), p99, t.latency_ms.size());
  }
  for (const std::string& m : s.mismatches) std::printf("MISMATCH: %s\n", m.c_str());
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

Totals Count(const ClientStats& s) {
  Totals t;
  for (const TypeStats& ts : s.types) {
    t.attempted += ts.attempted;
    t.failed += ts.failed;
  }
  return t;
}

// ---------------------------------------------------------------------------
// The two run modes
// ---------------------------------------------------------------------------

/// Raw figures of one epoch and the probe medians taken during it.
struct EpochResult {
  double setup_s = 0;
  double ops_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> reads, writes, heavy;  // latencies in ms
  double reg_ms = 0;
  double map_ms = 0;
};

/// Percentile q over the epochs: the median of the epochs' own percentiles
/// when every epoch has enough samples for q, else the percentile of all
/// samples pooled. Latencies are scaled per epoch first.
double EpochPercentile(const std::vector<EpochResult>& epochs,
                       std::vector<double> EpochResult::*samples,
                       const std::vector<ProbeScale>& scales, double q, uint64_t* count) {
  std::vector<double> pooled, per_epoch;
  bool each = true;
  for (size_t e = 0; e < epochs.size(); ++e) {
    std::vector<double> v = epochs[e].*samples;
    for (double& x : v) x = scales[e].Latency(x);
    each = each && SupportsPercentile(v.size(), q);
    per_epoch.push_back(Percentile(v, q));
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  *count = pooled.size();
  return each ? Median(per_epoch) : Percentile(pooled, q);
}

int RunEndToEnd(const Plan& plan, uint64_t seed) {
  const size_t epochs = plan.epochs;
  const int slices_per_epoch = kProbeSlices / static_cast<int>(epochs);
  Probe probe;
  std::vector<EpochResult> results;
  ClientStats all;
  uint64_t ops = 0;
  for (size_t e = 0; e < epochs; ++e) {
    const size_t first_slice = probe.slices();
    probe.Slice();
    ResetPeakRss();
    EpochResult er;
    {
      Prepared p = Prepare(plan, seed, Instrumentation{});
      PassResult r = RunPass(plan, &p, Segment{e, epochs}, &probe, slices_per_epoch - 2);
      probe.Slice();
      er.peak_rss_mb = PeakRssMb();
      er.setup_s = p.setup_s;
      er.ops_s = static_cast<double>(r.ops) / r.wall_s;
      const TypeStats* t = r.stats.types;
      er.reads = t[kRead].latency_ms;
      er.writes = t[kUpdate].latency_ms;
      er.writes.insert(er.writes.end(), t[kInsert].latency_ms.begin(),
                       t[kInsert].latency_ms.end());
      er.heavy = t[plan.workload == "htap-scan" ? kScan : kTransfer].latency_ms;
      ops += r.ops;
      all.Merge(r.stats);
      all.mismatches.insert(all.mismatches.end(), p.errors.begin(), p.errors.end());
    }
    er.reg_ms = probe.RegMedianSince(first_slice);
    er.map_ms = probe.MapMedianSince(first_slice);
    std::printf("epoch %zu raw: setup_s %.5f ops_s %.1f read_p50 %.5f read_p99 %.5f "
                "write_p50 %.5f write_p99 %.5f heavy_p50 %.5f rss %.2f probes %.4f %.4f\n",
                e, er.setup_s, er.ops_s, Percentile(er.reads, 0.5),
                Percentile(er.reads, 0.99), Percentile(er.writes, 0.5),
                Percentile(er.writes, 0.99), Percentile(er.heavy, 0.5), er.peak_rss_mb,
                er.reg_ms, er.map_ms);
    results.push_back(std::move(er));
  }

  // Each epoch is scaled to the nominal host speed. The host's slowdown is
  // taken as the geometric mean of the two probes' slowdowns during the
  // epoch: neither probe alone tracked the drift on every workload and
  // every day on the reference host (README.md, Steadiness).
  std::vector<ProbeScale> scales;
  for (const EpochResult& er : results) {
    scales.push_back(
        {1.0, std::sqrt(er.reg_ms / kNominalRegProbeMs * er.map_ms / kNominalMapProbeMs)});
  }
  std::vector<double> setups, throughputs, rss;
  for (size_t e = 0; e < results.size(); ++e) {
    setups.push_back(scales[e].Latency(results[e].setup_s));
    throughputs.push_back(scales[e].Throughput(results[e].ops_s));
    rss.push_back(results[e].peak_rss_mb);
  }
  uint64_t n_read = 0, n_write = 0, n_heavy = 0;
  std::vector<Metric> metrics = {
      {"setup_s", Median(setups), "s", setups.size()},
      {"throughput_ops_s", Median(throughputs), "1/s", ops},
      {"read_p50_ms", EpochPercentile(results, &EpochResult::reads, scales, 0.5, &n_read),
       "ms", n_read},
      {"read_p99_ms", EpochPercentile(results, &EpochResult::reads, scales, 0.99, &n_read),
       "ms", n_read},
      {"write_p50_ms", EpochPercentile(results, &EpochResult::writes, scales, 0.5, &n_write),
       "ms", n_write},
      {"write_p99_ms", EpochPercentile(results, &EpochResult::writes, scales, 0.99, &n_write),
       "ms", n_write},
      {"heavy_p50_ms", EpochPercentile(results, &EpochResult::heavy, scales, 0.5, &n_heavy),
       "ms", n_heavy},
      {"peak_rss_mb", Median(rss), "MB", rss.size()},
  };
  const Totals totals = Count(all);
  PrintAccounting(all);
  std::printf("epochs: %zu; probe medians over %zu slices: register %.4f ms, map %.4f ms "
              "(sink %llx)\n",
              epochs, probe.slices(), probe.reg_median_ms(), probe.map_median_ms(),
              static_cast<unsigned long long>(probe.sink() & 0xff));
  for (const auto& m : metrics) {
    const double q = m.name.find("p99") != std::string::npos ? 0.99 : 0.5;
    if (m.unit == "ms" && !SupportsPercentile(m.samples, q)) {
      std::printf("note: %s has fewer than 10 samples beyond it\n", m.name.c_str());
    }
  }
  PrintResult(all.mismatches.empty(), totals.attempted, totals.failed, metrics);
  return 0;
}

/// Registry and connector counters the per-layer ledger is derived from,
/// each summed over every node, tenant and label.
std::map<std::string, double> ReadCounters(Stack* stack) {
  obs::MetricsRegistry* m = stack->metrics();
  std::map<std::string, double> c;
  for (const char* name :
       {"veloce_sql_kv_batches_total", "veloce_sql_marshal_cpu_ns_total",
        "veloce_sql_marshaled_bytes_total", "veloce_sql_rows_scanned_total",
        "veloce_sql_range_cache_hits_total", "veloce_sql_range_cache_misses_total",
        "veloce_txn_retries_total", "veloce_txn_commits_total",
        "veloce_storage_block_cache_hits", "veloce_storage_block_cache_misses",
        "veloce_storage_bloom_checked_total", "veloce_storage_bloom_useful_total",
        "veloce_storage_bloom_false_positive_total", "veloce_storage_ingest_bytes",
        "veloce_storage_wal_bytes", "veloce_storage_flush_bytes",
        "veloce_storage_compact_write_bytes", "veloce_storage_flushes_total",
        "veloce_storage_compactions_total", "veloce_storage_write_stalls_total"}) {
    c[name] = m->Sum(name);
  }
  c["commits_1pc"] = m->Value("veloce_txn_commits_total", {{"path", "1pc"}});
  c["commits_parallel"] = m->Value("veloce_txn_commits_total", {{"path", "parallel"}});
  c["oracle_sync_refills"] = m->Value("veloce_txn_oracle_refills_total", {{"mode", "sync"}});
  for (const auto& sample : m->Snapshot()) {
    if (sample.name != "veloce_sql_exec_engine_total") continue;
    for (const auto& [key, value] : sample.labels) {
      if (key == "engine") c["engine_" + value] += sample.value;
    }
  }
  c["kv_cpu_ns"] = static_cast<double>(stack->KvCpuNanos());
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunTraced(const Plan& plan, uint64_t seed, const std::string& out_dir) {
  Probe probe;
  for (int i = 0; i < kProbeSlices / 8; ++i) probe.Slice();
  // Untraced reference pass (same stream, same set-up).
  Prepared ref = Prepare(plan, seed, Instrumentation{});
  // Traced runs measure the first epoch's part of the stream: the same work
  // one epoch of an end-to-end run does.
  const Segment seg{0, plan.epochs};
  PassResult untraced = RunPass(plan, &ref, seg, &probe, kProbeSlices / 2);
  double one_thread_ops_s = 0;
  if (plan.threads > 1) {
    ref = Prepared();
    ref = Prepare(plan, seed, Instrumentation{});
    PassResult single = RunParallel(plan, &ref, seg, /*one_thread=*/true);
    one_thread_ops_s = static_cast<double>(single.ops) / single.wall_s;
  }
  ref = Prepared();

  // Traced pass: Env and transport wrappers, spans and counter deltas.
  TracedEnv env(storage::NewMemEnv());
  CountingTransport transport;
  Prepared p = Prepare(plan, seed, Instrumentation{&env, &transport});
  Tracer& tracer = Tracer::Get();
  const std::map<std::string, double> before = ReadCounters(p.stack.get());
  const uint64_t deliveries0 = transport.deliveries();
  tracer.SetEnabled(true);
  PassResult traced = RunPass(plan, &p, seg, &probe, kProbeSlices / 2);
  tracer.SetEnabled(false);
  p.stack->Quiesce();  // spans opened before tracing stopped have now ended
  for (int i = 0; i < kProbeSlices / 8; ++i) probe.Slice();
  const std::map<std::string, double> after = ReadCounters(p.stack.get());
  // Change of a counter over the traced pass (0 for a series never created).
  auto d = [&](const std::string& name) {
    auto a = after.find(name), b = before.find(name);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  const Tracer::Totals spans = tracer.Summarize();
  const ClientStats& s = traced.stats;

  // sql.parse: sql::Parse on the workload's own statement texts.
  int64_t parse_ns = 0;
  uint64_t parsed = 0;
  for (const auto& stream : plan.streams) {
    for (const Op& op : stream) {
      for (const std::string& text : op.sql) {
        const int64_t t0 = NowNanos();
        auto stmt = sql::Parse(text);
        parse_ns += NowNanos() - t0;
        ++parsed;
        if (!stmt.ok()) {
          std::printf("parse failed: %s\n", text.c_str());
        }
      }
    }
  }

  const double stmts = static_cast<double>(s.statements);
  const double commits = d("veloce_txn_commits_total");
  const double kv_cpu_ns = d("kv_cpu_ns");
  const double marshal_ns = d("veloce_sql_marshal_cpu_ns_total");
  const double storage_ns = static_cast<double>(spans.storage_child_ns);
  const double engines = d("engine_vectorized") + d("engine_row");
  const double range_lookups =
      d("veloce_sql_range_cache_hits_total") + d("veloce_sql_range_cache_misses_total");
  const double cache_lookups =
      d("veloce_storage_block_cache_hits") + d("veloce_storage_block_cache_misses");
  const double bloom_checked = d("veloce_storage_bloom_checked_total");
  const double bloom_positive = bloom_checked - d("veloce_storage_bloom_useful_total");
  const double ingested = d("veloce_storage_ingest_bytes");
  const double written = d("veloce_storage_wal_bytes") + d("veloce_storage_flush_bytes") +
                         d("veloce_storage_compact_write_bytes");
  const uint64_t n_commits = static_cast<uint64_t>(commits);
  const uint64_t n_stmts = s.statements;
  auto n = [](double v) { return static_cast<uint64_t>(v); };
  std::vector<Metric> metrics = {
      {"host.probe_ms", probe.reg_median_ms(), "ms", probe.slices()},
      {"host.map_probe_ms", probe.map_median_ms(), "ms", probe.slices()},
      {"sql.self_cpu_us_per_stmt",
       Ratio(static_cast<double>(s.statement_cpu_ns) - kv_cpu_ns - marshal_ns, stmts) / 1e3,
       "us", n_stmts},
      {"sql.parse_us_per_stmt",
       Ratio(static_cast<double>(parse_ns), static_cast<double>(parsed)) / 1e3, "us", parsed},
      {"sql.marshal_cpu_us_per_stmt", Ratio(marshal_ns, stmts) / 1e3, "us", n_stmts},
      {"sql.marshal_bytes_per_stmt", Ratio(d("veloce_sql_marshaled_bytes_total"), stmts),
       "B", n_stmts},
      {"sql.kv_batches_per_stmt", Ratio(d("veloce_sql_kv_batches_total"), stmts), "count",
       n_stmts},
      {"sql.rows_scanned_per_row_returned",
       Ratio(d("veloce_sql_rows_scanned_total"), static_cast<double>(s.rows_returned)),
       "ratio", s.rows_returned},
      {"sql.vectorized_share", Ratio(d("engine_vectorized"), engines), "ratio", n(engines)},
      {"sql.range_cache_hit_ratio",
       Ratio(d("veloce_sql_range_cache_hits_total"), range_lookups), "ratio",
       n(range_lookups)},
      {"kv.self_cpu_us_per_stmt", Ratio(kv_cpu_ns - storage_ns, stmts) / 1e3, "us", n_stmts},
      {"kv.txn_retries_per_commit", Ratio(d("veloce_txn_retries_total"), commits), "ratio",
       n_commits},
      {"kv.commit_path_share.1pc", Ratio(d("commits_1pc"), commits), "ratio", n_commits},
      {"kv.commit_path_share.parallel", Ratio(d("commits_parallel"), commits), "ratio",
       n_commits},
      {"kv.oracle_sync_refills_per_1k_txn",
       Ratio(d("oracle_sync_refills"), commits) * 1000, "count", n_commits},
      {"kv.replica_deliveries_per_write",
       Ratio(static_cast<double>(transport.deliveries() - deliveries0),
             static_cast<double>(s.write_statements)),
       "count", s.write_statements},
      {"kv.txn_records_live", static_cast<double>(p.stack->kv()->txn_registry()->size()),
       "count", 1},
      {"kv.late_over_early_ops_s", Ratio(untraced.late_ops_s, untraced.early_ops_s),
       "ratio", untraced.ops / 10},
      {"kv.parallel_speedup",
       plan.threads > 1
           ? Ratio(static_cast<double>(untraced.ops) / untraced.wall_s, one_thread_ops_s)
           : 1.0,
       "ratio", untraced.ops},
      {"storage.io_us_per_stmt", Ratio(storage_ns, stmts) / 1e3, "us", spans.child_spans},
      {"storage.block_cache_hit_ratio",
       Ratio(d("veloce_storage_block_cache_hits"), cache_lookups), "ratio", n(cache_lookups)},
      {"storage.bloom_useful_ratio", Ratio(d("veloce_storage_bloom_useful_total"), bloom_checked),
       "ratio", n(bloom_checked)},
      {"storage.bloom_false_positive_ratio",
       Ratio(d("veloce_storage_bloom_false_positive_total"), bloom_positive), "ratio",
       n(bloom_positive)},
      {"storage.write_amp", Ratio(written, ingested), "ratio", n(ingested)},
      {"storage.flushes", d("veloce_storage_flushes_total"), "count", 1},
      {"storage.compactions", d("veloce_storage_compactions_total"), "count", 1},
      {"storage.write_stalls", d("veloce_storage_write_stalls_total"), "count", 1},
      {"trace.overhead_pct", (traced.wall_s / untraced.wall_s - 1.0) * 100.0, "%", 2},
  };
  PrintAccounting(s);
  std::printf("spans: %llu statements, %llu child spans, root %.3f ms, storage %.3f ms, "
              "transport %.3f ms, background storage %.3f ms\n",
              static_cast<unsigned long long>(spans.statements),
              static_cast<unsigned long long>(spans.child_spans), spans.root_ns / 1e6,
              spans.storage_child_ns / 1e6, spans.transport_child_ns / 1e6,
              spans.background_storage_ns / 1e6);
  if (!out_dir.empty()) {
    const std::string path = out_dir + "/trace-" + plan.workload + "-" +
                             std::to_string(seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) std::printf("spans written to %s\n", path.c_str());
  }
  ClientStats all = std::move(traced.stats);
  all.Merge(untraced.stats);
  all.mismatches.insert(all.mismatches.end(), p.errors.begin(), p.errors.end());
  const Totals totals = Count(all);
  PrintResult(all.mismatches.empty(), totals.attempted, totals.failed, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  std::string workload, out_dir;
  uint64_t seed = 0;
  int seconds = 0, trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atoi(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else if (flag == "--out") out_dir = value;
    else if (flag == "--corrupt") g_corrupt = value == "1";
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (seconds < 1 || seconds > 3600 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <1..3600> "
                 "--trace <0|1> [--out <dir>] [--corrupt 1]\n");
    return 2;
  }
  const Plan plan = MakePlan(workload, seed, seconds);
  if (plan.streams.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  size_t ops = 0;
  for (const auto& s : plan.streams) ops += s.size();
  std::printf("workload %s seed %llu: %zu ops on %d client thread(s), op stream digest %s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), ops,
              plan.threads, plan.digest.c_str());
  return trace == 1 ? RunTraced(plan, seed, out_dir) : RunEndToEnd(plan, seed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
