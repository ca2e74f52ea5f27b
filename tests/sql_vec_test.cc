// Differential tests for the vectorized columnar engine (sql/vec/): every
// query runs on the row engine, on the auto-dispatched vectorized engine,
// and on the vectorized engine with KV fragment pushdown, and the three
// ResultSets must agree. Coverage concentrates on the places the engines
// could diverge: NULL handling in aggregates and predicates, int64 SUM
// wraparound, GROUP BY emission order, join row order, and late
// materialization (unread columns).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "sql/sql_node.h"
#include "tenant/controller.h"

namespace veloce::sql {
namespace {

// One sortable, comparable fingerprint per row: the ordered key encoding of
// every cell, concatenated. Byte-identical iff every Datum compares equal
// with matching kinds.
std::string RowKey(const Row& row) {
  std::string key;
  for (const Datum& d : row) d.EncodeKey(&key);
  return key;
}

// Strict equality, including row order. Used row-vs-vec: the vectorized
// engine reproduces the row engine's emission order exactly (sorted group
// keys, build-side insertion order for joins).
void ExpectIdentical(const ResultSet& a, const ResultSet& b,
                     const std::string& what) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size()) << what << " row " << i;
    for (size_t j = 0; j < a.rows[i].size(); ++j) {
      EXPECT_EQ(RowKey({a.rows[i][j]}), RowKey({b.rows[i][j]}))
          << what << " row " << i << " col " << j << ": "
          << a.rows[i][j].ToString() << " vs " << b.rows[i][j].ToString();
    }
  }
}

// Order-normalized equality with a relative tolerance on doubles. Used for
// the pushdown leg: per-range partial aggregates reassociate floating-point
// sums, so bit-identity is not guaranteed — 1e-9 relative is.
void ExpectEquivalent(const ResultSet& a, const ResultSet& b,
                      const std::string& what) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  auto order = [](const Row& x, const Row& y) { return RowKey(x) < RowKey(y); };
  std::vector<Row> ar = a.rows, br = b.rows;
  std::stable_sort(ar.begin(), ar.end(), order);
  std::stable_sort(br.begin(), br.end(), order);
  for (size_t i = 0; i < ar.size(); ++i) {
    ASSERT_EQ(ar[i].size(), br[i].size()) << what << " row " << i;
    for (size_t j = 0; j < ar[i].size(); ++j) {
      const Datum& x = ar[i][j];
      const Datum& y = br[i][j];
      if (x.kind() == TypeKind::kDouble && y.kind() == TypeKind::kDouble) {
        const double dx = x.double_value(), dy = y.double_value();
        if (dx == dy || (std::isnan(dx) && std::isnan(dy))) continue;
        const double scale = std::max(1.0, std::max(std::fabs(dx), std::fabs(dy)));
        EXPECT_LE(std::fabs(dx - dy), 1e-9 * scale)
            << what << " row " << i << " col " << j;
      } else {
        EXPECT_EQ(x.Compare(y), 0)
            << what << " row " << i << " col " << j << ": " << x.ToString()
            << " vs " << y.ToString();
      }
    }
  }
}

class SqlVecTest : public ::testing::Test {
 protected:
  SqlVecTest() {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    cluster_ = std::make_unique<kv::KVCluster>(opts);
    controller_ = std::make_unique<tenant::TenantController>(cluster_.get(), &ca_);
    service_ = std::make_unique<tenant::AuthorizedKvService>(cluster_.get(), &ca_);
    auto meta = *controller_->CreateTenant("app");
    tenant_id_ = meta.id;
    cert_ = *controller_->IssueCert(tenant_id_);

    SqlNode::Options options;
    options.mode = ProcessMode::kColocated;
    options.obs.metrics = &metrics_;
    node_ = std::make_unique<SqlNode>(1, options, cluster_->clock());
    VELOCE_CHECK_OK(node_->StartProcess());
    VELOCE_CHECK_OK(node_->StampTenant(service_.get(), cluster_.get(), cert_));
    session_ = *node_->NewSession();
  }

  ResultSet Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    VELOCE_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  // Runs `sql` on all three legs. Row vs vectorized must match exactly
  // (order included); the pushdown leg matches up to ordering and float
  // tolerance. Status codes must agree across legs.
  void Differential(const std::string& sql, bool expect_vectorized = true) {
    Exec("SET kv_pushdown = off");
    Exec("SET vectorize = off");
    auto row = session_->Execute(sql);
    Exec("SET vectorize = on");
    auto vec = session_->Execute(sql);
    EXPECT_EQ(session_->last_select_engine(),
              expect_vectorized ? "vectorized" : "row")
        << sql;
    Exec("SET kv_pushdown = on");
    auto pushed = session_->Execute(sql);
    Exec("SET kv_pushdown = off");

    ASSERT_EQ(row.status().code(), vec.status().code()) << sql;
    ASSERT_EQ(row.status().code(), pushed.status().code()) << sql;
    if (!row.ok()) return;
    ExpectIdentical(*row, *vec, "row vs vec: " + sql);
    ExpectEquivalent(*row, *pushed, "row vs pushed: " + sql);
  }

  double Metric(std::string_view name, obs::Labels labels = {}) {
    labels.emplace(labels.begin(), "tenant", std::to_string(tenant_id_));
    return metrics_.Value(name, labels);
  }

  tenant::CertificateAuthority ca_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<kv::KVCluster> cluster_;
  std::unique_ptr<tenant::TenantController> controller_;
  std::unique_ptr<tenant::AuthorizedKvService> service_;
  kv::TenantId tenant_id_;
  tenant::TenantCert cert_;
  std::unique_ptr<SqlNode> node_;
  Session* session_;
};

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

class SqlVecEdgeTest : public SqlVecTest {
 protected:
  SqlVecEdgeTest() {
    Exec("CREATE TABLE t (id INT PRIMARY KEY, a INT, b DOUBLE, c STRING, "
         "grp INT)");
    Exec("INSERT INTO t VALUES "
         "(1, 10, 1.5, 'x', 1), "
         "(2, NULL, 2.5, 'y', 1), "
         "(3, 30, NULL, 'x', 2), "
         "(4, NULL, NULL, NULL, 2), "
         "(5, -7, 0.25, '', NULL), "
         "(6, 9223372036854775807, 1e300, 'z', 1), "
         "(7, 9223372036854775807, 1e300, 'z', 1)");
  }
};

TEST_F(SqlVecEdgeTest, FullScanAllColumns) {
  Differential("SELECT * FROM t");
}

TEST_F(SqlVecEdgeTest, NullsInPredicates) {
  // NULL comparisons are not-true in both engines; rows 2, 4, 5 drop out of
  // one predicate or another.
  Differential("SELECT id FROM t WHERE a > 0");
  Differential("SELECT id FROM t WHERE b < 2.0 OR c = 'x'");
  Differential("SELECT id, a FROM t WHERE grp = 1 AND a > 5");
}

TEST_F(SqlVecEdgeTest, AggregatesSkipNulls) {
  // COUNT(a)=5 vs COUNT(*)=7; SUM/AVG/MIN/MAX ignore the NULL slots.
  Differential(
      "SELECT COUNT(*), COUNT(a), SUM(a), AVG(b), MIN(a), MAX(c) FROM t");
}

TEST_F(SqlVecEdgeTest, Int64SumWraparound) {
  // Two INT64_MAX values: SUM wraps identically (two's complement) in both
  // engines rather than diverging through a double.
  Differential("SELECT SUM(a) FROM t WHERE id >= 6");
}

TEST_F(SqlVecEdgeTest, GroupByWithNullGroup) {
  // grp=NULL forms its own group; emission order is the sorted group-key
  // order in both engines.
  Differential("SELECT grp, COUNT(*), SUM(a) FROM t GROUP BY grp");
  Differential(
      "SELECT c, grp, AVG(b) FROM t GROUP BY c, grp ORDER BY c, grp");
}

TEST_F(SqlVecEdgeTest, ExpressionsAndLateMaterialization) {
  Differential("SELECT id, a * 2 + 1, b * (1 - b) FROM t WHERE id > 1");
  // Only `id` is read: the vectorized scan skips decoding every other
  // column; results must still match.
  Differential("SELECT id FROM t");
}

TEST_F(SqlVecEdgeTest, PointLookupFallsBackToRowEngine) {
  Differential("SELECT * FROM t WHERE id = 3", /*expect_vectorized=*/false);
}

TEST_F(SqlVecEdgeTest, ForceVectorizeErrorsOnUncoveredShapes) {
  Exec("SET vectorize = force");
  // Point lookups are planned KV-side, not by the columnar scan.
  auto result = session_->Execute("SELECT * FROM t WHERE id = 3");
  EXPECT_TRUE(result.status().code() == Code::kNotSupported);
  // Transactional reads always take the row engine.
  Exec("BEGIN");
  result = session_->Execute("SELECT * FROM t");
  EXPECT_TRUE(result.status().code() == Code::kNotSupported);
  Exec("ROLLBACK");  // the failed statement aborted the transaction
  Exec("SET vectorize = on");
  // Covered shapes still work under force.
  auto forced = session_->Execute("SELECT SUM(a) FROM t");
  EXPECT_TRUE(forced.ok());
}

TEST_F(SqlVecEdgeTest, EachSelectIsPlannedOnce) {
  // One descriptor lookup per statement: the dispatcher plans once, and the
  // engine that runs the statement reuses that plan.
  Catalog* catalog = node_->catalog();
  uint64_t hits = catalog->cache_hits();
  Exec("SELECT * FROM t WHERE id = 3");  // point lookup: the row engine
  EXPECT_EQ(catalog->cache_hits(), hits + 1);
  EXPECT_EQ(session_->last_select_engine(), "row");
  hits = catalog->cache_hits();
  Exec("SELECT SUM(a) FROM t");  // full scan: the vectorized engine
  EXPECT_EQ(catalog->cache_hits(), hits + 1);
  EXPECT_EQ(session_->last_select_engine(), "vectorized");
}

TEST_F(SqlVecEdgeTest, ForceVectorizeReturnsPlanErrors) {
  // An invalid statement fails in the shared plan, before either engine
  // runs, with its own error on every engine setting.
  for (const char* setting : {"off", "on", "force"}) {
    Exec(std::string("SET vectorize = ") + setting);
    auto result = session_->Execute("SELECT nope FROM t");
    EXPECT_TRUE(result.status().IsNotFound()) << setting << ": "
                                              << result.status().ToString();
    result = session_->Execute("SELECT SUM(a) FROM t ORDER BY 2");
    EXPECT_EQ(result.status().code(), Code::kInvalidArgument) << setting;
  }
  Exec("SET vectorize = on");
}

TEST_F(SqlVecEdgeTest, EngineAndScanMetrics) {
  const double vec0 = Metric("veloce_sql_exec_engine_total",
                             {{"engine", "vectorized"}});
  const double row0 = Metric("veloce_sql_exec_engine_total", {{"engine", "row"}});
  const double scanned0 = Metric("veloce_sql_rows_scanned_total");
  const double batches0 = Metric("veloce_sql_batches_total");

  Exec("SELECT COUNT(*) FROM t");  // vectorized full scan, 7 rows, 1 batch
  EXPECT_EQ(Metric("veloce_sql_rows_scanned_total"), scanned0 + 7);
  EXPECT_EQ(Metric("veloce_sql_batches_total"), batches0 + 1);

  Exec("SET vectorize = off");
  Exec("SELECT COUNT(*) FROM t");  // row engine: scans rows but no batches
  Exec("SET vectorize = on");

  EXPECT_EQ(Metric("veloce_sql_exec_engine_total", {{"engine", "vectorized"}}),
            vec0 + 1);
  EXPECT_EQ(Metric("veloce_sql_exec_engine_total", {{"engine", "row"}}),
            row0 + 1);
  EXPECT_EQ(Metric("veloce_sql_rows_scanned_total"), scanned0 + 14);
  EXPECT_EQ(Metric("veloce_sql_batches_total"), batches0 + 1);
}

TEST_F(SqlVecEdgeTest, JoinMatchesRowEngineOrder) {
  Exec("CREATE TABLE u (uid INT PRIMARY KEY, grp INT, tag STRING)");
  Exec("INSERT INTO u VALUES (1, 1, 'one'), (2, 1, 'uno'), (3, 2, 'two'), "
       "(4, NULL, 'none')");
  // NULL join keys match nothing; duplicate build keys fan out in build
  // insertion order.
  Differential(
      "SELECT t.id, u.tag FROM t JOIN u ON t.grp = u.grp WHERE t.id < 6");
  Differential(
      "SELECT u.tag, COUNT(*), SUM(t.a) FROM t JOIN u ON t.grp = u.grp "
      "GROUP BY u.tag ORDER BY u.tag");
}

// ---------------------------------------------------------------------------
// Randomized differential
// ---------------------------------------------------------------------------

TEST_F(SqlVecTest, RandomizedDifferential) {
  Exec("CREATE TABLE r (id INT PRIMARY KEY, a INT, b DOUBLE, c STRING, "
       "g INT, h INT)");
  Exec("CREATE TABLE s (sid INT PRIMARY KEY, g INT, lbl STRING)");

  Random rng(20260809);
  const char* strings[] = {"'aa'", "'b'", "'ccc'", "''", "NULL"};
  // 400 rows across several ranges so pushdown merges per-range partials.
  for (int i = 0; i < 400; i += 50) {
    std::string stmt = "INSERT INTO r VALUES ";
    for (int j = i; j < i + 50; ++j) {
      if (j > i) stmt += ", ";
      std::string a = rng.Uniform(8) == 0
                          ? "NULL"
                          : std::to_string(static_cast<int64_t>(rng.Uniform(1000)) -
                                           500);
      if (rng.Uniform(40) == 0) a = "9223372036854775807";  // overflow fodder
      std::string b = rng.Uniform(8) == 0
                          ? "NULL"
                          : std::to_string(rng.Uniform(20000) / 100.0);
      std::string g =
          rng.Uniform(6) == 0 ? "NULL" : std::to_string(rng.Uniform(5));
      stmt += "(" + std::to_string(j) + ", " + a + ", " + b + ", " +
              strings[rng.Uniform(5)] + ", " + g + ", " +
              std::to_string(rng.Uniform(3)) + ")";
    }
    Exec(stmt);
  }
  for (int j = 0; j < 8; ++j) {
    Exec("INSERT INTO s VALUES (" + std::to_string(j) + ", " +
         (j < 6 ? std::to_string(j % 5) : "NULL") + ", 'L" +
         std::to_string(j) + "')");
  }

  // `q` qualifies column references ("r.") so join predicates stay
  // unambiguous; single-table queries pass "".
  auto pred = [&](const std::string& q) -> std::string {
    switch (rng.Uniform(6)) {
      case 0:
        return q + "a > " +
               std::to_string(static_cast<int64_t>(rng.Uniform(800)) - 400);
      case 1:
        return q + "b < " + std::to_string(rng.Uniform(20000) / 100.0);
      case 2:
        return q + "c = 'aa'";
      case 3:
        return q + "g = " + std::to_string(rng.Uniform(5));
      case 4:
        return q + "id >= " + std::to_string(rng.Uniform(400)) + " AND " + q +
               "h = " + std::to_string(rng.Uniform(3));
      default:
        return q + "a * 2 > " + q + "b OR " + q + "c = 'b'";
    }
  };

  for (int iter = 0; iter < 80; ++iter) {
    std::string sql;
    switch (rng.Uniform(5)) {
      case 0:  // projection + filter
        sql = "SELECT id, a, b FROM r WHERE " + pred("");
        break;
      case 1:  // expression projection
        sql = "SELECT id, a + h, b * 2.0 FROM r WHERE " + pred("");
        break;
      case 2:  // global aggregates
        sql = "SELECT COUNT(*), COUNT(a), SUM(a), AVG(b), MIN(b), MAX(c) "
              "FROM r WHERE " + pred("");
        break;
      case 3:  // grouped aggregates
        sql = "SELECT g, h, COUNT(*), SUM(a), AVG(b) FROM r WHERE " +
              pred("") + " GROUP BY g, h ORDER BY g, h";
        break;
      default:  // join, sometimes aggregated
        if (rng.Uniform(2) == 0) {
          sql = "SELECT r.id, s.lbl FROM r JOIN s ON r.g = s.g WHERE " +
                pred("r.");
        } else {
          sql = "SELECT s.lbl, COUNT(*), SUM(r.a) FROM r JOIN s ON r.g = s.g "
                "WHERE " + pred("r.") + " GROUP BY s.lbl ORDER BY s.lbl";
        }
        break;
    }
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + sql);
    Differential(sql);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace veloce::sql
