#include <gtest/gtest.h>

#include "common/logging.h"
#include "kv/keys.h"
#include "obs/metrics.h"
#include "sql/datum.h"
#include "sql/parser.h"
#include "sql/row.h"
#include "sql/sql_node.h"
#include "tenant/controller.h"

namespace veloce::sql {
namespace {

// ---------------------------------------------------------------------------
// Datum
// ---------------------------------------------------------------------------

TEST(DatumTest, CompareWithinKinds) {
  EXPECT_LT(Datum::Int(1).Compare(Datum::Int(2)), 0);
  EXPECT_EQ(Datum::String("a").Compare(Datum::String("a")), 0);
  EXPECT_GT(Datum::Double(2.5).Compare(Datum::Double(1.0)), 0);
  EXPECT_LT(Datum::Bool(false).Compare(Datum::Bool(true)), 0);
}

TEST(DatumTest, NullSortsFirst) {
  EXPECT_LT(Datum::Null().Compare(Datum::Int(-100)), 0);
  EXPECT_EQ(Datum::Null().Compare(Datum::Null()), 0);
}

TEST(DatumTest, CrossNumericCompare) {
  EXPECT_EQ(Datum::Int(2).Compare(Datum::Double(2.0)), 0);
  EXPECT_LT(Datum::Int(2).Compare(Datum::Double(2.5)), 0);
}

TEST(DatumTest, KeyEncodingPreservesOrder) {
  std::vector<Datum> values = {Datum::Null(),        Datum::Int(-100),
                               Datum::Int(0),        Datum::Int(7),
                               Datum::String("abc"), Datum::String("abd")};
  // Note: kinds are ordered by the type tag, so this list is ascending.
  std::string prev;
  for (const auto& v : values) {
    std::string buf;
    v.EncodeKey(&buf);
    if (!prev.empty()) EXPECT_LT(prev, buf) << v.ToString();
    prev = buf;
  }
}

TEST(DatumTest, KeyAndValueRoundTrip) {
  const Datum values[] = {Datum::Null(), Datum::Bool(true), Datum::Int(-42),
                          Datum::Double(3.25), Datum::String("hello world")};
  for (const auto& v : values) {
    std::string key, val;
    v.EncodeKey(&key);
    v.EncodeValue(&val);
    Slice key_in(key), val_in(val);
    Datum from_key, from_val;
    ASSERT_TRUE(Datum::DecodeKey(&key_in, &from_key).ok());
    ASSERT_TRUE(Datum::DecodeValue(&val_in, &from_val).ok());
    EXPECT_EQ(v.Compare(from_key), 0) << v.ToString();
    EXPECT_EQ(v.Compare(from_val), 0) << v.ToString();
    EXPECT_EQ(v.kind(), from_key.kind());
  }
}

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

TableDescriptor MakeTestTable() {
  TableDescriptor desc;
  desc.id = 101;
  desc.name = "users";
  desc.columns = {{1, "id", TypeKind::kInt, false},
                  {2, "name", TypeKind::kString, true},
                  {3, "age", TypeKind::kInt, true}};
  desc.primary.id = kPrimaryIndexId;
  desc.primary.name = "primary";
  desc.primary.column_ids = {1};
  IndexDescriptor by_name;
  by_name.id = 1;
  by_name.name = "users_by_name";
  by_name.column_ids = {2};
  desc.secondaries.push_back(by_name);
  return desc;
}

TEST(RowCodecTest, PrimaryRoundTrip) {
  TableDescriptor desc = MakeTestTable();
  Row row = {Datum::Int(7), Datum::String("carl"), Datum::Int(33)};
  const std::string key = EncodePrimaryKey(desc, row);
  const std::string value = EncodeRowValue(desc, row);
  Row decoded;
  ASSERT_TRUE(DecodeRow(desc, key, value, &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0].int_value(), 7);
  EXPECT_EQ(decoded[1].string_value(), "carl");
  EXPECT_EQ(decoded[2].int_value(), 33);
}

TEST(RowCodecTest, PrimaryKeysSortByPk) {
  TableDescriptor desc = MakeTestTable();
  Row a = {Datum::Int(1), Datum::Null(), Datum::Null()};
  Row b = {Datum::Int(2), Datum::Null(), Datum::Null()};
  EXPECT_LT(EncodePrimaryKey(desc, a), EncodePrimaryKey(desc, b));
}

TEST(RowCodecTest, SecondaryKeyEmbedsPk) {
  TableDescriptor desc = MakeTestTable();
  Row row = {Datum::Int(7), Datum::String("carl"), Datum::Int(33)};
  const std::string key = EncodeSecondaryKey(desc, desc.secondaries[0], row);
  std::vector<Datum> pk;
  ASSERT_TRUE(DecodeSecondaryKeyPk(desc, desc.secondaries[0], key, &pk).ok());
  ASSERT_EQ(pk.size(), 1u);
  EXPECT_EQ(pk[0].int_value(), 7);
}

TEST(RowCodecTest, DescriptorRoundTrip) {
  TableDescriptor desc = MakeTestTable();
  auto decoded = *TableDescriptor::Decode(desc.Encode());
  EXPECT_EQ(decoded.id, desc.id);
  EXPECT_EQ(decoded.name, desc.name);
  ASSERT_EQ(decoded.columns.size(), 3u);
  EXPECT_EQ(decoded.columns[1].name, "name");
  EXPECT_EQ(decoded.columns[1].type, TypeKind::kString);
  ASSERT_EQ(decoded.secondaries.size(), 1u);
  EXPECT_EQ(decoded.secondaries[0].column_ids, std::vector<uint32_t>{2});
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, CreateTable) {
  auto stmt = *Parse(
      "CREATE TABLE users (id INT PRIMARY KEY, name STRING NOT NULL, age INT)");
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreateTable);
  EXPECT_EQ(stmt->create_table.table, "users");
  ASSERT_EQ(stmt->create_table.columns.size(), 3u);
  EXPECT_TRUE(stmt->create_table.columns[0].primary_key);
  EXPECT_TRUE(stmt->create_table.columns[1].not_null);
  EXPECT_EQ(stmt->create_table.columns[2].type, TypeKind::kInt);
}

TEST(ParserTest, CreateTableCompositeKey) {
  auto stmt = *Parse(
      "CREATE TABLE t (a INT, b INT, c STRING, PRIMARY KEY (a, b))");
  EXPECT_EQ(stmt->create_table.primary_key,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = *Parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt->insert.values.size(), 2u);
  EXPECT_FALSE(stmt->insert.upsert);
}

TEST(ParserTest, SelectWithEverything) {
  auto stmt = *Parse(
      "SELECT a, SUM(b) AS total FROM t WHERE a > 10 AND c = 'x' "
      "GROUP BY a ORDER BY total DESC LIMIT 5");
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& sel = stmt->select;
  EXPECT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[1].alias, "total");
  EXPECT_NE(sel.where, nullptr);
  EXPECT_EQ(sel.group_by.size(), 1u);
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_TRUE(sel.order_by[0].desc);
  EXPECT_EQ(sel.limit, 5);
}

TEST(ParserTest, SelectJoin) {
  auto stmt = *Parse(
      "SELECT o.id, c.name FROM orders o JOIN customers c ON o.cust_id = c.id");
  const SelectStmt& sel = stmt->select;
  EXPECT_EQ(sel.table, "orders");
  EXPECT_EQ(sel.table_alias, "o");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].table, "customers");
  EXPECT_EQ(sel.joins[0].alias, "c");
  EXPECT_NE(sel.joins[0].on, nullptr);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = *Parse("SELECT 1 + 2 * 3");
  const Expr* e = stmt->select.items[0].expr.get();
  ASSERT_EQ(e->kind, Expr::Kind::kBinary);
  EXPECT_EQ(e->op, BinOp::kAdd);  // * binds tighter
  EXPECT_EQ(e->right->op, BinOp::kMul);
}

TEST(ParserTest, Params) {
  auto stmt = *Parse("SELECT * FROM t WHERE id = $1");
  const Expr* where = stmt->select.where.get();
  ASSERT_EQ(where->kind, Expr::Kind::kBinary);
  EXPECT_EQ(where->right->kind, Expr::Kind::kParam);
  EXPECT_EQ(where->right->param_index, 1);
}

TEST(ParserTest, StringEscapes) {
  auto stmt = *Parse("SELECT 'it''s'");
  EXPECT_EQ(stmt->select.items[0].expr->literal.string_value(), "it's");
}

TEST(ParserTest, TxnStatements) {
  EXPECT_EQ((*Parse("BEGIN"))->txn.kind, TxnStmt::Kind::kBegin);
  EXPECT_EQ((*Parse("BEGIN TRANSACTION"))->txn.kind, TxnStmt::Kind::kBegin);
  EXPECT_EQ((*Parse("COMMIT"))->txn.kind, TxnStmt::Kind::kCommit);
  EXPECT_EQ((*Parse("ROLLBACK"))->txn.kind, TxnStmt::Kind::kRollback);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(Parse("SELEC * FROM t").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(Parse("SELECT * FROM t; extra").ok());
  EXPECT_FALSE(Parse("SELECT 'unterminated").ok());
}

TEST(ParserTest, CaseInsensitiveKeywordsLowercaseIdents) {
  auto stmt = *Parse("select ID from USERS");
  EXPECT_EQ(stmt->select.table, "users");
  EXPECT_EQ(stmt->select.items[0].expr->column_name, "id");
}

// ---------------------------------------------------------------------------
// End-to-end SQL over the full stack
// ---------------------------------------------------------------------------

class SqlEndToEndTest : public ::testing::Test {
 protected:
  SqlEndToEndTest() {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    cluster_ = std::make_unique<kv::KVCluster>(opts);
    controller_ = std::make_unique<tenant::TenantController>(cluster_.get(), &ca_);
    service_ = std::make_unique<tenant::AuthorizedKvService>(cluster_.get(), &ca_);
    auto meta = *controller_->CreateTenant("app");
    tenant_id_ = meta.id;
    cert_ = *controller_->IssueCert(tenant_id_);

    node_ = std::make_unique<SqlNode>(1, SqlNode::Options{}, cluster_->clock());
    VELOCE_CHECK_OK(node_->StartProcess());
    VELOCE_CHECK_OK(node_->StampTenant(service_.get(), cluster_.get(), cert_));
    session_ = *node_->NewSession();
  }

  ResultSet Exec(const std::string& sql) {
    auto result = session_->Execute(sql);
    VELOCE_CHECK(result.ok()) << sql << " -> " << result.status().ToString();
    return std::move(result).value();
  }

  tenant::CertificateAuthority ca_;
  std::unique_ptr<kv::KVCluster> cluster_;
  std::unique_ptr<tenant::TenantController> controller_;
  std::unique_ptr<tenant::AuthorizedKvService> service_;
  kv::TenantId tenant_id_;
  tenant::TenantCert cert_;
  std::unique_ptr<SqlNode> node_;
  Session* session_;
};

TEST_F(SqlEndToEndTest, CreateInsertSelect) {
  Exec("CREATE TABLE users (id INT PRIMARY KEY, name STRING, age INT)");
  Exec("INSERT INTO users VALUES (1, 'ada', 36), (2, 'grace', 45), (3, 'alan', 41)");
  ResultSet rs = Exec("SELECT name FROM users WHERE id = 2");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "grace");
}

TEST_F(SqlEndToEndTest, SelectStarAndOrderBy) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)");
  ResultSet rs = Exec("SELECT * FROM t ORDER BY v");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.columns, (std::vector<std::string>{"id", "v"}));
  EXPECT_EQ(rs.rows[0][0].int_value(), 2);
  EXPECT_EQ(rs.rows[2][0].int_value(), 1);
}

TEST_F(SqlEndToEndTest, WherePkRangeUsesTightScan) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  for (int i = 0; i < 20; ++i) {
    Exec("INSERT INTO t VALUES (" + std::to_string(i) + ", " + std::to_string(i * 10) + ")");
  }
  ResultSet rs = Exec("SELECT id FROM t WHERE id >= 5 AND id < 8");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 5);
  EXPECT_EQ(rs.rows[2][0].int_value(), 7);
}

TEST_F(SqlEndToEndTest, NonPkFilterScansAndFilters) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 5), (2, 10), (3, 5)");
  ResultSet rs = Exec("SELECT id FROM t WHERE v = 5 ORDER BY id");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[1][0].int_value(), 3);
}

TEST_F(SqlEndToEndTest, DuplicatePkRejected) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1)");
  auto result = session_->Execute("INSERT INTO t VALUES (1, 2)");
  EXPECT_EQ(result.status().code(), Code::kAlreadyExists);
}

TEST_F(SqlEndToEndTest, UpsertOverwrites) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1)");
  Exec("UPSERT INTO t VALUES (1, 99)");
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 99);
}

TEST_F(SqlEndToEndTest, NotNullEnforced) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)");
  auto result = session_->Execute("INSERT INTO t (id) VALUES (1)");
  EXPECT_EQ(result.status().code(), Code::kInvalidArgument);
}

TEST_F(SqlEndToEndTest, UpdateAndDelete) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  ResultSet updated = Exec("UPDATE t SET v = v + 1 WHERE id >= 2");
  EXPECT_EQ(updated.rows_affected, 2u);
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 3").rows[0][0].int_value(), 31);
  ResultSet deleted = Exec("DELETE FROM t WHERE v = 21");
  EXPECT_EQ(deleted.rows_affected, 1u);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 2);
}

TEST_F(SqlEndToEndTest, UpdatePrimaryKeyMovesRow) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 10)");
  Exec("UPDATE t SET id = 5 WHERE id = 1");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t WHERE id = 1").rows[0][0].int_value(), 0);
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 5").rows[0][0].int_value(), 10);
}

TEST_F(SqlEndToEndTest, AggregatesAndGroupBy) {
  Exec("CREATE TABLE sales (id INT PRIMARY KEY, region STRING, amount INT)");
  Exec("INSERT INTO sales VALUES (1, 'east', 100), (2, 'west', 50), "
       "(3, 'east', 200), (4, 'west', 150), (5, 'east', 50)");
  ResultSet rs = Exec(
      "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS avg_amt, "
      "MIN(amount) AS lo, MAX(amount) AS hi FROM sales GROUP BY region ORDER BY region");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "east");
  EXPECT_EQ(rs.rows[0][1].int_value(), 3);
  EXPECT_EQ(rs.rows[0][2].int_value(), 350);
  EXPECT_NEAR(rs.rows[0][3].double_value(), 350.0 / 3, 1e-9);
  EXPECT_EQ(rs.rows[0][4].int_value(), 50);
  EXPECT_EQ(rs.rows[0][5].int_value(), 200);
}

TEST_F(SqlEndToEndTest, AggregateOnEmptyTable) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY)");
  ResultSet rs = Exec("SELECT COUNT(*), SUM(id) FROM t");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(SqlEndToEndTest, SecondaryIndexServesEqualityLookups) {
  Exec("CREATE TABLE users (id INT PRIMARY KEY, city STRING, age INT)");
  for (int i = 0; i < 30; ++i) {
    Exec("INSERT INTO users VALUES (" + std::to_string(i) + ", '" +
         (i % 3 == 0 ? "nyc" : "sfo") + "', " + std::to_string(20 + i) + ")");
  }
  Exec("CREATE INDEX users_by_city ON users (city)");
  ResultSet rs = Exec("SELECT COUNT(*) FROM users WHERE city = 'nyc'");
  EXPECT_EQ(rs.rows[0][0].int_value(), 10);
  // Index stays consistent through updates and deletes.
  Exec("UPDATE users SET city = 'nyc' WHERE id = 1");
  Exec("DELETE FROM users WHERE id = 0");
  rs = Exec("SELECT COUNT(*) FROM users WHERE city = 'nyc'");
  EXPECT_EQ(rs.rows[0][0].int_value(), 10);
}

TEST_F(SqlEndToEndTest, UpdateOfIndexedColumnRetiresOldIndexEntry) {
  Exec("CREATE TABLE users (id INT PRIMARY KEY, city STRING)");
  Exec("CREATE INDEX users_by_city ON users (city)");
  Exec("INSERT INTO users VALUES (1, 'nyc'), (2, 'sfo')");
  // The UPDATE reuses the row its point read returned to find the stale
  // index entry: one read batch, then the one-phase commit.
  node_->connector()->ResetFeatures();
  EXPECT_EQ(Exec("UPDATE users SET city = 'lon' WHERE id = 2").rows_affected, 1u);
  const auto& f = node_->connector()->features();
  EXPECT_EQ(f.read_batches, 1);
  EXPECT_EQ(f.write_batches, 1);
  // Every KV key of the tenant: descriptors, rows and index entries.
  auto count_keys = [&] {
    kv::BatchRequest scan;
    scan.tenant_id = tenant_id_;
    scan.AddScan(kv::TenantPrefix(tenant_id_), kv::TenantPrefixEnd(tenant_id_));
    auto resp = cluster_->Send(scan);
    VELOCE_CHECK(resp.ok()) << resp.status().ToString();
    return resp->responses[0].rows.size();
  };
  const size_t before = count_keys();
  EXPECT_EQ(Exec("UPDATE users SET city = 'ams' WHERE id = 1").rows_affected, 1u);
  // One index entry replaced another: the 'nyc' entry is gone.
  EXPECT_EQ(count_keys(), before);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM users WHERE city = 'nyc'").rows[0][0].int_value(), 0);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM users WHERE city = 'ams'").rows[0][0].int_value(), 1);
}

TEST_F(SqlEndToEndTest, InsertStillChecksForExistingPrimaryKeys) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  // A duplicate inside one multi-row statement: nothing is inserted.
  auto dup = session_->Execute("INSERT INTO t VALUES (1, 1), (2, 2), (1, 3)");
  EXPECT_EQ(dup.status().code(), Code::kAlreadyExists);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 0);
  // A row written by an UPDATE earlier in the same txn.
  Exec("INSERT INTO t VALUES (1, 1)");
  Exec("BEGIN");
  Exec("UPDATE t SET v = 5 WHERE id = 1");
  auto existing = session_->Execute("INSERT INTO t VALUES (1, 6)");
  EXPECT_EQ(existing.status().code(), Code::kAlreadyExists);
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 1);
}

TEST_F(SqlEndToEndTest, MultiRowInsertChecksEveryKeyInOneBatch) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  std::string sql = "INSERT INTO t VALUES ";
  for (int i = 0; i < 100; ++i) {
    sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  node_->connector()->ResetFeatures();
  EXPECT_EQ(Exec(sql).rows_affected, 100u);
  auto f = node_->connector()->features();
  EXPECT_EQ(f.read_batches, 1);
  EXPECT_EQ(f.read_requests, 100);
  EXPECT_EQ(f.write_batches, 1);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 100);
  // A single-row INSERT: the key check, then the one-phase commit.
  node_->connector()->ResetFeatures();
  Exec("INSERT INTO t VALUES (100, 100)");
  f = node_->connector()->features();
  EXPECT_EQ(f.read_batches, 1);
  EXPECT_EQ(f.write_batches, 1);
}

TEST_F(SqlEndToEndTest, InStatementDuplicateWritesNothing) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  node_->connector()->ResetFeatures();
  auto dup = session_->Execute("INSERT INTO t VALUES (1, 1), (2, 2), (1, 3)");
  EXPECT_EQ(dup.status().code(), Code::kAlreadyExists);
  const auto f = node_->connector()->features();
  EXPECT_EQ(f.read_batches, 1);
  EXPECT_EQ(f.write_batches, 0);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 0);
}

TEST_F(SqlEndToEndTest, FailedStatementAbortsExplicitTxn) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("BEGIN");
  auto dup = session_->Execute("INSERT INTO t VALUES (1, 1), (1, 2)");
  EXPECT_EQ(dup.status().code(), Code::kAlreadyExists);
  auto commit = session_->Execute("COMMIT");
  EXPECT_FALSE(commit.ok());
  EXPECT_FALSE(commit.status().IsTransactionRetry());
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 0);
}

TEST_F(SqlEndToEndTest, AbortedTxnRejectsStatementsUntilRollback) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 1)");
  EXPECT_FALSE(session_->Execute("SELECT nonsense FROM").ok());  // parse error
  EXPECT_TRUE(session_->in_transaction());
  for (const char* sql : {"SELECT COUNT(*) FROM t", "INSERT INTO t VALUES (2, 2)",
                          "BEGIN", "SET vectorize = off"}) {
    auto rs = session_->Execute(sql);
    EXPECT_FALSE(rs.ok()) << sql;
    EXPECT_NE(rs.status().ToString().find("current transaction is aborted"),
              std::string::npos)
        << rs.status().ToString();
  }
  EXPECT_TRUE(session_->Execute("ROLLBACK").ok());
  EXPECT_FALSE(session_->in_transaction());
  // The session is usable again, and nothing of the aborted txn is visible.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 0);
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (3, 3)");
  Exec("COMMIT");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 1);
}

TEST_F(SqlEndToEndTest, UpsertRepeatingAKeyLeavesOneIndexEntry) {
  Exec("CREATE TABLE users (id INT PRIMARY KEY, city STRING)");
  Exec("CREATE INDEX users_by_city ON users (city)");
  Exec("INSERT INTO users VALUES (1, 'ams')");
  auto count_keys = [&] {
    kv::BatchRequest scan;
    scan.tenant_id = tenant_id_;
    scan.AddScan(kv::TenantPrefix(tenant_id_), kv::TenantPrefixEnd(tenant_id_));
    auto resp = cluster_->Send(scan);
    VELOCE_CHECK(resp.ok()) << resp.status().ToString();
    return resp->responses[0].rows.size();
  };
  const size_t before = count_keys();
  // Each later row replaces the one before it, and retires its index entry.
  EXPECT_EQ(Exec("UPSERT INTO users VALUES (1, 'nyc'), (1, 'sfo'), (1, 'lon')")
                .rows_affected,
            3u);
  EXPECT_EQ(count_keys(), before);
  for (const char* city : {"ams", "nyc", "sfo"}) {
    EXPECT_EQ(Exec(std::string("SELECT COUNT(*) FROM users WHERE city = '") + city +
                   "'")
                  .rows[0][0]
                  .int_value(),
              0)
        << city;
  }
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM users WHERE city = 'lon'").rows[0][0].int_value(), 1);
  EXPECT_EQ(Exec("SELECT city FROM users WHERE id = 1").rows[0][0].string_value(), "lon");
}

TEST_F(SqlEndToEndTest, FirstFailingInsertRowDecidesTheError) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL)");
  // Row 3 repeats row 1's key; row 5 is NULL in a NOT NULL column.
  auto dup_first = session_->Execute(
      "INSERT INTO t VALUES (1, 1), (2, 2), (1, 3), (4, 4), (5, NULL)");
  EXPECT_EQ(dup_first.status().code(), Code::kAlreadyExists);
  auto null_first = session_->Execute(
      "INSERT INTO t VALUES (1, 1), (2, NULL), (1, 3)");
  EXPECT_EQ(null_first.status().code(), Code::kInvalidArgument);
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").rows[0][0].int_value(), 0);
}

TEST_F(SqlEndToEndTest, UpdateAfterNonTransactionalReadIsNotPushed) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1)");
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 1);
  // The UPDATE's txn starts above the read it follows, so its write is not
  // pushed: no refused one-phase commit, no refresh, no second commit.
  node_->connector()->ResetFeatures();
  EXPECT_EQ(Exec("UPDATE t SET v = 2 WHERE id = 1").rows_affected, 1u);
  const auto f = node_->connector()->features();
  EXPECT_EQ(f.read_batches, 1);
  EXPECT_EQ(f.write_batches, 1);
}

TEST_F(SqlEndToEndTest, MarshaledPointReadCountsMarshalAndKvCpu) {
  obs::MetricsRegistry registry;
  SqlNode::Options options;
  options.obs.metrics = &registry;
  SqlNode node(2, options, cluster_->clock());
  ASSERT_TRUE(node.StartProcess().ok());
  ASSERT_TRUE(node.StampTenant(service_.get(), cluster_.get(), cert_).ok());
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 1)");
  KvConnector* connector = node.connector();
  ASSERT_EQ(connector->mode(), ProcessMode::kSeparateProcess);
  const double marshal0 = registry.Sum("veloce_sql_marshal_cpu_ns_total");
  const Nanos kv0 = connector->kv_cpu_nanos();
  std::unique_ptr<TenantTxn> txn = connector->BeginTransaction();
  std::optional<std::string> value;
  ASSERT_TRUE(txn->Get("no-such-key", &value).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_GT(registry.Sum("veloce_sql_marshal_cpu_ns_total"), marshal0);
  EXPECT_GT(connector->kv_cpu_nanos(), kv0);
}

TEST_F(SqlEndToEndTest, IndexJoinOnPrimaryKey) {
  Exec("CREATE TABLE customers (id INT PRIMARY KEY, name STRING)");
  Exec("CREATE TABLE orders (id INT PRIMARY KEY, cust_id INT, total INT)");
  Exec("INSERT INTO customers VALUES (1, 'ada'), (2, 'grace')");
  Exec("INSERT INTO orders VALUES (10, 1, 100), (11, 2, 200), (12, 1, 50)");
  ResultSet rs = Exec(
      "SELECT c.name, o.total FROM orders o JOIN customers c ON o.cust_id = c.id "
      "ORDER BY total");
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "ada");
  EXPECT_EQ(rs.rows[2][1].int_value(), 200);
}

TEST_F(SqlEndToEndTest, HashJoinOnNonKey) {
  Exec("CREATE TABLE a (id INT PRIMARY KEY, grp INT)");
  Exec("CREATE TABLE b (id INT PRIMARY KEY, grp INT, v STRING)");
  Exec("INSERT INTO a VALUES (1, 7), (2, 8)");
  Exec("INSERT INTO b VALUES (10, 7, 'x'), (11, 7, 'y'), (12, 9, 'z')");
  ResultSet rs = Exec(
      "SELECT a.id, b.v FROM a JOIN b ON a.grp = b.grp ORDER BY b.v");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][1].string_value(), "x");
  EXPECT_EQ(rs.rows[1][1].string_value(), "y");
}

TEST_F(SqlEndToEndTest, MultiJoin) {
  Exec("CREATE TABLE n (id INT PRIMARY KEY, name STRING)");
  Exec("CREATE TABLE s (id INT PRIMARY KEY, n_id INT)");
  Exec("CREATE TABLE p (id INT PRIMARY KEY, s_id INT, qty INT)");
  Exec("INSERT INTO n VALUES (1, 'alpha'), (2, 'beta')");
  Exec("INSERT INTO s VALUES (10, 1), (11, 2)");
  Exec("INSERT INTO p VALUES (100, 10, 5), (101, 11, 7), (102, 10, 3)");
  ResultSet rs = Exec(
      "SELECT n.name, SUM(p.qty) AS total FROM p "
      "JOIN s ON p.s_id = s.id JOIN n ON s.n_id = n.id "
      "GROUP BY n.name ORDER BY n.name");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "alpha");
  EXPECT_EQ(rs.rows[0][1].int_value(), 8);
  EXPECT_EQ(rs.rows[1][1].int_value(), 7);
}

TEST_F(SqlEndToEndTest, ExplicitTransactionCommit) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 10)");
  Exec("UPDATE t SET v = 11 WHERE id = 1");
  EXPECT_TRUE(session_->in_transaction());
  Exec("COMMIT");
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 11);
}

TEST_F(SqlEndToEndTest, ExplicitTransactionRollback) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 10)");
  Exec("BEGIN");
  Exec("UPDATE t SET v = 99 WHERE id = 1");
  Exec("ROLLBACK");
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 10);
}

TEST_F(SqlEndToEndTest, TransactionReadsOwnWrites) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("BEGIN");
  Exec("INSERT INTO t VALUES (1, 10)");
  EXPECT_EQ(Exec("SELECT v FROM t WHERE id = 1").rows[0][0].int_value(), 10);
  Exec("COMMIT");
}

TEST_F(SqlEndToEndTest, PreparedStatementsWithParams) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v STRING)");
  ASSERT_TRUE(session_->Prepare("ins", "INSERT INTO t VALUES ($1, $2)").ok());
  ASSERT_TRUE(session_->Prepare("get", "SELECT v FROM t WHERE id = $1").ok());
  ASSERT_TRUE(
      session_->ExecutePrepared("ins", {Datum::Int(1), Datum::String("one")}).ok());
  ASSERT_TRUE(
      session_->ExecutePrepared("ins", {Datum::Int(2), Datum::String("two")}).ok());
  auto rs = *session_->ExecutePrepared("get", {Datum::Int(2)});
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "two");
}

TEST_F(SqlEndToEndTest, SetAndSettings) {
  Exec("SET application_name = 'bench'");
  EXPECT_EQ(*session_->GetSetting("application_name"), "bench");
}

TEST_F(SqlEndToEndTest, TwoTenantsCannotSeeEachOther) {
  Exec("CREATE TABLE secret (id INT PRIMARY KEY, data STRING)");
  Exec("INSERT INTO secret VALUES (1, 'classified')");

  auto other_meta = *controller_->CreateTenant("other");
  auto other_cert = *controller_->IssueCert(other_meta.id);
  SqlNode other_node(2, SqlNode::Options{}, cluster_->clock());
  VELOCE_CHECK_OK(other_node.StartProcess());
  VELOCE_CHECK_OK(other_node.StampTenant(service_.get(), cluster_.get(), other_cert));
  Session* other = *other_node.NewSession();
  // Same table name, different tenant: a fresh namespace.
  auto missing = other->Execute("SELECT * FROM secret");
  EXPECT_TRUE(missing.status().IsNotFound());
  ASSERT_TRUE(other->Execute("CREATE TABLE secret (id INT PRIMARY KEY)").ok());
  auto rs = *other->Execute("SELECT COUNT(*) FROM secret");
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
}

TEST_F(SqlEndToEndTest, SessionSerializeRestore) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 42)");
  Exec("SET application_name = 'migrator'");
  ASSERT_TRUE(session_->Prepare("q", "SELECT v FROM t WHERE id = $1").ok());

  const uint64_t token = 0xDEADBEEF;
  const std::string blob = *session_->Serialize(token);

  // Restore on a different SQL node of the same tenant.
  SqlNode node2(2, SqlNode::Options{}, cluster_->clock());
  VELOCE_CHECK_OK(node2.StartProcess());
  VELOCE_CHECK_OK(node2.StampTenant(service_.get(), cluster_.get(), cert_));
  Session* restored = *node2.RestoreSession(blob, token);
  EXPECT_EQ(*restored->GetSetting("application_name"), "migrator");
  auto rs = *restored->ExecutePrepared("q", {Datum::Int(1)});
  EXPECT_EQ(rs.rows[0][0].int_value(), 42);
  // Wrong revival token is rejected.
  EXPECT_TRUE(node2.RestoreSession(blob, token + 1).status().IsUnauthorized());
}

TEST_F(SqlEndToEndTest, SerializeRequiresIdleSession) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY)");
  Exec("BEGIN");
  EXPECT_FALSE(session_->Serialize(1).ok());
  Exec("ROLLBACK");
  EXPECT_TRUE(session_->Serialize(1).ok());
}

TEST_F(SqlEndToEndTest, RestoredSessionKeepsItsEngineSetting) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  Exec("INSERT INTO t VALUES (1, 42), (2, 7)");
  Exec("SET vectorize = off");
  const std::string blob = *session_->Serialize(7);
  Session* restored = *node_->RestoreSession(blob, 7);
  // A full-scan aggregate: the vectorized engine covers it, but the
  // restored setting keeps it on the row engine.
  auto rs = restored->Execute("SELECT SUM(v) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 49);
  EXPECT_EQ(restored->last_select_engine(), "row");
  Session* fresh = *node_->NewSession();
  ASSERT_TRUE(fresh->Execute("SELECT SUM(v) FROM t").ok());
  EXPECT_EQ(fresh->last_select_engine(), "vectorized");
}

TEST_F(SqlEndToEndTest, DropTable) {
  Exec("CREATE TABLE temp (id INT PRIMARY KEY)");
  Exec("INSERT INTO temp VALUES (1)");
  Exec("DROP TABLE temp");
  EXPECT_TRUE(session_->Execute("SELECT * FROM temp").status().IsNotFound());
  // Recreate works and is empty.
  Exec("CREATE TABLE temp (id INT PRIMARY KEY)");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM temp").rows[0][0].int_value(), 0);
}

TEST_F(SqlEndToEndTest, MarshalingOnlyInSeparateProcessMode) {
  // The default test node runs kSeparateProcess; its connector marshals.
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v STRING)");
  Exec("INSERT INTO t VALUES (1, 'payload')");
  Exec("SELECT * FROM t");
  EXPECT_GT(node_->connector()->marshaled_bytes(), 0u);

  // A colocated ("Traditional") node moves zero marshaled bytes.
  SqlNode colocated(3, SqlNode::Options{.mode = ProcessMode::kColocated, .vcpus = 4},
                    cluster_->clock());
  VELOCE_CHECK_OK(colocated.StartProcess());
  VELOCE_CHECK_OK(colocated.StampTenant(service_.get(), cluster_.get(), cert_));
  Session* s = *colocated.NewSession();
  ASSERT_TRUE(s->Execute("SELECT * FROM t").ok());
  EXPECT_EQ(colocated.connector()->marshaled_bytes(), 0u);
}

TEST_F(SqlEndToEndTest, FeatureCountersTrackBatches) {
  Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  node_->connector()->ResetFeatures();
  Exec("INSERT INTO t VALUES (1, 1)");
  Exec("SELECT * FROM t");
  const auto& f = node_->connector()->features();
  EXPECT_GT(f.write_batches, 0);
  EXPECT_GT(f.read_batches, 0);
  EXPECT_GT(f.write_bytes, 0);
}

TEST_F(SqlEndToEndTest, SqlNodeLifecycle) {
  SqlNode node(9, SqlNode::Options{}, cluster_->clock());
  EXPECT_EQ(node.state(), SqlNode::State::kCold);
  // Sessions are refused before the node is ready.
  EXPECT_FALSE(node.NewSession().ok());
  ASSERT_TRUE(node.StartProcess().ok());
  EXPECT_EQ(node.state(), SqlNode::State::kWarm);
  EXPECT_FALSE(node.NewSession().ok());
  ASSERT_TRUE(node.StampTenant(service_.get(), cluster_.get(), cert_).ok());
  EXPECT_EQ(node.state(), SqlNode::State::kReady);
  ASSERT_TRUE(node.NewSession().ok());
  node.StartDraining();
  EXPECT_EQ(node.state(), SqlNode::State::kDraining);
  node.Stop();
  EXPECT_EQ(node.state(), SqlNode::State::kStopped);
  EXPECT_EQ(node.num_sessions(), 0u);
}

TEST_F(SqlEndToEndTest, CompositePrimaryKey) {
  Exec("CREATE TABLE kvs (w INT, d INT, v STRING, PRIMARY KEY (w, d))");
  Exec("INSERT INTO kvs VALUES (1, 1, 'a'), (1, 2, 'b'), (2, 1, 'c')");
  // Full PK: point read.
  EXPECT_EQ(Exec("SELECT v FROM kvs WHERE w = 1 AND d = 2").rows[0][0].string_value(),
            "b");
  // PK prefix: range scan.
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM kvs WHERE w = 1").rows[0][0].int_value(), 2);
}

}  // namespace
}  // namespace veloce::sql
