#ifndef VELOCE_SQL_EXECUTOR_H_
#define VELOCE_SQL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/obs_context.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/eval.h"
#include "sql/kv_connector.h"
#include "sql/row.h"

namespace veloce::sql {

struct SelectPlan;

/// Result of executing one statement.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;

  std::string ToString() const;  ///< ascii table (examples / debugging)
};

/// Which execution engine handles SELECTs (docs/SQL_EXEC.md).
enum class ExecEngine {
  kAuto,        ///< vectorized when eligible, row engine otherwise (default)
  kRow,         ///< row engine only
  kVectorized,  ///< vectorized only; ineligible statements fail NotSupported
};

/// Executes parsed statements against the tenant's keyspace. DML always
/// runs inside a transaction (the session supplies an explicit one, or the
/// executor opens an implicit per-statement transaction); reads outside a
/// transaction go through the non-transactional fast path at the current
/// timestamp.
///
/// SELECT execution is two-engine (docs/SQL_EXEC.md): each SELECT is
/// planned once (sql/select_plan.h); non-transactional reads whose plan
/// vec::Covers dispatch to the vectorized columnar engine (sql/vec/), and
/// everything else runs on the interpreted row engine from the same plan.
/// Planning is deliberately simple but shaped like the real system:
///  * WHERE conjuncts on a primary-key prefix become point gets or range
///    scans (index-constrained scans are "pushed down" in the sense that
///    only the constrained keyspan crosses the KV boundary);
///  * joins use an index join (per-row KV lookups) when the ON clause
///    covers the right table's primary key — the remote-lookup plan TPC-H
///    Q9 runs in the paper — and a hash join otherwise;
///  * with kv_pushdown enabled, eligible filter+project+partial-aggregate
///    fragments evaluate KV-side (sql/pushdown.h), so full-scan
///    aggregation no longer pays the per-row KV->SQL marshaling cost in
///    Serverless mode (the TPC-H Q1 effect).
class Executor {
 public:
  Executor(Catalog* catalog, KvConnector* connector,
           const obs::ObsContext& obs = {});

  /// Enables row-filter/projection/partial-aggregate push-down (DESIGN.md
  /// Section 6) for eligible scans: single-table, non-transactional reads
  /// whose residual predicates are `column <op> constant` conjuncts on
  /// non-PK columns.
  void set_pushdown_enabled(bool enabled) { pushdown_enabled_ = enabled; }
  bool pushdown_enabled() const { return pushdown_enabled_; }

  void set_engine(ExecEngine engine) { engine_ = engine; }
  ExecEngine engine() const { return engine_; }
  /// Engine that executed the most recent SELECT: "vectorized", "row", or
  /// "" before any SELECT ran (tests/benches).
  const std::string& last_select_engine() const { return last_select_engine_; }

  /// Executes `stmt`. If `txn` is null, DML opens and commits an implicit
  /// transaction (the caller retries on TransactionRetry). `params` binds
  /// $N placeholders.
  StatusOr<ResultSet> Execute(const Statement& stmt, TenantTxn* txn,
                              const std::vector<Datum>* params = nullptr);

 private:
  StatusOr<ResultSet> ExecCreateTable(const CreateTableStmt& stmt);
  StatusOr<ResultSet> ExecCreateIndex(const CreateIndexStmt& stmt, TenantTxn* txn);
  StatusOr<ResultSet> ExecDropTable(const DropTableStmt& stmt);
  StatusOr<ResultSet> ExecInsert(const InsertStmt& stmt, TenantTxn* txn,
                                 const std::vector<Datum>* params);
  StatusOr<ResultSet> DispatchSelect(const SelectStmt& stmt, TenantTxn* txn,
                                     const std::vector<Datum>* params);
  StatusOr<ResultSet> ExecSelect(const SelectPlan& plan, TenantTxn* txn);
  StatusOr<ResultSet> ExecUpdate(const UpdateStmt& stmt, TenantTxn* txn,
                                 const std::vector<Datum>* params);
  StatusOr<ResultSet> ExecDelete(const DeleteStmt& stmt, TenantTxn* txn,
                                 const std::vector<Datum>* params);

  /// Reads the rows of `desc` that `scan` selects: a point get, a
  /// secondary-index scan plus lookup join, or a primary span scan that
  /// sends `pushdown_spec` (sql/pushdown.h) with it. Remaining filtering
  /// happens at a higher level.
  Status ScanTable(const TableDescriptor& desc, const ScanConstraints& scan,
                   TenantTxn* txn, std::vector<Row>* rows,
                   const std::string& pushdown_spec = std::string());

  /// INSERT / UPSERT of `rows`: reads every primary key in one batch, then
  /// writes the rows in order. A row whose key exists, or was written by
  /// an earlier row of `rows`, fails with AlreadyExists (the first such row
  /// decides the error), or with `upsert` replaces that row.
  Status InsertRows(const TableDescriptor& desc, const std::vector<Row>& rows,
                    TenantTxn* txn, bool upsert);
  /// Writes `row` (primary key `pk`) and its secondary entries over
  /// `old_row`, the row's current value (null = none), retiring old_row's
  /// stale secondary entries.
  Status PutRow(const TableDescriptor& desc, const std::string& pk, const Row& row,
                const Row* old_row, TenantTxn* txn);
  Status DeleteRow(const TableDescriptor& desc, const Row& row, TenantTxn* txn);

  Catalog* catalog_;
  KvConnector* connector_;
  bool pushdown_enabled_ = false;
  ExecEngine engine_ = ExecEngine::kAuto;
  std::string last_select_engine_;

  // Executor-level observability (docs/OBSERVABILITY.md).
  obs::Counter* rows_scanned_c_ = nullptr;   // veloce_sql_rows_scanned_total
  obs::Counter* batches_c_ = nullptr;        // veloce_sql_batches_total
  obs::Counter* engine_vec_c_ = nullptr;     // veloce_sql_exec_engine_total{engine=vectorized}
  obs::Counter* engine_row_c_ = nullptr;     // veloce_sql_exec_engine_total{engine=row}
};

}  // namespace veloce::sql

#endif  // VELOCE_SQL_EXECUTOR_H_
