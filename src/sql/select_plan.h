#ifndef VELOCE_SQL_SELECT_PLAN_H_
#define VELOCE_SQL_SELECT_PLAN_H_

#include <map>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/eval.h"

namespace veloce::sql {

/// One join of a SELECT; its table binds as `bindings[j + 1]` of the plan.
struct JoinPlan {
  std::vector<JoinEquiPair> equis;
  /// ON conjuncts that re-evaluate over the combined row.
  std::vector<const Expr*> residual;
  /// Non-empty when the equi columns cover the right table's primary key:
  /// each key column's probe expression, in key order. The join then runs
  /// as per-row point lookups (the Q9 remote-lookup plan) instead of a
  /// hash join over a full scan.
  std::vector<const Expr*> pk_exprs;
  /// The right table's full span (hash and nested-loop joins).
  ScanConstraints scan;

  bool index_join() const { return !pk_exprs.empty(); }
};

/// One ORDER BY key: an output column (by name, alias or 1-based ordinal)
/// or, in non-aggregated queries, an expression over the input row.
struct SortKey {
  int output_idx = -1;         // >= 0: sort by this output column
  const Expr* expr = nullptr;  // else: evaluate against the input row
  bool desc = false;
};

/// A SELECT planned once, for both engines (docs/SQL_EXEC.md): the row
/// engine (executor.cc) and the vectorized engine (vec/) execute from the
/// same plan, and the dispatcher picks between them with
/// vec::Covers(plan). Borrows the statement and params; owns only the
/// descriptors and the columns `SELECT *` expands to.
struct SelectPlan {
  const SelectStmt* stmt = nullptr;
  const std::vector<Datum>* params = nullptr;
  bool pushdown = false;  // KV-side push-down allowed
  /// The base table first, then one per join; empty for a table-less
  /// SELECT.
  std::vector<Binding> bindings;
  ScanConstraints scan;          // the base table's
  std::vector<JoinPlan> joins;   // parallel to stmt->joins
  std::vector<ExprPtr> star_exprs;     // owns what `SELECT *` expands to
  std::vector<const Expr*> items;      // output expressions
  std::vector<std::string> columns;    // output column names
  bool any_agg = false;
  std::vector<const Expr*> agg_nodes;  // the aggregate calls under `items`
  std::vector<SortKey> sort_keys;
  bool needs_input_keys = false;  // some sort key is an input-row expression
  /// KV-side filter and projection for a primary-span base scan, encoded
  /// ("" = none, always when push-down is not allowed).
  std::string filter_spec;

  /// `items` over `row`; `agg_values` carries finished aggregates (group
  /// evaluation only).
  StatusOr<Row> Project(const Row& row,
                        const std::map<const Expr*, Datum>* agg_values = nullptr) const;
  /// One output row of an aggregated query: `items` over the group's
  /// representative row, with `states` (parallel to agg_nodes) finished.
  StatusOr<Row> GroupRow(const Row& rep, const AggState* states) const;
  /// ORDER BY, then LIMIT. `input_keys` is parallel to `output` and holds
  /// the values of the input-row sort keys (empty unless needs_input_keys).
  void SortAndLimit(std::vector<Row>* output,
                    const std::vector<Row>& input_keys) const;
};

/// Plans `stmt` into `*plan`: one catalog lookup per table named, the base
/// table's scan constraints, join shapes, select items, ORDER BY keys and,
/// when `pushdown` allows it, the push-down spec. Every expression is
/// validated here, against the bindings it evaluates over, so an invalid
/// statement fails before any scan. `plan` must be fresh.
Status PlanSelect(const SelectStmt& stmt, const std::vector<Datum>* params,
                  bool pushdown, Catalog* catalog, SelectPlan* plan);

}  // namespace veloce::sql

#endif  // VELOCE_SQL_SELECT_PLAN_H_
