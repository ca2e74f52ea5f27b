#ifndef VELOCE_SQL_EVAL_H_
#define VELOCE_SQL_EVAL_H_

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/kv_connector.h"
#include "sql/row.h"
#include "sql/schema.h"

namespace veloce::sql {

// Shared expression-evaluation machinery used by the row engine
// (executor.cc), the vectorized engine (vec/), and the KV-side pushdown
// fragment evaluator (pushdown.cc). Both engines must agree bit-for-bit on
// these semantics — the randomized differential test in
// tests/sql_vec_test.cc holds them to it.

/// One table bound into a query: alias -> descriptor + column offset
/// within the concatenated (joined) row.
struct Binding {
  std::string alias;  // effective name for qualification
  TableDescriptor desc;
  size_t offset = 0;  // column offset within the concatenated row
};

struct EvalContext {
  std::span<const Binding> bindings;
  const Row* row = nullptr;
  const std::vector<Datum>* params = nullptr;
  /// Pre-computed aggregate results (group evaluation phase only).
  const std::map<const Expr*, Datum>* agg_values = nullptr;
};

/// SQL integer arithmetic wraps in two's complement (no UB on overflow).
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}
inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) - static_cast<uint64_t>(b));
}
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) * static_cast<uint64_t>(b));
}

/// WHERE truthiness: NULL is false, numbers by != 0, strings by non-empty.
bool Truthy(const Datum& d);

/// Resolves `[qualifier.]name` to a position in the concatenated row.
StatusOr<int> ResolveColumn(std::span<const Binding> bindings,
                            const std::string& qualifier, const std::string& name);

/// Row-at-a-time expression evaluation (the row engine's interpreter, also
/// used by the vectorized engine for per-group output rows).
StatusOr<Datum> Eval(const Expr& expr, const EvalContext& ctx);

/// The arithmetic half of EvalBinary (+ - * / %) over already-evaluated
/// operands: NULL-propagating, int+int stays int (wrapping) except
/// division, strings concatenate under +, everything else coerces through
/// AsDouble. Shared with the KV-side fragment evaluator.
StatusOr<Datum> EvalArith(BinOp op, const Datum& left, const Datum& right);

void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out);
void CollectAggregates(const Expr* expr, std::vector<const Expr*>* out);
void CollectColumnNames(const Expr* expr, std::vector<std::string>* out);
bool HasAggregate(const Expr* expr);

/// Bind-time validation: every column reference must resolve and every $N
/// parameter must be bound, even when no rows flow.
Status ValidateExpr(const Expr* expr, std::span<const Binding> bindings,
                    const std::vector<Datum>* params);

/// Output column name for a select item without an explicit alias.
std::string DeriveColumnName(const Expr& expr, const std::string& alias);

/// Projection push-down input for single-table queries: collects the ids of
/// every column the statement references. Returns false (projection
/// disabled) when a referenced name doesn't resolve against `desc` and
/// isn't an output alias (ORDER BY may name one).
bool CollectNeededColumns(const SelectStmt& stmt, const TableDescriptor& desc,
                          std::vector<uint32_t>* needed);

/// One `left_expr = right_column` ON conjunct, where left_expr is evaluable
/// against the bindings established before the joined table.
struct JoinEquiPair {
  const Expr* left_expr = nullptr;
  uint32_t right_col_id = 0;
};

/// Splits ON conjuncts into equi pairs against `right` and residual
/// conjuncts that re-evaluate over the combined row.
void ExtractJoinEquis(const std::vector<const Expr*>& on_conjuncts,
                      const TableDescriptor& right, const std::string& right_alias,
                      std::vector<JoinEquiPair>* equis,
                      std::vector<const Expr*>* residual);

/// Running state for one aggregate within one group. Also the unit of
/// KV-side partial aggregation: partial states from different ranges merge
/// with Merge() before Result() finishes them.
struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Datum min, max;
  bool has_minmax = false;

  void Accumulate(const Datum& v, AggFunc func);
  void Merge(const AggState& other);
  Datum Result(AggFunc func) const;
};

/// Reads either through the session transaction or the non-transactional
/// connector path.
struct Reader {
  TenantTxn* txn;
  KvConnector* connector;

  Status Get(const std::string& key, std::optional<std::string>* value);
  Status Scan(const std::string& start, const std::string& end, uint64_t limit,
              std::vector<kv::MvccScanEntry>* rows,
              const std::string& pushdown_spec = std::string());
};

/// Primary-key span + KV-side filter extraction from WHERE conjuncts, the
/// single source of truth for both engines (the spans and pushdown specs
/// they emit must be byte-identical so their KV traffic matches).
///
/// Only conjuncts on the scanned table itself participate: a qualified
/// reference to another binding's alias never constrains this scan.
struct ScanConstraints {
  /// Full PK equality: `start` is the exact row key (point get).
  bool point = false;
  std::string start, end;
  /// Equality constants by column id (for the secondary-index path).
  std::map<uint32_t, Datum> eq;
  /// PK prefix length covered by `eq`.
  size_t eq_cols = 0;
  /// With no PK equality, the first secondary index (position in
  /// desc.secondaries) whose leading column `eq` constrains: an index scan
  /// plus a lookup join back to the primary index. -1 = none.
  int index = -1;
  /// `column <op> constant` conjuncts on non-PK columns, in WHERE order —
  /// the KV-side filter list (pairs with pushdown.h's PushdownFilter).
  struct KvFilter {
    uint32_t column_id = 0;
    BinOp op = BinOp::kEq;
    Datum value;
  };
  std::vector<KvFilter> kv_filters;
  /// Conjuncts NOT exactly enforced by the span or kv_filters; the caller
  /// must re-evaluate them SQL-side (the row engine re-runs the whole
  /// WHERE, so it ignores this; the vectorized engine requires it empty
  /// before pushing aggregation below the scan).
  std::vector<const Expr*> unhandled;
};

ScanConstraints BuildScanConstraints(const TableDescriptor& desc,
                                     const std::string& alias, const Expr* where,
                                     const std::vector<Datum>* params);

}  // namespace veloce::sql

#endif  // VELOCE_SQL_EVAL_H_
