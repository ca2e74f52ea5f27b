#ifndef VELOCE_SQL_PUSHDOWN_H_
#define VELOCE_SQL_PUSHDOWN_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kv/cluster.h"
#include "sql/datum.h"
#include "sql/eval.h"

namespace veloce::sql {

/// Row-filter, projection and partial-aggregation push-down (the paper's
/// future-work items, Section 8): the SQL layer serializes simple
/// predicates, a needed-column list, and — for eligible aggregation
/// fragments — group-by columns plus aggregate expressions into an opaque
/// spec carried on the scan request. The KV node evaluates them against
/// the visible rows so filtered rows, unused columns, and (for fragments)
/// everything but per-group partial aggregate states never cross the
/// SQL/KV boundary.
///
/// Restrictions (by design, mirroring what a first production cut would
/// ship): predicates are conjunctions of `column <op> constant` over
/// non-primary-key columns; projection and group-by list non-PK column ids
/// (PK values travel in the key regardless); aggregate inputs are
/// arithmetic over non-PK columns and constants.

enum class PushdownOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct PushdownFilter {
  uint32_t column_id = 0;
  PushdownOp op = PushdownOp::kEq;
  Datum value;
};

/// Expression tree evaluable at the KV node over one decoded row's non-PK
/// columns. A strict subset of sql/ast.h's Expr, pre-resolved to column
/// ids so the KV side needs no catalog.
struct PushdownExpr {
  enum class Kind : uint8_t { kLiteral = 0, kColumn = 1, kBinary = 2, kStar = 3 };
  Kind kind = Kind::kLiteral;
  Datum literal;                    // kLiteral
  uint32_t column_id = 0;           // kColumn
  BinOp op = BinOp::kAdd;           // kBinary: + - * / % only
  std::unique_ptr<PushdownExpr> left, right;

  void Encode(std::string* dst) const;
  static StatusOr<std::unique_ptr<PushdownExpr>> Decode(Slice* in);
  /// Evaluates over a decoded row (id -> datum; missing columns are NULL).
  /// Arithmetic semantics are EvalArith's — identical to the SQL engines.
  StatusOr<Datum> Eval(const std::vector<std::pair<uint32_t, Datum>>& cols) const;
};

/// One aggregate of a pushed fragment. `input` is kStar for COUNT(*).
struct PushdownAggregate {
  AggFunc func = AggFunc::kCount;
  std::unique_ptr<PushdownExpr> input;
};

struct PushdownSpec {
  std::vector<PushdownFilter> filters;
  /// Non-PK column ids to keep in returned row values; empty = all.
  std::vector<uint32_t> projection;
  /// Aggregation fragment (empty = plain filter/projection): group-by
  /// column ids (non-PK) and aggregates. When set, the scan returns one
  /// entry per group per range segment instead of row data — the key is
  /// the group's first input row key and the value is a partial-aggregate
  /// row (EncodePartialAggRow) the SQL side merges.
  std::vector<uint32_t> group_by;
  std::vector<PushdownAggregate> aggregates;

  bool has_aggregation() const { return !group_by.empty() || !aggregates.empty(); }
  bool empty() const {
    return filters.empty() && projection.empty() && !has_aggregation();
  }

  std::string Encode() const;
  static StatusOr<PushdownSpec> Decode(Slice data);
};

/// Builds the filter+projection spec for a scan from the shared constraint
/// extraction, replicating both engines' KV traffic byte-for-byte:
/// `kv_filters` in WHERE order plus the non-PK needed columns.
PushdownSpec MakeFilterSpec(const ScanConstraints& plan,
                            const std::vector<uint32_t>* needed_columns,
                            const TableDescriptor& desc);

/// Partial-aggregate row codec: the per-group payload of a pushed
/// aggregation fragment (group datums + serialized AggStates).
std::string EncodePartialAggRow(const std::vector<Datum>& group_values,
                                const std::vector<AggState>& states);
Status DecodePartialAggRow(Slice in, std::vector<Datum>* group_values,
                           std::vector<AggState>* states);

/// The per-row KV-side evaluator: applies a decoded spec to one row value
/// (the column-id-tagged datum encoding of sql/row.h). Returns nullopt when
/// a filter rejects the row, otherwise the (possibly projected) value.
/// Aggregation fragments are ignored here (see EvaluatePushdownFragment).
StatusOr<std::optional<std::string>> EvaluatePushdown(Slice row_value, Slice spec);

/// The batch KV-side evaluator: decodes the spec once, then runs filters,
/// projection and — when the spec carries an aggregation fragment —
/// per-group partial aggregation over one range segment's rows. Without a
/// fragment this returns exactly the rows the per-row evaluator keeps.
StatusOr<std::vector<kv::MvccScanEntry>> EvaluatePushdownFragment(
    std::vector<kv::MvccScanEntry> rows, Slice spec);

/// Registers the fragment evaluator on a KV cluster. In production SQL and KV
/// ship in one binary, so the KV node links the same row codec; this
/// mirrors that. Idempotent.
void InstallPushdownHook(kv::KVCluster* cluster);

}  // namespace veloce::sql

#endif  // VELOCE_SQL_PUSHDOWN_H_
