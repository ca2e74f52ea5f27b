#ifndef VELOCE_SQL_VEC_VEC_EXEC_H_
#define VELOCE_SQL_VEC_VEC_EXEC_H_

#include <cstdint>
#include <vector>

#include "sql/executor.h"
#include "sql/kv_connector.h"
#include "sql/select_plan.h"

namespace veloce::sql::vec {

/// OK when the vectorized engine covers `plan`; otherwise NotSupported
/// naming the first shape it leaves to the row engine: a table-less
/// SELECT, a point lookup, a secondary-index scan, a join without equi
/// columns, an index join, or an aggregate anywhere but the select list.
/// The dispatcher asks once per statement.
Status Covers(const SelectPlan& plan);

/// The vectorized (columnar, batch-at-a-time) SELECT engine: MVCC scan
/// entries decode directly into typed ColumnBatches, expressions evaluate
/// as column kernels over selection vectors, and aggregation / hash joins
/// operate batch-wise. Eligible filter+project+partial-aggregate fragments
/// additionally push below the scan (sql/pushdown.h). Semantics are
/// bit-identical to the interpreted row engine — the dispatcher treats the
/// two as interchangeable and the randomized differential test in
/// tests/sql_vec_test.cc enforces it.
class VecExecutor {
 public:
  explicit VecExecutor(KvConnector* connector) : connector_(connector) {}

  /// Executes a non-transactional SELECT whose plan Covers() accepts.
  /// NotSupported (a stored kind that does not match the schema type)
  /// means "re-run on the row engine", which decodes such rows datum by
  /// datum. Any other status is final: for covered statements both engines
  /// return the same rows, and runtime errors carry the same status code
  /// (messages may differ when batch evaluation surfaces a different
  /// failing row first).
  StatusOr<ResultSet> ExecSelect(const SelectPlan& plan);

  /// Rows (or, for pushed aggregation fragments, partial-aggregate rows)
  /// received from the KV layer.
  uint64_t rows_scanned() const { return rows_scanned_; }
  /// Column batches decoded from KV scan entries.
  uint64_t batches() const { return batches_; }

 private:
  KvConnector* connector_;
  uint64_t rows_scanned_ = 0;
  uint64_t batches_ = 0;
};

}  // namespace veloce::sql::vec

#endif  // VELOCE_SQL_VEC_VEC_EXEC_H_
