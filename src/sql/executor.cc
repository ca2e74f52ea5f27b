#include "sql/executor.h"

#include <map>
#include <span>
#include <unordered_map>

#include "common/codec.h"
#include "common/logging.h"
#include "sql/select_plan.h"
#include "sql/vec/vec_exec.h"

namespace veloce::sql {

// The expression interpreter, scan-constraint extraction, AggState, and
// Reader all live in sql/eval.{h,cc} — shared with the vectorized engine
// (sql/vec/) and the KV-side pushdown evaluator (sql/pushdown.cc) — and
// SELECT planning, shared by both engines, in sql/select_plan.{h,cc}.

// ---------------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------------

std::string ResultSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    out += columns[i];
    out += (i + 1 < columns.size()) ? " | " : "\n";
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      out += row[i].ToString();
      out += (i + 1 < row.size()) ? " | " : "\n";
    }
  }
  if (columns.empty()) {
    out += "(" + std::to_string(rows_affected) + " rows affected)\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

Executor::Executor(Catalog* catalog, KvConnector* connector,
                   const obs::ObsContext& obs)
    : catalog_(catalog), connector_(connector) {
  const obs::Labels tenant{
      {"tenant", std::to_string(connector != nullptr ? connector->tenant_id() : 0)}};
  obs::MetricsRegistry* metrics = obs.metrics_or_noop();
  rows_scanned_c_ = metrics->counter("veloce_sql_rows_scanned_total", tenant);
  batches_c_ = metrics->counter("veloce_sql_batches_total", tenant);
  obs::Labels vec_labels = tenant, row_labels = tenant;
  vec_labels.emplace_back("engine", "vectorized");
  row_labels.emplace_back("engine", "row");
  engine_vec_c_ = metrics->counter("veloce_sql_exec_engine_total", vec_labels);
  engine_row_c_ = metrics->counter("veloce_sql_exec_engine_total", row_labels);
}

StatusOr<ResultSet> Executor::Execute(const Statement& stmt, TenantTxn* txn,
                                      const std::vector<Datum>* params) {
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable:
      return ExecCreateTable(stmt.create_table);
    case Statement::Kind::kCreateIndex:
      return ExecCreateIndex(stmt.create_index, txn);
    case Statement::Kind::kDropTable:
      return ExecDropTable(stmt.drop_table);
    case Statement::Kind::kSelect:
      return DispatchSelect(stmt.select, txn, params);
    case Statement::Kind::kInsert:
    case Statement::Kind::kUpdate:
    case Statement::Kind::kDelete: {
      // DML needs a transaction. Use the session's, or an implicit one
      // with a small retry loop for serializability conflicts.
      if (txn != nullptr) {
        if (stmt.kind == Statement::Kind::kInsert) return ExecInsert(stmt.insert, txn, params);
        if (stmt.kind == Statement::Kind::kUpdate) return ExecUpdate(stmt.update, txn, params);
        return ExecDelete(stmt.del, txn, params);
      }
      Status last = Status::OK();
      for (int attempt = 0; attempt < 5; ++attempt) {
        auto implicit = connector_->BeginTransaction();
        StatusOr<ResultSet> result =
            stmt.kind == Statement::Kind::kInsert
                ? ExecInsert(stmt.insert, implicit.get(), params)
                : stmt.kind == Statement::Kind::kUpdate
                      ? ExecUpdate(stmt.update, implicit.get(), params)
                      : ExecDelete(stmt.del, implicit.get(), params);
        if (!result.ok()) {
          (void)implicit->Rollback();
          last = result.status();
          // Lease-epoch mismatch is a pre-apply routing rejection: the
          // lease moved (or expired) under us; a fresh attempt reaches the
          // new leaseholder.
          if (last.IsWriteIntentError() || last.IsTransactionRetry() ||
              last.IsLeaseEpochMismatch() ||
              last.code() == Code::kTransactionAborted) {
            continue;
          }
          return last;
        }
        Status commit = implicit->Commit();
        if (commit.ok()) return result;
        last = commit;
        if (!commit.IsTransactionRetry() && !commit.IsLeaseEpochMismatch() &&
            commit.code() != Code::kTransactionAborted) {
          return commit;
        }
      }
      return last.ok() ? Status::TransactionRetry("implicit txn retries exhausted")
                       : last;
    }
    case Statement::Kind::kTxn:
      return Status::InvalidArgument("transaction control handled by the session");
    case Statement::Kind::kSet:
      return Status::InvalidArgument("SET handled by the session");
  }
  return Status::Internal("unhandled statement kind");
}

// Engine dispatch (docs/SQL_EXEC.md): each SELECT is planned once, and
// vec::Covers(plan) decides whether the vectorized engine runs it. A plan
// error (an invalid statement) is final on every engine. NotSupported from
// the vectorized engine at run time (a stored kind that does not match the
// schema type) falls back to the row engine with the same plan; any other
// status is final — both engines implement identical semantics.
StatusOr<ResultSet> Executor::DispatchSelect(const SelectStmt& stmt, TenantTxn* txn,
                                             const std::vector<Datum>* params) {
  SelectPlan plan;
  // Only non-transactional scans push down: a transaction must see its own
  // intents through the txn path.
  const Status planned =
      PlanSelect(stmt, params, pushdown_enabled_ && txn == nullptr, catalog_, &plan);
  if (planned.ok() && engine_ != ExecEngine::kRow) {
    Status covered =
        txn != nullptr
            ? Status::NotSupported("vectorized engine does not cover transactional reads")
            : vec::Covers(plan);
    if (covered.ok()) {
      vec::VecExecutor vexec(connector_);
      StatusOr<ResultSet> result = vexec.ExecSelect(plan);
      rows_scanned_c_->Inc(vexec.rows_scanned());
      batches_c_->Inc(vexec.batches());
      if (result.ok() || result.status().code() != Code::kNotSupported) {
        last_select_engine_ = "vectorized";
        engine_vec_c_->Inc();
        return result;
      }
      covered = result.status();
    }
    if (engine_ == ExecEngine::kVectorized) return covered;
  } else if (engine_ == ExecEngine::kVectorized) {
    return planned;
  }
  last_select_engine_ = "row";
  engine_row_c_->Inc();
  VELOCE_RETURN_IF_ERROR(planned);
  return ExecSelect(plan, txn);
}

StatusOr<ResultSet> Executor::ExecCreateTable(const CreateTableStmt& stmt) {
  TableDescriptor proto;
  proto.name = stmt.table;
  std::vector<std::string> pk = stmt.primary_key;
  for (const auto& col_def : stmt.columns) {
    ColumnDescriptor col;
    col.name = col_def.name;
    col.type = col_def.type;
    col.nullable = !col_def.not_null;
    proto.columns.push_back(col);
    if (col_def.primary_key) pk.push_back(col_def.name);
  }
  if (pk.empty()) {
    return Status::InvalidArgument("table requires a PRIMARY KEY: " + stmt.table);
  }
  // Assign column ids now so the primary index can reference them.
  for (size_t i = 0; i < proto.columns.size(); ++i) {
    proto.columns[i].id = static_cast<uint32_t>(i + 1);
  }
  for (const auto& name : pk) {
    const ColumnDescriptor* col = proto.FindColumn(name);
    if (col == nullptr) {
      return Status::InvalidArgument("primary key column not found: " + name);
    }
    proto.primary.column_ids.push_back(col->id);
    // PK columns are implicitly NOT NULL.
    proto.columns[static_cast<size_t>(proto.ColumnIndex(col->id))].nullable = false;
  }
  auto created = catalog_->CreateTable(proto);
  if (!created.ok() && created.status().code() == Code::kAlreadyExists &&
      stmt.if_not_exists) {
    return ResultSet{};
  }
  VELOCE_RETURN_IF_ERROR(created.status());
  return ResultSet{};
}

StatusOr<ResultSet> Executor::ExecCreateIndex(const CreateIndexStmt& stmt,
                                              TenantTxn* txn) {
  VELOCE_ASSIGN_OR_RETURN(IndexDescriptor idx,
                          catalog_->CreateIndex(stmt.table, stmt.index, stmt.columns));
  // Backfill existing rows.
  VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog_->GetTable(stmt.table));
  std::vector<Row> rows;
  VELOCE_RETURN_IF_ERROR(
      ScanTable(desc, BuildScanConstraints(desc, desc.name, nullptr, nullptr), txn, &rows));
  kv::BatchRequest backfill;
  for (const Row& row : rows) {
    backfill.AddPut(EncodeSecondaryKey(desc, idx, row), "");
  }
  if (!backfill.requests.empty()) {
    VELOCE_RETURN_IF_ERROR(connector_->Send(backfill).status());
  }
  ResultSet result;
  result.rows_affected = rows.size();
  return result;
}

StatusOr<ResultSet> Executor::ExecDropTable(const DropTableStmt& stmt) {
  VELOCE_RETURN_IF_ERROR(catalog_->DropTable(stmt.table));
  return ResultSet{};
}

// --- scanning ---------------------------------------------------------------

Status Executor::ScanTable(const TableDescriptor& desc, const ScanConstraints& scan,
                           TenantTxn* txn, std::vector<Row>* rows,
                           const std::string& pushdown_spec) {
  Reader reader{txn, connector_};
  if (scan.point) {
    // Full PK: point lookup.
    std::optional<std::string> value;
    VELOCE_RETURN_IF_ERROR(reader.Get(scan.start, &value));
    if (value.has_value()) {
      Row row;
      VELOCE_RETURN_IF_ERROR(DecodeRow(desc, scan.start, *value, &row));
      rows->push_back(std::move(row));
      rows_scanned_c_->Inc();
    }
    return Status::OK();
  }

  if (scan.index >= 0) {
    // Secondary index scan over the leading equality columns, then a lookup
    // join back to the primary index.
    const IndexDescriptor& index = desc.secondaries[static_cast<size_t>(scan.index)];
    std::string idx_start = IndexPrefix(desc.id, index.id);
    for (uint32_t col_id : index.column_ids) {
      auto eq_it = scan.eq.find(col_id);
      if (eq_it == scan.eq.end()) break;
      eq_it->second.EncodeKey(&idx_start);
    }
    std::vector<kv::MvccScanEntry> entries;
    VELOCE_RETURN_IF_ERROR(reader.Scan(idx_start, PrefixEnd(idx_start), 0, &entries));
    for (const auto& entry : entries) {
      std::vector<Datum> pk;
      VELOCE_RETURN_IF_ERROR(DecodeSecondaryKeyPk(desc, index, entry.key, &pk));
      const std::string pk_key = EncodePrimaryKeyFromDatums(desc, pk);
      std::optional<std::string> value;
      VELOCE_RETURN_IF_ERROR(reader.Get(pk_key, &value));
      if (!value.has_value()) continue;  // index entry racing a delete
      Row row;
      VELOCE_RETURN_IF_ERROR(DecodeRow(desc, pk_key, *value, &row));
      rows->push_back(std::move(row));
      rows_scanned_c_->Inc();
    }
    return Status::OK();
  }

  std::vector<kv::MvccScanEntry> entries;
  VELOCE_RETURN_IF_ERROR(reader.Scan(scan.start, scan.end, 0, &entries, pushdown_spec));
  rows->reserve(entries.size());
  for (const auto& entry : entries) {
    Row row;
    VELOCE_RETURN_IF_ERROR(DecodeRow(desc, entry.key, entry.value, &row));
    rows->push_back(std::move(row));
  }
  rows_scanned_c_->Inc(entries.size());
  return Status::OK();
}

// --- SELECT ------------------------------------------------------------------

StatusOr<ResultSet> Executor::ExecSelect(const SelectPlan& plan, TenantTxn* txn) {
  const SelectStmt& stmt = *plan.stmt;
  const std::vector<Datum>* params = plan.params;
  const std::span<const Binding> bindings = plan.bindings;
  std::vector<Row> current;  // concatenated rows
  if (bindings.empty()) {
    current.push_back(Row{});  // table-less SELECT evaluates one row
  } else {
    VELOCE_RETURN_IF_ERROR(
        ScanTable(bindings[0].desc, plan.scan, txn, &current, plan.filter_spec));
  }

  // Joins, left to right.
  Reader reader{txn, connector_};
  for (size_t j = 0; j < plan.joins.size(); ++j) {
    const JoinPlan& jp = plan.joins[j];
    const TableDescriptor& right = bindings[j + 1].desc;
    // Equi probes evaluate over the tables bound before this one.
    const std::span<const Binding> left = bindings.first(j + 1);
    std::vector<Row> joined;
    if (jp.index_join()) {
      // Per-row KV point lookups (the Q9 plan shape).
      for (const Row& row : current) {
        EvalContext ctx{left, &row, params, nullptr};
        std::vector<Datum> pk_values;
        bool null_key = false;
        for (const Expr* e : jp.pk_exprs) {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          pk_values.push_back(std::move(v));
        }
        if (null_key) continue;
        const std::string key = EncodePrimaryKeyFromDatums(right, pk_values);
        std::optional<std::string> value;
        VELOCE_RETURN_IF_ERROR(reader.Get(key, &value));
        if (!value.has_value()) continue;
        Row right_row;
        VELOCE_RETURN_IF_ERROR(DecodeRow(right, key, *value, &right_row));
        Row combined = row;
        combined.insert(combined.end(), right_row.begin(), right_row.end());
        joined.push_back(std::move(combined));
      }
    } else {
      // Hash join; with no equi columns every row hashes to the empty key,
      // which makes it a nested loop.
      std::vector<Row> right_rows;
      VELOCE_RETURN_IF_ERROR(ScanTable(right, jp.scan, txn, &right_rows));
      std::multimap<std::string, const Row*> table;
      for (const Row& rrow : right_rows) {
        std::string key;
        for (const auto& pair : jp.equis) {
          rrow[static_cast<size_t>(right.ColumnIndex(pair.right_col_id))].EncodeKey(&key);
        }
        table.emplace(std::move(key), &rrow);
      }
      for (const Row& row : current) {
        EvalContext ctx{left, &row, params, nullptr};
        std::string key;
        bool null_key = false;
        for (const auto& pair : jp.equis) {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*pair.left_expr, ctx));
          if (v.is_null()) {
            null_key = true;
            break;
          }
          v.EncodeKey(&key);
        }
        if (null_key) continue;
        auto [lo, hi] = table.equal_range(key);
        for (auto it = lo; it != hi; ++it) {
          Row combined = row;
          combined.insert(combined.end(), it->second->begin(), it->second->end());
          joined.push_back(std::move(combined));
        }
      }
    }
    current = std::move(joined);
    // Apply residual ON conjuncts over the combined row.
    if (!jp.residual.empty()) {
      std::vector<Row> filtered;
      for (Row& row : current) {
        EvalContext ctx{bindings.first(j + 2), &row, params, nullptr};
        bool keep = true;
        for (const Expr* c : jp.residual) {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*c, ctx));
          if (!Truthy(v)) {
            keep = false;
            break;
          }
        }
        if (keep) filtered.push_back(std::move(row));
      }
      current = std::move(filtered);
    }
  }

  // WHERE (the PK-pushed conjuncts re-evaluate harmlessly).
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    for (Row& row : current) {
      EvalContext ctx{bindings, &row, params, nullptr};
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*stmt.where, ctx));
      if (Truthy(v)) filtered.push_back(std::move(row));
    }
    current = std::move(filtered);
  }

  std::vector<Row> output;
  std::vector<Row> input_sort_values;  // parallel to output, expr-key values
  if (plan.any_agg) {
    // Group rows by the GROUP BY key; a group's representative is its first
    // row, its states are parallel to plan.agg_nodes.
    struct Group {
      Row representative;
      std::vector<AggState> states;
    };
    std::map<std::string, Group> groups;
    const size_t num_aggs = plan.agg_nodes.size();
    for (const Row& row : current) {
      EvalContext ctx{bindings, &row, params, nullptr};
      std::string key;
      for (const auto& g : stmt.group_by) {
        VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*g, ctx));
        v.EncodeKey(&key);
      }
      auto [it, inserted] = groups.try_emplace(std::move(key));
      Group& group = it->second;
      if (inserted) group = Group{row, std::vector<AggState>(num_aggs)};
      for (size_t a = 0; a < num_aggs; ++a) {
        const Expr* agg = plan.agg_nodes[a];
        if (agg->child->kind == Expr::Kind::kStar) {
          group.states[a].Accumulate(Datum::Int(1), AggFunc::kCount);
          continue;
        }
        VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*agg->child, ctx));
        if (agg->agg != AggFunc::kCount || !v.is_null()) {
          group.states[a].Accumulate(v, agg->agg);
        }
      }
    }
    // Aggregates over an empty input with no GROUP BY produce one row.
    if (groups.empty() && stmt.group_by.empty()) {
      groups[""] = Group{Row{}, std::vector<AggState>(num_aggs)};
    }
    for (const auto& [key, group] : groups) {
      VELOCE_ASSIGN_OR_RETURN(Row out_row,
                              plan.GroupRow(group.representative, group.states.data()));
      output.push_back(std::move(out_row));
    }
  } else {
    for (const Row& row : current) {
      VELOCE_ASSIGN_OR_RETURN(Row out_row, plan.Project(row));
      output.push_back(std::move(out_row));
      if (!plan.needs_input_keys) continue;
      EvalContext ctx{bindings, &row, params, nullptr};
      Row keys;
      for (const SortKey& key : plan.sort_keys) {
        if (key.expr == nullptr) {
          keys.push_back(Datum::Null());  // placeholder; output idx used
        } else {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*key.expr, ctx));
          keys.push_back(std::move(v));
        }
      }
      input_sort_values.push_back(std::move(keys));
    }
  }

  plan.SortAndLimit(&output, input_sort_values);
  ResultSet result;
  result.columns = plan.columns;
  result.rows = std::move(output);
  return result;
}

// --- DML ----------------------------------------------------------------------

Status Executor::InsertRows(const TableDescriptor& desc, const std::vector<Row>& rows,
                            TenantTxn* txn, bool upsert) {
  std::vector<std::string> pks;
  pks.reserve(rows.size());
  for (const Row& row : rows) pks.push_back(EncodePrimaryKey(desc, row));
  std::vector<std::optional<std::string>> existing;
  VELOCE_RETURN_IF_ERROR(txn->MultiGet(pks, &existing));
  // Row index of the last row this call wrote, by primary key: a later row
  // with the same key meets it instead of what the read returned.
  std::unordered_map<std::string, size_t> written;
  for (size_t i = 0; i < rows.size(); ++i) {
    auto prev = written.find(pks[i]);
    if (!upsert && (prev != written.end() || existing[i].has_value())) {
      return Status::AlreadyExists("duplicate primary key in " + desc.name);
    }
    const Row* old_row = nullptr;
    Row decoded;
    if (prev != written.end()) {
      old_row = &rows[prev->second];
    } else if (existing[i].has_value()) {
      VELOCE_RETURN_IF_ERROR(DecodeRow(desc, pks[i], *existing[i], &decoded));
      old_row = &decoded;
    }
    VELOCE_RETURN_IF_ERROR(PutRow(desc, pks[i], rows[i], old_row, txn));
    written[pks[i]] = i;
  }
  return Status::OK();
}

Status Executor::PutRow(const TableDescriptor& desc, const std::string& pk,
                        const Row& row, const Row* old_row, TenantTxn* txn) {
  if (old_row != nullptr) {
    // Overwriting a row: retire its stale secondary entries.
    for (const auto& index : desc.secondaries) {
      const std::string old_key = EncodeSecondaryKey(desc, index, *old_row);
      if (old_key != EncodeSecondaryKey(desc, index, row)) {
        VELOCE_RETURN_IF_ERROR(txn->Delete(old_key));
      }
    }
  }
  VELOCE_RETURN_IF_ERROR(txn->Put(pk, EncodeRowValue(desc, row)));
  for (const auto& index : desc.secondaries) {
    VELOCE_RETURN_IF_ERROR(txn->Put(EncodeSecondaryKey(desc, index, row), ""));
  }
  return Status::OK();
}

Status Executor::DeleteRow(const TableDescriptor& desc, const Row& row, TenantTxn* txn) {
  VELOCE_RETURN_IF_ERROR(txn->Delete(EncodePrimaryKey(desc, row)));
  for (const auto& index : desc.secondaries) {
    VELOCE_RETURN_IF_ERROR(txn->Delete(EncodeSecondaryKey(desc, index, row)));
  }
  return Status::OK();
}

StatusOr<ResultSet> Executor::ExecInsert(const InsertStmt& stmt, TenantTxn* txn,
                                         const std::vector<Datum>* params) {
  VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog_->GetTable(stmt.table));
  // Resolve target column positions.
  std::vector<int> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < desc.columns.size(); ++i) positions.push_back(static_cast<int>(i));
  } else {
    for (const auto& name : stmt.columns) {
      const ColumnDescriptor* col = desc.FindColumn(name);
      if (col == nullptr) return Status::NotFound("no such column: " + name);
      positions.push_back(desc.ColumnIndex(col->id));
    }
  }

  Row empty_row;
  EvalContext ctx{{}, &empty_row, params, nullptr};
  auto eval_row = [&](const std::vector<ExprPtr>& value_row, Row* row) -> Status {
    if (value_row.size() != positions.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    row->assign(desc.columns.size(), Datum::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*value_row[i], ctx));
      (*row)[static_cast<size_t>(positions[i])] = std::move(v);
    }
    // NOT NULL enforcement.
    for (size_t i = 0; i < desc.columns.size(); ++i) {
      if (!desc.columns[i].nullable && (*row)[i].is_null()) {
        return Status::InvalidArgument("null value in non-nullable column " +
                                       desc.columns[i].name);
      }
    }
    return Status::OK();
  };
  // Rows evaluate up to the first that fails. Its error stands only if no
  // row before it fails too: the first failing row decides the status.
  std::vector<Row> rows;
  rows.reserve(stmt.values.size());
  Status row_error;
  for (const auto& value_row : stmt.values) {
    Row row;
    row_error = eval_row(value_row, &row);
    if (!row_error.ok()) break;
    rows.push_back(std::move(row));
  }
  VELOCE_RETURN_IF_ERROR(InsertRows(desc, rows, txn, stmt.upsert));
  VELOCE_RETURN_IF_ERROR(row_error);
  ResultSet result;
  result.rows_affected = rows.size();
  return result;
}

StatusOr<ResultSet> Executor::ExecUpdate(const UpdateStmt& stmt, TenantTxn* txn,
                                         const std::vector<Datum>* params) {
  VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog_->GetTable(stmt.table));
  std::vector<Binding> bindings;
  Binding base;
  base.alias = stmt.table;
  base.desc = desc;
  bindings.push_back(base);

  for (const auto& [col_name, expr] : stmt.assignments) {
    if (desc.FindColumn(col_name) == nullptr) {
      return Status::NotFound("no such column: " + col_name);
    }
    VELOCE_RETURN_IF_ERROR(ValidateExpr(expr.get(), bindings, params));
  }
  VELOCE_RETURN_IF_ERROR(ValidateExpr(stmt.where.get(), bindings, params));

  std::vector<Row> rows;
  VELOCE_RETURN_IF_ERROR(ScanTable(
      desc, BuildScanConstraints(desc, stmt.table, stmt.where.get(), params), txn, &rows));

  ResultSet result;
  for (const Row& old_row : rows) {
    EvalContext ctx{bindings, &old_row, params, nullptr};
    if (stmt.where != nullptr) {
      VELOCE_ASSIGN_OR_RETURN(Datum keep, Eval(*stmt.where, ctx));
      if (!Truthy(keep)) continue;
    }
    Row new_row = old_row;
    for (const auto& [col_name, expr] : stmt.assignments) {
      const ColumnDescriptor* col = desc.FindColumn(col_name);
      if (col == nullptr) return Status::NotFound("no such column: " + col_name);
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*expr, ctx));
      if (!col->nullable && v.is_null()) {
        return Status::InvalidArgument("null value in non-nullable column " + col_name);
      }
      new_row[static_cast<size_t>(desc.ColumnIndex(col->id))] = std::move(v);
    }
    const std::string pk = EncodePrimaryKey(desc, new_row);
    if (pk != EncodePrimaryKey(desc, old_row)) {
      VELOCE_RETURN_IF_ERROR(DeleteRow(desc, old_row, txn));
      VELOCE_RETURN_IF_ERROR(InsertRows(desc, {new_row}, txn, /*upsert=*/false));
    } else {
      // The scan just read the row in this txn: overwrite it without
      // reading it again.
      VELOCE_RETURN_IF_ERROR(PutRow(desc, pk, new_row, &old_row, txn));
    }
    ++result.rows_affected;
  }
  return result;
}

StatusOr<ResultSet> Executor::ExecDelete(const DeleteStmt& stmt, TenantTxn* txn,
                                         const std::vector<Datum>* params) {
  VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog_->GetTable(stmt.table));
  std::vector<Binding> bindings;
  Binding base;
  base.alias = stmt.table;
  base.desc = desc;
  bindings.push_back(base);

  VELOCE_RETURN_IF_ERROR(ValidateExpr(stmt.where.get(), bindings, params));

  std::vector<Row> rows;
  VELOCE_RETURN_IF_ERROR(ScanTable(
      desc, BuildScanConstraints(desc, stmt.table, stmt.where.get(), params), txn, &rows));
  ResultSet result;
  for (const Row& row : rows) {
    EvalContext ctx{bindings, &row, params, nullptr};
    if (stmt.where != nullptr) {
      VELOCE_ASSIGN_OR_RETURN(Datum keep, Eval(*stmt.where, ctx));
      if (!Truthy(keep)) continue;
    }
    VELOCE_RETURN_IF_ERROR(DeleteRow(desc, row, txn));
    ++result.rows_affected;
  }
  return result;
}

}  // namespace veloce::sql
