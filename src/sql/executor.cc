#include "sql/executor.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/codec.h"
#include "common/logging.h"
#include "sql/pushdown.h"
#include "sql/vec/vec_exec.h"

namespace veloce::sql {

// The expression interpreter, scan-constraint extraction, AggState, and
// Reader all live in sql/eval.{h,cc} — shared with the vectorized engine
// (sql/vec/) and the KV-side pushdown evaluator (sql/pushdown.cc).

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

// Engine dispatch (docs/SQL_EXEC.md): non-transactional SELECTs try the
// vectorized engine first; NotSupported from its planner means "not
// covered", and the statement re-runs on the row engine. Any other status
// (including real errors) is final — both engines implement identical
// semantics, so there is no second try that could change the answer.
StatusOr<ResultSet> Executor::DispatchSelect(const SelectStmt& stmt, TenantTxn* txn,
                                             const std::vector<Datum>* params) {
  if (engine_ != ExecEngine::kRow && txn == nullptr) {
    vec::VecExecutor vexec(catalog_, connector_, pushdown_enabled_);
    StatusOr<ResultSet> result = vexec.ExecSelect(stmt, params);
    rows_scanned_c_->Inc(vexec.rows_scanned());
    batches_c_->Inc(vexec.batches());
    if (result.ok() || result.status().code() != Code::kNotSupported) {
      last_select_engine_ = "vectorized";
      engine_vec_c_->Inc();
      return result;
    }
    if (engine_ == ExecEngine::kVectorized) return result.status();
  } else if (engine_ == ExecEngine::kVectorized) {
    return Status::NotSupported(
        "vectorized engine does not cover transactional reads");
  }
  last_select_engine_ = "row";
  engine_row_c_->Inc();
  return ExecSelect(stmt, txn, params);
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
  VELOCE_RETURN_IF_ERROR(ScanTable(desc, desc.name, nullptr, txn, nullptr, &rows));
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

Status Executor::ScanTable(const TableDescriptor& desc, const std::string& alias,
                           const Expr* where, TenantTxn* txn,
                           const std::vector<Datum>* params, std::vector<Row>* rows,
                           const std::vector<uint32_t>* needed_columns) {
  Reader reader{txn, connector_};
  const ScanConstraints plan = BuildScanConstraints(desc, alias, where, params);

  if (plan.point) {
    // Full PK: point lookup.
    std::optional<std::string> value;
    VELOCE_RETURN_IF_ERROR(reader.Get(plan.start, &value));
    if (value.has_value()) {
      Row row;
      VELOCE_RETURN_IF_ERROR(DecodeRow(desc, plan.start, *value, &row));
      rows->push_back(std::move(row));
      rows_scanned_c_->Inc();
    }
    return Status::OK();
  }

  // No useful PK constraint and a secondary index matches? Use an index
  // scan + lookup join back to the primary index.
  if (plan.eq_cols == 0) {
    for (const auto& index : desc.secondaries) {
      if (index.column_ids.empty()) continue;
      auto it = plan.eq.find(index.column_ids[0]);
      if (it == plan.eq.end()) continue;
      // Build the index span over the leading equality columns.
      std::string idx_start = IndexPrefix(desc.id, index.id);
      for (uint32_t col_id : index.column_ids) {
        auto eq_it = plan.eq.find(col_id);
        if (eq_it == plan.eq.end()) break;
        eq_it->second.EncodeKey(&idx_start);
      }
      std::vector<kv::MvccScanEntry> entries;
      VELOCE_RETURN_IF_ERROR(
          reader.Scan(idx_start, PrefixEnd(idx_start), 0, &entries));
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
  }

  // Row-filter / projection push-down (DESIGN.md Section 6): eligible
  // residual conjuncts and the needed-column list travel with the scan and
  // evaluate at the KV node. Only for non-transactional reads (txn scans
  // must observe their own intents through the txn path).
  std::string pushdown_spec;
  if (pushdown_enabled_ && txn == nullptr) {
    PushdownSpec spec = MakeFilterSpec(plan, needed_columns, desc);
    if (!spec.empty()) pushdown_spec = spec.Encode();
  }

  std::vector<kv::MvccScanEntry> entries;
  VELOCE_RETURN_IF_ERROR(reader.Scan(plan.start, plan.end, 0, &entries, pushdown_spec));
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

StatusOr<ResultSet> Executor::ExecSelect(const SelectStmt& stmt, TenantTxn* txn,
                                         const std::vector<Datum>* params) {
  ResultSet result;
  std::vector<Binding> bindings;
  std::vector<Row> current;  // concatenated rows

  if (!stmt.table.empty()) {
    VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog_->GetTable(stmt.table));
    Binding base;
    base.alias = stmt.table_alias.empty() ? stmt.table : stmt.table_alias;
    base.desc = desc;
    base.offset = 0;
    bindings.push_back(base);
    // Projection push-down input: for single-table queries with an explicit
    // select list, only the referenced columns need to leave the KV node.
    std::vector<uint32_t> needed;
    const std::vector<uint32_t>* needed_ptr = nullptr;
    if (pushdown_enabled_ && stmt.joins.empty() && !stmt.items.empty() &&
        CollectNeededColumns(stmt, desc, &needed)) {
      needed_ptr = &needed;
    }
    VELOCE_RETURN_IF_ERROR(ScanTable(desc, base.alias, stmt.where.get(), txn,
                                     params, &current, needed_ptr));
  } else {
    current.push_back(Row{});  // table-less SELECT evaluates one row
  }

  // Joins, left to right.
  Reader reader{txn, connector_};
  for (const auto& join : stmt.joins) {
    VELOCE_ASSIGN_OR_RETURN(TableDescriptor right, catalog_->GetTable(join.table));
    Binding rb;
    rb.alias = join.alias.empty() ? join.table : join.alias;
    rb.desc = right;
    rb.offset = bindings.empty() ? 0 : bindings.back().offset +
                                          bindings.back().desc.columns.size();
    // Extract equi-conjuncts left-side-expr = right-column.
    std::vector<const Expr*> on_conjuncts;
    CollectConjuncts(join.on.get(), &on_conjuncts);
    std::vector<JoinEquiPair> equis;
    std::vector<const Expr*> residual;
    ExtractJoinEquis(on_conjuncts, right, rb.alias, &equis, &residual);

    // Index join if the equi columns cover the right table's PK in order.
    bool index_join = equis.size() == right.primary.column_ids.size();
    std::vector<const Expr*> pk_exprs(right.primary.column_ids.size(), nullptr);
    if (index_join) {
      for (size_t i = 0; i < right.primary.column_ids.size(); ++i) {
        for (const auto& pair : equis) {
          if (pair.right_col_id == right.primary.column_ids[i]) {
            pk_exprs[i] = pair.left_expr;
            break;
          }
        }
        if (pk_exprs[i] == nullptr) {
          index_join = false;
          break;
        }
      }
    }

    std::vector<Row> joined;
    if (index_join) {
      // Per-row KV point lookups (the Q9 plan shape).
      for (const Row& row : current) {
        EvalContext ctx{&bindings, &row, params, nullptr};
        std::vector<Datum> pk_values;
        bool null_key = false;
        for (const Expr* e : pk_exprs) {
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
      // Hash join (or nested loop when no equi columns exist).
      std::vector<Row> right_rows;
      VELOCE_RETURN_IF_ERROR(
          ScanTable(right, rb.alias, nullptr, txn, params, &right_rows));
      if (!equis.empty()) {
        std::multimap<std::string, const Row*> table;
        for (const Row& rrow : right_rows) {
          std::string key;
          for (const auto& pair : equis) {
            const int pos = right.ColumnIndex(pair.right_col_id);
            rrow[static_cast<size_t>(pos)].EncodeKey(&key);
          }
          table.emplace(std::move(key), &rrow);
        }
        for (const Row& row : current) {
          EvalContext ctx{&bindings, &row, params, nullptr};
          std::string key;
          bool null_key = false;
          for (const auto& pair : equis) {
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
      } else {
        for (const Row& row : current) {
          for (const Row& rrow : right_rows) {
            Row combined = row;
            combined.insert(combined.end(), rrow.begin(), rrow.end());
            joined.push_back(std::move(combined));
          }
        }
      }
    }
    bindings.push_back(rb);
    current = std::move(joined);
    // Apply residual ON conjuncts.
    if (!residual.empty()) {
      std::vector<Row> filtered;
      for (Row& row : current) {
        EvalContext ctx{&bindings, &row, params, nullptr};
        bool keep = true;
        for (const Expr* c : residual) {
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

  // Bind-time validation over the complete binding set (so errors surface
  // even when the tables are empty). ORDER BY is excluded: it resolves
  // against output column names below.
  for (const auto& item : stmt.items) {
    VELOCE_RETURN_IF_ERROR(ValidateExpr(item.expr.get(), bindings, params));
  }
  VELOCE_RETURN_IF_ERROR(ValidateExpr(stmt.where.get(), bindings, params));
  for (const auto& g : stmt.group_by) {
    VELOCE_RETURN_IF_ERROR(ValidateExpr(g.get(), bindings, params));
  }

  // WHERE (the PK-pushed conjuncts re-evaluate harmlessly).
  if (stmt.where != nullptr) {
    std::vector<Row> filtered;
    for (Row& row : current) {
      EvalContext ctx{&bindings, &row, params, nullptr};
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*stmt.where, ctx));
      if (Truthy(v)) filtered.push_back(std::move(row));
    }
    current = std::move(filtered);
  }

  // Determine projection items. SELECT * expands to one column per bound
  // table column (owned expressions); otherwise items are borrowed.
  std::vector<ExprPtr> star_exprs;
  std::vector<const Expr*> item_exprs;
  std::vector<std::string> item_names;
  if (stmt.items.empty()) {
    for (const auto& binding : bindings) {
      for (const auto& col : binding.desc.columns) {
        star_exprs.push_back(Expr::Column(binding.alias, col.name));
        item_exprs.push_back(star_exprs.back().get());
        item_names.push_back(col.name);
      }
    }
  } else {
    for (const auto& item : stmt.items) {
      item_exprs.push_back(item.expr.get());
      item_names.push_back(DeriveColumnName(*item.expr, item.alias));
    }
  }
  result.columns = item_names;

  // Aggregation?
  bool any_agg = !stmt.group_by.empty();
  for (const Expr* e : item_exprs) {
    if (HasAggregate(e)) any_agg = true;
  }

  // Resolve ORDER BY items up front: each is either an output column
  // (by name/alias or 1-based ordinal) or — for non-aggregated queries —
  // an arbitrary expression over the input row (standard SQL allows
  // ordering by non-projected columns).
  struct SortKey {
    int output_idx = -1;        // >= 0: sort by this output column
    const Expr* expr = nullptr; // else: evaluate against the input row
    bool desc = false;
  };
  std::vector<SortKey> sort_keys;
  for (const auto& ob : stmt.order_by) {
    SortKey key;
    key.desc = ob.desc;
    if (ob.expr->kind == Expr::Kind::kColumnRef) {
      // Match output columns by (possibly qualified) name: `ORDER BY n.name`
      // matches the output column "name" derived from n.name.
      for (size_t i = 0; i < item_names.size(); ++i) {
        if (item_names[i] == ob.expr->column_name) {
          key.output_idx = static_cast<int>(i);
          break;
        }
      }
    } else if (ob.expr->kind == Expr::Kind::kLiteral &&
               ob.expr->literal.kind() == TypeKind::kInt) {
      const int idx = static_cast<int>(ob.expr->literal.int_value()) - 1;
      if (idx < 0 || idx >= static_cast<int>(item_names.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      key.output_idx = idx;
    }
    if (key.output_idx < 0) {
      key.expr = ob.expr.get();
      VELOCE_RETURN_IF_ERROR(ValidateExpr(key.expr, bindings, params));
    }
    sort_keys.push_back(key);
  }
  const bool needs_input_keys = [&] {
    for (const auto& key : sort_keys) {
      if (key.expr != nullptr) return true;
    }
    return false;
  }();

  std::vector<Row> output;
  std::vector<Row> input_sort_values;  // parallel to output, expr-key values
  if (any_agg) {
    if (needs_input_keys) {
      return Status::InvalidArgument(
          "ORDER BY must name an output column in aggregated queries");
    }
    // Group rows by the GROUP BY key.
    struct Group {
      Row representative;
      std::map<const Expr*, AggState> states;
      std::vector<Datum> key_values;
    };
    std::map<std::string, Group> groups;
    std::vector<const Expr*> agg_nodes;
    for (const Expr* e : item_exprs) CollectAggregates(e, &agg_nodes);

    for (const Row& row : current) {
      EvalContext ctx{&bindings, &row, params, nullptr};
      std::string key;
      std::vector<Datum> key_values;
      for (const auto& g : stmt.group_by) {
        VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*g, ctx));
        v.EncodeKey(&key);
        key_values.push_back(std::move(v));
      }
      Group& group = groups[key];
      if (group.representative.empty() && !row.empty()) group.representative = row;
      group.key_values = key_values;
      for (const Expr* agg : agg_nodes) {
        AggState& state = group.states[agg];
        if (agg->child->kind == Expr::Kind::kStar) {
          state.Accumulate(Datum::Int(1), AggFunc::kCount);
        } else {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*agg->child, ctx));
          if (agg->agg == AggFunc::kCount) {
            if (!v.is_null()) state.Accumulate(v, AggFunc::kCount);
          } else {
            state.Accumulate(v, agg->agg);
          }
        }
      }
    }
    // Aggregates over an empty input with no GROUP BY produce one row.
    if (groups.empty() && stmt.group_by.empty()) {
      groups[""] = Group{};
    }
    for (auto& [key, group] : groups) {
      std::map<const Expr*, Datum> agg_values;
      for (const Expr* agg : agg_nodes) {
        agg_values[agg] = group.states[agg].Result(agg->agg);
      }
      const Row& rep = group.representative;
      EvalContext ctx{&bindings, &rep, params, &agg_values};
      Row out_row;
      for (const Expr* e : item_exprs) {
        VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
        out_row.push_back(std::move(v));
      }
      output.push_back(std::move(out_row));
    }
  } else {
    for (const Row& row : current) {
      EvalContext ctx{&bindings, &row, params, nullptr};
      Row out_row;
      for (const Expr* e : item_exprs) {
        VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
        out_row.push_back(std::move(v));
      }
      output.push_back(std::move(out_row));
      if (needs_input_keys) {
        Row keys;
        for (const auto& key : sort_keys) {
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
  }

  // ORDER BY: sort by output columns and/or pre-evaluated input keys.
  if (!sort_keys.empty()) {
    std::vector<size_t> order(output.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < sort_keys.size(); ++k) {
        const SortKey& key = sort_keys[k];
        const Datum& va = key.output_idx >= 0
                              ? output[a][static_cast<size_t>(key.output_idx)]
                              : input_sort_values[a][k];
        const Datum& vb = key.output_idx >= 0
                              ? output[b][static_cast<size_t>(key.output_idx)]
                              : input_sort_values[b][k];
        const int c = va.Compare(vb);
        if (c != 0) return key.desc ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(output.size());
    for (size_t idx : order) sorted.push_back(std::move(output[idx]));
    output = std::move(sorted);
  }

  if (stmt.limit >= 0 && output.size() > static_cast<size_t>(stmt.limit)) {
    output.resize(static_cast<size_t>(stmt.limit));
  }
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

  std::vector<Binding> no_bindings;
  Row empty_row;
  EvalContext ctx{&no_bindings, &empty_row, params, nullptr};
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
  VELOCE_RETURN_IF_ERROR(
      ScanTable(desc, stmt.table, stmt.where.get(), txn, params, &rows));

  ResultSet result;
  for (const Row& old_row : rows) {
    EvalContext ctx{&bindings, &old_row, params, nullptr};
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
  VELOCE_RETURN_IF_ERROR(
      ScanTable(desc, stmt.table, stmt.where.get(), txn, params, &rows));
  ResultSet result;
  for (const Row& row : rows) {
    EvalContext ctx{&bindings, &row, params, nullptr};
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
