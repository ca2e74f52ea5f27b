#include "sql/select_plan.h"

#include <algorithm>

#include "sql/pushdown.h"

namespace veloce::sql {

Status PlanSelect(const SelectStmt& stmt, const std::vector<Datum>* params,
                  bool pushdown, Catalog* catalog, SelectPlan* plan) {
  plan->stmt = &stmt;
  plan->params = params;
  plan->pushdown = pushdown;
  std::vector<Binding>& bindings = plan->bindings;
  if (!stmt.table.empty()) {
    VELOCE_ASSIGN_OR_RETURN(TableDescriptor desc, catalog->GetTable(stmt.table));
    bindings.push_back(
        {stmt.table_alias.empty() ? stmt.table : stmt.table_alias, std::move(desc), 0});
    plan->scan = BuildScanConstraints(bindings[0].desc, bindings[0].alias,
                                      stmt.where.get(), params);
  }

  // Joins, left to right. Equi probes evaluate over the tables bound before
  // the join, residual ON conjuncts over the combined row.
  for (const JoinClause& join : stmt.joins) {
    VELOCE_ASSIGN_OR_RETURN(TableDescriptor right, catalog->GetTable(join.table));
    JoinPlan& jp = plan->joins.emplace_back();
    const std::string alias = join.alias.empty() ? join.table : join.alias;
    std::vector<const Expr*> on_conjuncts;
    CollectConjuncts(join.on.get(), &on_conjuncts);
    ExtractJoinEquis(on_conjuncts, right, alias, &jp.equis, &jp.residual);
    for (const JoinEquiPair& pair : jp.equis) {
      VELOCE_RETURN_IF_ERROR(ValidateExpr(pair.left_expr, bindings, params));
    }
    std::vector<const Expr*> pk_exprs;
    for (uint32_t pk_col : right.primary.column_ids) {
      auto pair = std::find_if(jp.equis.begin(), jp.equis.end(), [&](const JoinEquiPair& p) {
        return p.right_col_id == pk_col;
      });
      if (pair != jp.equis.end()) pk_exprs.push_back(pair->left_expr);
    }
    if (pk_exprs.size() == right.primary.column_ids.size() &&
        jp.equis.size() == pk_exprs.size()) {
      jp.pk_exprs = std::move(pk_exprs);
    }
    jp.scan = BuildScanConstraints(right, alias, nullptr, params);
    const size_t offset =
        bindings.empty() ? 0 : bindings.back().offset + bindings.back().desc.columns.size();
    bindings.push_back({alias, std::move(right), offset});
    for (const Expr* c : jp.residual) {
      VELOCE_RETURN_IF_ERROR(ValidateExpr(c, bindings, params));
    }
  }

  // Select items: `SELECT *` expands to one column per bound table column.
  if (stmt.items.empty()) {
    for (const Binding& binding : bindings) {
      for (const ColumnDescriptor& col : binding.desc.columns) {
        plan->star_exprs.push_back(Expr::Column(binding.alias, col.name));
        plan->items.push_back(plan->star_exprs.back().get());
        plan->columns.push_back(col.name);
      }
    }
  } else {
    for (const SelectItem& item : stmt.items) {
      plan->items.push_back(item.expr.get());
      plan->columns.push_back(DeriveColumnName(*item.expr, item.alias));
    }
  }
  for (const Expr* e : plan->items) {
    VELOCE_RETURN_IF_ERROR(ValidateExpr(e, bindings, params));
  }
  VELOCE_RETURN_IF_ERROR(ValidateExpr(stmt.where.get(), bindings, params));
  for (const ExprPtr& g : stmt.group_by) {
    VELOCE_RETURN_IF_ERROR(ValidateExpr(g.get(), bindings, params));
  }
  for (const Expr* e : plan->items) CollectAggregates(e, &plan->agg_nodes);
  plan->any_agg = !stmt.group_by.empty() || !plan->agg_nodes.empty();

  // ORDER BY: an output column by (possibly qualified) name — `ORDER BY
  // n.name` matches the output column "name" — or 1-based ordinal; else an
  // expression over the input row (SQL allows ordering by columns the
  // query does not project).
  for (const OrderByItem& ob : stmt.order_by) {
    SortKey& key = plan->sort_keys.emplace_back();
    key.desc = ob.desc;
    if (ob.expr->kind == Expr::Kind::kColumnRef) {
      auto it = std::find(plan->columns.begin(), plan->columns.end(),
                          ob.expr->column_name);
      if (it != plan->columns.end()) {
        key.output_idx = static_cast<int>(it - plan->columns.begin());
      }
    } else if (ob.expr->kind == Expr::Kind::kLiteral &&
               ob.expr->literal.kind() == TypeKind::kInt) {
      const int idx = static_cast<int>(ob.expr->literal.int_value()) - 1;
      if (idx < 0 || idx >= static_cast<int>(plan->columns.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      key.output_idx = idx;
    }
    if (key.output_idx < 0) {
      key.expr = ob.expr.get();
      plan->needs_input_keys = true;
      VELOCE_RETURN_IF_ERROR(ValidateExpr(key.expr, bindings, params));
    }
  }
  if (plan->any_agg && plan->needs_input_keys) {
    return Status::InvalidArgument(
        "ORDER BY must name an output column in aggregated queries");
  }

  // Filter and projection push-down (DESIGN.md Section 6) for a primary
  // span scan: eligible WHERE conjuncts evaluate at the KV node, and for
  // single-table queries with an explicit select list only the referenced
  // columns leave it.
  if (pushdown && !bindings.empty() && !plan->scan.point && plan->scan.index < 0) {
    const TableDescriptor& desc = bindings[0].desc;
    std::vector<uint32_t> needed;
    const bool project = stmt.joins.empty() && !stmt.items.empty() &&
                         CollectNeededColumns(stmt, desc, &needed);
    PushdownSpec spec = MakeFilterSpec(plan->scan, project ? &needed : nullptr, desc);
    if (!spec.empty()) plan->filter_spec = spec.Encode();
  }
  return Status::OK();
}

StatusOr<Row> SelectPlan::Project(const Row& row,
                                  const std::map<const Expr*, Datum>* agg_values) const {
  EvalContext ctx{bindings, &row, params, agg_values};
  Row out;
  out.reserve(items.size());
  for (const Expr* e : items) {
    VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
    out.push_back(std::move(v));
  }
  return out;
}

StatusOr<Row> SelectPlan::GroupRow(const Row& rep, const AggState* states) const {
  std::map<const Expr*, Datum> agg_values;
  for (size_t a = 0; a < agg_nodes.size(); ++a) {
    agg_values[agg_nodes[a]] = states[a].Result(agg_nodes[a]->agg);
  }
  return Project(rep, &agg_values);
}

void SelectPlan::SortAndLimit(std::vector<Row>* output,
                              const std::vector<Row>& input_keys) const {
  if (!sort_keys.empty()) {
    std::vector<size_t> order(output->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const std::vector<Row>& rows = *output;
    auto value = [&](size_t row, size_t k) -> const Datum& {
      const int idx = sort_keys[k].output_idx;
      return idx >= 0 ? rows[row][static_cast<size_t>(idx)] : input_keys[row][k];
    };
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < sort_keys.size(); ++k) {
        const int c = value(a, k).Compare(value(b, k));
        if (c != 0) return sort_keys[k].desc ? c > 0 : c < 0;
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(output->size());
    for (size_t idx : order) sorted.push_back(std::move((*output)[idx]));
    *output = std::move(sorted);
  }
  if (stmt->limit >= 0 && output->size() > static_cast<size_t>(stmt->limit)) {
    output->resize(static_cast<size_t>(stmt->limit));
  }
}

}  // namespace veloce::sql
