#include "sql/vec/vec_exec.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/codec.h"
#include "sql/pushdown.h"
#include "sql/vec/column_batch.h"
#include "sql/vec/vec_expr.h"

namespace veloce::sql::vec {

namespace {

// Plan-time rejection: the statement re-runs on the row engine, which
// either covers the shape or reproduces the exact user-facing error.
Status NotCovered(const char* what) {
  return Status::NotSupported(std::string("vectorized engine: ") + what);
}

// Resolves every column reference under `expr` against `bindings`,
// recording node -> concatenated-row position (== batch column index).
Status BindExpr(const Expr* expr, const std::vector<Binding>& bindings,
                std::map<const Expr*, int>* positions) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == Expr::Kind::kColumnRef) {
    VELOCE_ASSIGN_OR_RETURN(
        int pos, ResolveColumn(bindings, expr->table_name, expr->column_name));
    (*positions)[expr] = pos;
    return Status::OK();
  }
  VELOCE_RETURN_IF_ERROR(BindExpr(expr->left.get(), bindings, positions));
  VELOCE_RETURN_IF_ERROR(BindExpr(expr->right.get(), bindings, positions));
  return BindExpr(expr->child.get(), bindings, positions);
}

// Validates and binds in one step; any failure rejects the plan.
Status ValidateAndBind(const Expr* expr, const std::vector<Binding>& bindings,
                       const std::vector<Datum>* params,
                       std::map<const Expr*, int>* positions) {
  VELOCE_RETURN_IF_ERROR(ValidateExpr(expr, bindings, params));
  return BindExpr(expr, bindings, positions);
}

// Converts an aggregate input to the KV-evaluable expression subset:
// constants (params fold at plan time), non-PK column refs of the scanned
// table, arithmetic over those, and `*` (COUNT(*)).
bool ToPushdownExpr(const Expr& e, const TableDescriptor& desc,
                    const std::string& alias, const std::vector<Datum>* params,
                    std::unique_ptr<PushdownExpr>* out) {
  auto node = std::make_unique<PushdownExpr>();
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      node->kind = PushdownExpr::Kind::kLiteral;
      node->literal = e.literal;
      break;
    case Expr::Kind::kParam: {
      if (params == nullptr || e.param_index < 1 ||
          static_cast<size_t>(e.param_index) > params->size()) {
        return false;
      }
      node->kind = PushdownExpr::Kind::kLiteral;
      node->literal = (*params)[static_cast<size_t>(e.param_index - 1)];
      break;
    }
    case Expr::Kind::kColumnRef: {
      if (!e.table_name.empty() && e.table_name != alias) return false;
      const ColumnDescriptor* col = desc.FindColumn(e.column_name);
      if (col == nullptr || desc.IsPrimaryKeyColumn(col->id)) return false;
      node->kind = PushdownExpr::Kind::kColumn;
      node->column_id = col->id;
      break;
    }
    case Expr::Kind::kBinary: {
      if (e.op != BinOp::kAdd && e.op != BinOp::kSub && e.op != BinOp::kMul &&
          e.op != BinOp::kDiv && e.op != BinOp::kMod) {
        return false;
      }
      node->kind = PushdownExpr::Kind::kBinary;
      node->op = e.op;
      if (!ToPushdownExpr(*e.left, desc, alias, params, &node->left) ||
          !ToPushdownExpr(*e.right, desc, alias, params, &node->right)) {
        return false;
      }
      break;
    }
    case Expr::Kind::kStar:
      node->kind = PushdownExpr::Kind::kStar;
      break;
    default:
      return false;
  }
  *out = std::move(node);
  return true;
}

// True when every column reference outside aggregate arguments resolves to
// a grouping column — the precondition for evaluating output expressions
// against a representative row that carries only the group values.
bool NonAggRefsCovered(const Expr* e, const std::map<const Expr*, int>& positions,
                       const std::set<int>& group_positions) {
  if (e == nullptr) return true;
  if (e->kind == Expr::Kind::kAggregate) return true;  // input feeds AggState
  if (e->kind == Expr::Kind::kColumnRef) {
    auto it = positions.find(e);
    return it != positions.end() && group_positions.count(it->second) > 0;
  }
  return NonAggRefsCovered(e->left.get(), positions, group_positions) &&
         NonAggRefsCovered(e->right.get(), positions, group_positions) &&
         NonAggRefsCovered(e->child.get(), positions, group_positions);
}

// Column-at-a-time accumulation of one aggregate input into the flat group
// state array (`states[g * stride + a]`), `gidx` giving each selected row's
// group. Semantics mirror the scalar AggState::Accumulate caller exactly
// (null handling, int-sum wrapping, non-int inputs contributing AsDouble);
// the win is skipping the per-row Datum boxing for the hot SUM/AVG/COUNT
// cases.
void AccumulateColumn(const Vec& in, AggFunc func, const SelVector& sel,
                      const std::vector<uint32_t>& gidx, AggState* states,
                      size_t stride, size_t a) {
  if (in.is_const || func == AggFunc::kMin || func == AggFunc::kMax) {
    for (size_t k = 0; k < sel.size(); ++k) {
      Datum v = in.DatumAt(sel[k]);
      if (func == AggFunc::kCount) {
        if (!v.is_null()) states[gidx[k] * stride + a].Accumulate(v, func);
      } else {
        states[gidx[k] * stride + a].Accumulate(v, func);
      }
    }
    return;
  }
  const ColumnVector& col = *in.col();
  if (func == AggFunc::kCount) {
    for (size_t k = 0; k < sel.size(); ++k) {
      if (!col.IsNull(sel[k])) ++states[gidx[k] * stride + a].count;
    }
    return;
  }
  // kSum / kAvg. The no-null variants drop the per-row null load+branch;
  // one memchr over the column's null bytes decides which loop runs.
  const bool no_nulls =
      std::memchr(col.nulls.data(), 1, col.nulls.size()) == nullptr;
  switch (col.type) {
    case TypeKind::kInt:
      if (no_nulls) {
        for (size_t k = 0; k < sel.size(); ++k) {
          AggState& st = states[gidx[k] * stride + a];
          const int64_t v = col.IntAt(sel[k]);
          ++st.count;
          st.isum = WrapAdd(st.isum, v);
          st.sum += static_cast<double>(v);
        }
        break;
      }
      for (size_t k = 0; k < sel.size(); ++k) {
        const uint32_t i = sel[k];
        if (col.IsNull(i)) continue;
        AggState& st = states[gidx[k] * stride + a];
        const int64_t v = col.IntAt(i);
        ++st.count;
        st.isum = WrapAdd(st.isum, v);
        st.sum += static_cast<double>(v);
      }
      break;
    case TypeKind::kDouble:
      if (no_nulls) {
        for (size_t k = 0; k < sel.size(); ++k) {
          AggState& st = states[gidx[k] * stride + a];
          ++st.count;
          st.sum_is_int = false;
          st.sum += col.DoubleAt(sel[k]);
        }
        break;
      }
      for (size_t k = 0; k < sel.size(); ++k) {
        const uint32_t i = sel[k];
        if (col.IsNull(i)) continue;
        AggState& st = states[gidx[k] * stride + a];
        ++st.count;
        st.sum_is_int = false;
        st.sum += col.DoubleAt(i);
      }
      break;
    default:  // kBool, kString: non-int kinds contribute Datum::AsDouble.
      for (size_t k = 0; k < sel.size(); ++k) {
        const uint32_t i = sel[k];
        if (col.IsNull(i)) continue;
        AggState& st = states[gidx[k] * stride + a];
        ++st.count;
        st.sum_is_int = false;
        st.sum += col.AsDoubleAt(i);
      }
      break;
  }
}

// Group identity fast path: the hash-identity bytes of most grouping
// tuples fit in 16 bytes (tags + fixed-width scalars / short strings), so
// they pack into two words hashed and compared without touching a
// std::string. Tuples that don't fit fall back to the byte-string map; the
// routing is a deterministic function of the tuple value (same value, same
// encoding, same map), so group identity is preserved across both maps.
struct PackedKey {
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint32_t len = 0;  // bytes used; disambiguates zero padding (NULL tags)
  bool operator==(const PackedKey& o) const {
    return lo == o.lo && hi == o.hi && len == o.len;
  }
};

struct PackedKeyHash {
  size_t operator()(const PackedKey& k) const {
    uint64_t h = (k.lo * 0x9E3779B97F4A7C15ULL) ^
                 (k.hi * 0xC2B2AE3D27D4EB4FULL) ^ k.len;
    h ^= h >> 29;
    return static_cast<size_t>(h);
  }
};

// Appends the same bytes AppendHashKeyAt would (tag + payload) into the
// 16-byte packed buffer; false when they don't fit.
bool AppendPackedKeyAt(const Vec& gv, uint32_t i, unsigned char* buf,
                       uint32_t* used) {
  if (gv.IsNullAt(i)) {
    if (*used + 1 > 16) return false;
    buf[(*used)++] = 0;
    return true;
  }
  const TypeKind t = gv.static_type();
  if (t == TypeKind::kString) {
    const std::string_view s = gv.StringAt(i);
    if (*used + 2 + s.size() > 16) return false;
    buf[(*used)++] = static_cast<unsigned char>(1 + static_cast<int>(t));
    buf[(*used)++] = static_cast<unsigned char>(s.size());
    std::memcpy(buf + *used, s.data(), s.size());
    *used += static_cast<uint32_t>(s.size());
    return true;
  }
  if (*used + 9 > 16) return false;
  buf[(*used)++] = static_cast<unsigned char>(1 + static_cast<int>(t));
  if (t == TypeKind::kDouble) {
    const double v = gv.DoubleAt(i);
    std::memcpy(buf + *used, &v, 8);
  } else if (t == TypeKind::kBool) {  // 8-byte int64 payload, bools as 0/1
    const int64_t v =
        gv.is_const ? (gv.const_val.bool_value() ? 1 : 0) : gv.col()->IntAt(i);
    std::memcpy(buf + *used, &v, 8);
  } else {  // kInt
    const int64_t v = gv.IntAt(i);
    std::memcpy(buf + *used, &v, 8);
  }
  *used += 8;
  return true;
}

}  // namespace

StatusOr<ResultSet> VecExecutor::ExecSelect(const SelectStmt& stmt,
                                            const std::vector<Datum>* params) {
  // ---- plan: bindings ------------------------------------------------------
  if (stmt.table.empty()) return NotCovered("table-less SELECT");
  StatusOr<TableDescriptor> base_desc = catalog_->GetTable(stmt.table);
  if (!base_desc.ok()) return NotCovered("unresolvable table");

  std::vector<Binding> bindings;
  Binding base;
  base.alias = stmt.table_alias.empty() ? stmt.table : stmt.table_alias;
  base.desc = std::move(base_desc).value();
  base.offset = 0;
  // ---- plan: base scan -----------------------------------------------------
  // Point gets and secondary-index scans are the row engine's specialty —
  // batching buys nothing at 0-or-1 (or few) rows per lookup. Reject them
  // before any binding work: the row engine redoes all of it.
  const ScanConstraints plan =
      BuildScanConstraints(base.desc, base.alias, stmt.where.get(), params);
  if (plan.point) return NotCovered("point lookup");
  if (plan.eq_cols == 0) {
    for (const auto& index : base.desc.secondaries) {
      if (!index.column_ids.empty() &&
          plan.eq.find(index.column_ids[0]) != plan.eq.end()) {
        return NotCovered("secondary index scan");
      }
    }
  }
  bindings.push_back(std::move(base));

  std::map<const Expr*, int> positions;

  struct JoinPlan {
    Binding binding;
    std::vector<JoinEquiPair> equis;
    std::vector<const Expr*> residual;
  };
  std::vector<JoinPlan> join_plans;
  for (const auto& join : stmt.joins) {
    StatusOr<TableDescriptor> right = catalog_->GetTable(join.table);
    if (!right.ok()) return NotCovered("unresolvable join table");
    JoinPlan jp;
    jp.binding.alias = join.alias.empty() ? join.table : join.alias;
    jp.binding.desc = std::move(right).value();
    jp.binding.offset =
        bindings.back().offset + bindings.back().desc.columns.size();
    std::vector<const Expr*> on_conjuncts;
    CollectConjuncts(join.on.get(), &on_conjuncts);
    ExtractJoinEquis(on_conjuncts, jp.binding.desc, jp.binding.alias, &jp.equis,
                     &jp.residual);
    // No equi columns -> nested-loop join; covered but left to the row
    // engine (rare shape, not worth a kernel).
    if (jp.equis.empty()) return NotCovered("non-equi join");
    // Equi columns covering the right PK run as per-row index lookups in
    // the row engine (the Q9 remote-lookup plan). Keep that plan shape —
    // a hash join here would turn point reads into a full scan.
    bool index_join = jp.equis.size() == jp.binding.desc.primary.column_ids.size();
    if (index_join) {
      for (uint32_t pk_col : jp.binding.desc.primary.column_ids) {
        bool found = false;
        for (const auto& pair : jp.equis) {
          if (pair.right_col_id == pk_col) found = true;
        }
        if (!found) {
          index_join = false;
          break;
        }
      }
    }
    if (index_join) return NotCovered("index join");
    // Probe expressions evaluate over the rows bound so far.
    for (const auto& pair : jp.equis) {
      if (HasAggregate(pair.left_expr)) return NotCovered("aggregate in ON");
      if (!ValidateAndBind(pair.left_expr, bindings, params, &positions).ok()) {
        return NotCovered("unresolvable ON expression");
      }
    }
    bindings.push_back(jp.binding);
    for (const Expr* c : jp.residual) {
      if (HasAggregate(c)) return NotCovered("aggregate in ON");
      if (!ValidateAndBind(c, bindings, params, &positions).ok()) {
        return NotCovered("unresolvable ON expression");
      }
    }
    join_plans.push_back(std::move(jp));
  }

  // ---- plan: projection, aggregation, ordering -----------------------------
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

  for (const Expr* e : item_exprs) {
    if (!ValidateAndBind(e, bindings, params, &positions).ok()) {
      return NotCovered("unresolvable select item");
    }
  }
  if (stmt.where != nullptr) {
    if (HasAggregate(stmt.where.get())) return NotCovered("aggregate in WHERE");
    if (!ValidateAndBind(stmt.where.get(), bindings, params, &positions).ok()) {
      return NotCovered("unresolvable WHERE");
    }
  }
  for (const auto& g : stmt.group_by) {
    if (HasAggregate(g.get())) return NotCovered("aggregate in GROUP BY");
    if (!ValidateAndBind(g.get(), bindings, params, &positions).ok()) {
      return NotCovered("unresolvable GROUP BY");
    }
  }

  bool any_agg = !stmt.group_by.empty();
  for (const Expr* e : item_exprs) {
    if (HasAggregate(e)) any_agg = true;
  }
  std::vector<const Expr*> agg_nodes;
  for (const Expr* e : item_exprs) CollectAggregates(e, &agg_nodes);
  for (const Expr* agg : agg_nodes) {
    if (agg->child == nullptr) return NotCovered("aggregate without input");
    if (HasAggregate(agg->child.get())) return NotCovered("nested aggregate");
    if (agg->child->kind != Expr::Kind::kStar &&
        !ValidateAndBind(agg->child.get(), bindings, params, &positions).ok()) {
      return NotCovered("unresolvable aggregate input");
    }
  }

  // ORDER BY resolution mirrors the row engine: output column by name or
  // 1-based ordinal, else an input-row expression (non-aggregated only).
  struct SortKey {
    int output_idx = -1;
    const Expr* expr = nullptr;
    bool desc = false;
  };
  std::vector<SortKey> sort_keys;
  for (const auto& ob : stmt.order_by) {
    SortKey key;
    key.desc = ob.desc;
    if (ob.expr->kind == Expr::Kind::kColumnRef) {
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
        return NotCovered("ORDER BY position out of range");
      }
      key.output_idx = idx;
    }
    if (key.output_idx < 0) {
      if (any_agg) return NotCovered("ORDER BY expression in aggregated query");
      key.expr = ob.expr.get();
      if (HasAggregate(key.expr)) return NotCovered("aggregate in ORDER BY");
      if (!ValidateAndBind(key.expr, bindings, params, &positions).ok()) {
        return NotCovered("unresolvable ORDER BY expression");
      }
    }
    sort_keys.push_back(key);
  }
  bool needs_input_keys = false;
  for (const auto& key : sort_keys) {
    if (key.expr != nullptr) needs_input_keys = true;
  }

  const TableDescriptor& desc = bindings[0].desc;
  const std::string& base_alias = bindings[0].alias;
  ResultSet result;
  result.columns = item_names;
  std::vector<Row> output;
  std::vector<Row> input_sort_values;  // parallel to output, expr sort keys

  // ---- aggregation fragment push-down --------------------------------------
  // Eligible when the whole WHERE is enforced KV-side (span + filters, no
  // unhandled residue), grouping is by stored non-PK columns, aggregate
  // inputs are KV-evaluable, and output expressions read nothing but group
  // columns outside their aggregates. The scan then returns per-group
  // partial AggStates per range segment instead of rows.
  bool fragment_done = false;
  if (pushdown_enabled_ && stmt.joins.empty() && any_agg &&
      plan.unhandled.empty()) {
    bool pushable = true;
    std::vector<uint32_t> group_ids;
    std::vector<int> group_cols;
    std::set<int> group_positions;
    for (const auto& g : stmt.group_by) {
      const Expr* e = g.get();
      if (e->kind != Expr::Kind::kColumnRef) {
        pushable = false;
        break;
      }
      const int pos = positions.at(e);
      const ColumnDescriptor& col = desc.columns[static_cast<size_t>(pos)];
      if (desc.IsPrimaryKeyColumn(col.id)) {
        pushable = false;  // PK values travel in the key, not the row value
        break;
      }
      group_ids.push_back(col.id);
      group_cols.push_back(pos);
      group_positions.insert(pos);
    }
    std::vector<PushdownAggregate> push_aggs;
    if (pushable) {
      for (const Expr* agg : agg_nodes) {
        PushdownAggregate pa;
        pa.func = agg->agg;
        if (!ToPushdownExpr(*agg->child, desc, base_alias, params, &pa.input)) {
          pushable = false;
          break;
        }
        push_aggs.push_back(std::move(pa));
      }
    }
    if (pushable) {
      for (const Expr* e : item_exprs) {
        if (!NonAggRefsCovered(e, positions, group_positions)) {
          pushable = false;
          break;
        }
      }
    }
    if (pushable) {
      PushdownSpec spec = MakeFilterSpec(plan, nullptr, desc);
      spec.group_by = group_ids;
      spec.aggregates = std::move(push_aggs);
      Reader reader{nullptr, connector_};
      std::vector<kv::MvccScanEntry> entries;
      VELOCE_RETURN_IF_ERROR(
          reader.Scan(plan.start, plan.end, 0, &entries, spec.Encode()));
      rows_scanned_ += entries.size();

      // Merge per-segment partial states; the map over encoded group keys
      // reproduces the row engine's group output order.
      struct FragGroup {
        std::vector<Datum> values;
        std::vector<AggState> states;
      };
      std::map<std::string, FragGroup> groups;
      for (const auto& entry : entries) {
        std::vector<Datum> values;
        std::vector<AggState> states;
        VELOCE_RETURN_IF_ERROR(
            DecodePartialAggRow(Slice(entry.value), &values, &states));
        if (values.size() != group_ids.size() ||
            states.size() != agg_nodes.size()) {
          return Status::Corruption("partial aggregate arity mismatch");
        }
        std::string key;
        for (const Datum& v : values) v.EncodeKey(&key);
        auto [it, inserted] = groups.try_emplace(std::move(key));
        if (inserted) {
          it->second.values = std::move(values);
          it->second.states = std::move(states);
        } else {
          for (size_t i = 0; i < states.size(); ++i) {
            it->second.states[i].Merge(states[i]);
          }
        }
      }
      if (groups.empty() && stmt.group_by.empty()) {
        groups.try_emplace("", FragGroup{{}, std::vector<AggState>(
                                                agg_nodes.size())});
      }
      for (auto& [key, group] : groups) {
        Row rep(desc.columns.size(), Datum::Null());
        for (size_t i = 0; i < group_cols.size(); ++i) {
          rep[static_cast<size_t>(group_cols[i])] = group.values[i];
        }
        std::map<const Expr*, Datum> agg_values;
        for (size_t i = 0; i < agg_nodes.size(); ++i) {
          agg_values[agg_nodes[i]] = group.states[i].Result(agg_nodes[i]->agg);
        }
        EvalContext ctx{&bindings, &rep, params, &agg_values};
        Row out_row;
        for (const Expr* e : item_exprs) {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
          out_row.push_back(std::move(v));
        }
        output.push_back(std::move(out_row));
      }
      fragment_done = true;
    }
  }

  // ---- execute: scan -> batches --------------------------------------------
  if (!fragment_done) {
    // Projection push-down input: same condition — and therefore the same
    // scan request bytes — as the row engine.
    std::vector<uint32_t> needed;
    const std::vector<uint32_t>* needed_ptr = nullptr;
    if (pushdown_enabled_ && stmt.joins.empty() && !stmt.items.empty() &&
        CollectNeededColumns(stmt, desc, &needed)) {
      needed_ptr = &needed;
    }
    std::string spec_bytes;
    if (pushdown_enabled_) {
      PushdownSpec spec = MakeFilterSpec(plan, needed_ptr, desc);
      if (!spec.empty()) spec_bytes = spec.Encode();
    }
    Reader reader{nullptr, connector_};
    std::vector<kv::MvccScanEntry> entries;
    VELOCE_RETURN_IF_ERROR(
        reader.Scan(plan.start, plan.end, 0, &entries, spec_bytes));
    rows_scanned_ += entries.size();

    // Late materialization: every column the query can read was bound into
    // `positions` at plan time; everything else decodes as a NULL
    // placeholder. (Join equi columns on the build side are resolved by
    // column id, not through `positions` — added below.)
    size_t total_width = 0;
    std::vector<size_t> binding_offsets;
    for (const Binding& b : bindings) {
      binding_offsets.push_back(total_width);
      total_width += b.desc.columns.size();
    }
    std::vector<uint8_t> needed_mask(total_width, 0);
    for (const auto& [expr, p] : positions) {
      needed_mask[static_cast<size_t>(p)] = 1;
    }
    for (size_t j = 0; j < join_plans.size(); ++j) {
      const TableDescriptor& right = join_plans[j].binding.desc;
      for (const auto& pair : join_plans[j].equis) {
        const int ci = right.ColumnIndex(pair.right_col_id);
        needed_mask[binding_offsets[j + 1] + static_cast<size_t>(ci)] = 1;
      }
    }
    auto mask_for = [&](size_t binding_idx) {
      const size_t off = binding_offsets[binding_idx];
      const size_t width = bindings[binding_idx].desc.columns.size();
      return std::vector<uint8_t>(needed_mask.begin() + off,
                                  needed_mask.begin() + off + width);
    };

    std::vector<ColumnBatch> batches;
    std::vector<SelVector> sels;
    BatchDecoder decoder(desc, mask_for(0));
    size_t pos = 0;
    while (pos < entries.size()) {
      ColumnBatch batch;
      // NotSupported (stored kind != schema type) propagates: the row
      // engine decodes heterogeneous rows datum-by-datum.
      VELOCE_RETURN_IF_ERROR(decoder.NextBatch(&entries, &pos, &batch));
      if (batch.rows == 0) break;
      ++batches_;
      sels.push_back(FullSel(batch.rows));
      batches.push_back(std::move(batch));
    }
    std::vector<TypeKind> cur_types = decoder.column_types();

    // ---- execute: hash joins ----------------------------------------------
    for (const JoinPlan& jp : join_plans) {
      const TableDescriptor& right = jp.binding.desc;
      const ScanConstraints rplan =
          BuildScanConstraints(right, jp.binding.alias, nullptr, params);
      std::vector<kv::MvccScanEntry> rentries;
      VELOCE_RETURN_IF_ERROR(reader.Scan(rplan.start, rplan.end, 0, &rentries));
      rows_scanned_ += rentries.size();
      BatchDecoder rdecoder(right, mask_for(&jp - join_plans.data() + 1));
      std::vector<ColumnBatch> right_batches;
      size_t rpos = 0;
      while (rpos < rentries.size()) {
        ColumnBatch b;
        VELOCE_RETURN_IF_ERROR(rdecoder.NextBatch(&rentries, &rpos, &b));
        if (b.rows == 0) break;
        ++batches_;
        right_batches.push_back(std::move(b));
      }

      // Build side: encoded equi-column values -> row locators, insertion
      // order preserved per key (matches the row engine's multimap).
      std::vector<int> right_cols;
      for (const auto& pair : jp.equis) {
        right_cols.push_back(right.ColumnIndex(pair.right_col_id));
      }
      // Two-level table, same scheme as the aggregation's group identity:
      // keys whose hash-identity bytes fit 16 bytes go to the packed map,
      // the rest to the byte-string map. Routing is a deterministic
      // function of the key value, so build and probe always agree.
      using Locators = std::vector<std::pair<uint32_t, uint32_t>>;
      std::unordered_map<PackedKey, Locators, PackedKeyHash> packed_table;
      std::unordered_map<std::string, Locators> hash_table;
      for (uint32_t bi = 0; bi < right_batches.size(); ++bi) {
        const ColumnBatch& rb = right_batches[bi];
        std::vector<Vec> rvecs(right_cols.size());
        for (size_t k = 0; k < right_cols.size(); ++k) {
          rvecs[k].ref = &rb.cols[static_cast<size_t>(right_cols[k])];
        }
        for (uint32_t ri = 0; ri < rb.rows; ++ri) {
          uint64_t kb[2] = {0, 0};
          uint32_t used = 0;
          bool fits = true;
          for (const Vec& rv : rvecs) {
            if (!AppendPackedKeyAt(rv, ri, reinterpret_cast<unsigned char*>(kb),
                                   &used)) {
              fits = false;
              break;
            }
          }
          if (fits) {
            packed_table[PackedKey{kb[0], kb[1], used}].push_back({bi, ri});
          } else {
            std::string key;
            for (int c : right_cols) {
              rb.cols[static_cast<size_t>(c)].AppendHashKeyAt(ri, &key);
            }
            hash_table[std::move(key)].push_back({bi, ri});
          }
        }
      }

      std::vector<TypeKind> new_types = cur_types;
      for (const auto& col : right.columns) new_types.push_back(col.type);
      const size_t left_width = cur_types.size();

      // Probe side: left rows in order; a NULL key component never joins.
      std::vector<ColumnBatch> joined;
      std::vector<SelVector> joined_sels;
      ColumnBatch out;
      out.Init(new_types);
      auto flush = [&]() {
        if (out.rows == 0) return;
        joined_sels.push_back(FullSel(out.rows));
        joined.push_back(std::move(out));
        out = ColumnBatch();
        out.Init(new_types);
      };
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const ColumnBatch& lb = batches[bi];
        const SelVector& lsel = sels[bi];
        if (lsel.empty()) continue;
        VecEvalCtx ctx{&lb, params, &positions};
        std::vector<Vec> keys(jp.equis.size());
        for (size_t k = 0; k < jp.equis.size(); ++k) {
          VELOCE_RETURN_IF_ERROR(
              EvalVec(*jp.equis[k].left_expr, ctx, lsel, &keys[k]));
        }
        std::string key;
        for (uint32_t li : lsel) {
          bool null_key = false;
          for (const Vec& kvec : keys) {
            if (kvec.IsNullAt(li)) {
              null_key = true;
              break;
            }
          }
          if (null_key) continue;
          uint64_t kb[2] = {0, 0};
          uint32_t used = 0;
          bool fits = true;
          for (const Vec& kvec : keys) {
            if (!AppendPackedKeyAt(kvec, li, reinterpret_cast<unsigned char*>(kb),
                                   &used)) {
              fits = false;
              break;
            }
          }
          const Locators* matches = nullptr;
          if (fits) {
            auto it = packed_table.find(PackedKey{kb[0], kb[1], used});
            if (it != packed_table.end()) matches = &it->second;
          } else {
            key.clear();
            for (const Vec& kvec : keys) kvec.AppendHashKeyAt(li, &key);
            auto it = hash_table.find(key);
            if (it != hash_table.end()) matches = &it->second;
          }
          if (matches == nullptr) continue;
          for (const auto& [rbi, rri] : *matches) {
            const ColumnBatch& rb = right_batches[rbi];
            for (size_t c = 0; c < left_width; ++c) {
              out.cols[c].AppendFrom(lb.cols[c], li);
            }
            for (size_t c = 0; c < rb.cols.size(); ++c) {
              out.cols[left_width + c].AppendFrom(rb.cols[c], rri);
            }
            ++out.rows;
            if (out.rows == kBatchSize) flush();
          }
        }
      }
      flush();
      batches = std::move(joined);
      sels = std::move(joined_sels);
      cur_types = std::move(new_types);

      // Residual ON conjuncts narrow the combined selection.
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        VecEvalCtx ctx{&batches[bi], params, &positions};
        for (const Expr* c : jp.residual) {
          VELOCE_RETURN_IF_ERROR(EvalFilter(*c, ctx, &sels[bi]));
        }
      }
    }

    // ---- execute: WHERE ----------------------------------------------------
    // Span- and KV-filter-enforced conjuncts re-evaluate harmlessly, like
    // the row engine re-running the full WHERE.
    if (stmt.where != nullptr) {
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        if (sels[bi].empty()) continue;
        VecEvalCtx ctx{&batches[bi], params, &positions};
        VELOCE_RETURN_IF_ERROR(EvalFilter(*stmt.where, ctx, &sels[bi]));
      }
    }

    // ---- execute: aggregation / projection ---------------------------------
    if (any_agg) {
      const size_t stride = agg_nodes.size();
      // Flat SoA group storage: representatives (first input row, read by
      // output expressions outside aggregates, like the row engine), the
      // ordered group-key bytes, and one contiguous AggState array indexed
      // g * stride + a.
      std::vector<Row> group_reps;
      std::vector<std::string> group_keys;  // parallel, encoded group values
      std::vector<AggState> states;
      std::unordered_map<PackedKey, uint32_t, PackedKeyHash> packed_ids;
      std::unordered_map<std::string, uint32_t> group_ids;  // oversized keys
      std::string key;
      std::vector<uint32_t> gidx;  // per selected row: its group index
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const ColumnBatch& batch = batches[bi];
        const SelVector& sel = sels[bi];
        if (sel.empty()) continue;
        VecEvalCtx ctx{&batch, params, &positions};
        std::vector<Vec> group_vecs(stmt.group_by.size());
        for (size_t g = 0; g < stmt.group_by.size(); ++g) {
          VELOCE_RETURN_IF_ERROR(
              EvalVec(*stmt.group_by[g], ctx, sel, &group_vecs[g]));
        }
        std::vector<Vec> agg_inputs(agg_nodes.size());
        std::vector<bool> agg_is_star(agg_nodes.size(), false);
        for (size_t a = 0; a < agg_nodes.size(); ++a) {
          if (agg_nodes[a]->child->kind == Expr::Kind::kStar) {
            agg_is_star[a] = true;
          } else {
            VELOCE_RETURN_IF_ERROR(
                EvalVec(*agg_nodes[a]->child, ctx, sel, &agg_inputs[a]));
          }
        }
        gidx.clear();
        gidx.reserve(sel.size());
        // First input row of a new group, materialized once: the ordered
        // (EncodeKey) bytes only decide output order, not per-row identity.
        auto new_group = [&](uint32_t i) {
          std::string ordered;
          for (const Vec& gv : group_vecs) gv.EncodeKeyAt(i, &ordered);
          group_keys.push_back(std::move(ordered));
          Row rep;
          rep.reserve(batch.cols.size());
          for (const auto& col : batch.cols) rep.push_back(col.GetDatum(i));
          group_reps.push_back(std::move(rep));
          states.resize(states.size() + stride);
        };
        for (uint32_t i : sel) {
          uint64_t kb[2] = {0, 0};
          uint32_t used = 0;
          bool fits = true;
          for (const Vec& gv : group_vecs) {
            if (!AppendPackedKeyAt(gv, i, reinterpret_cast<unsigned char*>(kb),
                                   &used)) {
              fits = false;
              break;
            }
          }
          uint32_t g;
          if (fits) {
            const PackedKey pk{kb[0], kb[1], used};
            auto [it, inserted] = packed_ids.try_emplace(
                pk, static_cast<uint32_t>(group_reps.size()));
            if (inserted) new_group(i);
            g = it->second;
          } else {
            key.clear();
            for (const Vec& gv : group_vecs) gv.AppendHashKeyAt(i, &key);
            auto [it, inserted] = group_ids.try_emplace(
                key, static_cast<uint32_t>(group_reps.size()));
            if (inserted) new_group(i);
            g = it->second;
          }
          gidx.push_back(g);
        }
        for (size_t a = 0; a < agg_nodes.size(); ++a) {
          if (agg_is_star[a]) {
            // `Accumulate(Int(1), kCount)` is exactly ++count.
            for (size_t k = 0; k < gidx.size(); ++k) {
              ++states[gidx[k] * stride + a].count;
            }
          } else {
            AccumulateColumn(agg_inputs[a], agg_nodes[a]->agg, sel, gidx,
                             states.data(), stride, a);
          }
        }
      }
      // Aggregates over an empty input with no GROUP BY produce one row
      // (the representative stays empty; column refs evaluate to NULL).
      if (group_reps.empty() && stmt.group_by.empty()) {
        group_keys.emplace_back();
        group_reps.emplace_back();
        states.resize(stride);
      }
      // Emit in encoded-key order — the row engine iterates a std::map
      // keyed by the same bytes, so this reproduces its group order.
      std::vector<uint32_t> group_order(group_reps.size());
      for (uint32_t g = 0; g < group_order.size(); ++g) group_order[g] = g;
      std::sort(group_order.begin(), group_order.end(),
                [&](uint32_t x, uint32_t y) {
                  return group_keys[x] < group_keys[y];
                });
      for (uint32_t g : group_order) {
        std::map<const Expr*, Datum> agg_values;
        for (size_t a = 0; a < agg_nodes.size(); ++a) {
          agg_values[agg_nodes[a]] =
              states[g * stride + a].Result(agg_nodes[a]->agg);
        }
        EvalContext ctx{&bindings, &group_reps[g], params, &agg_values};
        Row out_row;
        for (const Expr* e : item_exprs) {
          VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*e, ctx));
          out_row.push_back(std::move(v));
        }
        output.push_back(std::move(out_row));
      }
    } else {
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const ColumnBatch& batch = batches[bi];
        const SelVector& sel = sels[bi];
        if (sel.empty()) continue;
        VecEvalCtx ctx{&batch, params, &positions};
        std::vector<Vec> item_vecs(item_exprs.size());
        for (size_t k = 0; k < item_exprs.size(); ++k) {
          VELOCE_RETURN_IF_ERROR(EvalVec(*item_exprs[k], ctx, sel, &item_vecs[k]));
        }
        std::vector<Vec> key_vecs(sort_keys.size());
        if (needs_input_keys) {
          for (size_t k = 0; k < sort_keys.size(); ++k) {
            if (sort_keys[k].expr != nullptr) {
              VELOCE_RETURN_IF_ERROR(
                  EvalVec(*sort_keys[k].expr, ctx, sel, &key_vecs[k]));
            }
          }
        }
        for (uint32_t i : sel) {
          Row out_row;
          out_row.reserve(item_vecs.size());
          for (const Vec& v : item_vecs) out_row.push_back(v.DatumAt(i));
          output.push_back(std::move(out_row));
          if (needs_input_keys) {
            Row keys;
            keys.reserve(sort_keys.size());
            for (size_t k = 0; k < sort_keys.size(); ++k) {
              keys.push_back(sort_keys[k].expr == nullptr
                                 ? Datum::Null()
                                 : key_vecs[k].DatumAt(i));
            }
            input_sort_values.push_back(std::move(keys));
          }
        }
      }
    }
  }

  // ---- ORDER BY / LIMIT (identical to the row engine) ----------------------
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

}  // namespace veloce::sql::vec
