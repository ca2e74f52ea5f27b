#include "sql/vec/vec_exec.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/codec.h"
#include "sql/pushdown.h"
#include "sql/vec/column_batch.h"
#include "sql/vec/vec_expr.h"

namespace veloce::sql::vec {

namespace {

// Plan-time rejection: the statement runs on the row engine instead.
Status NotCovered(const char* what) {
  return Status::NotSupported(std::string("vectorized engine: ") + what);
}

// Resolves every column reference under `expr` against `bindings`,
// recording node -> concatenated-row position (== batch column index).
Status BindExpr(const Expr* expr, std::span<const Binding> bindings,
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

// Row i's key over `vecs`: packed into *packed when its hash-identity
// bytes fit 16 bytes (returns true), else those bytes in *bytes.
bool KeyAt(const std::vector<Vec>& vecs, uint32_t i, PackedKey* packed,
           std::string* bytes) {
  uint64_t kb[2] = {0, 0};
  uint32_t used = 0;
  for (const Vec& v : vecs) {
    if (!AppendPackedKeyAt(v, i, reinterpret_cast<unsigned char*>(kb), &used)) {
      bytes->clear();
      for (const Vec& w : vecs) w.AppendHashKeyAt(i, bytes);
      return false;
    }
  }
  *packed = PackedKey{kb[0], kb[1], used};
  return true;
}

}  // namespace

Status Covers(const SelectPlan& plan) {
  if (plan.bindings.empty()) return NotCovered("table-less SELECT");
  // Point gets and secondary-index scans are the row engine's specialty —
  // batching buys nothing at 0-or-1 (or few) rows per lookup.
  if (plan.scan.point) return NotCovered("point lookup");
  if (plan.scan.index >= 0) return NotCovered("secondary index scan");
  for (const JoinPlan& jp : plan.joins) {
    // No equi columns -> nested-loop join; left to the row engine (rare
    // shape, not worth a kernel).
    if (jp.equis.empty()) return NotCovered("non-equi join");
    // Keep the index join's per-row lookups (the Q9 remote-lookup plan): a
    // hash join here would turn point reads into a full scan.
    if (jp.index_join()) return NotCovered("index join");
    for (const JoinEquiPair& pair : jp.equis) {
      if (HasAggregate(pair.left_expr)) return NotCovered("aggregate in ON");
    }
    for (const Expr* c : jp.residual) {
      if (HasAggregate(c)) return NotCovered("aggregate in ON");
    }
  }
  if (HasAggregate(plan.stmt->where.get())) return NotCovered("aggregate in WHERE");
  for (const ExprPtr& g : plan.stmt->group_by) {
    if (HasAggregate(g.get())) return NotCovered("aggregate in GROUP BY");
  }
  for (const Expr* agg : plan.agg_nodes) {
    if (HasAggregate(agg->child.get())) return NotCovered("nested aggregate");
  }
  for (const SortKey& key : plan.sort_keys) {
    if (HasAggregate(key.expr)) return NotCovered("aggregate in ORDER BY");
  }
  return Status::OK();
}

StatusOr<ResultSet> VecExecutor::ExecSelect(const SelectPlan& plan) {
  const SelectStmt& stmt = *plan.stmt;
  const std::vector<Datum>* params = plan.params;
  const std::span<const Binding> bindings = plan.bindings;
  const std::vector<const Expr*>& agg_nodes = plan.agg_nodes;
  const ScanConstraints& scan = plan.scan;

  // ---- bind: column positions ----------------------------------------------
  // Each expression binds over the tables it was validated against: equi
  // probes over those before their join, residual ON conjuncts up to it.
  std::map<const Expr*, int> positions;
  auto bind = [&](const Expr* e, size_t num_bindings) {
    return BindExpr(e, bindings.first(num_bindings), &positions);
  };
  for (size_t j = 0; j < plan.joins.size(); ++j) {
    for (const JoinEquiPair& pair : plan.joins[j].equis) {
      VELOCE_RETURN_IF_ERROR(bind(pair.left_expr, j + 1));
    }
    for (const Expr* c : plan.joins[j].residual) VELOCE_RETURN_IF_ERROR(bind(c, j + 2));
  }
  for (const Expr* e : plan.items) VELOCE_RETURN_IF_ERROR(bind(e, bindings.size()));
  VELOCE_RETURN_IF_ERROR(bind(stmt.where.get(), bindings.size()));
  for (const ExprPtr& g : stmt.group_by) VELOCE_RETURN_IF_ERROR(bind(g.get(), bindings.size()));
  for (const SortKey& key : plan.sort_keys) {
    VELOCE_RETURN_IF_ERROR(bind(key.expr, bindings.size()));
  }

  const TableDescriptor& desc = bindings[0].desc;
  const std::string& base_alias = bindings[0].alias;
  ResultSet result;
  result.columns = plan.columns;
  std::vector<Row> output;
  std::vector<Row> input_sort_values;  // parallel to output, expr sort keys

  // ---- aggregation fragment push-down --------------------------------------
  // Eligible when the whole WHERE is enforced KV-side (span + filters, no
  // unhandled residue), grouping is by stored non-PK columns, aggregate
  // inputs are KV-evaluable, and output expressions read nothing but group
  // columns outside their aggregates. The scan then returns per-group
  // partial AggStates per range segment instead of rows.
  bool fragment_done = false;
  if (plan.pushdown && stmt.joins.empty() && plan.any_agg && scan.unhandled.empty()) {
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
      for (const Expr* e : plan.items) {
        if (!NonAggRefsCovered(e, positions, group_positions)) {
          pushable = false;
          break;
        }
      }
    }
    if (pushable) {
      PushdownSpec spec = MakeFilterSpec(scan, nullptr, desc);
      spec.group_by = group_ids;
      spec.aggregates = std::move(push_aggs);
      Reader reader{nullptr, connector_};
      std::vector<kv::MvccScanEntry> entries;
      VELOCE_RETURN_IF_ERROR(
          reader.Scan(scan.start, scan.end, 0, &entries, spec.Encode()));
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
        VELOCE_ASSIGN_OR_RETURN(Row out_row, plan.GroupRow(rep, group.states.data()));
        output.push_back(std::move(out_row));
      }
      fragment_done = true;
    }
  }

  // ---- execute: scan -> batches --------------------------------------------
  if (!fragment_done) {
    // The plan's filter spec: the same scan request bytes as the row engine.
    Reader reader{nullptr, connector_};
    std::vector<kv::MvccScanEntry> entries;
    VELOCE_RETURN_IF_ERROR(
        reader.Scan(scan.start, scan.end, 0, &entries, plan.filter_spec));
    rows_scanned_ += entries.size();

    // Late materialization: every column the query can read was bound into
    // `positions` at plan time; everything else decodes as a NULL
    // placeholder. (Join equi columns on the build side are resolved by
    // column id, not through `positions` — added below.)
    std::vector<uint8_t> needed_mask(
        bindings.back().offset + bindings.back().desc.columns.size(), 0);
    for (const auto& [expr, p] : positions) {
      needed_mask[static_cast<size_t>(p)] = 1;
    }
    for (size_t j = 0; j < plan.joins.size(); ++j) {
      const Binding& right = bindings[j + 1];
      for (const auto& pair : plan.joins[j].equis) {
        const int ci = right.desc.ColumnIndex(pair.right_col_id);
        needed_mask[right.offset + static_cast<size_t>(ci)] = 1;
      }
    }
    auto mask_for = [&](const Binding& b) {
      const auto first = needed_mask.begin() + static_cast<std::ptrdiff_t>(b.offset);
      return std::vector<uint8_t>(first, first + static_cast<std::ptrdiff_t>(
                                                     b.desc.columns.size()));
    };

    // Decodes one table's scan entries into batches. NotSupported (stored
    // kind != schema type) propagates: the row engine decodes
    // heterogeneous rows datum-by-datum.
    auto decode = [&](const Binding& b, std::vector<kv::MvccScanEntry>* in,
                      std::vector<ColumnBatch>* out) -> StatusOr<std::vector<TypeKind>> {
      BatchDecoder decoder(b.desc, mask_for(b));
      for (size_t pos = 0; pos < in->size();) {
        ColumnBatch batch;
        VELOCE_RETURN_IF_ERROR(decoder.NextBatch(in, &pos, &batch));
        if (batch.rows == 0) break;
        ++batches_;
        out->push_back(std::move(batch));
      }
      return decoder.column_types();
    };
    std::vector<ColumnBatch> batches;
    VELOCE_ASSIGN_OR_RETURN(std::vector<TypeKind> cur_types,
                            decode(bindings[0], &entries, &batches));
    std::vector<SelVector> sels;
    for (const ColumnBatch& batch : batches) sels.push_back(FullSel(batch.rows));

    // ---- execute: hash joins ----------------------------------------------
    for (size_t j = 0; j < plan.joins.size(); ++j) {
      const JoinPlan& jp = plan.joins[j];
      const TableDescriptor& right = bindings[j + 1].desc;
      std::vector<kv::MvccScanEntry> rentries;
      VELOCE_RETURN_IF_ERROR(reader.Scan(jp.scan.start, jp.scan.end, 0, &rentries));
      rows_scanned_ += rentries.size();
      std::vector<ColumnBatch> right_batches;
      VELOCE_RETURN_IF_ERROR(decode(bindings[j + 1], &rentries, &right_batches).status());

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
      PackedKey packed;
      std::string key;
      for (uint32_t bi = 0; bi < right_batches.size(); ++bi) {
        const ColumnBatch& rb = right_batches[bi];
        std::vector<Vec> rvecs(right_cols.size());
        for (size_t k = 0; k < right_cols.size(); ++k) {
          rvecs[k].ref = &rb.cols[static_cast<size_t>(right_cols[k])];
        }
        for (uint32_t ri = 0; ri < rb.rows; ++ri) {
          if (KeyAt(rvecs, ri, &packed, &key)) {
            packed_table[packed].push_back({bi, ri});
          } else {
            hash_table[key].push_back({bi, ri});
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
        for (uint32_t li : lsel) {
          bool null_key = false;
          for (const Vec& kvec : keys) {
            if (kvec.IsNullAt(li)) {
              null_key = true;
              break;
            }
          }
          if (null_key) continue;
          const Locators* matches = nullptr;
          if (KeyAt(keys, li, &packed, &key)) {
            auto it = packed_table.find(packed);
            if (it != packed_table.end()) matches = &it->second;
          } else {
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
    if (plan.any_agg) {
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
      PackedKey packed;
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
          uint32_t g;
          if (KeyAt(group_vecs, i, &packed, &key)) {
            auto [it, inserted] = packed_ids.try_emplace(
                packed, static_cast<uint32_t>(group_reps.size()));
            if (inserted) new_group(i);
            g = it->second;
          } else {
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
        VELOCE_ASSIGN_OR_RETURN(Row out_row,
                                plan.GroupRow(group_reps[g], states.data() + g * stride));
        output.push_back(std::move(out_row));
      }
    } else {
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const ColumnBatch& batch = batches[bi];
        const SelVector& sel = sels[bi];
        if (sel.empty()) continue;
        VecEvalCtx ctx{&batch, params, &positions};
        std::vector<Vec> item_vecs(plan.items.size());
        for (size_t k = 0; k < plan.items.size(); ++k) {
          VELOCE_RETURN_IF_ERROR(EvalVec(*plan.items[k], ctx, sel, &item_vecs[k]));
        }
        const std::vector<SortKey>& sort_keys = plan.sort_keys;
        std::vector<Vec> key_vecs(sort_keys.size());
        for (size_t k = 0; plan.needs_input_keys && k < sort_keys.size(); ++k) {
          if (sort_keys[k].expr != nullptr) {
            VELOCE_RETURN_IF_ERROR(EvalVec(*sort_keys[k].expr, ctx, sel, &key_vecs[k]));
          }
        }
        for (uint32_t i : sel) {
          Row out_row;
          out_row.reserve(item_vecs.size());
          for (const Vec& v : item_vecs) out_row.push_back(v.DatumAt(i));
          output.push_back(std::move(out_row));
          if (!plan.needs_input_keys) continue;
          Row keys;
          keys.reserve(sort_keys.size());
          for (size_t k = 0; k < sort_keys.size(); ++k) {
            keys.push_back(sort_keys[k].expr == nullptr ? Datum::Null()
                                                        : key_vecs[k].DatumAt(i));
          }
          input_sort_values.push_back(std::move(keys));
        }
      }
    }
  }

  plan.SortAndLimit(&output, input_sort_values);
  result.rows = std::move(output);
  return result;
}

}  // namespace veloce::sql::vec
