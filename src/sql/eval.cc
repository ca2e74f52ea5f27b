#include "sql/eval.h"

#include "common/codec.h"
#include "common/logging.h"

namespace veloce::sql {

StatusOr<int> ResolveColumn(std::span<const Binding> bindings,
                            const std::string& qualifier, const std::string& name) {
  int found = -1;
  for (const auto& binding : bindings) {
    if (!qualifier.empty() && binding.alias != qualifier) continue;
    const ColumnDescriptor* col = binding.desc.FindColumn(name);
    if (col == nullptr) continue;
    const int pos = static_cast<int>(binding.offset) + binding.desc.ColumnIndex(col->id);
    if (found != -1) {
      return Status::InvalidArgument("ambiguous column reference: " + name);
    }
    found = pos;
  }
  if (found == -1) return Status::NotFound("no such column: " + name);
  return found;
}

bool Truthy(const Datum& d) {
  switch (d.kind()) {
    case TypeKind::kNull: return false;
    case TypeKind::kBool: return d.bool_value();
    case TypeKind::kInt: return d.int_value() != 0;
    case TypeKind::kDouble: return d.double_value() != 0;
    case TypeKind::kString: return !d.string_value().empty();
  }
  return false;
}

StatusOr<Datum> EvalArith(BinOp op, const Datum& left, const Datum& right) {
  if (left.is_null() || right.is_null()) return Datum::Null();
  if (op == BinOp::kAdd && left.kind() == TypeKind::kString &&
      right.kind() == TypeKind::kString) {
    return Datum::String(left.string_value() + right.string_value());
  }
  const bool both_int =
      left.kind() == TypeKind::kInt && right.kind() == TypeKind::kInt;
  if (both_int && op != BinOp::kDiv) {
    const int64_t a = left.int_value(), b = right.int_value();
    switch (op) {
      case BinOp::kAdd: return Datum::Int(WrapAdd(a, b));
      case BinOp::kSub: return Datum::Int(WrapSub(a, b));
      case BinOp::kMul: return Datum::Int(WrapMul(a, b));
      case BinOp::kMod:
        if (b == 0) return Status::InvalidArgument("modulo by zero");
        if (b == -1) return Datum::Int(0);  // INT64_MIN % -1 traps in hardware
        return Datum::Int(a % b);
      default: break;
    }
  }
  const double a = left.AsDouble(), b = right.AsDouble();
  switch (op) {
    case BinOp::kAdd: return Datum::Double(a + b);
    case BinOp::kSub: return Datum::Double(a - b);
    case BinOp::kMul: return Datum::Double(a * b);
    case BinOp::kDiv:
      if (b == 0) return Status::InvalidArgument("division by zero");
      return Datum::Double(a / b);
    case BinOp::kMod:
      return Status::InvalidArgument("modulo on non-integers");
    default: break;
  }
  return Status::Internal("unhandled binary operator");
}

namespace {

StatusOr<Datum> EvalBinary(const Expr& expr, const EvalContext& ctx) {
  // AND/OR get short-circuit + 3-valued-ish treatment (NULL == false).
  if (expr.op == BinOp::kAnd || expr.op == BinOp::kOr) {
    VELOCE_ASSIGN_OR_RETURN(Datum left, Eval(*expr.left, ctx));
    const bool lval = Truthy(left);
    if (expr.op == BinOp::kAnd && !lval) return Datum::Bool(false);
    if (expr.op == BinOp::kOr && lval) return Datum::Bool(true);
    VELOCE_ASSIGN_OR_RETURN(Datum right, Eval(*expr.right, ctx));
    return Datum::Bool(Truthy(right));
  }
  VELOCE_ASSIGN_OR_RETURN(Datum left, Eval(*expr.left, ctx));
  VELOCE_ASSIGN_OR_RETURN(Datum right, Eval(*expr.right, ctx));
  switch (expr.op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
    case BinOp::kLe: case BinOp::kGt: case BinOp::kGe: {
      if (left.is_null() || right.is_null()) return Datum::Null();
      const int c = left.Compare(right);
      switch (expr.op) {
        case BinOp::kEq: return Datum::Bool(c == 0);
        case BinOp::kNe: return Datum::Bool(c != 0);
        case BinOp::kLt: return Datum::Bool(c < 0);
        case BinOp::kLe: return Datum::Bool(c <= 0);
        case BinOp::kGt: return Datum::Bool(c > 0);
        default: return Datum::Bool(c >= 0);
      }
    }
    case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
    case BinOp::kDiv: case BinOp::kMod:
      return EvalArith(expr.op, left, right);
    default: break;
  }
  return Status::Internal("unhandled binary operator");
}

}  // namespace

StatusOr<Datum> Eval(const Expr& expr, const EvalContext& ctx) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kColumnRef: {
      VELOCE_ASSIGN_OR_RETURN(
          int pos, ResolveColumn(ctx.bindings, expr.table_name, expr.column_name));
      // A position beyond the row happens only for the synthetic empty
      // group of a no-GROUP-BY aggregate over zero rows; read it as NULL.
      if (static_cast<size_t>(pos) >= ctx.row->size()) return Datum::Null();
      return (*ctx.row)[static_cast<size_t>(pos)];
    }
    case Expr::Kind::kBinary:
      return EvalBinary(expr, ctx);
    case Expr::Kind::kNot: {
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*expr.child, ctx));
      return Datum::Bool(!Truthy(v));
    }
    case Expr::Kind::kIsNull: {
      VELOCE_ASSIGN_OR_RETURN(Datum v, Eval(*expr.child, ctx));
      return Datum::Bool(expr.is_not ? !v.is_null() : v.is_null());
    }
    case Expr::Kind::kParam: {
      if (ctx.params == nullptr ||
          expr.param_index < 1 ||
          static_cast<size_t>(expr.param_index) > ctx.params->size()) {
        return Status::InvalidArgument("missing parameter $" +
                                       std::to_string(expr.param_index));
      }
      return (*ctx.params)[static_cast<size_t>(expr.param_index - 1)];
    }
    case Expr::Kind::kAggregate: {
      if (ctx.agg_values == nullptr) {
        return Status::InvalidArgument("aggregate outside of aggregation context");
      }
      auto it = ctx.agg_values->find(&expr);
      if (it == ctx.agg_values->end()) {
        return Status::Internal("aggregate value not computed");
      }
      return it->second;
    }
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unhandled expression kind");
}

void CollectConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinOp::kAnd) {
    CollectConjuncts(expr->left.get(), out);
    CollectConjuncts(expr->right.get(), out);
    return;
  }
  out->push_back(expr);
}

void CollectAggregates(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kAggregate) {
    out->push_back(expr);
    return;  // no nested aggregates
  }
  CollectAggregates(expr->left.get(), out);
  CollectAggregates(expr->right.get(), out);
  CollectAggregates(expr->child.get(), out);
}

Status ValidateExpr(const Expr* expr, std::span<const Binding> bindings,
                    const std::vector<Datum>* params) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == Expr::Kind::kColumnRef) {
    return ResolveColumn(bindings, expr->table_name, expr->column_name).status();
  }
  if (expr->kind == Expr::Kind::kParam) {
    const size_t bound = params == nullptr ? 0 : params->size();
    if (expr->param_index < 1 || static_cast<size_t>(expr->param_index) > bound) {
      return Status::InvalidArgument("missing parameter $" +
                                     std::to_string(expr->param_index));
    }
    return Status::OK();
  }
  VELOCE_RETURN_IF_ERROR(ValidateExpr(expr->left.get(), bindings, params));
  VELOCE_RETURN_IF_ERROR(ValidateExpr(expr->right.get(), bindings, params));
  return ValidateExpr(expr->child.get(), bindings, params);
}

void CollectColumnNames(const Expr* expr, std::vector<std::string>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumnRef) out->push_back(expr->column_name);
  CollectColumnNames(expr->left.get(), out);
  CollectColumnNames(expr->right.get(), out);
  CollectColumnNames(expr->child.get(), out);
}

bool HasAggregate(const Expr* expr) {
  std::vector<const Expr*> aggs;
  CollectAggregates(expr, &aggs);
  return !aggs.empty();
}

std::string DeriveColumnName(const Expr& expr, const std::string& alias) {
  if (!alias.empty()) return alias;
  switch (expr.kind) {
    case Expr::Kind::kColumnRef: return expr.column_name;
    case Expr::Kind::kAggregate:
      switch (expr.agg) {
        case AggFunc::kCount: return "count";
        case AggFunc::kSum: return "sum";
        case AggFunc::kAvg: return "avg";
        case AggFunc::kMin: return "min";
        case AggFunc::kMax: return "max";
        default: return "agg";
      }
    default: return "?column?";
  }
}

bool CollectNeededColumns(const SelectStmt& stmt, const TableDescriptor& desc,
                          std::vector<uint32_t>* needed) {
  std::vector<std::string> names;
  for (const auto& item : stmt.items) CollectColumnNames(item.expr.get(), &names);
  CollectColumnNames(stmt.where.get(), &names);
  for (const auto& g : stmt.group_by) CollectColumnNames(g.get(), &names);
  for (const auto& ob : stmt.order_by) CollectColumnNames(ob.expr.get(), &names);
  bool all_resolved = true;
  for (const auto& name : names) {
    const ColumnDescriptor* col = desc.FindColumn(name);
    if (col == nullptr) {
      // ORDER BY may name an output alias; that's fine — but a name we
      // can't resolve conservatively disables the projection.
      bool is_alias = false;
      for (const auto& item : stmt.items) {
        if (item.alias == name) is_alias = true;
      }
      if (!is_alias) all_resolved = false;
      continue;
    }
    needed->push_back(col->id);
  }
  return all_resolved;
}

void ExtractJoinEquis(const std::vector<const Expr*>& on_conjuncts,
                      const TableDescriptor& right, const std::string& right_alias,
                      std::vector<JoinEquiPair>* equis,
                      std::vector<const Expr*>* residual) {
  for (const Expr* c : on_conjuncts) {
    bool matched = false;
    if (c->kind == Expr::Kind::kBinary && c->op == BinOp::kEq) {
      for (int flip = 0; flip < 2 && !matched; ++flip) {
        const Expr* maybe_right = flip == 0 ? c->right.get() : c->left.get();
        const Expr* maybe_left = flip == 0 ? c->left.get() : c->right.get();
        if (maybe_right->kind != Expr::Kind::kColumnRef) continue;
        if (!maybe_right->table_name.empty() && maybe_right->table_name != right_alias) {
          continue;
        }
        const ColumnDescriptor* rcol = right.FindColumn(maybe_right->column_name);
        if (rcol == nullptr) continue;
        // The other side must be evaluable against the current bindings
        // (no references to the new table).
        if (maybe_left->kind == Expr::Kind::kColumnRef &&
            maybe_left->table_name == right_alias) {
          continue;
        }
        equis->push_back({maybe_left, rcol->id});
        matched = true;
      }
    }
    if (!matched) residual->push_back(c);
  }
}

// ---------------------------------------------------------------------------
// AggState
// ---------------------------------------------------------------------------

void AggState::Accumulate(const Datum& v, AggFunc func) {
  if (func == AggFunc::kCount) {
    ++count;  // null-ness handled by the caller for COUNT(expr)
    return;
  }
  if (v.is_null()) return;
  ++count;
  if (func == AggFunc::kSum || func == AggFunc::kAvg) {
    if (v.kind() == TypeKind::kInt) {
      isum = WrapAdd(isum, v.int_value());
    } else {
      sum_is_int = false;
    }
    sum += v.AsDouble();
  } else if (func == AggFunc::kMin || func == AggFunc::kMax) {
    if (!has_minmax) {
      min = max = v;
      has_minmax = true;
    } else {
      if (v.Compare(min) < 0) min = v;
      if (v.Compare(max) > 0) max = v;
    }
  }
}

void AggState::Merge(const AggState& other) {
  count += other.count;
  isum = WrapAdd(isum, other.isum);
  sum += other.sum;
  sum_is_int = sum_is_int && other.sum_is_int;
  if (other.has_minmax) {
    if (!has_minmax) {
      min = other.min;
      max = other.max;
      has_minmax = true;
    } else {
      if (other.min.Compare(min) < 0) min = other.min;
      if (other.max.Compare(max) > 0) max = other.max;
    }
  }
}

Datum AggState::Result(AggFunc func) const {
  switch (func) {
    case AggFunc::kCount: return Datum::Int(static_cast<int64_t>(count));
    case AggFunc::kSum:
      if (count == 0) return Datum::Null();
      return sum_is_int ? Datum::Int(isum) : Datum::Double(sum);
    case AggFunc::kAvg:
      if (count == 0) return Datum::Null();
      return Datum::Double(sum / static_cast<double>(count));
    case AggFunc::kMin: return has_minmax ? min : Datum::Null();
    case AggFunc::kMax: return has_minmax ? max : Datum::Null();
    case AggFunc::kNone: break;
  }
  return Datum::Null();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Status Reader::Get(const std::string& key, std::optional<std::string>* value) {
  if (txn != nullptr) return txn->Get(key, value);
  kv::BatchRequest req;
  req.AddGet(key);
  VELOCE_ASSIGN_OR_RETURN(kv::BatchResponse resp, connector->Send(req));
  if (resp.responses[0].found) {
    *value = std::move(resp.responses[0].value);
  } else {
    value->reset();
  }
  return Status::OK();
}

Status Reader::Scan(const std::string& start, const std::string& end, uint64_t limit,
                    std::vector<kv::MvccScanEntry>* rows,
                    const std::string& pushdown_spec) {
  if (txn != nullptr) return txn->Scan(start, end, limit, rows);
  kv::BatchRequest req;
  if (pushdown_spec.empty()) {
    req.AddScan(start, end, limit);
  } else {
    req.AddScanWithPushdown(start, end, limit, pushdown_spec);
  }
  VELOCE_ASSIGN_OR_RETURN(kv::BatchResponse resp, connector->Send(req));
  *rows = std::move(resp.responses[0].rows);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scan constraint extraction
// ---------------------------------------------------------------------------

ScanConstraints BuildScanConstraints(const TableDescriptor& desc,
                                     const std::string& alias, const Expr* where,
                                     const std::vector<Datum>* params) {
  ScanConstraints out;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);

  // Literal/param-only expressions can be evaluated without a row.
  Row empty_row;
  EvalContext const_ctx;
  const_ctx.row = &empty_row;
  const_ctx.params = params;
  auto constant_value = [&](const Expr& e) -> std::optional<Datum> {
    if (e.kind == Expr::Kind::kLiteral) return e.literal;
    if (e.kind == Expr::Kind::kParam) {
      auto v = Eval(e, const_ctx);
      if (v.ok()) return *v;
    }
    return std::nullopt;
  };

  // Parse each conjunct into `column <op> constant` where possible.
  struct Parsed {
    const Expr* conjunct;
    const ColumnDescriptor* col;
    BinOp op;
    Datum value;
  };
  std::vector<Parsed> parsed;
  for (const Expr* c : conjuncts) {
    bool ok = false;
    if (c->kind == Expr::Kind::kBinary) {
      const Expr* col_side = nullptr;
      const Expr* val_side = nullptr;
      BinOp op = c->op;
      if (c->left->kind == Expr::Kind::kColumnRef) {
        col_side = c->left.get();
        val_side = c->right.get();
      } else if (c->right->kind == Expr::Kind::kColumnRef) {
        col_side = c->right.get();
        val_side = c->left.get();
        // Flip the comparison: 5 < a  ==  a > 5.
        switch (op) {
          case BinOp::kLt: op = BinOp::kGt; break;
          case BinOp::kLe: op = BinOp::kGe; break;
          case BinOp::kGt: op = BinOp::kLt; break;
          case BinOp::kGe: op = BinOp::kLe; break;
          default: break;
        }
      }
      // Only references to the scanned table itself constrain this scan; a
      // reference qualified with another binding's alias must not (it used
      // to, silently corrupting join queries that reuse column names).
      if (col_side != nullptr &&
          (col_side->table_name.empty() || col_side->table_name == alias)) {
        const ColumnDescriptor* col = desc.FindColumn(col_side->column_name);
        if (col != nullptr) {
          auto value = constant_value(*val_side);
          if (value.has_value()) {
            parsed.push_back({c, col, op, std::move(*value)});
            ok = true;
          }
        }
      }
    }
    if (!ok) out.unhandled.push_back(c);
  }

  // Span inputs: equality constants (first conjunct wins) and one range
  // bound per column (last conjunct wins), matching the row engine's
  // historical behavior exactly.
  struct RangeBound {
    std::optional<Datum> lower, upper;
    bool lower_inclusive = true, upper_inclusive = true;
  };
  std::map<uint32_t, RangeBound> ranges;
  for (const Parsed& p : parsed) {
    if (p.op == BinOp::kEq) {
      out.eq.emplace(p.col->id, p.value);
    } else if (p.op == BinOp::kLt || p.op == BinOp::kLe) {
      auto& bound = ranges[p.col->id];
      bound.upper = p.value;
      bound.upper_inclusive = p.op == BinOp::kLe;
    } else if (p.op == BinOp::kGt || p.op == BinOp::kGe) {
      auto& bound = ranges[p.col->id];
      bound.lower = p.value;
      bound.lower_inclusive = p.op == BinOp::kGe;
    }
  }

  // Build the tightest primary-key span: equality prefix, then one range.
  std::string eq_prefix = IndexPrefix(desc.id, kPrimaryIndexId);
  for (uint32_t col_id : desc.primary.column_ids) {
    auto it = out.eq.find(col_id);
    if (it == out.eq.end()) break;
    it->second.EncodeKey(&eq_prefix);
    ++out.eq_cols;
  }
  out.start = eq_prefix;
  if (out.eq_cols == desc.primary.column_ids.size()) {
    out.point = true;  // full PK: point lookup, `start` is the row key
  } else {
    out.end = PrefixEnd(eq_prefix);
    // Range constraint on the first unconstrained PK column tightens further.
    const uint32_t next_col = desc.primary.column_ids[out.eq_cols];
    auto it = ranges.find(next_col);
    if (it != ranges.end()) {
      if (it->second.lower.has_value()) {
        std::string bound = eq_prefix;
        it->second.lower->EncodeKey(&bound);
        if (!it->second.lower_inclusive) bound = PrefixEnd(bound);
        if (bound > out.start) out.start = bound;
      }
      if (it->second.upper.has_value()) {
        std::string bound = eq_prefix;
        it->second.upper->EncodeKey(&bound);
        if (it->second.upper_inclusive) bound = PrefixEnd(bound);
        if (bound < out.end) out.end = bound;
      }
    }
  }

  // Classify parsed conjuncts: non-PK comparisons become KV-side filters;
  // PK conjuncts are enforced only if the span provably covers them.
  auto pk_position = [&](uint32_t col_id) -> int {
    for (size_t i = 0; i < desc.primary.column_ids.size(); ++i) {
      if (desc.primary.column_ids[i] == col_id) return static_cast<int>(i);
    }
    return -1;
  };
  for (Parsed& p : parsed) {
    const int pk_pos = pk_position(p.col->id);
    if (pk_pos < 0) {
      switch (p.op) {
        case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
        case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
          out.kv_filters.push_back({p.col->id, p.op, std::move(p.value)});
          continue;
        default:
          break;
      }
      out.unhandled.push_back(p.conjunct);
      continue;
    }
    bool enforced = false;
    if (p.op == BinOp::kEq && static_cast<size_t>(pk_pos) < out.eq_cols) {
      const Datum& used = out.eq.find(p.col->id)->second;
      enforced = !p.value.is_null() && used.Compare(p.value) == 0;
    } else if (!out.point && static_cast<size_t>(pk_pos) == out.eq_cols) {
      auto it = ranges.find(p.col->id);
      if (it != ranges.end()) {
        if ((p.op == BinOp::kLt || p.op == BinOp::kLe) &&
            it->second.upper.has_value()) {
          enforced = it->second.upper->Compare(p.value) == 0 &&
                     it->second.upper_inclusive == (p.op == BinOp::kLe);
        } else if ((p.op == BinOp::kGt || p.op == BinOp::kGe) &&
                   it->second.lower.has_value()) {
          enforced = it->second.lower->Compare(p.value) == 0 &&
                     it->second.lower_inclusive == (p.op == BinOp::kGe);
        }
      }
    }
    if (!enforced) out.unhandled.push_back(p.conjunct);
  }
  for (size_t i = 0; out.eq_cols == 0 && out.index < 0 && i < desc.secondaries.size();
       ++i) {
    const std::vector<uint32_t>& cols = desc.secondaries[i].column_ids;
    if (!cols.empty() && out.eq.count(cols[0]) > 0) out.index = static_cast<int>(i);
  }
  return out;
}

}  // namespace veloce::sql
