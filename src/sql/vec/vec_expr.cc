#include "sql/vec/vec_expr.h"

#include <algorithm>

#include "common/logging.h"

namespace veloce::sql::vec {

bool Vec::TruthyAt(uint32_t i) const {
  if (is_const) return Truthy(const_val);
  const ColumnVector* c = col();
  if (c->IsNull(i)) return false;
  switch (c->type) {
    case TypeKind::kBool:
    case TypeKind::kInt:
      return c->ints[i] != 0;
    case TypeKind::kDouble:
      return c->doubles[i] != 0;
    case TypeKind::kString:
      return c->str_len[i] != 0;
    default:
      return false;
  }
}

void Vec::AppendHashKeyAt(uint32_t i, std::string* dst) const {
  if (!is_const) {
    col()->AppendHashKeyAt(i, dst);
    return;
  }
  if (const_val.is_null()) {
    dst->push_back(0);
    return;
  }
  dst->push_back(static_cast<char>(1 + static_cast<int>(const_val.kind())));
  switch (const_val.kind()) {
    case TypeKind::kBool: {
      const int64_t v = const_val.bool_value() ? 1 : 0;
      dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case TypeKind::kInt: {
      const int64_t v = const_val.int_value();
      dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case TypeKind::kDouble: {
      const double v = const_val.double_value();
      dst->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
    case TypeKind::kString: {
      const std::string& s = const_val.string_value();
      const uint32_t len = static_cast<uint32_t>(s.size());
      dst->append(reinterpret_cast<const char*>(&len), sizeof(len));
      dst->append(s);
      break;
    }
    default:
      break;
  }
}

namespace {

// Scalar comparison mirroring EvalBinary's comparison arm.
Datum CompareScalar(BinOp op, const Datum& l, const Datum& r) {
  if (l.is_null() || r.is_null()) return Datum::Null();
  const int c = l.Compare(r);
  switch (op) {
    case BinOp::kEq: return Datum::Bool(c == 0);
    case BinOp::kNe: return Datum::Bool(c != 0);
    case BinOp::kLt: return Datum::Bool(c < 0);
    case BinOp::kLe: return Datum::Bool(c <= 0);
    case BinOp::kGt: return Datum::Bool(c > 0);
    default: return Datum::Bool(c >= 0);
  }
}

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq: case BinOp::kNe: case BinOp::kLt:
    case BinOp::kLe: case BinOp::kGt: case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

Status EvalCompareVec(BinOp op, const Vec& l, const Vec& r, const SelVector& sel,
                      size_t n, Vec* out) {
  ColumnVector* res = out->MakeOwned(TypeKind::kBool, n);
  // A constant NULL operand nulls every row; the all-NULL result stands.
  if ((l.is_const && l.const_val.is_null()) ||
      (r.is_const && r.const_val.is_null())) {
    return Status::OK();
  }
  const TypeKind lt = l.static_type(), rt = r.static_type();
  enum class Path { kIntInt, kNum, kStr, kBoolBool, kCross } path;
  int cross_sign = 0;
  const bool l_num = lt == TypeKind::kInt || lt == TypeKind::kDouble;
  const bool r_num = rt == TypeKind::kInt || rt == TypeKind::kDouble;
  if (lt == TypeKind::kInt && rt == TypeKind::kInt) {
    path = Path::kIntInt;
  } else if (l_num && r_num) {
    path = Path::kNum;
  } else if (lt == TypeKind::kString && rt == TypeKind::kString) {
    path = Path::kStr;
  } else if (lt == TypeKind::kBool && rt == TypeKind::kBool) {
    path = Path::kBoolBool;
  } else {
    // Cross-kind (never produced by well-typed plans): Datum::Compare
    // orders by kind ordinal, so the sign is a plan-time constant.
    path = Path::kCross;
    cross_sign = static_cast<int>(lt) < static_cast<int>(rt) ? -1 : 1;
  }
  for (uint32_t i : sel) {
    if (l.IsNullAt(i) || r.IsNullAt(i)) continue;  // stays NULL
    int c = 0;
    switch (path) {
      case Path::kIntInt: {
        const int64_t a = l.IntAt(i), b = r.IntAt(i);
        c = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case Path::kNum: {
        const double a = l.AsDoubleAt(i), b = r.AsDoubleAt(i);
        c = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case Path::kStr: {
        const std::string_view a = l.StringAt(i), b = r.StringAt(i);
        c = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case Path::kBoolBool: {
        c = static_cast<int>(l.IntAt(i) != 0) - static_cast<int>(r.IntAt(i) != 0);
        break;
      }
      case Path::kCross:
        c = cross_sign;
        break;
    }
    bool v = false;
    switch (op) {
      case BinOp::kEq: v = c == 0; break;
      case BinOp::kNe: v = c != 0; break;
      case BinOp::kLt: v = c < 0; break;
      case BinOp::kLe: v = c <= 0; break;
      case BinOp::kGt: v = c > 0; break;
      default: v = c >= 0; break;
    }
    res->SetBool(i, v);
  }
  return Status::OK();
}

Status EvalArithVec(BinOp op, const Vec& l, const Vec& r, const SelVector& sel,
                    size_t n, Vec* out) {
  // NULL-propagation: a constant NULL operand nulls the whole column.
  if ((l.is_const && l.const_val.is_null()) ||
      (r.is_const && r.const_val.is_null())) {
    out->MakeConst(Datum::Null());
    return Status::OK();
  }
  const TypeKind lt = l.static_type(), rt = r.static_type();
  if (op == BinOp::kAdd && lt == TypeKind::kString && rt == TypeKind::kString) {
    ColumnVector* res = out->MakeOwned(TypeKind::kString, n);
    for (uint32_t i : sel) {
      if (l.IsNullAt(i) || r.IsNullAt(i)) continue;
      const std::string_view a = l.StringAt(i), b = r.StringAt(i);
      res->str_off[i] = static_cast<uint32_t>(res->arena.size());
      res->str_len[i] = static_cast<uint32_t>(a.size() + b.size());
      res->arena.append(a);
      res->arena.append(b);
      res->nulls[i] = 0;
    }
    return Status::OK();
  }
  const bool both_int = lt == TypeKind::kInt && rt == TypeKind::kInt;
  if (both_int && op != BinOp::kDiv) {
    ColumnVector* res = out->MakeOwned(TypeKind::kInt, n);
    for (uint32_t i : sel) {
      if (l.IsNullAt(i) || r.IsNullAt(i)) continue;
      const int64_t a = l.IntAt(i), b = r.IntAt(i);
      switch (op) {
        case BinOp::kAdd: res->SetInt(i, WrapAdd(a, b)); break;
        case BinOp::kSub: res->SetInt(i, WrapSub(a, b)); break;
        case BinOp::kMul: res->SetInt(i, WrapMul(a, b)); break;
        case BinOp::kMod:
          if (b == 0) return Status::InvalidArgument("modulo by zero");
          // INT64_MIN % -1 traps in hardware.
          res->SetInt(i, b == -1 ? 0 : a % b);
          break;
        default:
          return Status::Internal("unhandled binary operator");
      }
    }
    return Status::OK();
  }
  if (op == BinOp::kMod) {
    // Errors only for rows where both operands are non-null (NULL wins the
    // type check in the scalar evaluator because the null check runs first).
    out->MakeOwned(TypeKind::kDouble, n);
    for (uint32_t i : sel) {
      if (l.IsNullAt(i) || r.IsNullAt(i)) continue;
      return Status::InvalidArgument("modulo on non-integers");
    }
    return Status::OK();
  }
  // A constant operand converts once, not per row.
  const double lc = l.is_const ? l.const_val.AsDouble() : 0;
  const double rc = r.is_const ? r.const_val.AsDouble() : 0;
  ColumnVector* res = out->MakeOwned(TypeKind::kDouble, n);
  for (uint32_t i : sel) {
    if (l.IsNullAt(i) || r.IsNullAt(i)) continue;
    const double a = l.is_const ? lc : l.col()->AsDoubleAt(i);
    const double b = r.is_const ? rc : r.col()->AsDoubleAt(i);
    switch (op) {
      case BinOp::kAdd: res->SetDouble(i, a + b); break;
      case BinOp::kSub: res->SetDouble(i, a - b); break;
      case BinOp::kMul: res->SetDouble(i, a * b); break;
      case BinOp::kDiv:
        if (b == 0) return Status::InvalidArgument("division by zero");
        res->SetDouble(i, a / b);
        break;
      default:
        return Status::Internal("unhandled binary operator");
    }
  }
  return Status::OK();
}

// AND/OR with per-row short-circuit: the right side evaluates only over
// rows the left side doesn't decide, so data-dependent right-side errors
// fire for exactly the rows the row engine would reach.
Status EvalAndOrVec(const Expr& expr, const VecEvalCtx& ctx, const SelVector& sel,
                    Vec* out) {
  Vec l;
  VELOCE_RETURN_IF_ERROR(EvalVec(*expr.left, ctx, sel, &l));
  ColumnVector* res = out->MakeOwned(TypeKind::kBool, ctx.batch->rows);
  SelVector need_right;
  const bool is_and = expr.op == BinOp::kAnd;
  for (uint32_t i : sel) {
    const bool lv = l.TruthyAt(i);
    if (is_and && !lv) {
      res->SetBool(i, false);
    } else if (!is_and && lv) {
      res->SetBool(i, true);
    } else {
      need_right.push_back(i);
    }
  }
  if (!need_right.empty()) {
    Vec r;
    VELOCE_RETURN_IF_ERROR(EvalVec(*expr.right, ctx, need_right, &r));
    for (uint32_t i : need_right) res->SetBool(i, r.TruthyAt(i));
  }
  return Status::OK();
}

}  // namespace

Status EvalVec(const Expr& expr, const VecEvalCtx& ctx, const SelVector& sel,
               Vec* out) {
  const size_t n = ctx.batch->rows;
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      out->MakeConst(expr.literal);
      return Status::OK();
    case Expr::Kind::kParam: {
      if (ctx.params == nullptr || expr.param_index < 1 ||
          static_cast<size_t>(expr.param_index) > ctx.params->size()) {
        return Status::InvalidArgument("missing parameter $" +
                                       std::to_string(expr.param_index));
      }
      out->MakeConst((*ctx.params)[static_cast<size_t>(expr.param_index - 1)]);
      return Status::OK();
    }
    case Expr::Kind::kColumnRef: {
      auto it = ctx.col_positions->find(&expr);
      if (it == ctx.col_positions->end() ||
          static_cast<size_t>(it->second) >= ctx.batch->cols.size()) {
        return Status::Internal("unresolved column in vectorized plan");
      }
      out->is_const = false;
      out->ref = &ctx.batch->cols[static_cast<size_t>(it->second)];
      return Status::OK();
    }
    case Expr::Kind::kNot: {
      Vec v;
      VELOCE_RETURN_IF_ERROR(EvalVec(*expr.child, ctx, sel, &v));
      if (v.is_const) {
        out->MakeConst(Datum::Bool(!Truthy(v.const_val)));
        return Status::OK();
      }
      ColumnVector* res = out->MakeOwned(TypeKind::kBool, n);
      for (uint32_t i : sel) res->SetBool(i, !v.TruthyAt(i));
      return Status::OK();
    }
    case Expr::Kind::kIsNull: {
      Vec v;
      VELOCE_RETURN_IF_ERROR(EvalVec(*expr.child, ctx, sel, &v));
      if (v.is_const) {
        const bool null = v.const_val.is_null();
        out->MakeConst(Datum::Bool(expr.is_not ? !null : null));
        return Status::OK();
      }
      ColumnVector* res = out->MakeOwned(TypeKind::kBool, n);
      for (uint32_t i : sel) {
        const bool null = v.IsNullAt(i);
        res->SetBool(i, expr.is_not ? !null : null);
      }
      return Status::OK();
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinOp::kAnd || expr.op == BinOp::kOr) {
        return EvalAndOrVec(expr, ctx, sel, out);
      }
      Vec l, r;
      VELOCE_RETURN_IF_ERROR(EvalVec(*expr.left, ctx, sel, &l));
      VELOCE_RETURN_IF_ERROR(EvalVec(*expr.right, ctx, sel, &r));
      if (l.is_const && r.is_const) {
        // Fold once — but only when rows are selected, so a constant error
        // (1/0) fires exactly when the row engine would reach it.
        if (sel.empty()) {
          out->MakeConst(Datum::Null());
          return Status::OK();
        }
        if (IsComparison(expr.op)) {
          out->MakeConst(CompareScalar(expr.op, l.const_val, r.const_val));
          return Status::OK();
        }
        VELOCE_ASSIGN_OR_RETURN(Datum v, EvalArith(expr.op, l.const_val, r.const_val));
        out->MakeConst(std::move(v));
        return Status::OK();
      }
      if (IsComparison(expr.op)) return EvalCompareVec(expr.op, l, r, sel, n, out);
      return EvalArithVec(expr.op, l, r, sel, n, out);
    }
    case Expr::Kind::kAggregate:
      // Aggregates are computed by the executor's aggregation operator and
      // never reach batch-level evaluation.
      return Status::Internal("aggregate in vectorized batch expression");
    case Expr::Kind::kStar:
      return Status::InvalidArgument("'*' outside COUNT(*)");
  }
  return Status::Internal("unhandled expression kind");
}

Status EvalFilter(const Expr& expr, const VecEvalCtx& ctx, SelVector* sel) {
  if (expr.kind == Expr::Kind::kBinary && expr.op == BinOp::kAnd) {
    VELOCE_RETURN_IF_ERROR(EvalFilter(*expr.left, ctx, sel));
    return EvalFilter(*expr.right, ctx, sel);
  }
  if (expr.kind == Expr::Kind::kBinary && expr.op == BinOp::kOr) {
    SelVector kept_left = *sel;
    VELOCE_RETURN_IF_ERROR(EvalFilter(*expr.left, ctx, &kept_left));
    // rest = sel \ kept_left (both sorted).
    SelVector rest;
    rest.reserve(sel->size() - kept_left.size());
    size_t k = 0;
    for (uint32_t i : *sel) {
      if (k < kept_left.size() && kept_left[k] == i) {
        ++k;
      } else {
        rest.push_back(i);
      }
    }
    VELOCE_RETURN_IF_ERROR(EvalFilter(*expr.right, ctx, &rest));
    // Merge the two sorted survivor lists.
    SelVector merged;
    merged.reserve(kept_left.size() + rest.size());
    std::merge(kept_left.begin(), kept_left.end(), rest.begin(), rest.end(),
               std::back_inserter(merged));
    *sel = std::move(merged);
    return Status::OK();
  }
  Vec v;
  VELOCE_RETURN_IF_ERROR(EvalVec(expr, ctx, *sel, &v));
  SelVector kept;
  kept.reserve(sel->size());
  for (uint32_t i : *sel) {
    if (v.TruthyAt(i)) kept.push_back(i);
  }
  *sel = std::move(kept);
  return Status::OK();
}

}  // namespace veloce::sql::vec
