#include "sql/pushdown.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/codec.h"
#include "common/logging.h"

namespace veloce::sql {

// ---------------------------------------------------------------------------
// PushdownExpr
// ---------------------------------------------------------------------------

void PushdownExpr::Encode(std::string* dst) const {
  dst->push_back(static_cast<char>(kind));
  switch (kind) {
    case Kind::kLiteral:
      literal.EncodeValue(dst);
      break;
    case Kind::kColumn:
      PutVarint32(dst, column_id);
      break;
    case Kind::kBinary:
      dst->push_back(static_cast<char>(op));
      left->Encode(dst);
      right->Encode(dst);
      break;
    case Kind::kStar:
      break;
  }
}

StatusOr<std::unique_ptr<PushdownExpr>> PushdownExpr::Decode(Slice* in) {
  if (in->empty()) return Status::Corruption("bad pushdown expr");
  auto e = std::make_unique<PushdownExpr>();
  e->kind = static_cast<Kind>((*in)[0]);
  in->RemovePrefix(1);
  switch (e->kind) {
    case Kind::kLiteral:
      VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(in, &e->literal));
      break;
    case Kind::kColumn:
      if (!GetVarint32(in, &e->column_id)) {
        return Status::Corruption("bad pushdown expr column");
      }
      break;
    case Kind::kBinary: {
      if (in->empty()) return Status::Corruption("bad pushdown expr op");
      e->op = static_cast<BinOp>((*in)[0]);
      in->RemovePrefix(1);
      switch (e->op) {
        case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
        case BinOp::kDiv: case BinOp::kMod:
          break;
        default:
          return Status::Corruption("non-arithmetic pushdown expr op");
      }
      VELOCE_ASSIGN_OR_RETURN(e->left, Decode(in));
      VELOCE_ASSIGN_OR_RETURN(e->right, Decode(in));
      break;
    }
    case Kind::kStar:
      break;
    default:
      return Status::Corruption("unknown pushdown expr kind");
  }
  return e;
}

StatusOr<Datum> PushdownExpr::Eval(
    const std::vector<std::pair<uint32_t, Datum>>& cols) const {
  switch (kind) {
    case Kind::kLiteral:
      return literal;
    case Kind::kColumn:
      for (const auto& [id, d] : cols) {
        if (id == column_id) return d;
      }
      return Datum::Null();  // missing column = NULL, matching DecodeRow
    case Kind::kBinary: {
      VELOCE_ASSIGN_OR_RETURN(Datum l, left->Eval(cols));
      VELOCE_ASSIGN_OR_RETURN(Datum r, right->Eval(cols));
      return EvalArith(op, l, r);
    }
    case Kind::kStar:
      return Status::Internal("'*' evaluated as pushdown expr");
  }
  return Status::Internal("unhandled pushdown expr kind");
}

// ---------------------------------------------------------------------------
// PushdownSpec
// ---------------------------------------------------------------------------

std::string PushdownSpec::Encode() const {
  std::string out;
  PutVarint64(&out, filters.size());
  for (const auto& filter : filters) {
    PutVarint32(&out, filter.column_id);
    out.push_back(static_cast<char>(filter.op));
    filter.value.EncodeValue(&out);
  }
  PutVarint64(&out, projection.size());
  for (uint32_t col : projection) PutVarint32(&out, col);
  // The aggregation fragment is appended only when present, so specs
  // without one keep the original (frozen) encoding.
  if (has_aggregation()) {
    PutVarint64(&out, group_by.size());
    for (uint32_t col : group_by) PutVarint32(&out, col);
    PutVarint64(&out, aggregates.size());
    for (const auto& agg : aggregates) {
      out.push_back(static_cast<char>(agg.func));
      agg.input->Encode(&out);
    }
  }
  return out;
}

StatusOr<PushdownSpec> PushdownSpec::Decode(Slice data) {
  PushdownSpec spec;
  uint64_t num_filters = 0;
  if (!GetVarint64(&data, &num_filters)) {
    return Status::Corruption("bad pushdown spec");
  }
  for (uint64_t i = 0; i < num_filters; ++i) {
    PushdownFilter filter;
    if (!GetVarint32(&data, &filter.column_id) || data.empty()) {
      return Status::Corruption("bad pushdown filter");
    }
    filter.op = static_cast<PushdownOp>(data[0]);
    data.RemovePrefix(1);
    VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(&data, &filter.value));
    spec.filters.push_back(std::move(filter));
  }
  uint64_t num_projection = 0;
  if (!GetVarint64(&data, &num_projection)) {
    return Status::Corruption("bad pushdown projection");
  }
  for (uint64_t i = 0; i < num_projection; ++i) {
    uint32_t col = 0;
    if (!GetVarint32(&data, &col)) {
      return Status::Corruption("bad pushdown projection column");
    }
    spec.projection.push_back(col);
  }
  if (data.empty()) return spec;  // no aggregation fragment
  uint64_t num_group = 0;
  if (!GetVarint64(&data, &num_group)) {
    return Status::Corruption("bad pushdown group-by");
  }
  for (uint64_t i = 0; i < num_group; ++i) {
    uint32_t col = 0;
    if (!GetVarint32(&data, &col)) {
      return Status::Corruption("bad pushdown group-by column");
    }
    spec.group_by.push_back(col);
  }
  uint64_t num_aggs = 0;
  if (!GetVarint64(&data, &num_aggs)) {
    return Status::Corruption("bad pushdown aggregates");
  }
  for (uint64_t i = 0; i < num_aggs; ++i) {
    if (data.empty()) return Status::Corruption("bad pushdown aggregate");
    PushdownAggregate agg;
    agg.func = static_cast<AggFunc>(data[0]);
    data.RemovePrefix(1);
    VELOCE_ASSIGN_OR_RETURN(agg.input, PushdownExpr::Decode(&data));
    spec.aggregates.push_back(std::move(agg));
  }
  return spec;
}

PushdownSpec MakeFilterSpec(const ScanConstraints& plan,
                            const std::vector<uint32_t>* needed_columns,
                            const TableDescriptor& desc) {
  PushdownSpec spec;
  for (const auto& f : plan.kv_filters) {
    PushdownFilter filter;
    filter.column_id = f.column_id;
    filter.value = f.value;
    switch (f.op) {
      case BinOp::kEq: filter.op = PushdownOp::kEq; break;
      case BinOp::kNe: filter.op = PushdownOp::kNe; break;
      case BinOp::kLt: filter.op = PushdownOp::kLt; break;
      case BinOp::kLe: filter.op = PushdownOp::kLe; break;
      case BinOp::kGt: filter.op = PushdownOp::kGt; break;
      case BinOp::kGe: filter.op = PushdownOp::kGe; break;
      default: continue;  // kv_filters only ever holds comparisons
    }
    spec.filters.push_back(std::move(filter));
  }
  if (needed_columns != nullptr) {
    for (uint32_t col_id : *needed_columns) {
      if (!desc.IsPrimaryKeyColumn(col_id)) spec.projection.push_back(col_id);
    }
    // Needed columns arrive in reference order with repeats; the projected
    // row value must keep the row codec's ascending-id column order or the
    // decoders' merge walk drops everything after the first inversion.
    std::sort(spec.projection.begin(), spec.projection.end());
    spec.projection.erase(
        std::unique(spec.projection.begin(), spec.projection.end()),
        spec.projection.end());
    // A filter's column must survive projection on the KV side; it does,
    // because filters evaluate before projection in EvaluatePushdown.
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Partial-aggregate row codec
// ---------------------------------------------------------------------------

std::string EncodePartialAggRow(const std::vector<Datum>& group_values,
                                const std::vector<AggState>& states) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(group_values.size()));
  for (const Datum& d : group_values) d.EncodeValue(&out);
  PutVarint32(&out, static_cast<uint32_t>(states.size()));
  for (const AggState& st : states) {
    PutVarint64(&out, st.count);
    PutFixed64(&out, static_cast<uint64_t>(st.isum));
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(st.sum));
    std::memcpy(&bits, &st.sum, sizeof(bits));
    PutFixed64(&out, bits);
    out.push_back(st.sum_is_int ? 1 : 0);
    out.push_back(st.has_minmax ? 1 : 0);
    if (st.has_minmax) {
      st.min.EncodeValue(&out);
      st.max.EncodeValue(&out);
    }
  }
  return out;
}

Status DecodePartialAggRow(Slice in, std::vector<Datum>* group_values,
                           std::vector<AggState>* states) {
  group_values->clear();
  states->clear();
  uint32_t num_group = 0;
  if (!GetVarint32(&in, &num_group)) return Status::Corruption("bad partial row");
  for (uint32_t i = 0; i < num_group; ++i) {
    Datum d;
    VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(&in, &d));
    group_values->push_back(std::move(d));
  }
  uint32_t num_states = 0;
  if (!GetVarint32(&in, &num_states)) return Status::Corruption("bad partial row");
  for (uint32_t i = 0; i < num_states; ++i) {
    AggState st;
    uint64_t isum_bits = 0, sum_bits = 0;
    if (!GetVarint64(&in, &st.count) || !GetFixed64(&in, &isum_bits) ||
        !GetFixed64(&in, &sum_bits) || in.size() < 2) {
      return Status::Corruption("bad partial agg state");
    }
    st.isum = static_cast<int64_t>(isum_bits);
    std::memcpy(&st.sum, &sum_bits, sizeof(st.sum));
    st.sum_is_int = in[0] != 0;
    st.has_minmax = in[1] != 0;
    in.RemovePrefix(2);
    if (st.has_minmax) {
      VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(&in, &st.min));
      VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(&in, &st.max));
    }
    states->push_back(std::move(st));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// KV-side evaluators
// ---------------------------------------------------------------------------

namespace {

/// Decodes a column-id-tagged row value (see EncodeRowValue in row.cc) into
/// a flat (id, datum) list. Small column counts make linear lookup faster
/// than a map.
Status DecodeRowColumns(Slice row_value,
                        std::vector<std::pair<uint32_t, Datum>>* cols) {
  cols->clear();
  uint32_t count = 0;
  if (!GetVarint32(&row_value, &count)) return Status::Corruption("bad row value");
  cols->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t col_id = 0;
    if (!GetVarint32(&row_value, &col_id)) {
      return Status::Corruption("bad row value col");
    }
    Datum d;
    VELOCE_RETURN_IF_ERROR(Datum::DecodeValue(&row_value, &d));
    cols->emplace_back(col_id, std::move(d));
  }
  return Status::OK();
}

const Datum* FindColumn(const std::vector<std::pair<uint32_t, Datum>>& cols,
                        uint32_t id) {
  for (const auto& [cid, d] : cols) {
    if (cid == id) return &d;
  }
  return nullptr;
}

/// Filters: a missing column is NULL; any comparison with NULL is unknown
/// and rejects the row (matching WHERE semantics for simple conjuncts).
bool PassesFilters(const PushdownSpec& spec,
                   const std::vector<std::pair<uint32_t, Datum>>& cols) {
  for (const auto& filter : spec.filters) {
    const Datum* d = FindColumn(cols, filter.column_id);
    if (d == nullptr || d->is_null() || filter.value.is_null()) return false;
    const int c = d->Compare(filter.value);
    bool keep = false;
    switch (filter.op) {
      case PushdownOp::kEq: keep = c == 0; break;
      case PushdownOp::kNe: keep = c != 0; break;
      case PushdownOp::kLt: keep = c < 0; break;
      case PushdownOp::kLe: keep = c <= 0; break;
      case PushdownOp::kGt: keep = c > 0; break;
      case PushdownOp::kGe: keep = c >= 0; break;
    }
    if (!keep) return false;
  }
  return true;
}

/// Applies projection, re-encoding only the requested columns (empty
/// projection = pass the original value through).
std::string ProjectValue(const PushdownSpec& spec, Slice row_value,
                         const std::vector<std::pair<uint32_t, Datum>>& cols) {
  if (spec.projection.empty()) return row_value.ToString();
  std::string out;
  uint32_t kept = 0;
  for (uint32_t col : spec.projection) {
    if (FindColumn(cols, col) != nullptr) ++kept;
  }
  PutVarint32(&out, kept);
  for (uint32_t col : spec.projection) {
    const Datum* d = FindColumn(cols, col);
    if (d == nullptr) continue;
    PutVarint32(&out, col);
    d->EncodeValue(&out);
  }
  return out;
}

}  // namespace

StatusOr<std::optional<std::string>> EvaluatePushdown(Slice row_value,
                                                      Slice spec_bytes) {
  VELOCE_ASSIGN_OR_RETURN(PushdownSpec spec, PushdownSpec::Decode(spec_bytes));
  std::vector<std::pair<uint32_t, Datum>> cols;
  VELOCE_RETURN_IF_ERROR(DecodeRowColumns(row_value, &cols));
  if (!PassesFilters(spec, cols)) return std::optional<std::string>();
  return std::optional<std::string>(ProjectValue(spec, row_value, cols));
}

StatusOr<std::vector<kv::MvccScanEntry>> EvaluatePushdownFragment(
    std::vector<kv::MvccScanEntry> rows, Slice spec_bytes) {
  // The whole point of the batch entry point: the spec decodes once per
  // range segment instead of once per row.
  VELOCE_ASSIGN_OR_RETURN(PushdownSpec spec, PushdownSpec::Decode(spec_bytes));
  std::vector<kv::MvccScanEntry> out;
  std::vector<std::pair<uint32_t, Datum>> cols;

  if (!spec.has_aggregation()) {
    out.reserve(rows.size());
    for (auto& row : rows) {
      VELOCE_RETURN_IF_ERROR(DecodeRowColumns(row.value, &cols));
      if (!PassesFilters(spec, cols)) continue;
      std::string value = ProjectValue(spec, row.value, cols);
      out.push_back({std::move(row.key), std::move(value)});
    }
    return out;
  }

  // Aggregation fragment: per-group partial states over this segment.
  // std::map keyed by the ordered group-key encoding keeps the output
  // deterministic (the SQL-side merge is order-independent anyway).
  struct Group {
    std::string first_key;
    std::vector<Datum> group_values;
    std::vector<AggState> states;
  };
  std::map<std::string, Group> groups;
  for (auto& row : rows) {
    VELOCE_RETURN_IF_ERROR(DecodeRowColumns(row.value, &cols));
    if (!PassesFilters(spec, cols)) continue;
    std::string key;
    std::vector<Datum> group_values;
    group_values.reserve(spec.group_by.size());
    for (uint32_t col_id : spec.group_by) {
      const Datum* d = FindColumn(cols, col_id);
      Datum v = d != nullptr ? *d : Datum::Null();
      v.EncodeKey(&key);
      group_values.push_back(std::move(v));
    }
    auto [it, inserted] = groups.try_emplace(std::move(key));
    Group& group = it->second;
    if (inserted) {
      group.first_key = row.key;
      group.group_values = std::move(group_values);
      group.states.resize(spec.aggregates.size());
    }
    for (size_t i = 0; i < spec.aggregates.size(); ++i) {
      const PushdownAggregate& agg = spec.aggregates[i];
      AggState& st = group.states[i];
      if (agg.input->kind == PushdownExpr::Kind::kStar) {
        st.Accumulate(Datum::Int(1), AggFunc::kCount);
        continue;
      }
      VELOCE_ASSIGN_OR_RETURN(Datum v, agg.input->Eval(cols));
      if (agg.func == AggFunc::kCount) {
        if (!v.is_null()) st.Accumulate(v, AggFunc::kCount);
      } else {
        st.Accumulate(v, agg.func);
      }
    }
  }
  out.reserve(groups.size());
  for (auto& [key, group] : groups) {
    out.push_back({std::move(group.first_key),
                   EncodePartialAggRow(group.group_values, group.states)});
  }
  return out;
}

void InstallPushdownHook(kv::KVCluster* cluster) {
  cluster->set_scan_fragment_hook([](std::vector<kv::MvccScanEntry> rows, Slice spec) {
    return EvaluatePushdownFragment(std::move(rows), spec);
  });
}

}  // namespace veloce::sql
