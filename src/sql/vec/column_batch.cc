#include "sql/vec/column_batch.h"

#include <algorithm>
#include <cstring>

#include "common/codec.h"

namespace veloce::sql::vec {

SelVector FullSel(size_t n) {
  SelVector sel(n);
  for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
  return sel;
}

// ---------------------------------------------------------------------------
// ColumnVector
// ---------------------------------------------------------------------------

void ColumnVector::Init(TypeKind t) {
  type = t;
  ints.clear();
  doubles.clear();
  str_off.clear();
  str_len.clear();
  arena.clear();
  nulls.clear();
}

void ColumnVector::Resize(size_t n) {
  nulls.assign(n, 1);
  switch (type) {
    case TypeKind::kInt:
    case TypeKind::kBool:
      ints.assign(n, 0);
      break;
    case TypeKind::kDouble:
      doubles.assign(n, 0);
      break;
    case TypeKind::kString:
      str_off.assign(n, 0);
      str_len.assign(n, 0);
      arena.clear();
      break;
    default:
      break;
  }
}

void ColumnVector::Reserve(size_t n) {
  nulls.reserve(n);
  switch (type) {
    case TypeKind::kInt:
    case TypeKind::kBool:
      ints.reserve(n);
      break;
    case TypeKind::kDouble:
      doubles.reserve(n);
      break;
    case TypeKind::kString:
      str_off.reserve(n);
      str_len.reserve(n);
      break;
    default:
      break;
  }
}

void ColumnVector::AppendNull() {
  nulls.push_back(1);
  switch (type) {
    case TypeKind::kInt:
    case TypeKind::kBool:
      ints.push_back(0);
      break;
    case TypeKind::kDouble:
      doubles.push_back(0);
      break;
    case TypeKind::kString:
      str_off.push_back(0);
      str_len.push_back(0);
      break;
    default:
      break;
  }
}

void ColumnVector::AppendInt(int64_t v) {
  ints.push_back(v);
  nulls.push_back(0);
}

void ColumnVector::AppendBool(bool v) {
  ints.push_back(v ? 1 : 0);
  nulls.push_back(0);
}

void ColumnVector::AppendDouble(double v) {
  doubles.push_back(v);
  nulls.push_back(0);
}

void ColumnVector::AppendString(std::string_view s) {
  str_off.push_back(static_cast<uint32_t>(arena.size()));
  str_len.push_back(static_cast<uint32_t>(s.size()));
  arena.append(s);
  nulls.push_back(0);
}

void ColumnVector::SetString(size_t i, std::string_view s) {
  str_off[i] = static_cast<uint32_t>(arena.size());
  str_len[i] = static_cast<uint32_t>(s.size());
  arena.append(s);
  nulls[i] = 0;
}

Datum ColumnVector::GetDatum(size_t i) const {
  if (nulls[i] != 0) return Datum::Null();
  switch (type) {
    case TypeKind::kBool: return Datum::Bool(ints[i] != 0);
    case TypeKind::kInt: return Datum::Int(ints[i]);
    case TypeKind::kDouble: return Datum::Double(doubles[i]);
    case TypeKind::kString: return Datum::String(std::string(StringAt(i)));
    default: return Datum::Null();
  }
}

void ColumnVector::AppendDatum(const Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return;
  }
  switch (type) {
    case TypeKind::kBool: AppendBool(d.bool_value()); break;
    case TypeKind::kInt: AppendInt(d.int_value()); break;
    case TypeKind::kDouble: AppendDouble(d.double_value()); break;
    case TypeKind::kString: AppendString(d.string_value()); break;
    default: AppendNull(); break;
  }
}

void ColumnVector::AppendFrom(const ColumnVector& src, size_t i) {
  if (src.nulls[i] != 0) {
    AppendNull();
    return;
  }
  switch (type) {
    case TypeKind::kInt:
    case TypeKind::kBool:
      ints.push_back(src.ints[i]);
      nulls.push_back(0);
      break;
    case TypeKind::kDouble:
      doubles.push_back(src.doubles[i]);
      nulls.push_back(0);
      break;
    case TypeKind::kString:
      AppendString(src.StringAt(i));
      break;
    default:
      AppendNull();
      break;
  }
}

void ColumnVector::AppendHashKeyAt(size_t i, std::string* dst) const {
  if (nulls[i] != 0) {
    dst->push_back(0);
    return;
  }
  // Type tag: mixed-type keys (e.g. int probe against a double build
  // column) must never collide bitwise — EncodeKey separates them by its
  // kind byte, so the hash identity must too.
  dst->push_back(static_cast<char>(1 + static_cast<int>(type)));
  switch (type) {
    case TypeKind::kInt:
    case TypeKind::kBool:
      dst->append(reinterpret_cast<const char*>(&ints[i]), sizeof(int64_t));
      break;
    case TypeKind::kDouble:
      dst->append(reinterpret_cast<const char*>(&doubles[i]), sizeof(double));
      break;
    case TypeKind::kString: {
      const uint32_t len = str_len[i];
      dst->append(reinterpret_cast<const char*>(&len), sizeof(len));
      dst->append(arena.data() + str_off[i], len);
      break;
    }
    default:
      break;
  }
}

void ColumnVector::EncodeKeyAt(size_t i, std::string* dst) const {
  if (nulls[i] != 0) {
    dst->push_back(static_cast<char>(TypeKind::kNull));
    return;
  }
  dst->push_back(static_cast<char>(type));
  switch (type) {
    case TypeKind::kBool: dst->push_back(ints[i] != 0 ? 1 : 0); break;
    case TypeKind::kInt: OrderedPutInt64(dst, ints[i]); break;
    case TypeKind::kDouble: OrderedPutDouble(dst, doubles[i]); break;
    case TypeKind::kString: OrderedPutString(dst, StringAt(i)); break;
    default: break;
  }
}

// ---------------------------------------------------------------------------
// ColumnBatch
// ---------------------------------------------------------------------------

void ColumnBatch::Init(const std::vector<TypeKind>& types) {
  cols.resize(types.size());
  for (size_t i = 0; i < types.size(); ++i) cols[i].Init(types[i]);
  rows = 0;
}

// ---------------------------------------------------------------------------
// BatchDecoder
// ---------------------------------------------------------------------------

BatchDecoder::BatchDecoder(const TableDescriptor& desc,
                           const std::vector<uint8_t>& needed)
    : desc_(desc), prefix_(IndexPrefix(desc.id, kPrimaryIndexId)) {
  for (const auto& col : desc_.columns) types_.push_back(col.type);
  pk_wanted_ = false;
  for (uint32_t col_id : desc_.primary.column_ids) {
    const int pos = desc_.ColumnIndex(col_id);
    pk_positions_.push_back(pos);
    if (needed.empty() || (pos >= 0 && needed[static_cast<size_t>(pos)] != 0)) {
      pk_wanted_ = true;
    }
  }
  for (size_t i = 0; i < desc_.columns.size(); ++i) {
    const auto& col = desc_.columns[i];
    if (desc_.IsPrimaryKeyColumn(col.id)) continue;
    const bool wanted = needed.empty() || needed[i] != 0;
    non_pk_.push_back({col.id, static_cast<int>(i), col.type, wanted});
  }
}

namespace {

// Skips one EncodeValue-encoded datum of any kind.
bool SkipValueDatum(Slice* in) {
  if (in->empty()) return false;
  const TypeKind kind = static_cast<TypeKind>((*in)[0]);
  in->RemovePrefix(1);
  switch (kind) {
    case TypeKind::kNull:
      return true;
    case TypeKind::kBool:
      if (in->empty()) return false;
      in->RemovePrefix(1);
      return true;
    case TypeKind::kInt: {
      uint64_t v;
      return GetVarint64(in, &v);
    }
    case TypeKind::kDouble: {
      uint64_t v;
      return GetFixed64(in, &v);
    }
    case TypeKind::kString: {
      Slice v;
      return GetLengthPrefixed(in, &v);
    }
  }
  return false;
}

// Decodes one EncodeValue-encoded datum into slot `r` of the typed column
// (pre-sized by NextBatch, all-NULL). The stored kind must be the column
// type (or null); anything else is the fallback signal for the vectorized
// path.
Status DecodeValueDatumInto(Slice* in, ColumnVector* col, size_t r) {
  if (in->empty()) return Status::Corruption("empty datum value");
  const TypeKind kind = static_cast<TypeKind>((*in)[0]);
  in->RemovePrefix(1);
  if (kind == TypeKind::kNull) return Status::OK();  // slot is already NULL
  if (kind != col->type) {
    return Status::NotSupported("stored datum kind differs from column type");
  }
  switch (kind) {
    case TypeKind::kBool: {
      if (in->empty()) return Status::Corruption("bad bool value");
      col->SetBool(r, (*in)[0] != 0);
      in->RemovePrefix(1);
      return Status::OK();
    }
    case TypeKind::kInt: {
      uint64_t v;
      if (!GetVarint64(in, &v)) return Status::Corruption("bad int value");
      col->SetInt(r, static_cast<int64_t>(v));
      return Status::OK();
    }
    case TypeKind::kDouble: {
      uint64_t bits;
      if (!GetFixed64(in, &bits)) return Status::Corruption("bad double value");
      double v;
      static_assert(sizeof(v) == sizeof(bits));
      std::memcpy(&v, &bits, sizeof(v));
      col->SetDouble(r, v);
      return Status::OK();
    }
    case TypeKind::kString: {
      Slice v;
      if (!GetLengthPrefixed(in, &v)) return Status::Corruption("bad string value");
      col->SetString(r, std::string_view(v.data(), v.size()));
      return Status::OK();
    }
    default:
      return Status::Corruption("unknown datum kind in value");
  }
}

}  // namespace

Status BatchDecoder::DecodeKeyInto(Slice key, ColumnBatch* batch,
                                   size_t r) const {
  if (!key.StartsWith(prefix_)) return Status::Corruption("row key prefix mismatch");
  // No PK column is read by the query: the scan span already proved the
  // prefix, so skip parsing the key datums and leave the NULL placeholders.
  if (!pk_wanted_) return Status::OK();
  key.RemovePrefix(prefix_.size());
  for (int pos : pk_positions_) {
    if (pos < 0) return Status::Corruption("unknown pk column");
    ColumnVector& col = batch->cols[static_cast<size_t>(pos)];
    if (key.empty()) return Status::Corruption("empty datum key");
    const TypeKind kind = static_cast<TypeKind>(key[0]);
    key.RemovePrefix(1);
    if (kind == TypeKind::kNull) continue;  // slot is already NULL
    if (kind != col.type) {
      return Status::NotSupported("stored key kind differs from column type");
    }
    switch (kind) {
      case TypeKind::kBool: {
        if (key.empty()) return Status::Corruption("bad bool key");
        col.SetBool(r, key[0] != 0);
        key.RemovePrefix(1);
        break;
      }
      case TypeKind::kInt: {
        int64_t v;
        if (!OrderedGetInt64(&key, &v)) return Status::Corruption("bad int key");
        col.SetInt(r, v);
        break;
      }
      case TypeKind::kDouble: {
        double v;
        if (!OrderedGetDouble(&key, &v)) return Status::Corruption("bad double key");
        col.SetDouble(r, v);
        break;
      }
      case TypeKind::kString: {
        std::string v;
        if (!OrderedGetString(&key, &v)) return Status::Corruption("bad string key");
        col.SetString(r, v);
        break;
      }
      default:
        return Status::Corruption("unknown datum kind in key");
    }
  }
  return Status::OK();
}

Status BatchDecoder::DecodeValueInto(Slice value, ColumnBatch* batch,
                                     size_t r) const {
  uint32_t count = 0;
  if (!GetVarint32(&value, &count)) return Status::Corruption("bad row value");
  // Row values store non-PK columns tagged by ascending column id, the same
  // order as non_pk_: a two-pointer merge finds missing (NULL) and unknown
  // (skipped) columns without a per-row map. Missing, unknown, and unread
  // columns need no writes at all — their slots are pre-initialized NULL.
  size_t vi = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t col_id = 0;
    if (!GetVarint32(&value, &col_id)) return Status::Corruption("bad row value col");
    while (vi < non_pk_.size() && non_pk_[vi].id < col_id) ++vi;
    if (vi < non_pk_.size() && non_pk_[vi].id == col_id) {
      if (non_pk_[vi].wanted) {
        VELOCE_RETURN_IF_ERROR(DecodeValueDatumInto(
            &value, &batch->cols[static_cast<size_t>(non_pk_[vi].pos)], r));
      } else if (!SkipValueDatum(&value)) {
        return Status::Corruption("bad row value datum");
      }
      ++vi;
    } else {
      // Unknown column id (dropped column): skip the datum.
      if (!SkipValueDatum(&value)) return Status::Corruption("bad row value datum");
    }
  }
  return Status::OK();
}

Status BatchDecoder::NextBatch(std::vector<kv::MvccScanEntry>* entries,
                               size_t* pos, ColumnBatch* batch) const {
  batch->Init(types_);
  const size_t n = std::min(entries->size() - *pos, kBatchSize);
  // Pre-size every column to all-NULL slots and fill by index: the decode
  // loop then only writes present, wanted datums — no per-value capacity
  // checks, and skipped columns cost nothing.
  for (auto& col : batch->cols) col.Resize(n);
  for (size_t r = 0; r < n; ++r) {
    kv::MvccScanEntry& entry = (*entries)[*pos + r];
    VELOCE_RETURN_IF_ERROR(DecodeKeyInto(entry.key, batch, r));
    VELOCE_RETURN_IF_ERROR(DecodeValueInto(entry.value, batch, r));
    // Consume the entry: releasing its buffers here, while their heap
    // blocks are still cache-hot, is measurably cheaper than bulk
    // destruction of the whole scan result afterwards.
    std::string().swap(entry.key);
    std::string().swap(entry.value);
  }
  *pos += n;
  batch->rows = n;
  return Status::OK();
}

}  // namespace veloce::sql::vec
