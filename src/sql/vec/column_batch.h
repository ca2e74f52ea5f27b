#ifndef VELOCE_SQL_VEC_COLUMN_BATCH_H_
#define VELOCE_SQL_VEC_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "kv/mvcc.h"
#include "sql/row.h"
#include "sql/schema.h"

namespace veloce::sql::vec {

/// Rows per ColumnBatch. Large enough to amortize per-batch dispatch,
/// small enough to keep a batch's working set in L1/L2.
inline constexpr size_t kBatchSize = 1024;

/// Selection vector: indices of the rows still alive in a batch, sorted
/// ascending. Filters narrow the selection instead of materializing
/// filtered copies.
using SelVector = std::vector<uint32_t>;

/// Returns {0, 1, ..., n-1}.
SelVector FullSel(size_t n);

/// One typed column of a batch. Exactly one typed store is active,
/// selected by `type`; bools share the int store (0/1). `nulls` is always
/// sized to the column length, and null slots hold zero placeholders in
/// the typed store so kernels can touch them blindly.
struct ColumnVector {
  TypeKind type = TypeKind::kInt;  // static type; never kNull
  std::vector<int64_t> ints;       // kInt, kBool
  std::vector<double> doubles;     // kDouble
  std::vector<uint32_t> str_off;   // kString: offsets into arena
  std::vector<uint32_t> str_len;
  std::string arena;
  std::vector<uint8_t> nulls;      // 1 = SQL NULL

  size_t size() const { return nulls.size(); }
  bool IsNull(size_t i) const { return nulls[i] != 0; }

  void Init(TypeKind t);            // set type, clear all stores
  void Resize(size_t n);            // n slots, all NULL (for Set* filling)
  void Reserve(size_t n);           // reserve capacity in the active stores

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendBool(bool v);
  void AppendDouble(double v);
  void AppendString(std::string_view s);

  void SetNull(size_t i) { nulls[i] = 1; }
  void SetInt(size_t i, int64_t v) { ints[i] = v; nulls[i] = 0; }
  void SetBool(size_t i, bool v) { ints[i] = v ? 1 : 0; nulls[i] = 0; }
  void SetDouble(size_t i, double v) { doubles[i] = v; nulls[i] = 0; }
  void SetString(size_t i, std::string_view s);

  int64_t IntAt(size_t i) const { return ints[i]; }
  bool BoolAt(size_t i) const { return ints[i] != 0; }
  double DoubleAt(size_t i) const { return doubles[i]; }
  std::string_view StringAt(size_t i) const {
    return std::string_view(arena).substr(str_off[i], str_len[i]);
  }
  /// Datum::AsDouble for a non-null slot (string -> 0, bool -> 0/1).
  double AsDoubleAt(size_t i) const {
    switch (type) {
      case TypeKind::kInt: return static_cast<double>(ints[i]);
      case TypeKind::kDouble: return doubles[i];
      case TypeKind::kBool: return ints[i] != 0 ? 1 : 0;
      default: return 0;  // strings coerce to 0, matching Datum::AsDouble
    }
  }

  /// Materializes one slot as a Datum (null slot -> Null).
  Datum GetDatum(size_t i) const;
  /// Appends a slot by Datum. The datum's kind must be the column type or
  /// null (callers enforce; used when gathering join outputs).
  void AppendDatum(const Datum& d);
  /// Appends slot `i` of a same-typed column (join gather, no boxing).
  void AppendFrom(const ColumnVector& src, size_t i);
  /// Byte-identical to Datum::EncodeKey of GetDatum(i), without boxing.
  void EncodeKeyAt(size_t i, std::string* dst) const;
  /// Cheap injective encoding for hash identity only (grouping, join
  /// keys): raw fixed-width scalars / length-prefixed strings behind a
  /// null tag. NOT order-preserving and NOT the row engine's EncodeKey —
  /// never compare or persist these bytes.
  void AppendHashKeyAt(size_t i, std::string* dst) const;
};

/// A batch of rows in columnar layout. `cols` is positionally aligned with
/// the (possibly concatenated, for joins) table columns.
struct ColumnBatch {
  std::vector<ColumnVector> cols;
  size_t rows = 0;

  /// Initializes `cols` to the given column types with zero rows.
  void Init(const std::vector<TypeKind>& types);
};

/// Decodes primary-index MVCC scan entries into column batches: one typed
/// decode loop per batch, no per-row Row/Datum round trip. Returns
/// NotSupported when a stored datum kind disagrees with the schema column
/// type — the caller falls back to the row engine, which tolerates
/// heterogeneous rows.
class BatchDecoder {
 public:
  /// `needed` marks the column positions the query actually reads (empty =
  /// all). Unread non-PK columns are skipped, not decoded: their slots stay
  /// NULL. Late materialization is the columnar scan's structural advantage
  /// — the row engine always materializes full rows.
  explicit BatchDecoder(const TableDescriptor& desc,
                        const std::vector<uint8_t>& needed = {});

  /// Decodes entries[*pos..] into `batch` (at most kBatchSize rows),
  /// advancing *pos. `batch` is reinitialized each call. Consumes the
  /// decoded entries: their key/value buffers are released one by one while
  /// still cache-hot, which beats bulk-destroying the scan result later.
  Status NextBatch(std::vector<kv::MvccScanEntry>* entries, size_t* pos,
                   ColumnBatch* batch) const;

  const std::vector<TypeKind>& column_types() const { return types_; }

 private:
  Status DecodeKeyInto(Slice key, ColumnBatch* batch, size_t r) const;
  Status DecodeValueInto(Slice value, ColumnBatch* batch, size_t r) const;

  TableDescriptor desc_;
  std::string prefix_;
  std::vector<TypeKind> types_;    // per table column
  std::vector<int> pk_positions_;  // column position per PK key datum
  bool pk_wanted_ = true;          // any PK column in the needed set
  struct NonPkColumn {
    uint32_t id = 0;
    int pos = 0;
    TypeKind type = TypeKind::kInt;
    bool wanted = true;
  };
  std::vector<NonPkColumn> non_pk_;  // in row-value (ascending id) order
};

}  // namespace veloce::sql::vec

#endif  // VELOCE_SQL_VEC_COLUMN_BATCH_H_
