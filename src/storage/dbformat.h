#ifndef VELOCE_STORAGE_DBFORMAT_H_
#define VELOCE_STORAGE_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "common/codec.h"
#include "common/slice.h"
#include "common/status.h"

namespace veloce::storage {

/// Sequence number assigned to each write; monotonically increasing per
/// engine. The top byte is reserved for the value type tag.
using SequenceNumber = uint64_t;
constexpr SequenceNumber kMaxSequenceNumber = (1ULL << 56) - 1;

enum class ValueType : uint8_t {
  kDeletion = 0,
  kValue = 1,
};

/// Internal keys are `user_key . tag` where tag packs (sequence << 8 | type)
/// as a little-endian fixed64. Ordering: user keys ascending, then sequence
/// numbers DESCENDING (newest version first), then type descending — the
/// LevelDB/Pebble layout, which makes "latest visible version" the first
/// match of a seek.
inline uint64_t PackTag(SequenceNumber seq, ValueType type) {
  return (seq << 8) | static_cast<uint64_t>(type);
}

inline void AppendInternalKey(std::string* dst, Slice user_key,
                              SequenceNumber seq, ValueType type) {
  dst->append(user_key.data(), user_key.size());
  PutFixed64(dst, PackTag(seq, type));
}

inline std::string MakeInternalKey(Slice user_key, SequenceNumber seq,
                                   ValueType type) {
  std::string out;
  AppendInternalKey(&out, user_key, seq, type);
  return out;
}

/// Extracts the user key portion of an internal key.
inline Slice ExtractUserKey(Slice internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// Extracts the packed tag.
inline uint64_t ExtractTag(Slice internal_key) {
  Slice tag(internal_key.data() + internal_key.size() - 8, 8);
  uint64_t packed = 0;
  GetFixed64(&tag, &packed);
  return packed;
}

inline SequenceNumber ExtractSequence(Slice internal_key) {
  return ExtractTag(internal_key) >> 8;
}

inline ValueType ExtractValueType(Slice internal_key) {
  return static_cast<ValueType>(ExtractTag(internal_key) & 0xFF);
}

/// Three-way comparison of internal keys (see ordering note above).
inline int CompareInternalKey(Slice a, Slice b) {
  const int r = ExtractUserKey(a).Compare(ExtractUserKey(b));
  if (r != 0) return r;
  const uint64_t ta = ExtractTag(a);
  const uint64_t tb = ExtractTag(b);
  if (ta > tb) return -1;  // higher seq sorts first
  if (ta < tb) return 1;
  return 0;
}

/// Iterator over internal keys. The standard LevelDB-shaped interface used
/// by memtable, SSTable, and merging iterators. An iterator that stops on a
/// read or format error turns !Valid() and reports the error in status(), so
/// "!Valid() with OK status" is the only end of data.
class InternalIterator {
 public:
  virtual ~InternalIterator() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first entry with internal key >= target.
  virtual void Seek(Slice target) = 0;
  virtual void Next() = 0;
  virtual Slice key() const = 0;    // internal key
  virtual Slice value() const = 0;
  virtual Status status() const = 0;
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_DBFORMAT_H_
