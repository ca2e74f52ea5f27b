#include "common/codec.h"

#include <cstring>

namespace veloce {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v);
  buf[1] = static_cast<char>(v >> 8);
  buf[2] = static_cast<char>(v >> 16);
  buf[3] = static_cast<char>(v >> 24);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  dst->append(buf, 8);
}

void PutVarint32(std::string* dst, uint32_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

void OrderedPutUint64(std::string* dst, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * (7 - i)));
  dst->append(buf, 8);
}

void OrderedPutInt64(std::string* dst, int64_t v) {
  OrderedPutUint64(dst, static_cast<uint64_t>(v) ^ (1ULL << 63));
}

void OrderedPutString(std::string* dst, Slice s) {
  // Write into worst-case room (every byte a 0x00), then trim. A plain
  // loop, not memchr over the runs between 0x00 bytes: KV keys are dense in
  // 0x00 bytes (big-endian tenant, table and index ids), so those runs are
  // short.
  const size_t start = dst->size();
  dst->resize(start + 2 * s.size() + 2);
  char* out = dst->data() + start;
  const char* in = s.data();
  for (size_t i = 0; i < s.size(); ++i) {
    *out++ = in[i];
    if (in[i] == '\x00') *out++ = '\xFF';
  }
  *out++ = '\x00';
  *out++ = '\x01';
  dst->resize(out - dst->data());
}

void OrderedPutDouble(std::string* dst, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  // Positive doubles: flip the sign bit so they sort above negatives.
  // Negative doubles: flip all bits so magnitude order reverses correctly.
  if (bits & (1ULL << 63)) {
    bits = ~bits;
  } else {
    bits |= (1ULL << 63);
  }
  OrderedPutUint64(dst, bits);
}

bool OrderedGetString(Slice* input, std::string* s) {
  // The decoded string is never longer than the input: decode into that much
  // room, then trim.
  s->resize(input->size());
  char* out = s->data();
  const char* const end = input->data() + input->size();
  for (const char* p = input->data(); p < end; ++p) {
    if (*p != '\x00') {
      *out++ = *p;
      continue;
    }
    if (p + 1 == end) return false;  // truncated escape
    if (p[1] == '\x01') {            // terminator
      s->resize(out - s->data());
      input->RemovePrefix(p + 2 - input->data());
      return true;
    }
    if (p[1] != '\xFF') return false;  // bad escape byte
    *out++ = '\x00';
    ++p;
  }
  return false;
}

std::string PrefixEnd(Slice prefix) {
  std::string end = prefix.ToString();
  while (!end.empty()) {
    const unsigned char c = static_cast<unsigned char>(end.back());
    if (c != 0xFF) {
      end.back() = static_cast<char>(c + 1);
      return end;
    }
    end.pop_back();
  }
  return end;  // empty: unbounded
}

}  // namespace veloce
