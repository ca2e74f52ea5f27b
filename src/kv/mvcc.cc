#include "kv/mvcc.h"

#include "common/codec.h"
#include "common/logging.h"

namespace veloce::kv {

namespace {

constexpr char kFlagValue = 0;
constexpr char kFlagTombstone = 1;
constexpr char kFlagIntent = 2;

constexpr size_t kTsSuffixLen = 12;  // 8 bytes wall + 4 bytes logical

void AppendInvertedTimestamp(std::string* dst, Timestamp ts) {
  OrderedPutUint64(dst, ~static_cast<uint64_t>(ts.wall));
  const uint32_t inv = ~ts.logical;
  dst->push_back(static_cast<char>(inv >> 24));
  dst->push_back(static_cast<char>(inv >> 16));
  dst->push_back(static_cast<char>(inv >> 8));
  dst->push_back(static_cast<char>(inv));
}

// A decoded intent; `value` views the raw bytes it was decoded from.
struct IntentValue {
  TxnId txn_id;
  Timestamp ts;
  bool tombstone;
  Slice value;
};

std::string EncodeIntentValue(TxnId txn_id, Timestamp ts, bool tombstone,
                              Slice value) {
  std::string out;
  out.push_back(kFlagIntent);
  PutFixed64(&out, txn_id);
  PutFixed64(&out, static_cast<uint64_t>(ts.wall));
  PutFixed32(&out, ts.logical);
  out.push_back(tombstone ? 1 : 0);
  out.append(value.data(), value.size());
  return out;
}

bool DecodeIntentValue(Slice raw, IntentValue* out) {
  if (raw.empty() || raw[0] != kFlagIntent) return false;
  raw.RemovePrefix(1);
  uint64_t txn = 0, wall = 0;
  uint32_t logical = 0;
  if (!GetFixed64(&raw, &txn) || !GetFixed64(&raw, &wall) ||
      !GetFixed32(&raw, &logical) || raw.empty()) {
    return false;
  }
  out->txn_id = txn;
  out->ts = {static_cast<Nanos>(wall), logical};
  out->tombstone = raw[0] != 0;
  raw.RemovePrefix(1);
  out->value = raw;
  return true;
}

// An engine key split in place: `escaped` is the escaped logical key
// (terminator included), the shared prefix of all of that key's slots. The
// escaping is injective and order-preserving, so two slots belong to the same
// logical key exactly when their `escaped` bytes are equal.
struct MvccKeyParts {
  Slice escaped;
  bool is_intent = false;
  Timestamp ts;  // undefined for the intent slot
};

// Splits and format-checks an engine key without copying or decoding the
// logical key. Accepts exactly the keys DecodeMvccKey accepts: the bytes
// before the 12-byte suffix must be one well-formed escaped string, i.e.
// end in the {0x00, 0x01} terminator with every earlier 0x00 escaped as
// {0x00, 0xFF}.
bool SplitMvccKey(Slice engine_key, MvccKeyParts* out) {
  if (engine_key.size() < kTsSuffixLen + 2) return false;
  const char* const p = engine_key.data();
  const size_t escaped_len = engine_key.size() - kTsSuffixLen;
  if (p[escaped_len - 2] != '\x00' || p[escaped_len - 1] != '\x01') return false;
  // A plain loop rather than memchr: keys are dense in 0x00 bytes
  // (big-endian ids), so the runs between them are short.
  const char* const body_end = p + escaped_len - 2;
  for (const char* q = p; q < body_end; ++q) {
    if (*q != '\x00') continue;
    if (++q == body_end || *q != '\xFF') return false;  // unescaped 0x00
  }
  out->escaped = Slice(p, escaped_len);
  Slice suffix(p + escaped_len, kTsSuffixLen);
  uint64_t inv_wall = 0;
  OrderedGetUint64(&suffix, &inv_wall);
  uint32_t inv_logical = 0;
  for (int i = 0; i < 4; ++i) {
    inv_logical = (inv_logical << 8) | static_cast<unsigned char>(suffix[i]);
  }
  out->is_intent = inv_wall == 0 && inv_logical == 0;
  out->ts = out->is_intent ? Timestamp()
                           : Timestamp{static_cast<Nanos>(~inv_wall), ~inv_logical};
  return true;
}

}  // namespace

std::string EncodeMvccKey(Slice user_key, Timestamp ts) {
  std::string out;
  OrderedPutString(&out, user_key);
  AppendInvertedTimestamp(&out, ts);
  return out;
}

std::string EncodeIntentKey(Slice user_key) {
  std::string out;
  OrderedPutString(&out, user_key);
  out.append(kTsSuffixLen, '\0');  // sorts before every inverted timestamp
  return out;
}

std::pair<std::string, std::string> EngineSpan(Slice start, Slice end) {
  std::string engine_end;
  if (!end.empty()) OrderedPutString(&engine_end, end);
  return {EncodeIntentKey(start), std::move(engine_end)};
}

std::string EncodeMvccPrefix(Slice user_key) {
  std::string out;
  OrderedPutString(&out, user_key);
  return out;
}

Slice MvccPrefixExtractor(Slice engine_user_key) {
  // Every MVCC engine key is escaped(user_key) . 12-byte suffix; anything
  // shorter (never written by this layer) maps to itself, which only costs
  // bloom precision, never correctness.
  if (engine_user_key.size() > kTsSuffixLen) {
    return Slice(engine_user_key.data(), engine_user_key.size() - kTsSuffixLen);
  }
  return engine_user_key;
}

bool DecodeMvccKey(Slice engine_key, std::string* user_key, Timestamp* ts,
                   bool* is_intent) {
  MvccKeyParts parts;
  if (!SplitMvccKey(engine_key, &parts)) return false;
  *ts = parts.ts;
  *is_intent = parts.is_intent;
  return OrderedGetString(&parts.escaped, user_key);
}

void MvccPutValue(storage::WriteBatch* batch, Slice user_key, Timestamp ts,
                  Slice value) {
  std::string v;
  v.push_back(kFlagValue);
  v.append(value.data(), value.size());
  batch->Put(EncodeMvccKey(user_key, ts), v);
}

void MvccPutTombstone(storage::WriteBatch* batch, Slice user_key, Timestamp ts) {
  std::string v;
  v.push_back(kFlagTombstone);
  batch->Put(EncodeMvccKey(user_key, ts), v);
}

void MvccPutIntent(storage::WriteBatch* batch, Slice user_key, TxnId txn_id,
                   Timestamp ts, bool tombstone, Slice value) {
  batch->Put(EncodeIntentKey(user_key), EncodeIntentValue(txn_id, ts, tombstone, value));
}

namespace {

// How many of a key's older slots a scan steps over with Next() after reading
// the key, before it seeks past the rest. On this engine one seek costs about
// as much as eight Next() calls over versions: walking a key's whole history
// is cheaper up to ~6 slots, about even at 8-10 and dearer from ~12. Stepping
// that far first keeps any key within about twice its cheaper choice, and a
// hot key's long history costs one seek rather than a walk.
constexpr int kNextsBeforeSeek = 8;

// The visible state of one logical key at a read timestamp.
struct KeyReadResult {
  bool has_value = false;
  std::string value;
  std::optional<IntentMeta> conflict;
};

// Finds the slot of logical key `escaped` visible at read_ts, reading from an
// iterator positioned at or after that key's intent slot. On return the
// iterator is on the slot that decided the result (own intent, conflicting
// intent or visible version), or past the key's slots if none is visible.
// Every slot visited is format-checked.
Status ReadKeyVersions(storage::Iterator* it, Slice escaped, Timestamp read_ts,
                       TxnId own_txn, KeyReadResult* out) {
  out->has_value = false;
  out->conflict.reset();
  while (it->Valid()) {
    MvccKeyParts k;
    if (!SplitMvccKey(it->key(), &k)) return Status::Corruption("bad MVCC key");
    if (k.escaped != escaped) return Status::OK();  // next logical key
    if (k.is_intent) {
      IntentValue intent;
      if (!DecodeIntentValue(it->value(), &intent)) {
        return Status::Corruption("bad intent value");
      }
      if (intent.txn_id == own_txn && own_txn != 0) {
        // Transactions read their own provisional writes.
        out->has_value = !intent.tombstone;
        out->value.assign(intent.value.data(), intent.value.size());
        return Status::OK();
      }
      if (intent.ts <= read_ts) {
        out->conflict = IntentMeta{intent.txn_id, intent.ts};
        return Status::OK();
      }
      // Intent above our read timestamp: invisible; fall through to versions.
      it->Next();
      continue;
    }
    if (k.ts > read_ts) {
      it->Next();
      continue;
    }
    // Newest visible version.
    Slice raw = it->value();
    if (raw.empty()) return Status::Corruption("empty MVCC value");
    const char flag = raw[0];
    raw.RemovePrefix(1);
    if (flag == kFlagValue) {
      out->has_value = true;
      out->value.assign(raw.data(), raw.size());
    } else if (flag != kFlagTombstone) {
      return Status::Corruption("unexpected value flag in version slot");
    }
    return Status::OK();
  }
  return Status::OK();
}

// Reads the intent slot of `user_key` into *out, whose value *raw backs;
// false when the key has no intent.
StatusOr<bool> GetIntent(storage::Engine* engine, Slice user_key, std::string* raw,
                         IntentValue* out) {
  Status s = engine->Get(EncodeIntentKey(user_key), raw);
  if (s.IsNotFound()) return false;
  VELOCE_RETURN_IF_ERROR(s);
  if (!DecodeIntentValue(Slice(*raw), out)) return Status::Corruption("bad intent value");
  return true;
}

// Moves the iterator off logical key `escaped`: a few Next() calls, then one
// seek past the rest of its history. Stops at a malformed key so the caller
// reports it.
void SkipKey(storage::Iterator* it, Slice escaped) {
  for (int nexts = 0; it->Valid(); ++nexts) {
    MvccKeyParts k;
    if (!SplitMvccKey(it->key(), &k) || k.escaped != escaped) return;
    if (nexts == kNextsBeforeSeek) {
      it->Seek(PrefixEnd(escaped));
      return;
    }
    it->Next();
  }
}

}  // namespace

StatusOr<MvccGetResult> MvccGet(storage::Engine* engine, Slice user_key,
                                Timestamp ts, TxnId own_txn) {
  // Point-read fast path: bound the iterator to exactly this logical key's
  // slots [intent, PrefixEnd(prefix)) and hand the engine the extracted
  // prefix so tables the bloom filter rejects are never opened. The read
  // stops at the visible slot; older versions are never visited.
  const std::string prefix = EncodeMvccPrefix(user_key);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(user_key),
                                       PrefixEnd(prefix), prefix);
  it->SeekToFirst();
  KeyReadResult kr;
  VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), prefix, ts, own_txn, &kr));
  VELOCE_RETURN_IF_ERROR(it->status());
  MvccGetResult result;
  result.conflict = kr.conflict;
  if (kr.has_value) result.value = std::move(kr.value);
  return result;
}

StatusOr<MvccScanResult> MvccScan(storage::Engine* engine, Slice start_key,
                                  Slice end_key, Timestamp ts, uint64_t limit,
                                  TxnId own_txn) {
  MvccScanResult result;
  // The bound also ends the scan at end_key: the encoding preserves order
  // and a key's slots all extend its escaped bytes.
  const auto [lower, upper] = EngineSpan(start_key, end_key);
  auto it = engine->NewBoundedIterator(lower, upper);
  std::string escaped;  // the current key's; the iterator's key() moves on
  KeyReadResult kr;
  it->SeekToFirst();
  while (it->Valid()) {
    MvccKeyParts k;
    if (!SplitMvccKey(it->key(), &k)) {
      return Status::Corruption("bad MVCC key in scan");
    }
    if (limit != 0 && result.entries.size() >= limit) {
      OrderedGetString(&k.escaped, &result.resume_key);  // checked by the split
      break;
    }
    escaped.assign(k.escaped.data(), k.escaped.size());
    VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), escaped, ts, own_txn, &kr));
    if (kr.conflict.has_value()) {
      result.conflict = kr.conflict;
      Slice in(escaped);
      OrderedGetString(&in, &result.conflict_key);
      return result;
    }
    if (kr.has_value) {
      // The one decode of this key's user bytes.
      MvccScanEntry& e = result.entries.emplace_back();
      Slice in(escaped);
      OrderedGetString(&in, &e.key);
      e.value = std::move(kr.value);
    }
    SkipKey(it.get(), escaped);
  }
  VELOCE_RETURN_IF_ERROR(it->status());  // a read error, not the span's end
  return result;
}

StatusOr<std::optional<IntentMeta>> MvccGetIntent(storage::Engine* engine,
                                                  Slice user_key) {
  std::string raw;
  IntentValue intent;
  VELOCE_ASSIGN_OR_RETURN(bool found, GetIntent(engine, user_key, &raw, &intent));
  if (!found) return std::optional<IntentMeta>();
  return std::optional<IntentMeta>(IntentMeta{intent.txn_id, intent.ts});
}

Status MvccResolveIntent(storage::Engine* engine, Slice user_key, TxnId txn_id,
                         bool commit, Timestamp commit_ts) {
  std::string raw;
  IntentValue intent;
  VELOCE_ASSIGN_OR_RETURN(bool found, GetIntent(engine, user_key, &raw, &intent));
  if (!found || intent.txn_id != txn_id) return Status::OK();  // resolved, or not ours

  storage::WriteBatch batch;
  batch.Delete(EncodeIntentKey(user_key));
  if (commit) {
    if (intent.tombstone) {
      MvccPutTombstone(&batch, user_key, commit_ts);
    } else {
      MvccPutValue(&batch, user_key, commit_ts, intent.value);
    }
  }
  return engine->Write(batch);
}

Status MvccUpdateIntentTimestamp(storage::Engine* engine, Slice user_key,
                                 TxnId txn_id, Timestamp new_ts) {
  std::string raw;
  IntentValue intent;
  VELOCE_ASSIGN_OR_RETURN(bool found, GetIntent(engine, user_key, &raw, &intent));
  if (!found || intent.txn_id != txn_id || intent.ts >= new_ts) return Status::OK();
  return engine->Put(EncodeIntentKey(user_key),
                     EncodeIntentValue(txn_id, new_ts, intent.tombstone, intent.value));
}

StatusOr<bool> MvccAnyNewerVersions(storage::Engine* engine, Slice start,
                                    Slice end, Timestamp after, Timestamp upto,
                                    TxnId own_txn) {
  const auto [lower, upper] = EngineSpan(start, end);
  // A single-key span [k, k\0) probes blooms for k, as MvccGet does.
  const std::string prefix =
      IsPointSpan(start, end) ? EncodeMvccPrefix(start) : std::string();
  auto it = engine->NewBoundedIterator(lower, upper, prefix);
  for (it->SeekToFirst(); it->Valid();) {
    MvccKeyParts k;
    if (!SplitMvccKey(it->key(), &k)) return Status::Corruption("bad MVCC key");
    if (k.is_intent) {
      IntentValue intent;
      if (!DecodeIntentValue(it->value(), &intent)) {
        return Status::Corruption("bad intent value");
      }
      if (intent.txn_id != own_txn && intent.ts <= upto) return true;
      it->Next();
      continue;
    }
    if (k.ts > after && k.ts <= upto) return true;
    if (k.ts <= after) {
      // Versions sort newest first: the rest of this key is older still.
      it->Seek(PrefixEnd(k.escaped));
      continue;
    }
    it->Next();  // a version above `upto`
  }
  VELOCE_RETURN_IF_ERROR(it->status());
  return false;
}

StatusOr<uint64_t> MvccGarbageCollect(storage::Engine* engine, Slice start,
                                      Slice end, Timestamp threshold) {
  const auto [lower, upper] = EngineSpan(start, end);
  auto it = engine->NewBoundedIterator(lower, upper);

  storage::WriteBatch batch;
  uint64_t removed = 0;
  std::string current_escaped;
  bool seen_boundary = false;  // newest version <= threshold already seen
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    MvccKeyParts k;
    if (!SplitMvccKey(it->key(), &k)) {
      return Status::Corruption("bad MVCC key during GC");
    }
    if (k.escaped != Slice(current_escaped)) {
      current_escaped.assign(k.escaped.data(), k.escaped.size());
      seen_boundary = false;
    }
    if (k.is_intent) continue;
    if (k.ts > threshold) continue;  // still needed by recent readers
    if (!seen_boundary) {
      seen_boundary = true;
      // The newest version at or below the threshold: keep it unless it is
      // a tombstone (then nothing at or above threshold can see the key).
      Slice raw = it->value();
      const bool tombstone = !raw.empty() && raw[0] == kFlagTombstone;
      if (tombstone) {
        batch.Delete(it->key());
        ++removed;
      }
      continue;
    }
    // Shadowed by a newer version that all threshold+ readers see instead.
    batch.Delete(it->key());
    ++removed;
  }
  VELOCE_RETURN_IF_ERROR(it->status());
  if (batch.Count() > 0) {
    VELOCE_RETURN_IF_ERROR(engine->Write(batch));
  }
  return removed;
}

}  // namespace veloce::kv
