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

struct IntentValue {
  TxnId txn_id;
  Timestamp ts;
  bool tombstone;
  std::string value;
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
  out->value = raw.ToString();
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
  if (!OrderedGetString(&engine_key, user_key)) return false;
  if (engine_key.size() != kTsSuffixLen) return false;
  uint64_t inv_wall = 0;
  if (!OrderedGetUint64(&engine_key, &inv_wall)) return false;
  uint32_t inv_logical = 0;
  for (int i = 0; i < 4; ++i) {
    inv_logical = (inv_logical << 8) | static_cast<unsigned char>(engine_key[i]);
  }
  if (inv_wall == 0 && inv_logical == 0) {
    *is_intent = true;
    *ts = Timestamp();
    return true;
  }
  *is_intent = false;
  ts->wall = static_cast<Nanos>(~inv_wall);
  ts->logical = ~inv_logical;
  return true;
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

/// Shared read logic: positioned iteration over one user key's slots.
/// Returns OK and fills result fields; callers interpret.
struct KeyReadResult {
  bool has_value = false;
  bool tombstone = false;
  std::string value;
  std::optional<IntentMeta> conflict;
};

void SkipKey(storage::Iterator* it, Slice user_key);

// Reads the visible state of `user_key` starting from an iterator positioned
// at or after the key's intent slot. On return the iterator has consumed all
// slots of this user key (positioned at the next user key or invalid).
Status ReadKeyVersions(storage::Iterator* it, Slice user_key, Timestamp read_ts,
                       TxnId own_txn, KeyReadResult* out) {
  *out = KeyReadResult();
  while (it->Valid()) {
    std::string cur_key;
    Timestamp ts;
    bool is_intent = false;
    if (!DecodeMvccKey(it->key(), &cur_key, &ts, &is_intent)) {
      return Status::Corruption("bad MVCC key");
    }
    if (Slice(cur_key) != user_key) return Status::OK();  // next user key
    if (is_intent) {
      IntentValue intent;
      if (!DecodeIntentValue(it->value(), &intent)) {
        return Status::Corruption("bad intent value");
      }
      if (intent.txn_id == own_txn && own_txn != 0) {
        // Transactions read their own provisional writes.
        out->has_value = !intent.tombstone;
        out->tombstone = intent.tombstone;
        out->value = intent.value;
        // Skip the rest of this key's versions.
        SkipKey(it, user_key);
        return Status::OK();
      }
      if (intent.ts <= read_ts) {
        out->conflict = IntentMeta{intent.txn_id, intent.ts};
        SkipKey(it, user_key);
        return Status::OK();
      }
      // Intent above our read timestamp: invisible; fall through to versions.
      it->Next();
      continue;
    }
    if (ts > read_ts) {
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
      out->value = raw.ToString();
    } else if (flag == kFlagTombstone) {
      out->tombstone = true;
    } else {
      return Status::Corruption("unexpected value flag in version slot");
    }
    SkipKey(it, user_key);
    return Status::OK();
  }
  return Status::OK();
}

// Advances the iterator past all remaining slots of user_key.
void SkipKey(storage::Iterator* it, Slice user_key) {
  while (it->Valid()) {
    std::string cur_key;
    Timestamp ts;
    bool is_intent = false;
    if (!DecodeMvccKey(it->key(), &cur_key, &ts, &is_intent)) return;
    if (Slice(cur_key) != user_key) return;
    it->Next();
  }
}

}  // namespace

StatusOr<MvccGetResult> MvccGet(storage::Engine* engine, Slice user_key,
                                Timestamp ts, TxnId own_txn) {
  // Point-read fast path: bound the iterator to exactly this logical key's
  // slots [intent, PrefixEnd(prefix)) and hand the engine the extracted
  // prefix so tables the bloom filter rejects are never opened.
  const std::string prefix = EncodeMvccPrefix(user_key);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(user_key),
                                       PrefixEnd(prefix), prefix);
  it->SeekToFirst();
  KeyReadResult kr;
  VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), user_key, ts, own_txn, &kr));
  MvccGetResult result;
  result.conflict = kr.conflict;
  if (kr.has_value) result.value = std::move(kr.value);
  return result;
}

StatusOr<MvccScanResult> MvccScan(storage::Engine* engine, Slice start_key,
                                  Slice end_key, Timestamp ts, uint64_t limit,
                                  TxnId own_txn) {
  MvccScanResult result;
  std::string upper;
  if (!end_key.empty()) OrderedPutString(&upper, end_key);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start_key), upper);
  it->SeekToFirst();
  while (it->Valid()) {
    std::string cur_key;
    Timestamp key_ts;
    bool is_intent = false;
    if (!DecodeMvccKey(it->key(), &cur_key, &key_ts, &is_intent)) {
      return Status::Corruption("bad MVCC key in scan");
    }
    if (!end_key.empty() && Slice(cur_key) >= end_key) break;
    if (limit != 0 && result.entries.size() >= limit) {
      result.resume_key = cur_key;
      break;
    }
    KeyReadResult kr;
    VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), Slice(cur_key), ts, own_txn, &kr));
    if (kr.conflict.has_value()) {
      result.conflict = kr.conflict;
      return result;
    }
    if (kr.has_value) {
      result.entries.push_back({std::move(cur_key), std::move(kr.value)});
    }
  }
  return result;
}

StatusOr<std::optional<IntentMeta>> MvccGetIntent(storage::Engine* engine,
                                                  Slice user_key) {
  std::string raw;
  Status s = engine->Get(EncodeIntentKey(user_key), &raw);
  if (s.IsNotFound()) return std::optional<IntentMeta>();
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  return std::optional<IntentMeta>(IntentMeta{intent.txn_id, intent.ts});
}

Status MvccResolveIntent(storage::Engine* engine, Slice user_key, TxnId txn_id,
                         bool commit, Timestamp commit_ts) {
  const std::string intent_key = EncodeIntentKey(user_key);
  std::string raw;
  Status s = engine->Get(intent_key, &raw);
  if (s.IsNotFound()) return Status::OK();  // already resolved
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  if (intent.txn_id != txn_id) return Status::OK();  // not ours

  storage::WriteBatch batch;
  batch.Delete(intent_key);
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
  const std::string intent_key = EncodeIntentKey(user_key);
  std::string raw;
  Status s = engine->Get(intent_key, &raw);
  if (s.IsNotFound()) return Status::OK();
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  if (intent.txn_id != txn_id || intent.ts >= new_ts) return Status::OK();
  return engine->Put(intent_key, EncodeIntentValue(txn_id, new_ts,
                                                   intent.tombstone, intent.value));
}

StatusOr<bool> MvccAnyNewerVersions(storage::Engine* engine, Slice start,
                                    Slice end, Timestamp after, Timestamp upto) {
  std::string end_bound;
  if (!end.empty()) OrderedPutString(&end_bound, end);
  // A single-key span [k, k\0) probes blooms for k, as MvccGet does.
  const bool point = end.size() == start.size() + 1 &&
                     end[start.size()] == '\0' && end.StartsWith(start);
  const std::string prefix = point ? EncodeMvccPrefix(start) : std::string();
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start), end_bound, prefix);
  for (it->SeekToFirst(); it->Valid();) {
    std::string user_key;
    Timestamp ts;
    bool is_intent = false;
    if (!DecodeMvccKey(it->key(), &user_key, &ts, &is_intent)) {
      return Status::Corruption("bad MVCC key");
    }
    if (!is_intent && ts > after && ts <= upto) return true;
    if (!is_intent && ts <= after) {
      // Versions sort newest first: the rest of this key is older still.
      it->Seek(PrefixEnd(EncodeMvccPrefix(user_key)));
      continue;
    }
    it->Next();  // an intent (provisional) or a version above `upto`
  }
  return false;
}

StatusOr<uint64_t> MvccGarbageCollect(storage::Engine* engine, Slice start,
                                      Slice end, Timestamp threshold) {
  std::string end_bound;
  if (!end.empty()) OrderedPutString(&end_bound, end);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start), end_bound);

  storage::WriteBatch batch;
  uint64_t removed = 0;
  std::string current_key;
  bool seen_boundary = false;  // newest version <= threshold already seen
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string user_key;
    Timestamp ts;
    bool is_intent = false;
    if (!DecodeMvccKey(it->key(), &user_key, &ts, &is_intent)) {
      return Status::Corruption("bad MVCC key during GC");
    }
    if (user_key != current_key) {
      current_key = user_key;
      seen_boundary = false;
    }
    if (is_intent) continue;
    if (ts > threshold) continue;  // still needed by recent readers
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
  if (batch.Count() > 0) {
    VELOCE_RETURN_IF_ERROR(engine->Write(batch));
  }
  return removed;
}

}  // namespace veloce::kv
