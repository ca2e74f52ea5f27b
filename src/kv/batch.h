#ifndef VELOCE_KV_BATCH_H_
#define VELOCE_KV_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kv/mvcc.h"
#include "kv/timestamp.h"

namespace veloce::obs {
class TraceContext;
}  // namespace veloce::obs

namespace veloce::kv {

/// Tenant identifier. Tenant 1 is the privileged system tenant.
using TenantId = uint64_t;
constexpr TenantId kSystemTenantId = 1;

/// Range identifier (see kv/range.h; declared here so BatchRequest can
/// carry range addressing without a circular include).
using RangeId = uint64_t;

/// The KV API request types the SQL layer issues (the paper's GET/PUT/
/// DELETE/SCAN vocabulary). A BatchRequest groups several into one RPC —
/// the batching whose cost behaviour Fig 5 models.
enum class RequestType : uint8_t {
  kGet = 0,
  kPut = 1,
  kDelete = 2,
  kScan = 3,
};

struct RequestUnion {
  RequestType type = RequestType::kGet;
  std::string key;
  std::string end_key;   ///< scans only (exclusive)
  std::string value;     ///< puts only
  uint64_t limit = 0;    ///< scans only; 0 = unlimited
  /// Opaque filter/projection spec evaluated at the KV node via the
  /// cluster's registered pushdown hook (the paper's future-work row
  /// filtering and projection push-down; empty = none).
  std::string pushdown;

  bool IsWrite() const {
    return type == RequestType::kPut || type == RequestType::kDelete;
  }
};

/// One KV RPC. When the SQL layer runs in a separate process (Serverless
/// mode) this is marshalled through Encode()/Decode() — that serialization
/// is the extra CPU the paper measures for OLAP scans (Fig 6).
struct BatchRequest {
  TenantId tenant_id = 0;
  Timestamp ts;            ///< read/write timestamp
  TxnId txn_id = 0;        ///< 0 = non-transactional
  int32_t txn_priority = 0;
  /// Stale reads at ts <= the closed timestamp may be served by any live
  /// replica instead of the leaseholder (Section 3.2.5: follower reads,
  /// used for META-range lookups during multi-region cold starts).
  bool allow_follower_reads = false;
  /// One-phase commit: the batch carries the transaction's entire write set
  /// (writes only, single range) and the server commits it atomically at a
  /// single timestamp, skipping the txn-record/intent dance. The response
  /// carries commit_ts on success or one_pc_rejected_ts when the commit
  /// timestamp had to move and can_forward_ts is false.
  bool commit_txn = false;
  /// With commit_txn: true iff the txn performed no reads, so the server
  /// may forward the commit timestamp past timestamp-cache/closed-timestamp
  /// constraints without a client-side read refresh.
  bool can_forward_ts = false;
  /// Range addressing from a client-side directory cache (0 = unaddressed;
  /// the server resolves keys through the directory as before). An
  /// addressed batch whose range no longer exists or no longer contains the
  /// batch's keys is rejected with RangeKeyMismatch so the client
  /// invalidates its cache entry and retries with a fresh descriptor —
  /// never silently served by the wrong range.
  RangeId range_id = 0;

  /// Optional request trace; stages below the connector (admission wait,
  /// replication, storage) record spans here. Never serialized — a real
  /// RPC would carry trace ids instead; the in-process graph can share the
  /// context directly.
  obs::TraceContext* trace = nullptr;

  std::vector<RequestUnion> requests;

  void AddGet(Slice key) { Add(RequestType::kGet, key); }
  void AddPut(Slice key, Slice value) {
    Add(RequestType::kPut, key).value = value.ToString();
  }
  void AddDelete(Slice key) { Add(RequestType::kDelete, key); }
  /// AddPut, or AddDelete when `tombstone`.
  void AddWrite(Slice key, Slice value, bool tombstone) {
    if (tombstone) return AddDelete(key);
    AddPut(key, value);
  }
  void AddScan(Slice start, Slice end, uint64_t limit = 0);
  /// Scan with a pushdown spec (see RequestUnion::pushdown).
  void AddScanWithPushdown(Slice start, Slice end, uint64_t limit,
                           Slice pushdown_spec);

  bool IsReadOnly() const;
  /// Total request payload bytes (keys + values) — eCPU model feature.
  size_t PayloadBytes() const;

  std::string Encode() const;
  static StatusOr<BatchRequest> Decode(Slice data);

 private:
  RequestUnion& Add(RequestType type, Slice key);
};

struct ResponseUnion {
  bool found = false;           ///< gets: value present
  std::string value;            ///< gets
  std::vector<MvccScanEntry> rows;  ///< scans
  std::string resume_key;       ///< scans: non-empty if limit hit
};

struct BatchResponse {
  std::vector<ResponseUnion> responses;
  /// Server-observed timestamp; clients fold into their HLC.
  Timestamp now;
  /// If the batch's writes were pushed above the request timestamp by the
  /// timestamp cache, the new write timestamp (txn must commit at or above).
  Timestamp bumped_write_ts;
  /// One-phase commit (BatchRequest::commit_txn): the timestamp the txn
  /// committed at. Empty if the batch was not a 1PC commit.
  Timestamp commit_ts;
  /// One-phase commit refusal: the commit timestamp would have to move here
  /// but the request forbade forwarding (can_forward_ts == false). Nothing
  /// was written; the client refreshes its read spans to this timestamp and
  /// retries (or falls back to the general commit path).
  Timestamp one_pc_rejected_ts;

  /// Total response payload bytes — eCPU model feature.
  size_t PayloadBytes() const;

  std::string Encode() const;
  static StatusOr<BatchResponse> Decode(Slice data);
};

}  // namespace veloce::kv

#endif  // VELOCE_KV_BATCH_H_
