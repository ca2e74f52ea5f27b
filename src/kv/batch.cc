#include "kv/batch.h"

#include "common/codec.h"

namespace veloce::kv {

namespace {

void PutTimestamp(std::string* dst, Timestamp ts) {
  PutFixed64(dst, static_cast<uint64_t>(ts.wall));
  PutFixed32(dst, ts.logical);
}

bool GetTimestamp(Slice* in, Timestamp* ts) {
  uint64_t wall = 0;
  uint32_t logical = 0;
  if (!GetFixed64(in, &wall) || !GetFixed32(in, &logical)) return false;
  ts->wall = static_cast<Nanos>(wall);
  ts->logical = logical;
  return true;
}

}  // namespace

RequestUnion& BatchRequest::Add(RequestType type, Slice key) {
  RequestUnion& r = requests.emplace_back();
  r.type = type;
  r.key = key.ToString();
  return r;
}

void BatchRequest::AddScan(Slice start, Slice end, uint64_t limit) {
  AddScanWithPushdown(start, end, limit, Slice());
}

void BatchRequest::AddScanWithPushdown(Slice start, Slice end, uint64_t limit,
                                       Slice pushdown_spec) {
  RequestUnion& r = Add(RequestType::kScan, start);
  r.end_key = end.ToString();
  r.limit = limit;
  r.pushdown = pushdown_spec.ToString();
}

bool BatchRequest::IsReadOnly() const {
  for (const auto& r : requests) {
    if (r.IsWrite()) return false;
  }
  return true;
}

size_t BatchRequest::PayloadBytes() const {
  size_t total = 0;
  for (const auto& r : requests) {
    total += r.key.size() + r.end_key.size() + r.value.size();
  }
  return total;
}

std::string BatchRequest::Encode() const {
  std::string out;
  PutFixed64(&out, tenant_id);
  PutTimestamp(&out, ts);
  PutFixed64(&out, txn_id);
  PutFixed32(&out, static_cast<uint32_t>(txn_priority));
  uint8_t flags = 0;
  if (allow_follower_reads) flags |= 1;
  if (commit_txn) flags |= 2;
  if (can_forward_ts) flags |= 4;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, range_id);
  PutVarint64(&out, requests.size());
  for (const auto& r : requests) {
    out.push_back(static_cast<char>(r.type));
    PutLengthPrefixed(&out, r.key);
    PutLengthPrefixed(&out, r.end_key);
    PutLengthPrefixed(&out, r.value);
    PutVarint64(&out, r.limit);
    PutLengthPrefixed(&out, r.pushdown);
  }
  return out;
}

StatusOr<BatchRequest> BatchRequest::Decode(Slice data) {
  BatchRequest req;
  uint64_t count = 0;
  uint32_t prio = 0;
  if (!GetFixed64(&data, &req.tenant_id) || !GetTimestamp(&data, &req.ts) ||
      !GetFixed64(&data, &req.txn_id) || !GetFixed32(&data, &prio) ||
      data.empty()) {
    return Status::Corruption("bad batch request header");
  }
  const uint8_t flags = static_cast<uint8_t>(data[0]);
  req.allow_follower_reads = (flags & 1) != 0;
  req.commit_txn = (flags & 2) != 0;
  req.can_forward_ts = (flags & 4) != 0;
  data.RemovePrefix(1);
  if (!GetVarint64(&data, &req.range_id) || !GetVarint64(&data, &count)) {
    return Status::Corruption("bad batch request header");
  }
  req.txn_priority = static_cast<int32_t>(prio);
  req.requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (data.empty()) return Status::Corruption("truncated batch request");
    RequestUnion r;
    r.type = static_cast<RequestType>(data[0]);
    data.RemovePrefix(1);
    Slice key, end_key, value;
    Slice pushdown;
    if (!GetLengthPrefixed(&data, &key) || !GetLengthPrefixed(&data, &end_key) ||
        !GetLengthPrefixed(&data, &value) || !GetVarint64(&data, &r.limit) ||
        !GetLengthPrefixed(&data, &pushdown)) {
      return Status::Corruption("bad batch request entry");
    }
    r.key = key.ToString();
    r.end_key = end_key.ToString();
    r.value = value.ToString();
    r.pushdown = pushdown.ToString();
    req.requests.push_back(std::move(r));
  }
  return req;
}

size_t BatchResponse::PayloadBytes() const {
  size_t total = 0;
  for (const auto& r : responses) {
    total += r.value.size();
    for (const auto& row : r.rows) total += row.key.size() + row.value.size();
  }
  return total;
}

std::string BatchResponse::Encode() const {
  std::string out;
  PutTimestamp(&out, now);
  PutTimestamp(&out, bumped_write_ts);
  PutTimestamp(&out, commit_ts);
  PutTimestamp(&out, one_pc_rejected_ts);
  PutVarint64(&out, responses.size());
  for (const auto& r : responses) {
    out.push_back(r.found ? 1 : 0);
    PutLengthPrefixed(&out, r.value);
    PutLengthPrefixed(&out, r.resume_key);
    PutVarint64(&out, r.rows.size());
    for (const auto& row : r.rows) {
      PutLengthPrefixed(&out, row.key);
      PutLengthPrefixed(&out, row.value);
    }
  }
  return out;
}

StatusOr<BatchResponse> BatchResponse::Decode(Slice data) {
  BatchResponse resp;
  uint64_t count = 0;
  if (!GetTimestamp(&data, &resp.now) || !GetTimestamp(&data, &resp.bumped_write_ts) ||
      !GetTimestamp(&data, &resp.commit_ts) ||
      !GetTimestamp(&data, &resp.one_pc_rejected_ts) ||
      !GetVarint64(&data, &count)) {
    return Status::Corruption("bad batch response header");
  }
  resp.responses.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (data.empty()) return Status::Corruption("truncated batch response");
    ResponseUnion r;
    r.found = data[0] != 0;
    data.RemovePrefix(1);
    Slice value, resume;
    uint64_t rows = 0;
    if (!GetLengthPrefixed(&data, &value) || !GetLengthPrefixed(&data, &resume) ||
        !GetVarint64(&data, &rows)) {
      return Status::Corruption("bad batch response entry");
    }
    r.value = value.ToString();
    r.resume_key = resume.ToString();
    r.rows.reserve(rows);
    for (uint64_t j = 0; j < rows; ++j) {
      Slice k, v;
      if (!GetLengthPrefixed(&data, &k) || !GetLengthPrefixed(&data, &v)) {
        return Status::Corruption("bad batch response row");
      }
      r.rows.push_back({k.ToString(), v.ToString()});
    }
    resp.responses.push_back(std::move(r));
  }
  return resp;
}

}  // namespace veloce::kv
