#include "workload/ycsb.h"

#include <cstdio>

namespace veloce::workload {

YcsbWorkload::YcsbWorkload(Options options, uint64_t seed,
                           const obs::ObsContext& obs)
    : options_(options),
      rng_(seed),
      zipf_(static_cast<uint64_t>(options.record_count), options.zipf_theta, seed ^ 0x5555),
      inserted_(static_cast<uint64_t>(options.record_count)),
      metrics_(obs.metrics) {
  auto op = [&](const char* kind) {
    return metrics_->counter("veloce_workload_ycsb_ops_total", {{"op", kind}});
  };
  reads_c_ = op("read");
  updates_c_ = op("update");
  inserts_c_ = op("insert");
  scans_c_ = op("scan");
  rmws_c_ = op("rmw");
  errors_c_ = metrics_->counter("veloce_workload_ycsb_errors_total");
}

const YcsbWorkload::Stats& YcsbWorkload::stats() const {
  stats_snapshot_.reads = reads_c_->value();
  stats_snapshot_.updates = updates_c_->value();
  stats_snapshot_.inserts = inserts_c_->value();
  stats_snapshot_.scans = scans_c_->value();
  stats_snapshot_.rmws = rmws_c_->value();
  stats_snapshot_.errors = errors_c_->value();
  return stats_snapshot_;
}

std::string YcsbWorkload::MixName(Mix mix) {
  switch (mix) {
    case Mix::kA: return "A (50/50 read/update)";
    case Mix::kB: return "B (95/5 read/update)";
    case Mix::kC: return "C (read only)";
    case Mix::kD: return "D (read latest)";
    case Mix::kE: return "E (scans)";
    case Mix::kF: return "F (read-modify-write)";
  }
  return "?";
}

std::string YcsbWorkload::Key(uint64_t n) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu", static_cast<unsigned long long>(n));
  return buf;
}

uint64_t YcsbWorkload::NextKeyIndex() {
  if (options_.mix == Mix::kD) {
    // Read-latest: favor recently inserted keys.
    const uint64_t offset = zipf_.Next() % inserted_;
    return inserted_ - 1 - offset;
  }
  return zipf_.Next() % inserted_;
}

Status YcsbWorkload::Setup(sql::Session* session) {
  VELOCE_RETURN_IF_ERROR(
      session->Execute("CREATE TABLE usertable (ycsb_key STRING PRIMARY KEY, "
                       "field0 STRING, field1 STRING, field2 STRING, field3 STRING)")
          .status());
  for (int i = 0; i < options_.record_count; i += 25) {
    std::string stmt = "INSERT INTO usertable VALUES ";
    for (int j = i; j < i + 25 && j < options_.record_count; ++j) {
      if (j > i) stmt += ", ";
      stmt += "('" + Key(static_cast<uint64_t>(j)) + "'";
      for (int f = 0; f < 4; ++f) {
        stmt += ", '" + rng_.String(static_cast<size_t>(options_.field_bytes)) + "'";
      }
      stmt += ")";
    }
    VELOCE_RETURN_IF_ERROR(session->Execute(stmt).status());
  }
  return Status::OK();
}

Status YcsbWorkload::RunOp(sql::Session* session) {
  const uint64_t roll = rng_.Uniform(100);
  bool is_read = false, is_update = false, is_insert = false, is_scan = false,
       is_rmw = false;
  switch (options_.mix) {
    case Mix::kA: (roll < 50 ? is_read : is_update) = true; break;
    case Mix::kB: (roll < 95 ? is_read : is_update) = true; break;
    case Mix::kC: is_read = true; break;
    case Mix::kD: (roll < 95 ? is_read : is_insert) = true; break;
    case Mix::kE: (roll < 95 ? is_scan : is_insert) = true; break;
    case Mix::kF: (roll < 50 ? is_read : is_rmw) = true; break;
  }

  Status s;
  if (is_read) {
    s = session->Execute("SELECT * FROM usertable WHERE ycsb_key = '" +
                         Key(NextKeyIndex()) + "'").status();
    if (s.ok()) reads_c_->Inc();
  } else if (is_update) {
    s = session->Execute("UPDATE usertable SET field" +
                         std::to_string(rng_.Uniform(4)) + " = '" +
                         rng_.String(static_cast<size_t>(options_.field_bytes)) +
                         "' WHERE ycsb_key = '" + Key(NextKeyIndex()) + "'").status();
    if (s.ok()) updates_c_->Inc();
  } else if (is_insert) {
    std::string stmt = "INSERT INTO usertable VALUES ('" + Key(inserted_) + "'";
    for (int f = 0; f < 4; ++f) {
      stmt += ", '" + rng_.String(static_cast<size_t>(options_.field_bytes)) + "'";
    }
    stmt += ")";
    s = session->Execute(stmt).status();
    if (s.ok()) {
      ++inserted_;
      inserts_c_->Inc();
    }
  } else if (is_scan) {
    s = session->Execute("SELECT * FROM usertable WHERE ycsb_key >= '" +
                         Key(NextKeyIndex()) + "' LIMIT " +
                         std::to_string(options_.scan_limit)).status();
    if (s.ok()) scans_c_->Inc();
  } else if (is_rmw) {
    const std::string key = Key(NextKeyIndex());
    s = session->Execute("SELECT * FROM usertable WHERE ycsb_key = '" + key + "'")
            .status();
    if (s.ok()) {
      s = session->Execute("UPDATE usertable SET field0 = '" +
                           rng_.String(static_cast<size_t>(options_.field_bytes)) +
                           "' WHERE ycsb_key = '" + key + "'").status();
    }
    if (s.ok()) rmws_c_->Inc();
  }
  if (!s.ok()) errors_c_->Inc();
  return s;
}

Status RunImport(sql::Session* session, const std::string& table, int rows,
                 int row_bytes, uint64_t seed) {
  Random rng(seed);
  VELOCE_RETURN_IF_ERROR(
      session->Execute("CREATE TABLE " + table +
                       " (id INT PRIMARY KEY, payload STRING)").status());
  const int per_field = row_bytes > 16 ? row_bytes - 16 : 1;
  for (int i = 0; i < rows; i += 50) {
    std::string stmt = "INSERT INTO " + table + " VALUES ";
    for (int j = i; j < i + 50 && j < rows; ++j) {
      if (j > i) stmt += ", ";
      stmt += "(" + std::to_string(j) + ", '" +
              rng.String(static_cast<size_t>(per_field)) + "')";
    }
    VELOCE_RETURN_IF_ERROR(session->Execute(stmt).status());
  }
  return Status::OK();
}

}  // namespace veloce::workload
