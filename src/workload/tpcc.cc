#include "workload/tpcc.h"

#include <functional>

namespace veloce::workload {

namespace {
constexpr int kMaxTxnRetries = 8;

std::string I(int64_t v) { return std::to_string(v); }

bool Retryable(const Status& s) {
  return s.IsTransactionRetry() || s.IsWriteIntentError() ||
         s.code() == Code::kTransactionAborted;
}
}  // namespace

TpccWorkload::TpccWorkload(Options options, uint64_t seed,
                           const obs::ObsContext& obs)
    : options_(options), rng_(seed), metrics_(obs.metrics) {
  auto txn = [&](const char* kind) {
    return metrics_->counter("veloce_workload_tpcc_txns_total", {{"txn", kind}});
  };
  new_orders_c_ = txn("new_order");
  payments_c_ = txn("payment");
  order_statuses_c_ = txn("order_status");
  deliveries_c_ = txn("delivery");
  stock_levels_c_ = txn("stock_level");
  retries_c_ = metrics_->counter("veloce_workload_tpcc_retries_total");
  aborts_c_ = metrics_->counter("veloce_workload_tpcc_aborts_total");
}

const TpccWorkload::Stats& TpccWorkload::stats() const {
  stats_snapshot_.new_orders = new_orders_c_->value();
  stats_snapshot_.payments = payments_c_->value();
  stats_snapshot_.order_statuses = order_statuses_c_->value();
  stats_snapshot_.deliveries = deliveries_c_->value();
  stats_snapshot_.stock_levels = stock_levels_c_->value();
  stats_snapshot_.retries = retries_c_->value();
  stats_snapshot_.aborts = aborts_c_->value();
  return stats_snapshot_;
}

std::string TpccWorkload::LastName(int num) const {
  static const char* syllables[] = {"BAR", "OUGHT", "ABLE", "PRI",   "PRES",
                                    "ESE", "ANTI",  "CALLY", "ATION", "EING"};
  return std::string(syllables[(num / 100) % 10]) + syllables[(num / 10) % 10] +
         syllables[num % 10];
}

Status TpccWorkload::Setup(sql::Session* session) {
  const char* ddl[] = {
      "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name STRING, w_ytd DOUBLE)",
      "CREATE TABLE district (w_id INT, d_id INT, d_next_o_id INT, d_ytd DOUBLE, "
      "PRIMARY KEY (w_id, d_id))",
      "CREATE TABLE customer (w_id INT, d_id INT, c_id INT, c_last STRING, "
      "c_balance DOUBLE, c_ytd_payment DOUBLE, c_payment_cnt INT, "
      "PRIMARY KEY (w_id, d_id, c_id))",
      "CREATE TABLE item (i_id INT PRIMARY KEY, i_name STRING, i_price DOUBLE)",
      "CREATE TABLE stock (w_id INT, i_id INT, s_quantity INT, s_ytd INT, "
      "PRIMARY KEY (w_id, i_id))",
      "CREATE TABLE orders (w_id INT, d_id INT, o_id INT, o_c_id INT, "
      "o_ol_cnt INT, o_delivered INT, PRIMARY KEY (w_id, d_id, o_id))",
      "CREATE TABLE order_line (w_id INT, d_id INT, o_id INT, ol_number INT, "
      "ol_i_id INT, ol_quantity INT, ol_amount DOUBLE, "
      "PRIMARY KEY (w_id, d_id, o_id, ol_number))",
  };
  for (const char* stmt : ddl) {
    VELOCE_RETURN_IF_ERROR(session->Execute(stmt).status());
  }
  VELOCE_RETURN_IF_ERROR(
      session->Execute("CREATE INDEX customer_by_last ON customer (c_last)").status());

  for (int w = 1; w <= options_.warehouses; ++w) {
    VELOCE_RETURN_IF_ERROR(
        session->Execute("INSERT INTO warehouse VALUES (" + I(w) + ", 'wh" + I(w) +
                         "', 0.0)").status());
    for (int d = 1; d <= options_.districts_per_warehouse; ++d) {
      VELOCE_RETURN_IF_ERROR(
          session->Execute("INSERT INTO district VALUES (" + I(w) + ", " + I(d) +
                           ", 1, 0.0)").status());
      for (int c = 1; c <= options_.customers_per_district; ++c) {
        VELOCE_RETURN_IF_ERROR(
            session->Execute("INSERT INTO customer VALUES (" + I(w) + ", " + I(d) +
                             ", " + I(c) + ", '" + LastName(c % 1000) +
                             "', 0.0, 0.0, 0)").status());
      }
    }
    // Stock rows per warehouse, batched.
    for (int i = 1; i <= options_.items; i += 20) {
      std::string stmt = "INSERT INTO stock VALUES ";
      for (int j = i; j < i + 20 && j <= options_.items; ++j) {
        if (j > i) stmt += ", ";
        stmt += "(" + I(w) + ", " + I(j) + ", " +
                I(10 + static_cast<int>(rng_.Uniform(91))) + ", 0)";
      }
      VELOCE_RETURN_IF_ERROR(session->Execute(stmt).status());
    }
  }
  for (int i = 1; i <= options_.items; i += 20) {
    std::string stmt = "INSERT INTO item VALUES ";
    for (int j = i; j < i + 20 && j <= options_.items; ++j) {
      if (j > i) stmt += ", ";
      stmt += "(" + I(j) + ", 'item" + I(j) + "', " +
              I(1 + static_cast<int>(rng_.Uniform(100))) + ".5)";
    }
    VELOCE_RETURN_IF_ERROR(session->Execute(stmt).status());
  }
  return Status::OK();
}

Status TpccWorkload::RunInTxn(sql::Session* session,
                              const std::function<Status(sql::Session*)>& body) {
  Status last = Status::OK();
  for (int attempt = 0; attempt < kMaxTxnRetries; ++attempt) {
    VELOCE_RETURN_IF_ERROR(session->Execute("BEGIN").status());
    Status s = body(session);
    if (s.ok()) {
      s = session->Execute("COMMIT").status();
      if (s.ok()) return Status::OK();
    } else if (session->in_transaction()) {
      (void)session->Execute("ROLLBACK");
    }
    last = s;
    if (!Retryable(s)) return s;
    retries_c_->Inc();
  }
  aborts_c_->Inc();
  return last;
}

Status TpccWorkload::RunTransaction(sql::Session* session) {
  const uint64_t roll = rng_.Uniform(100);
  if (roll < 45) return NewOrder(session);
  if (roll < 88) return Payment(session);
  if (roll < 92) return OrderStatus(session);
  if (roll < 96) return Delivery(session);
  return StockLevel(session);
}

Status TpccWorkload::NewOrder(sql::Session* session) {
  const int w = RandomWarehouse(), d = RandomDistrict(), c = RandomCustomer();
  const int ol_cnt = 5 + static_cast<int>(rng_.Uniform(11));
  std::vector<int> item_ids;
  for (int i = 0; i < ol_cnt; ++i) item_ids.push_back(RandomItem());

  Status s = RunInTxn(session, [&](sql::Session* sess) -> Status {
    // Read and bump the district's next order id.
    VELOCE_ASSIGN_OR_RETURN(
        sql::ResultSet rs,
        sess->Execute("SELECT d_next_o_id FROM district WHERE w_id = " + I(w) +
                      " AND d_id = " + I(d)));
    if (rs.rows.empty()) return Status::NotFound("district missing");
    const int64_t o_id = rs.rows[0][0].int_value();
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("UPDATE district SET d_next_o_id = " + I(o_id + 1) +
                      " WHERE w_id = " + I(w) + " AND d_id = " + I(d)).status());
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("INSERT INTO orders VALUES (" + I(w) + ", " + I(d) + ", " +
                      I(o_id) + ", " + I(c) + ", " + I(ol_cnt) + ", 0)").status());
    for (int line = 0; line < ol_cnt; ++line) {
      const int item = item_ids[static_cast<size_t>(line)];
      VELOCE_ASSIGN_OR_RETURN(
          sql::ResultSet price_rs,
          sess->Execute("SELECT i_price FROM item WHERE i_id = " + I(item)));
      if (price_rs.rows.empty()) return Status::NotFound("item missing");
      const double price = price_rs.rows[0][0].AsDouble();
      const int qty = 1 + static_cast<int>(rng_.Uniform(10));
      VELOCE_ASSIGN_OR_RETURN(
          sql::ResultSet stock_rs,
          sess->Execute("SELECT s_quantity FROM stock WHERE w_id = " + I(w) +
                        " AND i_id = " + I(item)));
      if (stock_rs.rows.empty()) return Status::NotFound("stock missing");
      int64_t s_qty = stock_rs.rows[0][0].int_value();
      s_qty = s_qty > qty + 10 ? s_qty - qty : s_qty - qty + 91;
      VELOCE_RETURN_IF_ERROR(
          sess->Execute("UPDATE stock SET s_quantity = " + I(s_qty) +
                        ", s_ytd = s_ytd + " + I(qty) + " WHERE w_id = " + I(w) +
                        " AND i_id = " + I(item)).status());
      char amount[32];
      std::snprintf(amount, sizeof(amount), "%.2f", price * qty);
      VELOCE_RETURN_IF_ERROR(
          sess->Execute("INSERT INTO order_line VALUES (" + I(w) + ", " + I(d) +
                        ", " + I(o_id) + ", " + I(line + 1) + ", " + I(item) + ", " +
                        I(qty) + ", " + amount + ")").status());
    }
    return Status::OK();
  });
  if (s.ok()) new_orders_c_->Inc();
  return s;
}

Status TpccWorkload::Payment(sql::Session* session) {
  const int w = RandomWarehouse(), d = RandomDistrict();
  const double amount = 1.0 + static_cast<double>(rng_.Uniform(5000)) / 100.0;
  const bool by_last_name = rng_.Uniform(100) < 40;
  const int c = RandomCustomer();
  const std::string last = LastName(c % 1000);

  Status s = RunInTxn(session, [&](sql::Session* sess) -> Status {
    char amt[32];
    std::snprintf(amt, sizeof(amt), "%.2f", amount);
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("UPDATE warehouse SET w_ytd = w_ytd + " + std::string(amt) +
                      " WHERE w_id = " + I(w)).status());
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("UPDATE district SET d_ytd = d_ytd + " + std::string(amt) +
                      " WHERE w_id = " + I(w) + " AND d_id = " + I(d)).status());
    int64_t c_id = c;
    if (by_last_name) {
      // Spec: pick the middle customer by last name (via the secondary
      // index on c_last).
      VELOCE_ASSIGN_OR_RETURN(
          sql::ResultSet rs,
          sess->Execute("SELECT c_id FROM customer WHERE c_last = '" + last +
                        "' ORDER BY c_id"));
      if (!rs.rows.empty()) {
        c_id = rs.rows[rs.rows.size() / 2][0].int_value();
      }
    }
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("UPDATE customer SET c_balance = c_balance - " +
                      std::string(amt) + ", c_ytd_payment = c_ytd_payment + " + amt +
                      ", c_payment_cnt = c_payment_cnt + 1 WHERE w_id = " + I(w) +
                      " AND d_id = " + I(d) + " AND c_id = " + I(c_id)).status());
    return Status::OK();
  });
  if (s.ok()) payments_c_->Inc();
  return s;
}

Status TpccWorkload::OrderStatus(sql::Session* session) {
  const int w = RandomWarehouse(), d = RandomDistrict(), c = RandomCustomer();
  Status s = RunInTxn(session, [&](sql::Session* sess) -> Status {
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("SELECT c_balance FROM customer WHERE w_id = " + I(w) +
                      " AND d_id = " + I(d) + " AND c_id = " + I(c)).status());
    VELOCE_ASSIGN_OR_RETURN(
        sql::ResultSet rs,
        sess->Execute("SELECT o_id FROM orders WHERE w_id = " + I(w) +
                      " AND d_id = " + I(d) + " AND o_c_id = " + I(c) +
                      " ORDER BY o_id DESC LIMIT 1"));
    if (!rs.rows.empty()) {
      const int64_t o_id = rs.rows[0][0].int_value();
      VELOCE_RETURN_IF_ERROR(
          sess->Execute("SELECT ol_i_id, ol_quantity, ol_amount FROM order_line "
                        "WHERE w_id = " + I(w) + " AND d_id = " + I(d) +
                        " AND o_id = " + I(o_id)).status());
    }
    return Status::OK();
  });
  if (s.ok()) order_statuses_c_->Inc();
  return s;
}

Status TpccWorkload::Delivery(sql::Session* session) {
  const int w = RandomWarehouse();
  Status s = RunInTxn(session, [&](sql::Session* sess) -> Status {
    for (int d = 1; d <= options_.districts_per_warehouse; ++d) {
      VELOCE_ASSIGN_OR_RETURN(
          sql::ResultSet rs,
          sess->Execute("SELECT o_id FROM orders WHERE w_id = " + I(w) +
                        " AND d_id = " + I(d) + " AND o_delivered = 0 "
                        "ORDER BY o_id LIMIT 1"));
      if (rs.rows.empty()) continue;
      const int64_t o_id = rs.rows[0][0].int_value();
      VELOCE_RETURN_IF_ERROR(
          sess->Execute("UPDATE orders SET o_delivered = 1 WHERE w_id = " + I(w) +
                        " AND d_id = " + I(d) + " AND o_id = " + I(o_id)).status());
    }
    return Status::OK();
  });
  if (s.ok()) deliveries_c_->Inc();
  return s;
}

Status TpccWorkload::StockLevel(sql::Session* session) {
  const int w = RandomWarehouse(), d = RandomDistrict();
  Status s = RunInTxn(session, [&](sql::Session* sess) -> Status {
    VELOCE_RETURN_IF_ERROR(
        sess->Execute("SELECT COUNT(*) FROM stock WHERE w_id = " + I(w) +
                      " AND s_quantity < 15").status());
    (void)d;
    return Status::OK();
  });
  if (s.ok()) stock_levels_c_->Inc();
  return s;
}

}  // namespace veloce::workload
