#ifndef VELOCE_WORKLOAD_TPCC_H_
#define VELOCE_WORKLOAD_TPCC_H_

#include <memory>
#include <string>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/obs_context.h"
#include "sql/session.h"

namespace veloce::workload {

/// TPC-C-lite: the standard transaction mix (45% NewOrder, 43% Payment, 4%
/// OrderStatus, 4% Delivery, 4% StockLevel) over the canonical schema,
/// scaled down for laptop-scale runs. Used as the paper uses it: an OLTP
/// load shape for the efficiency comparison (Fig 6), the noisy-neighbor
/// experiments (Table 1, Figs 12-13), and connection-migration impact
/// (Fig 9) — not for audited tpmC results.
class TpccWorkload {
 public:
  struct Options {
    int warehouses = 2;
    int districts_per_warehouse = 2;   ///< spec: 10
    int customers_per_district = 30;   ///< spec: 3000
    int items = 100;                   ///< spec: 100000
  };

  /// Snapshot view over the workload's `veloce_workload_tpcc_*` counters
  /// (see stats()).
  struct Stats {
    uint64_t new_orders = 0;   ///< committed NewOrder txns (the tpmC numerator)
    uint64_t payments = 0;
    uint64_t order_statuses = 0;
    uint64_t deliveries = 0;
    uint64_t stock_levels = 0;
    uint64_t retries = 0;      ///< retryable errors absorbed
    uint64_t aborts = 0;       ///< transactions given up after retries

    uint64_t committed() const {
      return new_orders + payments + order_statuses + deliveries + stock_levels;
    }
  };

  /// `obs.metrics` receives the workload's counters (null = private
  /// registry, so stats() stays per-instance-correct either way).
  TpccWorkload(Options options, uint64_t seed, const obs::ObsContext& obs = {});

  /// Creates the schema (with the customer last-name secondary index) and
  /// loads the initial population.
  Status Setup(sql::Session* session);

  /// Runs one transaction from the standard mix. Retryable errors are
  /// retried a few times internally.
  Status RunTransaction(sql::Session* session);

  Status NewOrder(sql::Session* session);
  Status Payment(sql::Session* session);
  Status OrderStatus(sql::Session* session);
  Status Delivery(sql::Session* session);
  Status StockLevel(sql::Session* session);

  /// Current values of the workload counters, materialized as a snapshot.
  const Stats& stats() const;
  const Options& options() const { return options_; }

 private:
  /// Runs `body` in an explicit transaction with bounded retries.
  Status RunInTxn(sql::Session* session,
                  const std::function<Status(sql::Session*)>& body);
  std::string LastName(int num) const;
  int RandomWarehouse() { return static_cast<int>(rng_.Uniform(options_.warehouses)) + 1; }
  int RandomDistrict() {
    return static_cast<int>(rng_.Uniform(options_.districts_per_warehouse)) + 1;
  }
  int RandomCustomer() {
    return static_cast<int>(rng_.Uniform(options_.customers_per_district)) + 1;
  }
  int RandomItem() { return static_cast<int>(rng_.Uniform(options_.items)) + 1; }

  Options options_;
  Random rng_;
  obs::RegistryRef metrics_;
  obs::Counter* new_orders_c_ = nullptr;
  obs::Counter* payments_c_ = nullptr;
  obs::Counter* order_statuses_c_ = nullptr;
  obs::Counter* deliveries_c_ = nullptr;
  obs::Counter* stock_levels_c_ = nullptr;
  obs::Counter* retries_c_ = nullptr;
  obs::Counter* aborts_c_ = nullptr;
  mutable Stats stats_snapshot_;
};

}  // namespace veloce::workload

#endif  // VELOCE_WORKLOAD_TPCC_H_
