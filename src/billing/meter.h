#ifndef VELOCE_BILLING_METER_H_
#define VELOCE_BILLING_METER_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "billing/ecpu_model.h"
#include "common/clock.h"
#include "obs/obs_context.h"

namespace veloce::billing {

/// One tenant's consumption over an accounting interval, in the units the
/// product bills (Section 7: eCPU replaced Request Units; network and disk
/// I/O are itemized separately for transparency).
struct UsageReport {
  double sql_cpu_seconds = 0;     ///< measured directly (single-tenant process)
  double kv_cpu_seconds = 0;      ///< modeled from the six features
  double ecpu_seconds = 0;        ///< sql + kv
  double request_units = 0;       ///< legacy metric, for comparison
  double egress_bytes = 0;        ///< read bytes returned to the tenant
  double write_bytes = 0;         ///< payload bytes ingested
  Nanos interval = 0;

  /// Average eCPU rate in vCPUs over the interval.
  double ecpu_vcpus() const {
    return interval > 0 ? ecpu_seconds / (static_cast<double>(interval) / kSecond)
                        : 0;
  }
};

/// TenantMeter turns raw per-SQL-node observations (measured SQL CPU +
/// KV-API feature counts) into billable usage, per tenant per interval —
/// the accounting half of Section 5.2 (the token bucket enforces; this
/// reports). Thread-safe.
class TenantMeter {
 public:
  /// `obs` wires the meter's `veloce_billing_*` usage series (labelled
  /// tenant=<id>) into a shared registry; null metrics = private registry.
  TenantMeter(Clock* clock, EstimatedCpuModel model,
              const obs::ObsContext& obs = {});

  /// Records one observation window from a tenant's SQL node: the features
  /// its connector accumulated and the SQL CPU it measured.
  void Record(uint64_t tenant_id, const IntervalFeatures& features,
              double sql_cpu_seconds);

  /// Usage since the last Cut() (or construction).
  UsageReport Current(uint64_t tenant_id) const;

  /// Closes the interval for a tenant: returns the final report and starts
  /// a new interval (what the billing pipeline persists).
  UsageReport Cut(uint64_t tenant_id);

  const EstimatedCpuModel& model() const { return model_; }

 private:
  struct TenantWindow {
    IntervalFeatures features;
    double sql_cpu_seconds = 0;
    Nanos window_start = 0;
  };

  UsageReport BuildReportLocked(const TenantWindow& window) const;

  Clock* clock_;
  EstimatedCpuModel model_;
  obs::RegistryRef metrics_;
  obs::Counter* cuts_c_ = nullptr;
  mutable std::mutex mu_;
  std::map<uint64_t, TenantWindow> windows_;
};

}  // namespace veloce::billing

#endif  // VELOCE_BILLING_METER_H_
