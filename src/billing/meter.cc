#include "billing/meter.h"

namespace veloce::billing {

TenantMeter::TenantMeter(Clock* clock, EstimatedCpuModel model,
                         const obs::ObsContext& obs)
    : clock_(clock), model_(std::move(model)), metrics_(obs.metrics) {
  cuts_c_ = metrics_->counter("veloce_billing_interval_cuts_total");
}

void TenantMeter::Record(uint64_t tenant_id, const IntervalFeatures& features,
                         double sql_cpu_seconds) {
  std::lock_guard<std::mutex> l(mu_);
  auto [it, inserted] = windows_.try_emplace(tenant_id);
  TenantWindow& window = it->second;
  if (inserted) window.window_start = clock_->Now();
  window.features.read_batches += features.read_batches;
  window.features.read_requests += features.read_requests;
  window.features.read_bytes += features.read_bytes;
  window.features.write_batches += features.write_batches;
  window.features.write_requests += features.write_requests;
  window.features.write_bytes += features.write_bytes;
  window.sql_cpu_seconds += sql_cpu_seconds;
}

UsageReport TenantMeter::BuildReportLocked(const TenantWindow& window) const {
  UsageReport report;
  report.interval = clock_->Now() - window.window_start;
  const double secs =
      report.interval > 0 ? static_cast<double>(report.interval) / kSecond : 1.0;
  report.sql_cpu_seconds = window.sql_cpu_seconds;
  report.kv_cpu_seconds = model_.EstimateKvCpuSeconds(window.features, secs);
  report.ecpu_seconds = report.sql_cpu_seconds + report.kv_cpu_seconds;
  report.request_units = EcpuSecondsToRequestUnits(report.ecpu_seconds);
  report.egress_bytes = window.features.read_bytes;
  report.write_bytes = window.features.write_bytes;
  return report;
}

UsageReport TenantMeter::Current(uint64_t tenant_id) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = windows_.find(tenant_id);
  if (it == windows_.end()) return UsageReport{};
  return BuildReportLocked(it->second);
}

UsageReport TenantMeter::Cut(uint64_t tenant_id) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = windows_.find(tenant_id);
  if (it == windows_.end()) return UsageReport{};
  UsageReport report = BuildReportLocked(it->second);
  it->second = TenantWindow{};
  it->second.window_start = clock_->Now();
  cuts_c_->Inc();
  // Running billable totals per tenant (double-valued, hence gauges).
  const obs::Labels labels = {{"tenant", std::to_string(tenant_id)}};
  metrics_->gauge("veloce_billing_ecpu_seconds_total", labels)
      ->Add(report.ecpu_seconds);
  metrics_->gauge("veloce_billing_request_units_total", labels)
      ->Add(report.request_units);
  metrics_->gauge("veloce_billing_egress_bytes_total", labels)
      ->Add(report.egress_bytes);
  metrics_->gauge("veloce_billing_write_bytes_total", labels)
      ->Add(report.write_bytes);
  return report;
}

}  // namespace veloce::billing
