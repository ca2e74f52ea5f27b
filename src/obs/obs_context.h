#ifndef VELOCE_OBS_OBS_CONTEXT_H_
#define VELOCE_OBS_OBS_CONTEXT_H_

#include "common/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace veloce::obs {

/// ObsContext bundles the three cross-cutting injection points — time,
/// metrics, and request tracing — that every instrumented component needs.
/// It replaces the old convention of passing a bare `Clock*` and reaching
/// for implicit globals: construct components with one ObsContext instead.
///
/// A default-constructed ObsContext is the no-op instance: real clock,
/// no shared registry, tracing off. Call sites that don't care stay terse
/// (`Engine::Open({...})`), and instrumented code never null-checks — it
/// resolves the context at construction time (`clock_or_real()`,
/// `obs::RegistryRef`).
struct ObsContext {
  /// Time source. Null means the process RealClock.
  Clock* clock = nullptr;
  /// Metric sink. Null means each component records into a private
  /// registry of its own (obs::RegistryRef), so per-instance readback still
  /// works but nothing is shared. Only Session and the SQL executor fall
  /// back to MetricsRegistry::Noop() instead (metrics_or_noop()).
  MetricsRegistry* metrics = nullptr;
  /// Trace sink. Null disables tracing (spans become no-ops).
  TraceCollector* traces = nullptr;

  Clock* clock_or_real() const {
    return clock != nullptr ? clock : RealClock::Instance();
  }
  MetricsRegistry* metrics_or_noop() const {
    return metrics != nullptr ? metrics : MetricsRegistry::Noop();
  }
  bool tracing_enabled() const { return traces != nullptr; }
};

}  // namespace veloce::obs

#endif  // VELOCE_OBS_OBS_CONTEXT_H_
