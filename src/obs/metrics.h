#ifndef VELOCE_OBS_METRICS_H_
#define VELOCE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace veloce::obs {

/// Label pairs identifying one series of a metric, e.g.
/// {{"tenant", "42"}, {"node", "0"}}. Registration sorts them by key, so
/// label order at the call site does not matter for dedup.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter. Hot-path increments are a single
/// relaxed atomic add — safe to call from any thread with no locking.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous value that can go up and down (queue depths, slot counts,
/// token levels). Doubles so billing-style fractional quantities fit.
/// Set/Add are lock-free (compare-exchange loop for Add).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0};
};

/// Distribution metric wrapping common::Histogram (which is not
/// thread-safe) behind a small mutex. Record() is the only hot path; the
/// lock is uncontended in the single-threaded sim benches.
class HistogramMetric {
 public:
  void Record(int64_t value_ns) {
    std::lock_guard<std::mutex> l(mu_);
    hist_.Record(value_ns);
  }
  /// Copy-out snapshot for quantile queries and exports.
  Histogram Snapshot() const {
    std::lock_guard<std::mutex> l(mu_);
    return hist_;
  }

 private:
  friend class MetricsRegistry;
  HistogramMetric() = default;
  mutable std::mutex mu_;
  Histogram hist_;
};

/// One exported series in a registry snapshot.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  double value = 0;  ///< counter/gauge value; histogram count
  Histogram hist;    ///< histograms only
};

/// MetricsRegistry is the process-wide (or per-component-graph) metric
/// namespace: every instrumented component registers typed handles against
/// one of these at construction and increments them on its hot paths.
///
/// Dedup: counter/gauge/histogram with the same (name, labels) returns the
/// same handle, so two components feeding "the same series" share storage.
/// Handles are stable for the registry's lifetime.
///
/// Naming convention (docs/OBSERVABILITY.md): `veloce_<module>_<name>`,
/// with units suffixed (`_bytes`, `_seconds`, `_total` for counters).
///
/// Thread-safe. Registration takes a mutex; increments on returned handles
/// are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Typed handle factories. The returned pointer is owned by the registry
  /// and valid for its lifetime.
  Counter* counter(std::string_view name, Labels labels = {});
  Gauge* gauge(std::string_view name, Labels labels = {});
  HistogramMetric* histogram(std::string_view name, Labels labels = {});

  /// Pull-style instrumentation: `fn` runs before every Snapshot()/export
  /// (and Value() lookup), typically to refresh gauges from component
  /// state. Destroy the returned token to unregister — components that can
  /// die before the registry must hold it as a member.
  using CallbackToken = std::shared_ptr<void>;
  [[nodiscard]] CallbackToken AddCollectCallback(std::function<void()> fn);

  /// All current series, sorted by (name, labels). Runs collect callbacks.
  std::vector<MetricSample> Snapshot() const;

  /// Prometheus text exposition format (counters/gauges as-is; histograms
  /// as _count/_sum plus quantile gauges — the sim has no scrape loop, so
  /// precomputed quantiles beat cumulative buckets for readability).
  std::string ExportPrometheus() const;

  /// JSON export consumed by benches: an array of
  /// {"name":..., "labels":{...}, "kind":..., "value":...} objects, with
  /// p50/p95/p99/mean/count for histograms.
  std::string ExportJson() const;

  /// Convenience lookups for benches/tests. Missing series read as 0.
  /// Runs collect callbacks (so callback-fed gauges are fresh).
  double Value(std::string_view name, const Labels& labels = {}) const;
  /// Sum of every series of `name` regardless of labels.
  double Sum(std::string_view name) const;
  /// Number of registered series (all kinds).
  size_t NumSeries() const;

  /// Shared fallback registry for components constructed without one; never
  /// exported. Prefer injecting a real registry: series from unrelated
  /// component instances collide here, so per-instance reads are only
  /// meaningful on a private or properly-labelled registry.
  static MetricsRegistry* Noop();

 private:
  struct SeriesKey {
    std::string name;
    Labels labels;
    bool operator<(const SeriesKey& other) const {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };

  static Labels Canonical(Labels labels);
  void RunCallbacksLocked() const;

  mutable std::mutex mu_;
  // Handles live in deques of unique_ptr so pointers stay stable.
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
  std::map<SeriesKey, std::unique_ptr<HistogramMetric>> histograms_;
  std::map<uint64_t, std::function<void()>> callbacks_;
  uint64_t next_callback_id_ = 1;
};

/// A component's metric sink: the injected registry, else a private one
/// this handle owns, so a component built without injection still reads
/// back its own series per instance. Components that register collect
/// callbacks declare their token after this member.
class RegistryRef {
 public:
  explicit RegistryRef(MetricsRegistry* injected)
      : owned_(injected == nullptr ? std::make_unique<MetricsRegistry>() : nullptr),
        registry_(injected != nullptr ? injected : owned_.get()) {}
  RegistryRef(const RegistryRef&) = delete;
  RegistryRef& operator=(const RegistryRef&) = delete;

  MetricsRegistry* get() const { return registry_; }
  MetricsRegistry* operator->() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

}  // namespace veloce::obs

#endif  // VELOCE_OBS_METRICS_H_
