#ifndef VELOCE_SIM_VIRTUAL_CPU_H_
#define VELOCE_SIM_VIRTUAL_CPU_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "obs/obs_context.h"
#include "sim/event_loop.h"

namespace veloce::sim {

/// Models the CPU of one node (VM) under simulation.
///
/// This is the stand-in for the Go runtime instrumentation the paper relies
/// on (Section 5.1.3): tasks are single-threaded units of work with a known
/// CPU demand; the scheduler shares `vcpus` processors among runnable tasks
/// (processor sharing, quantized). It exposes exactly the signals admission
/// control and the autoscaler consume in production:
///  * the runnable queue length (tasks waiting beyond available vCPUs),
///    sampled by the CPU slot controller at 1000 Hz;
///  * cumulative busy cpu-nanoseconds, total and per tenant, which metric
///    scrapers diff over their polling window.
class VirtualCpu {
 public:
  using TaskId = uint64_t;

  /// quantum is the scheduling granularity; smaller is more precise and
  /// slower to simulate. `obs` wires the CPU's `veloce_sim_*` series into a
  /// shared registry (null metrics = private registry); `instance`
  /// distinguishes CPUs sharing a registry (exported as label node=...).
  VirtualCpu(EventLoop* loop, int vcpus, Nanos quantum = kMilli,
             const obs::ObsContext& obs = {}, std::string instance = "");

  VirtualCpu(const VirtualCpu&) = delete;
  VirtualCpu& operator=(const VirtualCpu&) = delete;

  /// Submits a task that needs `cpu_demand` nanoseconds of CPU. `on_done`
  /// fires on the event loop when the task finishes. Tenant attribution is
  /// by the caller-supplied id (0 = system / untracked).
  TaskId Submit(uint64_t tenant_id, Nanos cpu_demand, std::function<void()> on_done);

  int vcpus() const { return vcpus_; }
  /// Number of tasks currently wanting CPU.
  int active_tasks() const { return static_cast<int>(tasks_.size()); }
  /// Tasks beyond the processor count — the scheduler's runnable queue.
  int runnable_queue_length() const {
    const int extra = active_tasks() - vcpus_;
    return extra > 0 ? extra : 0;
  }

  /// Cumulative busy cpu-nanoseconds since construction.
  Nanos total_busy() const { return total_busy_; }
  /// Cumulative busy cpu-nanoseconds attributed to `tenant_id`.
  Nanos tenant_busy(uint64_t tenant_id) const;

  /// Average utilization in [0, 1] over [since, now] given a previous
  /// total_busy() snapshot taken at `since`.
  double UtilizationSince(Nanos since, Nanos busy_snapshot) const;

 private:
  struct Task {
    uint64_t tenant_id;
    Nanos remaining;
    std::function<void()> on_done;
  };

  void EnsureTicking();
  void Tick(Nanos elapsed);

  EventLoop* loop_;
  const int vcpus_;
  const Nanos quantum_;
  bool ticking_ = false;
  Nanos last_tick_ = 0;
  TaskId next_id_ = 1;
  std::map<TaskId, Task> tasks_;
  Nanos total_busy_ = 0;
  std::unordered_map<uint64_t, Nanos> tenant_busy_;

  obs::RegistryRef metrics_;
  obs::HistogramMetric* runnable_h_ = nullptr;  ///< per-tick queue samples
  obs::MetricsRegistry::CallbackToken gauge_cb_;
};

}  // namespace veloce::sim

#endif  // VELOCE_SIM_VIRTUAL_CPU_H_
