#ifndef VELOCE_ADMISSION_CONTROLLER_H_
#define VELOCE_ADMISSION_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "admission/cpu_controller.h"
#include "admission/work_queue.h"
#include "admission/write_controller.h"
#include "obs/obs_context.h"
#include "obs/trace.h"
#include "sim/event_loop.h"
#include "sim/virtual_cpu.h"
#include "storage/engine.h"

namespace veloce::admission {

/// One unit of KV work submitted for admission.
struct KvWork {
  uint64_t tenant_id = 0;
  int32_t priority = 0;
  Nanos txn_start = 0;
  Nanos deadline = 0;          ///< 0 = none
  bool is_write = false;
  uint64_t write_bytes = 0;    ///< payload bytes for the write model
  Nanos cpu_cost = 0;          ///< CPU the operation will consume
  /// Optional request trace; the controller records the admission-queue
  /// wait into it (span "admission_queue").
  obs::TraceContext* trace = nullptr;
  std::function<void()> done;  ///< fires (on the loop) when work completes
};

/// Per-node admission control (Section 5.1): write operations pass the
/// write-bandwidth queue (WQ) and then the CPU queue (CQ); reads pass only
/// the CQ. Admitted operations execute on the node's simulated CPU; slots
/// return when they finish. Long operations are sliced so no single op
/// monopolizes a slot (cooperative resumption markers).
///
/// Drive entirely from one sim::EventLoop.
class NodeAdmissionController {
 public:
  struct Options {
    int vcpus = 32;
    bool enabled = true;
    /// When false, no periodic tasks (sampler / WQ pump / decayer) are
    /// started, so the sim event queue can drain — for hosts that call
    /// loop.Run() and admit only via AdmitSync (the serverless facade).
    bool background_tasks = true;
    Nanos sample_period = kMilli;         ///< 1000 Hz runnable-queue sampling
    Nanos wq_pump_period = 10 * kMilli;
    Nanos decay_period = kSecond;         ///< fairness window decay
    Nanos max_slice_cpu = 10 * kMilli;    ///< cooperative yield threshold
    /// Telemetry injection; null metrics = private registry. When several
    /// controllers share a registry, set a distinct `instance` per
    /// controller (exported as label node=...).
    obs::ObsContext obs;
    std::string instance;
  };

  NodeAdmissionController(sim::EventLoop* loop, sim::VirtualCpu* cpu,
                          Options options);

  void Submit(KvWork work);

  /// Synchronous admission for callers that cannot yield to the event loop
  /// (the in-process SQL execution path): consults the WQ token bucket and
  /// the CPU slots, charges fairness counters, and returns a *modeled*
  /// queueing delay instead of actually parking the caller. The delay is
  /// recorded in admission metrics and, when `work.trace` is set, as an
  /// "admission_queue" span.
  Nanos AdmitSync(const KvWork& work);

  bool enabled() const { return options_.enabled; }
  /// Feeds fresh engine counters into the write token bucket's capacity
  /// estimation (call on the 15 s cadence, or whenever stats refresh).
  void UpdateWriteCapacity(const storage::EngineStats& stats, int l0_files);

  const CpuSlotController& slots() const { return slots_; }
  const WriteTokenBucket& write_bucket() const { return write_bucket_; }
  LinearWriteModel* write_model() { return &write_model_; }
  size_t cq_queued() const { return cq_.queued(); }
  size_t wq_queued() const { return wq_.queued(); }
  uint64_t tenant_cpu_consumed(uint64_t tenant) const { return cq_.consumption(tenant); }
  /// Registry holding this controller's `veloce_admission_*` series.
  obs::MetricsRegistry* metrics() const { return metrics_.get(); }

 private:
  void InitMetrics();
  void EnqueueCq(KvWork work);
  void DispatchCq();
  void PumpWq();
  void RunSlice(std::shared_ptr<KvWork> work, Nanos remaining);

  sim::EventLoop* loop_;
  sim::VirtualCpu* cpu_;
  Options options_;
  TenantFairQueue cq_;
  TenantFairQueue wq_;
  CpuSlotController slots_;
  WriteTokenBucket write_bucket_;
  LinearWriteModel write_model_;
  std::unique_ptr<sim::PeriodicTask> sampler_;
  std::unique_ptr<sim::PeriodicTask> wq_pump_;
  std::unique_ptr<sim::PeriodicTask> decayer_;

  obs::RegistryRef metrics_;
  obs::Counter* admitted_c_ = nullptr;
  obs::Counter* wq_throttled_c_ = nullptr;
  obs::Counter* slices_c_ = nullptr;
  obs::HistogramMetric* queue_wait_h_ = nullptr;
  obs::MetricsRegistry::CallbackToken gauge_cb_;
};

}  // namespace veloce::admission

#endif  // VELOCE_ADMISSION_CONTROLLER_H_
