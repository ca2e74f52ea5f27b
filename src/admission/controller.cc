#include "admission/controller.h"

#include <algorithm>

namespace veloce::admission {

namespace {
/// Upper bound on the modeled synchronous-admission delay: an uncalibrated
/// or badly backlogged bucket must not stall a request forever.
constexpr Nanos kMaxModeledWait = 2 * kSecond;
}  // namespace

NodeAdmissionController::NodeAdmissionController(sim::EventLoop* loop,
                                                 sim::VirtualCpu* cpu,
                                                 Options options)
    : loop_(loop),
      cpu_(cpu),
      options_(std::move(options)),
      cq_(loop->clock()),
      wq_(loop->clock()),
      slots_({.vcpus = options_.vcpus}),
      write_bucket_(loop->clock()),
      metrics_(options_.obs.metrics) {
  InitMetrics();
  if (options_.enabled && options_.background_tasks) {
    sampler_ = std::make_unique<sim::PeriodicTask>(loop_, options_.sample_period, [this] {
      slots_.Sample(cpu_->runnable_queue_length(), !cq_.empty());
      DispatchCq();
    });
    sampler_->Start();
    wq_pump_ = std::make_unique<sim::PeriodicTask>(loop_, options_.wq_pump_period,
                                                   [this] { PumpWq(); });
    wq_pump_->Start();
    decayer_ = std::make_unique<sim::PeriodicTask>(loop_, options_.decay_period, [this] {
      cq_.Decay();
      wq_.Decay();
    });
    decayer_->Start();
  }
}

void NodeAdmissionController::InitMetrics() {
  obs::Labels labels;
  if (!options_.instance.empty()) labels.push_back({"node", options_.instance});
  admitted_c_ = metrics_->counter("veloce_admission_admitted_total", labels);
  wq_throttled_c_ = metrics_->counter("veloce_admission_wq_throttled_total", labels);
  slices_c_ = metrics_->counter("veloce_admission_slices_total", labels);
  queue_wait_h_ = metrics_->histogram("veloce_admission_queue_wait_ns", labels);
  gauge_cb_ = metrics_->AddCollectCallback([this, labels] {
    metrics_->gauge("veloce_admission_cq_depth", labels)
        ->Set(static_cast<double>(cq_.queued()));
    metrics_->gauge("veloce_admission_wq_depth", labels)
        ->Set(static_cast<double>(wq_.queued()));
    metrics_->gauge("veloce_admission_total_slots", labels)
        ->Set(slots_.total_slots());
    metrics_->gauge("veloce_admission_used_slots", labels)
        ->Set(slots_.used_slots());
    metrics_->gauge("veloce_admission_wq_tokens", labels)
        ->Set(write_bucket_.tokens());
    metrics_->gauge("veloce_admission_wq_refill_bytes_per_sec", labels)
        ->Set(write_bucket_.refill_bytes_per_sec());
  });
}

void NodeAdmissionController::Submit(KvWork work) {
  if (!options_.enabled) {
    auto done = std::move(work.done);
    cpu_->Submit(work.tenant_id, work.cpu_cost, std::move(done));
    return;
  }
  if (work.is_write) {
    const uint64_t amplified =
        static_cast<uint64_t>(write_model_.Predict(static_cast<double>(work.write_bytes)));
    if (!write_bucket_.TryConsume(amplified)) {
      // Queue in the WQ; the pump admits it as tokens refill.
      wq_throttled_c_->Inc();
      const Nanos enqueued_at = loop_->clock()->Now();
      WorkItem item;
      item.tenant_id = work.tenant_id;
      item.priority = work.priority;
      item.txn_start = work.txn_start;
      item.deadline = work.deadline;
      item.cost = amplified;
      auto shared = std::make_shared<KvWork>(std::move(work));
      item.run = [this, shared, enqueued_at]() mutable {
        const Nanos wq_wait = loop_->clock()->Now() - enqueued_at;
        queue_wait_h_->Record(wq_wait);
        if (shared->trace != nullptr) {
          shared->trace->AddDuration("admission_queue", wq_wait);
        }
        EnqueueCq(std::move(*shared));
      };
      wq_.Enqueue(std::move(item));
      return;
    }
    wq_.RecordConsumption(work.tenant_id, amplified);
  }
  EnqueueCq(std::move(work));
}

Nanos NodeAdmissionController::AdmitSync(const KvWork& work) {
  if (!options_.enabled) return 0;
  Nanos wait = 0;
  if (work.is_write) {
    const uint64_t amplified =
        static_cast<uint64_t>(write_model_.Predict(static_cast<double>(work.write_bytes)));
    if (!write_bucket_.TryConsume(amplified)) {
      wq_throttled_c_->Inc();
      // Modeled WQ wait: how long until the refill covers the deficit.
      const double rate = write_bucket_.refill_bytes_per_sec();
      const double tokens = std::max(write_bucket_.tokens(), 0.0);
      const double deficit = static_cast<double>(amplified) - tokens;
      if (rate > 0 && deficit > 0) {
        wait += static_cast<Nanos>(deficit / rate * static_cast<double>(kSecond));
      }
      // Work-conserving debt: later writers see the overdraft.
      write_bucket_.Deduct(amplified);
    }
    wq_.RecordConsumption(work.tenant_id, amplified);
  }
  // CQ: a caller that cannot park models one dispatch tick when all slots
  // are busy.
  if (slots_.available_slots() <= 0) {
    wait += options_.sample_period;
  }
  wait = std::min(wait, kMaxModeledWait);
  cq_.RecordConsumption(work.tenant_id, static_cast<uint64_t>(work.cpu_cost));
  admitted_c_->Inc();
  queue_wait_h_->Record(wait);
  if (work.trace != nullptr) {
    work.trace->AddDuration("admission_queue", wait);
  }
  return wait;
}

void NodeAdmissionController::EnqueueCq(KvWork work) {
  if (slots_.TryAcquire()) {
    admitted_c_->Inc();
    queue_wait_h_->Record(0);
    auto shared = std::make_shared<KvWork>(std::move(work));
    RunSlice(shared, shared->cpu_cost);
    return;
  }
  const Nanos enqueued_at = loop_->clock()->Now();
  WorkItem item;
  item.tenant_id = work.tenant_id;
  item.priority = work.priority;
  item.txn_start = work.txn_start;
  item.deadline = work.deadline;
  auto shared = std::make_shared<KvWork>(std::move(work));
  item.run = [this, shared, enqueued_at]() {
    const Nanos cq_wait = loop_->clock()->Now() - enqueued_at;
    admitted_c_->Inc();
    queue_wait_h_->Record(cq_wait);
    if (shared->trace != nullptr) {
      shared->trace->AddDuration("admission_queue", cq_wait);
    }
    RunSlice(shared, shared->cpu_cost);
  };
  cq_.Enqueue(std::move(item));
}

void NodeAdmissionController::DispatchCq() {
  while (!cq_.empty() && slots_.TryAcquire()) {
    auto item = cq_.Dequeue();
    if (!item.has_value()) {
      slots_.Release();
      return;
    }
    item->run();  // RunSlice takes ownership of the already-acquired slot
  }
}

void NodeAdmissionController::PumpWq() {
  while (!wq_.empty()) {
    // Dequeue-and-maybe-admit: if the bucket can't cover the item's
    // amplified cost, put it back and wait for the next pump (fairness is
    // preserved by the consumption counters, not FIFO position).
    auto item = wq_.Dequeue();
    if (!item.has_value()) return;
    if (!write_bucket_.TryConsume(item->cost)) {
      wq_.Enqueue(std::move(*item));
      return;  // bucket dry; try next pump
    }
    wq_.RecordConsumption(item->tenant_id, item->cost);
    item->run();
  }
}

void NodeAdmissionController::RunSlice(std::shared_ptr<KvWork> work, Nanos remaining) {
  // Occupies one already-acquired CPU slot. Slices bound how long a single
  // operation holds the slot; between slices the op re-queues behind other
  // tenants (resumption marker semantics).
  const Nanos slice = remaining < options_.max_slice_cpu ? remaining
                                                         : options_.max_slice_cpu;
  slices_c_->Inc();
  cpu_->Submit(work->tenant_id, slice, [this, work, remaining, slice]() {
    cq_.RecordConsumption(work->tenant_id, static_cast<uint64_t>(slice));
    slots_.Release();
    const Nanos left = remaining - slice;
    if (left > 0) {
      // Re-admit the remainder through the fair queue.
      if (slots_.TryAcquire()) {
        RunSlice(work, left);
      } else {
        WorkItem item;
        item.tenant_id = work->tenant_id;
        item.priority = work->priority;
        item.txn_start = work->txn_start;
        item.deadline = work->deadline;
        item.run = [this, work, left]() { RunSlice(work, left); };
        cq_.Enqueue(std::move(item));
      }
      return;
    }
    if (work->done) loop_->Schedule(0, work->done);
    DispatchCq();
  });
}

void NodeAdmissionController::UpdateWriteCapacity(const storage::EngineStats& stats,
                                                  int l0_files) {
  write_bucket_.UpdateCapacity(stats, l0_files);
  // Refresh the write model with the same interval's observations.
  write_model_.AddSample(static_cast<double>(stats.ingest_bytes),
                         static_cast<double>(stats.total_bytes_written()));
}

}  // namespace veloce::admission
