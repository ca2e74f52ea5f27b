#include "sim/virtual_cpu.h"

#include <vector>

#include "common/logging.h"

namespace veloce::sim {

VirtualCpu::VirtualCpu(EventLoop* loop, int vcpus, Nanos quantum,
                       const obs::ObsContext& obs, std::string instance)
    : loop_(loop), vcpus_(vcpus), quantum_(quantum), metrics_(obs.metrics) {
  VELOCE_CHECK(vcpus > 0);
  VELOCE_CHECK(quantum > 0);
  obs::Labels labels;
  if (!instance.empty()) labels.push_back({"node", std::move(instance)});
  runnable_h_ = metrics_->histogram("veloce_sim_runnable_queue_samples", labels);
  gauge_cb_ = metrics_->AddCollectCallback([this, labels] {
    metrics_->gauge("veloce_sim_active_tasks", labels)->Set(active_tasks());
    metrics_->gauge("veloce_sim_runnable_queue", labels)
        ->Set(runnable_queue_length());
    metrics_->gauge("veloce_sim_busy_seconds_total", labels)
        ->Set(static_cast<double>(total_busy_) / kSecond);
  });
}

VirtualCpu::TaskId VirtualCpu::Submit(uint64_t tenant_id, Nanos cpu_demand,
                                      std::function<void()> on_done) {
  const TaskId id = next_id_++;
  if (cpu_demand <= 0) {
    // Zero-cost tasks complete immediately (still via the loop for ordering).
    loop_->Schedule(0, std::move(on_done));
    return id;
  }
  tasks_.emplace(id, Task{tenant_id, cpu_demand, std::move(on_done)});
  EnsureTicking();
  return id;
}

Nanos VirtualCpu::tenant_busy(uint64_t tenant_id) const {
  auto it = tenant_busy_.find(tenant_id);
  return it == tenant_busy_.end() ? 0 : it->second;
}

double VirtualCpu::UtilizationSince(Nanos since, Nanos busy_snapshot) const {
  const Nanos window = loop_->Now() - since;
  if (window <= 0) return 0.0;
  const double capacity = static_cast<double>(window) * vcpus_;
  return static_cast<double>(total_busy_ - busy_snapshot) / capacity;
}

void VirtualCpu::EnsureTicking() {
  if (ticking_) return;
  ticking_ = true;
  last_tick_ = loop_->Now();
  loop_->Schedule(quantum_, [this]() { Tick(loop_->Now() - last_tick_); });
}

void VirtualCpu::Tick(Nanos elapsed) {
  last_tick_ = loop_->Now();
  runnable_h_->Record(runnable_queue_length());
  if (elapsed > 0 && !tasks_.empty()) {
    const int n = static_cast<int>(tasks_.size());
    // Processor sharing: each task runs at min(1 cpu, vcpus/n cpus).
    Nanos share = elapsed;
    if (n > vcpus_) {
      share = elapsed * vcpus_ / n;
      if (share <= 0) share = 1;
    }
    std::vector<std::function<void()>> done;
    for (auto it = tasks_.begin(); it != tasks_.end();) {
      Task& t = it->second;
      const Nanos used = t.remaining < share ? t.remaining : share;
      t.remaining -= used;
      total_busy_ += used;
      tenant_busy_[t.tenant_id] += used;
      if (t.remaining <= 0) {
        done.push_back(std::move(t.on_done));
        it = tasks_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& fn : done) {
      if (fn) loop_->Schedule(0, std::move(fn));
    }
  }
  if (tasks_.empty()) {
    ticking_ = false;
    return;
  }
  loop_->Schedule(quantum_, [this]() { Tick(loop_->Now() - last_tick_); });
}

}  // namespace veloce::sim
