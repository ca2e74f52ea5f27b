#ifndef VELOCE_SERVERLESS_KUBE_SIM_H_
#define VELOCE_SERVERLESS_KUBE_SIM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/random.h"
#include "sim/event_loop.h"

namespace veloce::serverless {

using PodId = uint64_t;

/// Simulated Kubernetes substrate (the paper runs one K8s cluster per
/// region). It models exactly what the cold-start and autoscaling
/// experiments depend on: pod scheduling latency onto shared VMs, container
/// process start latency, and VM packing (many SQL pods per VM is what
/// amortizes the long tail of idle tenants, Section 4.2.1).
class KubeSim {
 public:
  struct Options {
    std::string region = "local";
    int vm_vcpus = 32;
    /// Pods (SQL nodes) packed per VM; oversubscribed like production.
    int pods_per_vm = 16;
    /// Scheduling + container create latency for a new pod.
    Nanos pod_create_latency = 2 * kSecond;
    /// Starting the SQL process inside an existing container (cold path).
    Nanos process_start_latency = 900 * kMilli;
    /// Uniform jitter added to both latencies (real pod/process start
    /// times vary with node load and image cache state).
    Nanos latency_jitter = 0;
    /// Seeds the jitter RNG; scenarios derive this from one scenario seed.
    uint64_t seed = 0xCAFEBABE;
  };

  struct Pod {
    PodId id = 0;
    uint64_t vm = 0;
    bool process_running = false;
  };

  KubeSim(sim::EventLoop* loop, Options options)
      : loop_(loop), options_(options), rng_(options.seed) {}

  const Options& options() const { return options_; }
  const std::string& region() const { return options_.region; }

  /// Schedules a pod; `on_ready` fires after the create latency.
  void CreatePod(std::function<void(PodId)> on_ready);

  /// Starts the process inside the pod (pre-warming step); `on_started`
  /// fires after the process start latency.
  void StartProcess(PodId pod, std::function<void()> on_started);

  void DeletePod(PodId pod);
  /// False once the pod is deleted or killed (even before it came up).
  bool HasPod(PodId pod) const { return pods_.count(pod) > 0; }
  bool ProcessRunning(PodId pod) const;

  /// Fault hook: kills the pod abruptly (process and all). Unlike
  /// DeletePod (a graceful, orchestrated removal), KillPod notifies the
  /// failure listener so the node pool can react as it would to a real
  /// crashed container.
  void KillPod(PodId pod);
  /// Invoked synchronously from KillPod with the dying pod's id. One
  /// listener (the SQL node pool) is enough for the sim.
  void SetPodFailureListener(std::function<void(PodId)> listener) {
    failure_listener_ = std::move(listener);
  }

  size_t num_pods() const { return pods_.size(); }
  /// Number of VMs currently backing the pods (ceil(pods / pods_per_vm)).
  size_t num_vms() const {
    return (pods_.size() + options_.pods_per_vm - 1) /
           static_cast<size_t>(options_.pods_per_vm);
  }

 private:
  Nanos Jittered(Nanos base);

  sim::EventLoop* loop_;
  Options options_;
  Random rng_;
  std::map<PodId, Pod> pods_;
  PodId next_pod_id_ = 1;
  std::function<void(PodId)> failure_listener_;
};

}  // namespace veloce::serverless

#endif  // VELOCE_SERVERLESS_KUBE_SIM_H_
