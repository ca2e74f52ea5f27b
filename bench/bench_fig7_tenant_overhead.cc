// Reproduces Fig 7: per-tenant memory/CPU overhead amortizes sublinearly
// with the number of suspended and idle tenants.
//
// Suspended tenants (no SQL nodes, storage only): we create batches of
// empty tenants on a host KV cluster and measure marginal RSS and storage
// per tenant as the count grows. Idle tenants additionally hold one SQL
// node with one open session. The paper's absolute numbers (262 KiB /
// 3.3 MiB at 20K/1200 tenants) come from a production heap; the shape to
// reproduce is the amortization curve and the suspended << idle ordering.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "kv/cluster.h"
#include "sql/sql_node.h"
#include "tenant/controller.h"

namespace veloce {
namespace {

uint64_t ClusterStorageBytes(kv::KVCluster* cluster) {
  uint64_t total = 0;
  for (size_t n = 0; n < cluster->num_nodes(); ++n) {
    total += cluster->node(static_cast<kv::NodeId>(n))->engine()->ApproximateSize();
  }
  return total;
}

}  // namespace
}  // namespace veloce

int main() {
  using namespace veloce;

  // --- Fig 7a: suspended tenants --------------------------------------------
  bench::PrintHeader("Fig 7a: suspended tenant overhead");
  {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    kv::KVCluster cluster(opts);
    tenant::CertificateAuthority ca;
    tenant::TenantController controller(&cluster, &ca);

    const uint64_t heap_base = CurrentHeapBytes();
    const uint64_t storage_base = ClusterStorageBytes(&cluster);
    std::printf("%10s %22s %22s\n", "tenants", "memory KiB/tenant",
                "storage KiB/tenant");
    int created = 0;
    for (int target : {100, 400, 1000, 2000, 4000}) {
      while (created < target) {
        auto meta = controller.CreateTenant("t" + std::to_string(created));
        VELOCE_CHECK(meta.ok());
        ++created;
      }
      const double mem_per_tenant =
          static_cast<double>(CurrentHeapBytes() - heap_base) / created / 1024.0;
      const double storage_per_tenant =
          static_cast<double>(ClusterStorageBytes(&cluster) - storage_base) /
          created / 1024.0;
      std::printf("%10d %22.1f %22.1f\n", created, mem_per_tenant,
                  storage_per_tenant);
    }
    std::printf("shape check: per-tenant overhead falls as tenants amortize "
                "fixed costs (paper: 262 KiB mem, 195 KiB storage at 20K)\n");
  }

  // --- Fig 7b: idle tenants ---------------------------------------------------
  bench::PrintHeader("Fig 7b: idle tenant overhead (one SQL node + session)");
  {
    kv::KVClusterOptions opts;
    opts.num_nodes = 3;
    auto cluster = std::make_unique<kv::KVCluster>(opts);
    tenant::CertificateAuthority ca;
    tenant::TenantController controller(cluster.get(), &ca);
    tenant::AuthorizedKvService service(cluster.get(), &ca);

    const uint64_t heap_base = CurrentHeapBytes();
    std::vector<std::unique_ptr<sql::SqlNode>> nodes;
    std::printf("%10s %22s %26s\n", "tenants", "memory KiB/tenant",
                "CPU (cpu-sec/sec/tenant)");
    int created = 0;
    for (int target : {50, 150, 300, 600}) {
      while (created < target) {
        auto meta = controller.CreateTenant("idle" + std::to_string(created));
        VELOCE_CHECK(meta.ok());
        auto cert = controller.IssueCert(meta->id);
        auto node = std::make_unique<sql::SqlNode>(
            static_cast<uint64_t>(created), sql::SqlNode::Options{}, cluster->clock());
        VELOCE_CHECK_OK(node->StartProcess());
        VELOCE_CHECK_OK(node->StampTenant(&service, cluster.get(), *cert));
        auto session = node->NewSession();
        VELOCE_CHECK(session.ok());  // an idle connection, held open
        nodes.push_back(std::move(node));
        ++created;
      }
      const double mem_per_tenant =
          static_cast<double>(CurrentHeapBytes() - heap_base) / created / 1024.0;
      // Idle CPU: observe a 200ms window in which nothing happens — idle
      // tenants have no background work, only held state.
      const Nanos idle_cpu0 = ProcessCpuNanos();
      const Nanos idle_wall0 = RealClock::Instance()->Now();
      while (RealClock::Instance()->Now() - idle_wall0 < 200 * kMilli) {
        usleep(10000);
      }
      const double idle_secs =
          static_cast<double>(RealClock::Instance()->Now() - idle_wall0) / 1e9;
      const double cpu_per_tenant_per_sec =
          static_cast<double>(ProcessCpuNanos() - idle_cpu0) / 1e9 / idle_secs /
          created;
      std::printf("%10d %22.1f %26.5f\n", created, mem_per_tenant,
                  cpu_per_tenant_per_sec);
    }
    std::printf("shape check: idle tenants cost more memory than suspended "
                "(live SQL node + session state) and ~0 CPU while idle "
                "(paper: 3.3 MiB KV + 180 MiB SQL process, 0.001 cpu/s)\n");
  }
  return 0;
}
