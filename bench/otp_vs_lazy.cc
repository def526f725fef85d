// Claim C3 (paper Section 1): OTP "compares favorably with existing
// commercial solutions for database replication in terms of performance and
// consistency": asynchronous (lazy) replication is fast because update
// coordination happens after commit, but it gives up global consistency; OTP
// reaches comparable throughput and latency while staying
// 1-copy-serializable.
//
// Same workload, same network, two engines. Counters: throughput, commit
// latency, lost-update conflicts (lazy's consistency violations; OTP: zero by
// construction, cross-checked by the serializability checker in tests).
#include <benchmark/benchmark.h>

#include "baseline/lazy_replica.h"
#include "bench_common.h"

namespace otpdb::bench {
namespace {

void BM_OtpVsLazy(benchmark::State& state) {
  const bool use_lazy = state.range(0) == 1;
  const auto n_classes = static_cast<std::size_t>(state.range(1));
  ClusterTotals t;
  std::uint64_t conflicts = 0;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = n_classes;
    config.objects_per_class = 16;
    config.seed = 555;
    config.net = lan();
    auto cluster = use_lazy ? std::make_unique<Cluster>(config, engine_factory("lazy"))
                            : std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 100;
    wl.mean_exec_time = 2 * kMillisecond;
    wl.ops_per_txn = 2;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 17);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(120 * kSecond);
    cluster->run_for(2 * kSecond);  // drain lazy propagation
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    if (use_lazy) {
      for (SiteId s = 0; s < cluster->site_count(); ++s) {
        conflicts += dynamic_cast<LazyReplica&>(cluster->replica(s)).conflicts_detected();
      }
    }
  }
  state.SetLabel(use_lazy ? "lazy" : "otp");
  state.counters["classes"] = static_cast<double>(n_classes);
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, use_lazy);
  state.counters["lost_update_conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_OtpVsLazy)
    ->ArgsProduct({{0, 1}, {1, 4, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
