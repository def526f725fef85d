// Concurrency-granularity ablation (paper Section 6 / companion report [13]):
// class-queue OTP vs. fine-granularity lock-table OTP on the same workload.
//
// The class model serializes all transactions of a class; the object model
// serializes only true object conflicts. Sweep the number of conflict classes
// with the database size held constant: with many classes both engines match;
// as classes get hotter, the class engine's queues saturate while the
// lock-table engine keeps scaling until transactions genuinely collide on
// objects.
//
// Counters: commit latency (ms), goodput (txn/s), abort %.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace otpdb::bench {
namespace {

void BM_Granularity(benchmark::State& state) {
  const bool fine_grained = state.range(0) == 1;
  const auto n_classes = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kTotalObjects = 256;
  ClusterTotals t;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = n_classes;
    config.objects_per_class = kTotalObjects / n_classes;
    config.seed = 616;
    config.net = lan();
    auto cluster = fine_grained ? std::make_unique<Cluster>(config, engine_factory("locktable"))
                                : std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 100;
    wl.mean_exec_time = 4 * kMillisecond;
    wl.ops_per_txn = 2;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 55);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
  }
  state.SetLabel(fine_grained ? "lock-table (object)" : "class-queue");
  state.counters["classes"] = static_cast<double>(n_classes);
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, false);
  state.counters["abort_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts) / static_cast<double>(t.committed)
                  : 0.0;
}
BENCHMARK(BM_Granularity)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
