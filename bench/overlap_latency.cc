// Claim C1 (paper Sections 1, 3.1): overlapping transaction execution with the
// broadcast's coordination phase hides the ordering latency - OTP's commit
// latency approaches max(execution, ordering) while the conservative engine
// pays execution + ordering in sequence.
//
// Sweep: stored-procedure execution time from well below to well above the
// ordering delay. Engines: OTP, conservative (same broadcast), lazy (no
// coordination at all - the latency floor).
//
// Counters per point: commit latency mean/p95 (ms), residual commit wait (ms,
// the unhidden part of the ordering cost), ordering gap (opt->TO, ms),
// throughput (txn/s).
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace otpdb::bench {
namespace {

enum class Engine : std::int64_t { otp = 0, conservative = 1, lazy = 2 };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::otp: return "otp";
    case Engine::conservative: return "conservative";
    case Engine::lazy: return "lazy";
  }
  return "?";
}

void BM_OverlapLatency(benchmark::State& state) {
  const auto engine = static_cast<Engine>(state.range(0));
  const SimTime exec_time = state.range(1) * kMillisecond;
  ClusterTotals t;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 16;
    config.seed = 4242;
    config.net = lan();
    auto cluster = [&] {
      switch (engine) {
        case Engine::conservative:
          return std::make_unique<Cluster>(config, engine_factory("conservative"));
        case Engine::lazy: return std::make_unique<Cluster>(config, engine_factory("lazy"));
        case Engine::otp: default: return std::make_unique<Cluster>(config);
      }
    }();
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 60;
    wl.mean_exec_time = exec_time;
    wl.exponential_exec = false;  // constant cost isolates the overlap effect
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 99);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(120 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
  }
  state.SetLabel(engine_name(engine));
  state.counters["exec_ms"] = static_cast<double>(state.range(1));
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["latency_p95_ms"] = to_ms(t.commit_latency_percentiles_ns.percentile(95));
  state.counters["latency_p99_ms"] = to_ms(t.commit_latency_percentiles_ns.percentile(99));
  state.counters["commit_wait_ms"] = to_ms(t.commit_wait_ns.mean());
  state.counters["ordering_gap_ms"] = to_ms(t.opt_to_gap_ns.mean());
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, engine == Engine::lazy);
}
BENCHMARK(BM_OverlapLatency)
    ->ArgsProduct({{0, 1, 2}, {0, 1, 2, 5, 10, 20}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
