// Claim C5 (paper Section 1, motivation): atomic broadcast "suffers from
// scalability problems as it involves coordination between sites before
// messages can be delivered" - and optimistic overlap mitigates what the
// growing delivery latency would otherwise cost transactions.
//
// Sweep: number of sites (2..16) x engine (OTP over OPT-ABcast, OTP over a
// fixed sequencer, conservative over OPT-ABcast).
// Counters: ordering gap (opt->TO, grows with n), commit latency, cluster
// throughput. The paper-shaped outcome: the ordering gap grows with n for
// every protocol, but OTP's commit latency grows far slower than the
// conservative engine's because the growth is hidden behind execution.
#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace otpdb::bench {
namespace {

enum class Variant : std::int64_t { otp_optimistic = 0, otp_sequencer = 1, conservative = 2 };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::otp_optimistic: return "otp/opt-abcast";
    case Variant::otp_sequencer: return "otp/sequencer";
    case Variant::conservative: return "conservative/opt-abcast";
  }
  return "?";
}

void BM_Scalability(benchmark::State& state) {
  const auto variant = static_cast<Variant>(state.range(0));
  const auto n_sites = static_cast<std::size_t>(state.range(1));
  ClusterTotals t;
  double duration_s = 0;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = n_sites;
    config.n_classes = 2 * n_sites;  // constant per-class pressure as n grows
    config.seed = 2024;
    config.net = lan();
    config.abcast =
        variant == Variant::otp_sequencer ? AbcastKind::sequencer : AbcastKind::optimistic;
    auto cluster = variant == Variant::conservative
                       ? std::make_unique<Cluster>(config, engine_factory("conservative"))
                       : std::make_unique<Cluster>(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 40;  // constant per-site offered load
    wl.mean_exec_time = 4 * kMillisecond;
    wl.duration = 3 * kSecond;
    WorkloadDriver driver(*cluster, wl, 61);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
  }
  state.SetLabel(variant_name(variant));
  state.counters["sites"] = static_cast<double>(n_sites);
  state.counters["ordering_gap_ms"] = to_ms(t.opt_to_gap_ns.mean());
  state.counters["latency_mean_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["latency_p95_ms"] = to_ms(t.commit_latency_percentiles_ns.percentile(95));
  state.counters["commit_wait_ms"] = to_ms(t.commit_wait_ns.mean());
  state.counters["cluster_txn_per_s"] =
      duration_s > 0 ? static_cast<double>(t.committed) / static_cast<double>(n_sites) /
                           duration_s
                     : 0;
}
BENCHMARK(BM_Scalability)
    ->ArgsProduct({{0, 1, 2}, {2, 4, 8, 12, 16}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
