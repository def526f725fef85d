// Overload bench: offered-load sweep past the cluster's service capacity
// with the full overload plane armed - admission control (hysteresis
// shedding), sender backpressure, per-transaction deadline budgets, and the
// clients' deterministic retry loop. The paper's engines process every
// committed transaction serially per conflict class at every site, so the
// cluster-wide service capacity is ~ n_classes / mean_exec_time; the sweep
// crosses it at multipliers 0.5x..3x.
//
// The claim under test: goodput must *plateau* past saturation instead of
// collapsing - shed work costs a refusal, not a queue slot, and deadline
// drops reclaim service time the transaction could no longer use. The
// plateau benchmark reports goodput(2x)/goodput(1x) directly
// (goodput_at_saturation; the acceptance floor is 0.85), the sweep reports
// the per-point trajectory (goodput, shed fraction, retries, deadline
// drops, p99), and the chaos leg composes 2x overload with the gray-wan
// fault schedule to show the plane and the chaos plane do not fight.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_common.h"
#include "net/fault_plan.h"

namespace otpdb::bench {
namespace {

// Sweep axis: offered load as a multiple of the service-capacity estimate.
const double kLoadMultipliers[] = {0.5, 1.0, 1.5, 2.0, 3.0};

constexpr std::size_t kSites = 4;
constexpr std::size_t kClasses = 8;
constexpr SimTime kMeanExec = 4 * kMillisecond;
constexpr SimTime kDuration = 2 * kSecond;

/// Cluster-wide committed-transaction capacity: each conflict class is a
/// serial resource and every site executes every transaction, so the cluster
/// can commit at most one transaction per class per mean service time.
double saturation_rate_per_site() {
  const double cluster_capacity =
      static_cast<double>(kClasses) * 1e9 / static_cast<double>(kMeanExec);
  return cluster_capacity / static_cast<double>(kSites);
}

struct OverloadResult {
  double goodput = 0;        // committed txn/s, cluster-wide distinct
  double shed_fraction = 0;  // shed / (admitted + shed + backpressured)
  double p99_ms = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressured = 0;
  std::uint64_t retries = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t deadline_queue_drops = 0;  // per site (replicated decision)
  std::uint64_t deadline_presubmit = 0;
  bool serializable = true;
};

OverloadResult run_overload(bool conservative, double load_multiplier,
                            const char* chaos_profile) {
  ClusterConfig config;
  config.n_sites = kSites;
  config.n_classes = kClasses;
  config.objects_per_class = 64;
  config.seed = 4242;
  config.net = lan();
  // The full overload plane: admission hysteresis at the defaults, a sender
  // in-flight cap, and (below) client deadline budgets + retries.
  config.admission.enabled = true;
  config.opt.max_inflight_per_sender = 256;
  if (chaos_profile != nullptr) {
    ChaosProfile profile;
    if (!parse_chaos_profile(chaos_profile, config.n_sites, kDuration, profile)) {
      return OverloadResult{};
    }
    config.chaos = profile.net;
  }

  auto cluster = conservative ? std::make_unique<Cluster>(config, engine_factory("conservative"))
                              : std::make_unique<Cluster>(config);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = saturation_rate_per_site() * load_multiplier;
  wl.mean_exec_time = kMeanExec;
  wl.duration = kDuration;
  wl.deadline_budget = 250 * kMillisecond;
  wl.max_retries = 6;
  WorkloadDriver driver(*cluster, wl, 77);
  driver.start();
  cluster->run_for(wl.duration);
  cluster->quiesce(180 * kSecond);

  OverloadResult r;
  const double seconds = static_cast<double>(cluster->sim().now()) / 1e9;
  ClusterTotals t = totals(*cluster);
  std::uint64_t admitted = 0;
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    const ReplicaMetrics& m = cluster->replica(s).metrics();
    admitted += m.admitted_updates;
    r.shed += m.shed_updates;
    r.backpressured += m.backpressured_updates;
    r.deadline_presubmit += m.deadline_expired_presubmit;
    // Decided in definitive order: every site counts the same drops.
    r.deadline_queue_drops = std::max(r.deadline_queue_drops, m.deadline_expired_queue);
  }
  r.goodput = goodput(t, cluster->site_count(), seconds, false);
  const std::uint64_t attempts = admitted + r.shed + r.backpressured;
  r.shed_fraction = attempts > 0 ? static_cast<double>(r.shed + r.backpressured) /
                                       static_cast<double>(attempts)
                                 : 0.0;
  r.p99_ms = to_ms(t.commit_latency_percentiles_ns.percentile(99.0));
  r.retries = driver.retries();
  r.gave_up = driver.gave_up();
  return r;
}

void set_common_counters(benchmark::State& state, const OverloadResult& r) {
  state.counters["goodput_txn_per_s"] = r.goodput;
  state.counters["shed_fraction"] = r.shed_fraction;
  state.counters["shed"] = static_cast<double>(r.shed);
  state.counters["backpressured"] = static_cast<double>(r.backpressured);
  state.counters["retries"] = static_cast<double>(r.retries);
  state.counters["gave_up"] = static_cast<double>(r.gave_up);
  state.counters["deadline_expired"] = static_cast<double>(r.deadline_queue_drops);
  state.counters["deadline_presubmit"] = static_cast<double>(r.deadline_presubmit);
  state.counters["p99_ms"] = r.p99_ms;
}

// ---- Sweep: per-point trajectory, OTP vs conservative ----------------------

void BM_OverloadSweep(benchmark::State& state) {
  const bool conservative = state.range(0) == 1;
  const double mult = kLoadMultipliers[state.range(1)];
  OverloadResult r;
  for (auto _ : state) r = run_overload(conservative, mult, nullptr);
  state.SetLabel(std::string(conservative ? "conservative" : "otp") + "/load=" +
                 std::to_string(mult).substr(0, 3) + "x");
  state.counters["load_multiplier"] = mult;
  set_common_counters(state, r);
}
BENCHMARK(BM_OverloadSweep)
    ->ArgNames({"engine", "load"})
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3, 4}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---- Plateau: the acceptance ratio, computed inside one run ----------------

void BM_OverloadPlateau(benchmark::State& state) {
  const bool conservative = state.range(0) == 1;
  double ratio = 0, peak = 0, at_2x = 0;
  for (auto _ : state) {
    // Peak = best of the at/below-saturation points; the plateau claim is
    // goodput at 2x saturation staying within 0.85x of it.
    const OverloadResult r1 = run_overload(conservative, 1.0, nullptr);
    const OverloadResult r2 = run_overload(conservative, 2.0, nullptr);
    peak = r1.goodput;
    at_2x = r2.goodput;
    ratio = peak > 0 ? at_2x / peak : 0;
  }
  state.SetLabel(conservative ? "conservative" : "otp");
  state.counters["goodput_peak"] = peak;
  state.counters["goodput_2x"] = at_2x;
  state.counters["goodput_at_saturation"] = ratio;
}
BENCHMARK(BM_OverloadPlateau)
    ->ArgNames({"engine"})
    ->DenseRange(0, 1, 1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---- Chaos composition: 2x overload under the gray-wan fault schedule ------

void BM_OverloadUnderChaos(benchmark::State& state) {
  OverloadResult r;
  for (auto _ : state) r = run_overload(/*conservative=*/false, 2.0, "gray-wan");
  state.SetLabel("otp/load=2.0x/gray-wan");
  set_common_counters(state, r);
}
BENCHMARK(BM_OverloadUnderChaos)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
