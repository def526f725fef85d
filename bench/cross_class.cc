// Cross-partition (multi-class) transaction bench: what does a TPC-C-style
// remote fraction cost under the OTP engine? Two sweeps, both paper-style
// "x-axis = remote fraction, y-axis = abort rate / latency" figures:
//
//  * BM_CrossClassRmw - the generic rmw workload with a cross_class_fraction
//    of updates spanning cross_class_span consecutive classes, on the OTP and
//    conservative engines, with the 1-copy-serializability checker attached
//    (counter `serializable` must stay 1).
//  * BM_TpccRemote - TPC-C-lite with remote NewOrder/Payment transactions
//    (remote_txn_fraction over {home, remote} warehouse pairs), audited for
//    global money/stock conservation.
//
// Counters: cross_pct/remote_pct, txn_per_s, latency_ms, abort_pct,
// query_latency_ms, serializable/audit_clean.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "checker/history.h"
#include "workload/tpcc_lite.h"

namespace otpdb::bench {
namespace {

enum class Engine : std::int64_t { otp = 0, conservative = 1 };

void BM_CrossClassRmw(benchmark::State& state) {
  const auto engine = static_cast<Engine>(state.range(0));
  const double cross_fraction = static_cast<double>(state.range(1)) / 1000.0;  // per-mille
  ClusterTotals t;
  double duration_s = 0;
  bool serializable = true;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 8;
    config.objects_per_class = 64;
    config.seed = 77;
    config.net = lan();
    auto cluster = engine == Engine::conservative
                       ? std::make_unique<Cluster>(config, engine_factory("conservative"))
                       : std::make_unique<Cluster>(config);
    HistoryRecorder recorder(*cluster);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 120;
    wl.mean_exec_time = 2 * kMillisecond;
    wl.duration = 2 * kSecond;
    wl.cross_class_fraction = cross_fraction;
    wl.cross_class_span = 2;
    WorkloadDriver driver(*cluster, wl, 2026);
    driver.start();
    cluster->run_for(wl.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    serializable &= check_one_copy_serializability(recorder.site_logs()).ok();
  }
  state.SetLabel(engine == Engine::otp ? "otp" : "conservative");
  state.counters["cross_pct"] = cross_fraction * 100.0;
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, false);
  state.counters["latency_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["abort_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts) / static_cast<double>(t.committed)
                  : 0.0;
  state.counters["serializable"] = serializable ? 1.0 : 0.0;
}
BENCHMARK(BM_CrossClassRmw)
    ->ArgsProduct({{0, 1}, {0, 50, 100, 200, 400}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_TpccRemote(benchmark::State& state) {
  const auto engine = static_cast<Engine>(state.range(0));
  const double remote_fraction = static_cast<double>(state.range(1)) / 1000.0;  // per-mille
  ClusterTotals t;
  double duration_s = 0;
  bool audit_clean = true;
  bool serializable = true;
  for (auto _ : state) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 8;  // warehouses
    tpcc::Layout layout;
    config.objects_per_class = layout.objects_per_warehouse();
    config.seed = 1999;
    config.net = lan();
    auto cluster = engine == Engine::conservative
                       ? std::make_unique<Cluster>(config, engine_factory("conservative"))
                       : std::make_unique<Cluster>(config);
    HistoryRecorder recorder(*cluster);
    tpcc::MixConfig mix;
    mix.txn_per_second_per_site = 120;
    mix.duration = 2 * kSecond;
    mix.warehouse_skew_theta = 0.6;
    mix.remote_txn_fraction = remote_fraction;
    tpcc::TpccDriver driver(*cluster, layout, mix, 2024);
    driver.start();
    cluster->run_for(mix.duration);
    cluster->quiesce(180 * kSecond);
    t = totals(*cluster);
    duration_s = static_cast<double>(cluster->sim().now()) / 1e9;
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      audit_clean &= driver.audit(s).empty();
    }
    serializable &= check_one_copy_serializability(recorder.site_logs()).ok();
  }
  state.SetLabel(engine == Engine::otp ? "otp" : "conservative");
  state.counters["remote_pct"] = remote_fraction * 100.0;
  state.counters["txn_per_s"] = goodput(t, 4, duration_s, false);
  state.counters["latency_ms"] = to_ms(t.commit_latency_ns.mean());
  state.counters["abort_pct"] =
      t.committed ? 100.0 * static_cast<double>(t.aborts) / static_cast<double>(t.committed)
                  : 0.0;
  state.counters["audit_clean"] = audit_clean ? 1.0 : 0.0;
  state.counters["serializable"] = serializable ? 1.0 : 0.0;
}
BENCHMARK(BM_TpccRemote)
    ->ArgsProduct({{0, 1}, {0, 50, 100, 200}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace otpdb::bench

BENCHMARK_MAIN();
