#include "workloads.h"

#include <sys/resource.h>

#include <cmath>
#include <memory>
#include <utility>

#include "abcast/opt_abcast.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "db/durable_store.h"
#include "net/fault_plan.h"
#include "stats.h"
#include "trace.h"
#include "util/assert.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace yardstick {
namespace {

using otpdb::Cluster;
using otpdb::ClusterConfig;
using otpdb::kMillisecond;
using otpdb::kSecond;
using otpdb::SimTime;
using otpdb::SiteId;

/// Fixed sim-time slice of the submission window. At the default sizes an
/// episode has 1500-3000 slices, so each episode's p99 has at least fifteen
/// samples beyond it.
constexpr SimTime kSlice = 20 * kMillisecond;
constexpr SimTime kQuiesceLimit = 120 * kSecond;

SimTime default_duration(Workload w) {
  switch (w) {
    // Long enough that the simulated metrics vary little from seed to seed.
    case Workload::lan_steady: return 30 * kSecond;
    case Workload::tpcc_durable: return 40 * kSecond;
    case Workload::wan_overload: return 60 * kSecond;
  }
  OTPDB_UNREACHABLE();
}

/// The driver seed is derived from the workload seed so one argument fixes
/// every input; the cluster (network jitter, chaos draws) takes the seed as is.
std::uint64_t driver_seed(std::uint64_t seed) { return seed ^ 0x9E3779B97F4A7C15ULL; }

ClusterConfig cluster_config(Workload w, std::uint64_t seed, SimTime duration,
                             const std::filesystem::path& data_dir) {
  ClusterConfig c;
  c.seed = seed;
  switch (w) {
    case Workload::lan_steady:
      c.n_sites = 4;
      c.n_classes = 8;
      c.objects_per_class = 64;
      break;
    case Workload::tpcc_durable:
      c.n_sites = 4;
      c.n_classes = 8;  // warehouses
      c.objects_per_class = otpdb::tpcc::Layout{}.objects_per_warehouse();
      // Default flush policy: 2 ms group-commit window, 5 ms modelled fsync,
      // 1 s checkpoints, 1 MiB segments.
      c.storage.backend = otpdb::StorageBackendKind::durable;
      c.storage.data_dir = data_dir.string();
      break;
    case Workload::wan_overload: {
      c.n_sites = 5;
      c.n_classes = 10;
      c.objects_per_class = 64;
      // The WAN timer calibration of bench/bench_common.h apply_topology():
      // without it consensus retries and false suspicions dominate.
      c.net.topology = otpdb::TopologyProfile::wan;
      c.opt.batch_delay = 10 * kMillisecond;
      c.opt.alignment_window = 8 * kMillisecond;
      c.opt.consensus.fast_wait = 150 * kMillisecond;
      c.opt.consensus.round_timeout = 500 * kMillisecond;
      c.fd.interval = 50 * kMillisecond;
      c.fd.suspect_timeout = 500 * kMillisecond;
      otpdb::ChaosProfile chaos;
      OTPDB_CHECK(otpdb::parse_chaos_profile("gray-wan", c.n_sites, duration, chaos));
      c.chaos = chaos.net;
      c.admission.enabled = true;
      break;
    }
  }
  return c;
}

/// The client load of a workload: the rmw driver or the TPC-C-lite driver.
class Load {
 public:
  Load(Workload w, Cluster& cluster, SimTime duration, std::uint64_t seed) {
    if (w == Workload::tpcc_durable) {
      otpdb::tpcc::MixConfig mix;
      mix.txn_per_second_per_site = 200;
      mix.warehouse_skew_theta = 0.6;
      mix.remote_txn_fraction = 0.1;
      mix.duration = duration;
      tpcc_ = std::make_unique<otpdb::tpcc::TpccDriver>(cluster, otpdb::tpcc::Layout{}, mix,
                                                        seed);
      return;
    }
    otpdb::WorkloadConfig wl;
    wl.duration = duration;
    if (w == Workload::lan_steady) {
      wl.updates_per_second_per_site = 300;
      wl.mean_exec_time = 2 * kMillisecond;
      wl.ops_per_txn = 4;
      wl.query_fraction = 0.1;
    } else {
      wl.updates_per_second_per_site = 150;
      wl.class_skew_theta = 0.9;
      wl.query_fraction = 0.2;
      wl.deadline_budget = 400 * kMillisecond;
      wl.max_retries = 8;
    }
    rmw_ = std::make_unique<otpdb::WorkloadDriver>(cluster, wl, seed);
  }

  void start() { tpcc_ ? tpcc_->start() : rmw_->start(); }

  std::uint64_t generated() const {
    if (!tpcc_) return rmw_->updates_submitted();
    const otpdb::tpcc::MixStats s = tpcc_->stats();
    return s.new_orders + s.payments + s.deliveries;
  }
  std::uint64_t gave_up() const { return tpcc_ ? tpcc_->stats().gave_up : rmw_->gave_up(); }
  std::uint64_t expired() const {
    return tpcc_ ? tpcc_->stats().expired_presubmit : rmw_->expired_presubmit();
  }
  std::uint64_t retries() const { return tpcc_ ? tpcc_->stats().retries : rmw_->retries(); }
  std::vector<std::string> audit(SiteId site) {
    return tpcc_ ? tpcc_->audit(site) : std::vector<std::string>{};
  }

 private:
  std::unique_ptr<otpdb::WorkloadDriver> rmw_;
  std::unique_ptr<otpdb::tpcc::TpccDriver> tpcc_;
};

/// Everything a run of one seed must reproduce exactly: sim-time metrics and
/// every counter. Compared field by field between episodes (see diff()).
struct Outcome {
  std::uint64_t generated = 0, committed = 0, failed = 0;
  std::uint64_t gave_up = 0, expired_presubmit = 0, queue_drops = 0;
  std::uint64_t retries = 0, shed = 0, backpressured = 0;
  std::uint64_t events = 0, messages = 0;
  SimTime sim_end = 0;
  std::uint64_t commit_samples = 0;
  double commit_p50_ns = 0, commit_p99_ns = 0;
  std::uint64_t queries = 0, query_retries = 0;
  double query_mean_ns = 0;
  std::uint64_t site_commits = 0, aborts = 0, reexecutions = 0, reorders = 0;
  double commit_wait_mean_ns = 0;
  std::uint64_t consensus_instances = 0, fast_decides = 0, rounds_started = 0;
  std::uint64_t to_delivered = 0;
  std::int64_t opt_to_gap_total_ns = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t gray_delays = 0, parked = 0, flaps = 0;
  std::uint64_t wal_commits = 0, fsyncs = 0, wal_bytes = 0, checkpoints = 0,
                segments_truncated = 0;

  std::vector<std::pair<const char*, double>> fields() const {
    auto d = [](auto v) { return static_cast<double>(v); };
    return {{"generated_updates", d(generated)},
            {"committed_updates", d(committed)},
            {"failed_updates", d(failed)},
            {"gave_up", d(gave_up)},
            {"expired_presubmit", d(expired_presubmit)},
            {"deadline_queue_drops", d(queue_drops)},
            {"client_retries", d(retries)},
            {"shed", d(shed)},
            {"backpressured", d(backpressured)},
            {"sim_events", d(events)},
            {"net_messages", d(messages)},
            {"sim_end_ns", d(sim_end)},
            {"commit_samples", d(commit_samples)},
            {"commit_p50_ns", commit_p50_ns},
            {"commit_p99_ns", commit_p99_ns},
            {"queries", d(queries)},
            {"query_retries", d(query_retries)},
            {"query_mean_ns", query_mean_ns},
            {"site_commits", d(site_commits)},
            {"aborts", d(aborts)},
            {"reexecutions", d(reexecutions)},
            {"reorders", d(reorders)},
            {"commit_wait_mean_ns", commit_wait_mean_ns},
            {"consensus_instances", d(consensus_instances)},
            {"consensus_fast_decides", d(fast_decides)},
            {"consensus_rounds_started", d(rounds_started)},
            {"to_delivered", d(to_delivered)},
            {"opt_to_gap_total_ns", d(opt_to_gap_total_ns)},
            {"fd_suspicions", d(suspicions)},
            {"chaos_gray_delays", d(gray_delays)},
            {"chaos_parked", d(parked)},
            {"chaos_flaps", d(flaps)},
            {"wal_commits", d(wal_commits)},
            {"wal_fsyncs", d(fsyncs)},
            {"wal_bytes", d(wal_bytes)},
            {"wal_checkpoints", d(checkpoints)},
            {"wal_segments_truncated", d(segments_truncated)}};
  }
};

Outcome collect(Cluster& cluster, const Load& load) {
  Outcome o;
  otpdb::PercentileTracker commit_latency;
  otpdb::OnlineStats query_latency, commit_wait;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const otpdb::ReplicaMetrics& m = cluster.replica(s).metrics();
    o.site_commits += m.committed;
    o.aborts += m.aborts;
    o.reexecutions += m.reexecutions;
    o.reorders += m.mismatch_reorders;
    o.shed += m.shed_updates;
    o.backpressured += m.backpressured_updates;
    o.queries += m.queries_done;
    o.query_retries += m.query_retries;
    commit_latency.merge(m.commit_latency_percentiles_ns);
    query_latency.merge(m.query_latency_ns);
    commit_wait.merge(m.commit_wait_ns);

    const otpdb::AbcastStats& a = cluster.abcast(s).stats();
    o.to_delivered += a.to_delivered;
    o.opt_to_gap_total_ns += a.opt_to_gap_total_ns;
    const auto& abcast = dynamic_cast<const otpdb::OptAbcast&>(cluster.abcast(s));
    o.consensus_instances += abcast.consensus_stats().instances_decided;
    o.fast_decides += abcast.consensus_stats().fast_decides;
    o.rounds_started += abcast.consensus_stats().rounds_started;

    if (const otpdb::WalStats* w = cluster.wal_stats(s)) {
      o.wal_commits += w->commits_logged;
      o.fsyncs += w->fsyncs;
      o.wal_bytes += w->wal_bytes;
      o.checkpoints += w->checkpoints;
      o.segments_truncated += w->segments_truncated;
    }
  }
  // Every site makes the same queue-drop decision from the definitive order.
  o.queue_drops = cluster.replica(0).metrics().deadline_expired_queue;
  o.committed = cluster.replica(0).metrics().committed;
  o.generated = load.generated();
  o.gave_up = load.gave_up();
  o.expired_presubmit = load.expired();
  o.retries = load.retries();
  o.failed = o.gave_up + o.expired_presubmit + o.queue_drops;
  o.events = cluster.sim().executed();
  o.messages = cluster.net().delivered_count();
  o.sim_end = cluster.sim().now();
  o.commit_samples = commit_latency.count();
  o.commit_p50_ns = commit_latency.percentile(50.0);
  o.commit_p99_ns = commit_latency.percentile(99.0);
  o.query_mean_ns = query_latency.mean();
  o.commit_wait_mean_ns = commit_wait.mean();
  o.suspicions = cluster.fd_stats().suspicions;
  const otpdb::ChaosStats chaos = cluster.chaos_stats();
  o.gray_delays = chaos.gray_delays;
  o.parked = chaos.deliveries_parked;
  o.flaps = chaos.flap_transitions;
  return o;
}

/// Output checks after a quiesced episode; appends one line per violation.
void check_outputs(Workload w, Cluster& cluster, Load& load, const Outcome& o,
                   std::vector<std::string>& v) {
  auto expect = [&v](bool ok, const std::string& what) {
    if (!ok) v.push_back(what);
  };
  std::vector<const otpdb::VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    expect(cluster.replica(s).metrics().committed == o.committed,
           "site " + std::to_string(s) + " committed count differs from site 0");
    stores.push_back(&cluster.store(s));
    for (const std::string& line : load.audit(s)) {
      v.push_back("audit site " + std::to_string(s) + ": " + line);
    }
  }
  for (const std::string& line :
       otpdb::compare_final_states(stores, cluster.catalog()).violations) {
    v.push_back("final state: " + line);
  }
  expect(o.generated == o.committed + o.failed,
         "ledger: generated updates != committed + failed");
  expect(o.committed > 0, "no update committed");

  // Ledger checks: a workload that silently stopped exercising its layer
  // fails, and a layer it does not arm stays idle.
  const bool durable = w == Workload::tpcc_durable;
  const bool overload = w == Workload::wan_overload;
  expect((cluster.wal_stats(0) != nullptr) == durable, "WAL presence does not match the workload");
  if (durable) {
    expect(o.wal_commits > 0 && o.fsyncs > 0 && o.wal_bytes > 0 && o.checkpoints > 0 &&
               o.segments_truncated > 0,
           "a WAL counter is zero on the durable workload");
  }
  const bool chaos_active = o.gray_delays > 0 && o.parked > 0 && o.flaps > 0;
  const bool chaos_idle = o.gray_delays == 0 && o.parked == 0 && o.flaps == 0;
  expect(overload ? chaos_active : chaos_idle, "chaos counters do not match the workload");
  expect(overload ? o.shed > 0 : o.shed == 0 && o.retries == 0 && o.backpressured == 0,
         "shed/retry counters do not match the workload");
  expect(overload ? o.queue_drops + o.expired_presubmit > 0 : o.failed == 0,
         "deadline counters do not match the workload");
  if (overload) expect(o.reorders > 0, "no CC10 reorder on the overload workload");
}

struct Episode {
  Outcome outcome;
  double build_ms = 0, start_ms = 0, verify_ms = 0;  // wall
  double timed_cpu_s = 0;              // process CPU time of window + quiesce
  std::vector<double> slice_cpu_ms;    // process CPU time per slice
  SpanSummary spans;                   // traced episodes only
  std::vector<double> query_latency_ns;  // traced episodes only
};

/// Runs one episode. `sliced` runs the submission window in kSlice steps;
/// a non-null `tracer` installs the tracing decorators and the 1CSR history.
Episode run_episode(const RunOptions& opt, SimTime duration, bool sliced, Tracer* tracer,
                    std::vector<std::string>& violations) {
  const bool durable = opt.workload == Workload::tpcc_durable;
  if (durable) std::filesystem::remove_all(opt.data_dir);
  const ClusterConfig config = cluster_config(opt.workload, opt.seed, duration, opt.data_dir);

  Episode ep;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Load> load;
  std::unique_ptr<otpdb::HistoryRecorder> history;
  {
    Tracer::Scope span(tracer, SpanKind::setup);
    const std::int64_t t0 = wall_ns();
    cluster = tracer ? std::make_unique<Cluster>(config, traced_factory(*tracer, config.admission))
                     : std::make_unique<Cluster>(config);
    load = std::make_unique<Load>(opt.workload, *cluster, duration, driver_seed(opt.seed));
    const std::int64_t t1 = wall_ns();
    if (tracer) history = std::make_unique<otpdb::HistoryRecorder>(*cluster);
    const std::int64_t t2 = wall_ns();
    load->start();
    const std::int64_t t3 = wall_ns();
    ep.build_ms = static_cast<double>(t1 - t0) / 1e6;
    ep.start_ms = static_cast<double>(t3 - t2) / 1e6;
  }

  const std::int64_t run_begin = cpu_ns();
  if (sliced) {
    OTPDB_CHECK(duration % kSlice == 0);
    ep.slice_cpu_ms.reserve(static_cast<std::size_t>(duration / kSlice));
    for (SimTime at = 0; at < duration; at += kSlice) {
      Tracer::Scope span(tracer, SpanKind::slice);
      const std::int64_t t = cpu_ns();
      cluster->run_for(kSlice);
      ep.slice_cpu_ms.push_back(static_cast<double>(cpu_ns() - t) / 1e6);
    }
  } else {
    cluster->run_for(duration);
  }
  bool quiesced = false;
  {
    Tracer::Scope span(tracer, SpanKind::quiesce);
    quiesced = cluster->quiesce(kQuiesceLimit);
  }
  ep.timed_cpu_s = static_cast<double>(cpu_ns() - run_begin) / 1e9;

  if (!quiesced) violations.push_back("cluster did not quiesce");
  ep.outcome = collect(*cluster, *load);
  check_outputs(opt.workload, *cluster, *load, ep.outcome, violations);

  if (tracer) {
    {
      Tracer::Scope span(tracer, SpanKind::verify);
      const std::int64_t t = wall_ns();
      const otpdb::CheckResult csr = otpdb::check_one_copy_serializability(history->site_logs());
      ep.verify_ms = static_cast<double>(wall_ns() - t) / 1e6;
      for (const std::string& line : csr.violations) violations.push_back("1CSR: " + line);
    }
    if (history->total_commits() != ep.outcome.site_commits) {
      violations.push_back("history recorder missed commits");
    }
    ep.spans = tracer->summarize();
    ep.query_latency_ns = std::move(tracer->query_latency_ns());
  }

  history.reset();
  load.reset();
  cluster.reset();
  if (durable) std::filesystem::remove_all(opt.data_dir);
  return ep;
}

/// Median over episodes of a per-episode value; `samples` is the per-episode
/// sample count behind that value (0 for a single measurement).
template <typename F>
Metric episode_median(const char* name, const char* unit, const std::vector<Episode>& eps, F f,
                      std::uint64_t samples = 0) {
  std::vector<double> values;
  for (const Episode& e : eps) values.push_back(f(e));
  return Metric{name, unit, median(values), samples, values.size()};
}

Metric value(const char* name, const char* unit, double v, std::uint64_t samples = 0) {
  return Metric{name, unit, v, samples, 0};
}

double d(std::uint64_t v) { return static_cast<double>(v); }

std::vector<Metric> end_to_end(const Outcome& ref, const std::vector<Episode>& eps) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::uint64_t slices = eps.front().slice_cpu_ms.size();
  return {
      episode_median("txn_per_cpu_s", "txn/s", eps,
                     [&](const Episode& e) { return d(ref.committed) / e.timed_cpu_s; }),
      episode_median("slice_cpu_ms.p50", "ms", eps,
                     [](const Episode& e) { return percentile(e.slice_cpu_ms, 50); }, slices),
      episode_median("slice_cpu_ms.p99", "ms", eps,
                     [](const Episode& e) { return percentile(e.slice_cpu_ms, 99); }, slices),
      episode_median("setup_s", "s", eps,
                     [](const Episode& e) { return (e.build_ms + e.start_ms) / 1e3; }),
      value("peak_rss_mib", "MiB", static_cast<double>(usage.ru_maxrss) / 1024.0),
      value("commit_ms.p50", "sim_ms", ref.commit_p50_ns / 1e6, ref.commit_samples),
      value("commit_ms.p99", "sim_ms", ref.commit_p99_ns / 1e6, ref.commit_samples),
      value("query_ms.mean", "sim_ms", ref.query_mean_ns / 1e6, ref.queries),
      value("goodput_txn_s", "txn/sim_s", d(ref.committed) / (static_cast<double>(ref.sim_end) / 1e9)),
      value("completed_frac", "ratio", completed_frac(ref.generated, ref.failed)),
  };
}

std::vector<Metric> per_layer(const Outcome& ref, const std::vector<Episode>& untraced,
                              const std::vector<Episode>& traced) {
  auto per_call_us = [](SpanKind k, bool self) {
    return [k, self](const Episode& e) {
      return ratio(self ? e.spans.self(k) : e.spans.total(k), d(e.spans.items_of(k))) / 1e3;
    };
  };
  const std::vector<double>& queries = traced.front().query_latency_ns;
  const double committed = d(ref.committed);
  auto timed_median = [](const std::vector<Episode>& eps) {
    std::vector<double> v;
    for (const Episode& e : eps) v.push_back(e.timed_cpu_s);
    return median(v);
  };
  return {
      value("sim.events_per_txn", "count", ratio(d(ref.events), committed)),
      episode_median("sim.ns_per_event", "ns", untraced,
                     [&](const Episode& e) { return e.timed_cpu_s * 1e9 / d(ref.events); }),
      episode_median("sim_net_abcast.self_ms", "ms", traced,
                     [](const Episode& e) {
                       return (e.spans.self(SpanKind::slice) + e.spans.self(SpanKind::quiesce)) /
                              1e6;
                     }),
      value("net.msgs_per_txn", "count", ratio(d(ref.messages), committed)),
      value("net.chaos.gray_delays", "count", d(ref.gray_delays)),
      value("net.chaos.parked", "count", d(ref.parked)),
      value("net.chaos.flaps", "count", d(ref.flaps)),
      episode_median("abcast.broadcast_us", "us", traced, per_call_us(SpanKind::broadcast, false)),
      value("abcast.consensus.fast_frac", "ratio",
            ratio(d(ref.fast_decides), d(ref.consensus_instances))),
      value("abcast.consensus.rounds_per_instance", "count",
            ratio(d(ref.rounds_started), d(ref.consensus_instances))),
      value("abcast.opt_to_gap_ms", "sim_ms",
            ratio(static_cast<double>(ref.opt_to_gap_total_ns), d(ref.to_delivered)) / 1e6),
      value("abcast.fd.suspicions", "count", d(ref.suspicions)),
      episode_median("core.submit_us", "us", traced, per_call_us(SpanKind::submit, true)),
      episode_median("core.opt_deliver_us", "us", traced, per_call_us(SpanKind::opt_deliver, true)),
      episode_median("core.to_deliver_us", "us", traced, per_call_us(SpanKind::to_deliver, true)),
      episode_median("core.self_ms", "ms", traced,
                     [](const Episode& e) {
                       return (e.spans.self(SpanKind::submit) +
                               e.spans.self(SpanKind::opt_deliver) +
                               e.spans.self(SpanKind::to_deliver)) /
                              1e6;
                     }),
      value("core.commit_wait_ms", "sim_ms", ref.commit_wait_mean_ns / 1e6),
      value("core.abort_pct", "%", 100.0 * ratio(d(ref.aborts), d(ref.site_commits))),
      value("core.reorders_per_txn", "count", ratio(d(ref.reorders), d(ref.site_commits))),
      value("core.useful_exec_frac", "ratio",
            ratio(d(ref.site_commits), d(ref.site_commits + ref.reexecutions))),
      value("core.query_ms.p50", "sim_ms", percentile(queries, 50) / 1e6, queries.size()),
      value("core.query_ms.p99", "sim_ms", percentile(queries, 99) / 1e6, queries.size()),
      value("core.query_retries_per_query", "count", ratio(d(ref.query_retries), d(ref.queries))),
      value("core.admission.shed_per_update", "ratio", ratio(d(ref.shed), d(ref.generated))),
      value("core.deadline.queue_drops", "count", d(ref.queue_drops)),
      value("db.wal.fsyncs_per_txn", "count", ratio(d(ref.fsyncs), d(ref.site_commits))),
      value("db.wal.commits_per_fsync", "count", ratio(d(ref.wal_commits), d(ref.fsyncs))),
      value("db.wal.kib_per_txn", "KiB", ratio(d(ref.wal_bytes), d(ref.wal_commits)) / 1024.0),
      value("db.wal.checkpoints", "count", d(ref.checkpoints)),
      value("db.wal.segments_truncated", "count", d(ref.segments_truncated)),
      episode_median("workload.build_ms", "ms", untraced,
                     [](const Episode& e) { return e.build_ms; }),
      episode_median("workload.start_ms", "ms", untraced,
                     [](const Episode& e) { return e.start_ms; }),
      value("workload.retries_per_update", "count", ratio(d(ref.retries), d(ref.generated))),
      episode_median("checker.hook_us_per_commit", "us", traced,
                     per_call_us(SpanKind::commit_hook, false)),
      episode_median("checker.verify_ms", "ms", traced,
                     [](const Episode& e) { return e.verify_ms; }),
      value("trace.overhead_pct", "%",
            100.0 * (timed_median(traced) / timed_median(untraced) - 1.0)),
  };
}

std::vector<std::string> diff(const Outcome& ref, const Outcome& got) {
  std::vector<std::string> out;
  const auto a = ref.fields();
  const auto b = got.fields();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      out.push_back(std::string(a[i].first) + " " + std::to_string(a[i].second) + " -> " +
                    std::to_string(b[i].second));
    }
  }
  return out;
}

std::vector<MetricSpec> specs_of(const std::vector<Metric>& metrics) {
  std::vector<MetricSpec> specs;
  for (const Metric& m : metrics) specs.push_back(MetricSpec{m.name.c_str(), m.unit.c_str()});
  return specs;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::lan_steady, Workload::tpcc_durable, Workload::wan_overload}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::lan_steady: return "lan_steady";
    case Workload::tpcc_durable: return "tpcc_durable";
    case Workload::wan_overload: return "wan_overload";
  }
  OTPDB_UNREACHABLE();
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  // Names and units come from the same code that computes the values.
  static const std::vector<Metric> metrics = end_to_end(Outcome{}, {Episode{}});
  static const std::vector<MetricSpec> specs = specs_of(metrics);
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<Metric> metrics = per_layer(Outcome{}, {Episode{}}, {Episode{}});
  static const std::vector<MetricSpec> specs = specs_of(metrics);
  return specs;
}

RunResult run_benchmark(const RunOptions& opt) {
  RunResult result;
  const SimTime duration = opt.duration != 0 ? opt.duration : default_duration(opt.workload);

  auto record = [&result](const std::string& label, std::vector<std::string>& violations) {
    ++result.episodes;
    if (violations.empty()) return;
    ++result.failed_episodes;
    for (const std::string& v : violations) result.violations.push_back(label + ": " + v);
    violations.clear();
  };

  std::vector<std::string> violations;
  const Episode ref = run_episode(opt, duration, /*sliced=*/false, nullptr, violations);
  record("reference episode (unsliced)", violations);

  std::vector<Episode> untraced, traced;
  const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t i = 0; result.correct(); ++i) {
    const bool done = wall_ns() >= deadline && untraced.size() >= opt.min_episodes &&
                      (!opt.trace || traced.size() >= opt.min_episodes);
    if (done) break;
    const bool traced_episode = opt.trace && i % 2 == 1;
    std::unique_ptr<Tracer> tracer = traced_episode ? std::make_unique<Tracer>() : nullptr;
    Episode ep = run_episode(opt, duration, /*sliced=*/true, tracer.get(), violations);
    for (const std::string& change : diff(ref.outcome, ep.outcome)) {
      violations.push_back("diverged from the unsliced reference: " + change);
    }
    const std::string label = std::string(traced_episode ? "traced" : "untraced") +
                              " episode " + std::to_string(i + 1);
    if (traced_episode && ep.query_latency_ns.size() != ep.outcome.queries) {
      violations.push_back("query wrapper saw " + std::to_string(ep.query_latency_ns.size()) +
                           " completions, replicas report " +
                           std::to_string(ep.outcome.queries));
    }
    record(label, violations);
    (traced_episode ? traced : untraced).push_back(std::move(ep));
  }
  if (!result.correct()) return result;

  result.metrics = opt.trace ? per_layer(ref.outcome, untraced, traced)
                             : end_to_end(ref.outcome, untraced);
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.violations.push_back(m.name + " is not a finite number");
  }
  for (const auto& [name, v] : ref.outcome.fields()) {
    result.counts.push_back(Metric{name, "", v, 0, 0});
  }
  return result;
}

}  // namespace yardstick
