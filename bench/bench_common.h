// Shared helpers for the benchmark harness. Each bench binary reproduces one
// experiment row of DESIGN.md section 3; metrics of interest are *simulated*
// quantities reported as google-benchmark counters (wall time of the
// simulation itself is irrelevant to the paper's claims).
#pragma once

#include <benchmark/benchmark.h>

#include <memory>

#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb::bench {

/// LAN regime used across benches: the calibrated Figure-1 defaults.
inline NetConfig lan() { return NetConfig{}; }

/// Selects a topology profile and, for the wide-area ones (tens-of-ms RTTs),
/// rescales the protocol timers that were calibrated for LAN latencies -
/// otherwise consensus retries and failure-detector false positives dominate
/// every counter.
inline void apply_topology(ClusterConfig& config, TopologyProfile profile) {
  config.net.topology = profile;
  if (profile == TopologyProfile::wan || profile == TopologyProfile::geo_3dc) {
    config.opt.batch_delay = 10 * kMillisecond;
    config.opt.alignment_window = 8 * kMillisecond;
    config.opt.consensus.fast_wait = 150 * kMillisecond;
    config.opt.consensus.round_timeout = 500 * kMillisecond;
    config.fd.interval = 50 * kMillisecond;
    config.fd.suspect_timeout = 500 * kMillisecond;
  }
}

/// Aggregated view over all replicas of a cluster.
struct ClusterTotals {
  std::uint64_t committed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reexecutions = 0;
  std::uint64_t reorders = 0;
  OnlineStats commit_latency_ns;
  PercentileTracker commit_latency_percentiles_ns;
  OnlineStats commit_wait_ns;
  OnlineStats opt_to_gap_ns;
  OnlineStats query_latency_ns;
  std::uint64_t query_retries = 0;
};

inline ClusterTotals totals(Cluster& cluster) {
  ClusterTotals t;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    t.committed += m.committed;
    t.aborts += m.aborts;
    t.reexecutions += m.reexecutions;
    t.reorders += m.mismatch_reorders;
    t.commit_latency_ns.merge(m.commit_latency_ns);
    t.commit_latency_percentiles_ns.merge(m.commit_latency_percentiles_ns);
    t.commit_wait_ns.merge(m.commit_wait_ns);
    t.opt_to_gap_ns.merge(m.opt_to_gap_ns);
    t.query_latency_ns.merge(m.query_latency_ns);
    t.query_retries += m.query_retries;
  }
  return t;
}

inline double to_ms(double ns) { return ns / 1e6; }

/// Cluster-wide goodput in distinct transactions per second. Eager engines
/// commit every transaction at every site (divide by n); the lazy engine's
/// commit counter only covers a transaction's origin site (count directly).
inline double goodput(const ClusterTotals& t, std::size_t n_sites, double duration_s,
                      bool lazy_engine) {
  if (duration_s <= 0) return 0;
  const double commits = static_cast<double>(t.committed);
  return lazy_engine ? commits / duration_s
                     : commits / static_cast<double>(n_sites) / duration_s;
}

}  // namespace otpdb::bench
