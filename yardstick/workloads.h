// The benchmark's workloads and the run loop that measures them.
//
// One run measures one workload at one seed for a wall-clock budget. It
// executes the same simulated episode repeatedly through the public API
// (Cluster, WorkloadDriver / tpcc::TpccDriver, parse_chaos_profile, the stats
// getters, HistoryRecorder / check_one_copy_serializability):
//
//   1. a reference episode with one unsliced run_for (not timed into any
//      metric; it also warms the allocator and caches),
//   2. timed episodes whose submission window runs in equal run_for slices,
//      until the budget is spent; the traced run alternates untraced and
//      traced episodes.
//
// Cost metrics are process CPU time: the process is single-threaded, so it
// equals wall time except while blocked in I/O (the durable backend's
// fsyncs), which measures the disk rather than the code.
//
// Every episode's simulated outcome (sim-time metrics and every counter)
// must equal the reference bit for bit: that checks slicing, repetition and
// the tracing decorators at once. Cost metrics are medians over the timed
// episodes; simulated metrics come from the reference.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace yardstick {

enum class Workload { lan_steady, tpcc_durable, wan_overload };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics a run reports, in output order: end-to-end ones on untraced
/// runs, per-layer ones on traced runs.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;   // samples behind a percentile or mean (per episode)
  std::uint64_t episodes = 0;  // > 0: the value is the median over this many episodes
};

struct RunOptions {
  Workload workload = Workload::lan_steady;
  std::uint64_t seed = 7;
  double seconds = 10;  // wall-clock budget of the timed episodes
  bool trace = false;
  /// Root of the durable backend's data (tpcc_durable); wiped per episode.
  std::filesystem::path data_dir;
  /// Simulated submission window; 0 = the workload's benchmark size.
  otpdb::SimTime duration = 0;
  /// Timed episodes to run even when the budget is spent (per kind).
  std::size_t min_episodes = 3;
};

struct RunResult {
  std::vector<Metric> metrics;      // reported (end-to-end or per-layer)
  std::vector<Metric> counts;       // the reference outcome: every counter and sim-time value
  std::vector<std::string> violations;
  std::uint64_t episodes = 0;
  std::uint64_t failed_episodes = 0;
  bool correct() const { return violations.empty(); }
};

RunResult run_benchmark(const RunOptions& options);

}  // namespace yardstick
