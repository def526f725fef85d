// Workload generation: client arrival processes, conflict-class selection,
// stored-procedure mixes, and snapshot-query mixes. Drives any Cluster
// deterministically from a seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workload/client_retry.h"

namespace otpdb {

/// The overload-plane fields (deadline budget, retries, backoff) come from
/// RetryPolicy.
struct WorkloadConfig : RetryPolicy {
  /// Client update-transaction arrival rate per site (per simulated second).
  double updates_per_second_per_site = 100.0;
  /// Poisson arrivals (exponential gaps) or a fixed submission interval.
  bool poisson_arrivals = true;

  /// Zipf skew of conflict-class selection (0 = uniform). Higher skew means
  /// more transactions in the same class, i.e. higher conflict rates.
  double class_skew_theta = 0.0;

  /// Fraction of update transactions that span several conflict classes
  /// (cross-partition commits; requires an engine with submit_update_multi
  /// support - OTP or conservative). 0 reproduces the paper's base model.
  double cross_class_fraction = 0.0;
  /// Classes a cross-class update covers (clamped to the class count). The
  /// first class is drawn with class_skew_theta; the rest are the following
  /// consecutive classes (mod class count).
  std::size_t cross_class_span = 2;

  /// Stored-procedure execution cost: exponential with this mean (or constant
  /// when `exponential_exec` is false).
  SimTime mean_exec_time = 4 * kMillisecond;
  bool exponential_exec = true;

  /// Objects read-modify-written per transaction.
  std::size_t ops_per_txn = 4;

  /// Fraction of client requests that are read-only snapshot queries.
  double query_fraction = 0.0;
  /// Conflict classes a query spans and objects it reads per class.
  std::size_t query_classes = 2;
  std::size_t query_reads_per_class = 4;
  SimTime mean_query_exec_time = 8 * kMillisecond;

  /// Length of the submission window (simulated time).
  SimTime duration = 2 * kSecond;
};

/// Registers the standard read-modify-write stored procedure used by the
/// generated workloads: args.ints = [delta, offset_1, ..., offset_k]; each
/// referenced object of the transaction's class gets value += delta.
/// Idempotent per registry (call once).
ProcId register_rmw_procedure(ProcedureRegistry& registry, const PartitionCatalog& catalog);

/// Cross-class variant for multi-class transactions: args.ints =
/// [delta, object_1, ..., object_k] with *absolute* object ids (the covered
/// class set is carried by the submission, so offsets cannot be resolved
/// against a single conflict_class()); each referenced object gets
/// value += delta. The ids must lie inside the transaction's class set -
/// TxnContext aborts the run otherwise.
ProcId register_rmw_cross_procedure(ProcedureRegistry& registry);

/// Per-site client load generator.
class WorkloadDriver {
 public:
  WorkloadDriver(Cluster& cluster, WorkloadConfig config, std::uint64_t seed);

  /// Registers the rmw procedure, loads initial object values (0) lazily via
  /// store defaults, and schedules the per-site submission streams, each
  /// drawing from its own rng.
  void start();

  std::uint64_t updates_submitted() const { return updates_submitted_; }
  std::uint64_t cross_class_submitted() const { return cross_class_submitted_; }
  std::uint64_t queries_submitted() const { return queries_submitted_; }
  /// Re-submissions after a shed/backpressure refusal.
  std::uint64_t retries() const { return retry_stats_.retries; }
  /// Updates abandoned after exhausting max_retries.
  std::uint64_t gave_up() const { return retry_stats_.gave_up; }
  /// Updates whose deadline passed before an attempt was admitted.
  std::uint64_t expired_presubmit() const { return retry_stats_.expired_presubmit; }
  ProcId rmw_proc() const { return rmw_proc_; }
  ProcId rmw_cross_proc() const { return rmw_cross_proc_; }

 private:
  void schedule_next(SiteId site, SimTime horizon);
  void submit_one(SiteId site);
  void submit_cross_class(SiteId site, Rng& rng);
  SimTime next_gap(Rng& rng) const;

  Cluster& cluster_;
  WorkloadConfig config_;
  std::vector<Rng> site_rngs_;
  ProcId rmw_proc_ = 0;
  ProcId rmw_cross_proc_ = 0;
  std::uint64_t updates_submitted_ = 0;
  std::uint64_t cross_class_submitted_ = 0;
  std::uint64_t queries_submitted_ = 0;
  RetryStats retry_stats_;
  ClientRetry retry_;
  bool started_ = false;
};

}  // namespace otpdb
