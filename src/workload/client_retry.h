// ClientRetry - the client side of the overload plane, shared by the workload
// drivers. An update is generated once and submitted at its site; after a
// shed/backpressure refusal it is resubmitted with deterministic exponential
// backoff, keeping its original deadline, until it is admitted, expires, or
// runs out of retries.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "util/rng.h"

namespace otpdb {

/// Client overload settings (all off by default: identical rng streams and
/// submissions to a driver without them).
struct RetryPolicy {
  /// Deadline budget per update (0 = none). Each update carries an absolute
  /// deadline of first-submission time + this budget; retries keep the
  /// original deadline, so backing off consumes the budget.
  SimTime deadline_budget = 0;
  /// Client retries after a shed/backpressure refusal (0 = fire-and-forget).
  std::size_t max_retries = 0;
  /// Deterministic exponential backoff between attempts:
  /// delay = min(backoff_cap, backoff_base << attempt) + uniform jitter in
  /// [0, backoff_jitter], drawn from the site rng ONLY on a refusal (so
  /// non-shedding runs draw the exact same streams as a driver without
  /// retries).
  SimTime backoff_base = 2 * kMillisecond;
  SimTime backoff_cap = 64 * kMillisecond;
  SimTime backoff_jitter = 1 * kMillisecond;
};

/// Outcomes of the retry loop, counted per driver.
struct RetryStats {
  std::uint64_t retries = 0;            ///< re-submissions after shed/backpressure
  std::uint64_t gave_up = 0;            ///< updates abandoned after max_retries
  std::uint64_t expired_presubmit = 0;  ///< deadline passed before admission
};

/// A generated update held by the client across retry attempts. Arguments
/// are drawn once; every attempt submits the same transaction with the same
/// (original) deadline.
struct PendingUpdate {
  bool cross = false;  ///< submit_update_multi over `classes`
  ProcId proc = 0;
  ClassId klass = 0;
  std::vector<ClassId> classes;  // cross-class only
  TxnArgs args;
  SimTime exec_duration = 0;
  SimTime deadline = 0;  // absolute; 0 = none; stamped by the first attempt
  std::size_t attempts = 0;
};

class ClientRetry {
 public:
  /// Jitter draws come from `site_rngs[site]`; outcomes count into `stats`.
  ClientRetry(Cluster& cluster, const RetryPolicy& policy, std::vector<Rng>& site_rngs,
              RetryStats& stats)
      : cluster_(cluster), policy_(policy), site_rngs_(site_rngs), stats_(stats) {}
  // Scheduled retries hold `this`.
  ClientRetry(const ClientRetry&) = delete;
  ClientRetry& operator=(const ClientRetry&) = delete;

  /// Submits a freshly generated update at `site` (its first attempt).
  void submit(SiteId site, PendingUpdate pending);

 private:
  void attempt(SiteId site, PendingUpdate pending);

  Cluster& cluster_;
  RetryPolicy policy_;
  std::vector<Rng>& site_rngs_;
  RetryStats& stats_;
};

}  // namespace otpdb
