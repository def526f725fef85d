#include "workload/client_retry.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace otpdb {

void ClientRetry::submit(SiteId site, PendingUpdate pending) {
  if (policy_.deadline_budget != 0) {
    pending.deadline = cluster_.sim().now() + policy_.deadline_budget;
  }
  attempt(site, std::move(pending));
}

void ClientRetry::attempt(SiteId site, PendingUpdate pending) {
  // Arguments are copied into each attempt so a refusal keeps the original.
  ReplicaBase& replica = cluster_.replica(site);
  const SubmitResult result =
      pending.cross ? replica.submit_update_multi(pending.proc, pending.classes, pending.args,
                                                  pending.exec_duration, pending.deadline)
                    : replica.submit_update(pending.proc, pending.klass, pending.args,
                                            pending.exec_duration, pending.deadline);
  switch (result) {
    case SubmitResult::admitted:
      return;
    case SubmitResult::expired:
      // Deadline budget ran out while the client was backing off (or the
      // site's queue never cleared in time). Nothing more to do.
      ++stats_.expired_presubmit;
      return;
    case SubmitResult::shed:
    case SubmitResult::backpressure:
      break;  // retryable refusals
  }
  if (pending.attempts >= policy_.max_retries) {
    ++stats_.gave_up;
    return;
  }
  // Deterministic exponential backoff. The jitter draw happens ONLY here, on
  // a refusal, so runs that never shed consume the exact same rng stream as
  // a driver without retries.
  const std::size_t shift = std::min<std::size_t>(pending.attempts, 20);
  SimTime delay = std::min(policy_.backoff_cap, policy_.backoff_base << shift);
  if (policy_.backoff_jitter > 0) {
    delay += static_cast<SimTime>(site_rngs_[site].uniform_int(
        0, static_cast<std::int64_t>(policy_.backoff_jitter)));
  }
  ++pending.attempts;
  ++stats_.retries;
  // Boxed: the event capture must stay within InlineAction::kCapacity, and a
  // PendingUpdate (two vectors + scalars) does not.
  cluster_.sim().schedule_after(
      delay, [this, site, boxed = std::make_unique<PendingUpdate>(std::move(pending))]() {
        attempt(site, std::move(*boxed));
      });
}

}  // namespace otpdb
