#include "checker/invariant_monitor.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "db/durable_store.h"

namespace otpdb {

InvariantMonitor::InvariantMonitor(Cluster& cluster, Config config)
    : cluster_(cluster), config_(config), recorder_(cluster) {
  high_watermark_.assign(cluster_.site_count(),
                         std::vector<TOIndex>(cluster_.config().n_classes, 0));
  cluster_.sim().schedule_after(config_.sample_interval, [this] { sample(); });
}

void InvariantMonitor::sample() {
  observe();
  cluster_.sim().schedule_after(config_.sample_interval, [this] { sample(); });
}

void InvariantMonitor::observe() {
  ++samples_;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) {
    const auto* durable = dynamic_cast<const DurableStore*>(&cluster_.storage(s));
    if (durable == nullptr) continue;
    auto& high = high_watermark_[s];
    for (ClassId c = 0; c < high.size(); ++c) {
      const TOIndex w = durable->durable_watermark(c);
      if (w < high[c]) {
        online_violations_.push_back("site " + std::to_string(s) + " class " +
                                     std::to_string(c) + ": durable watermark regressed " +
                                     std::to_string(high[c]) + " -> " + std::to_string(w));
      }
      high[c] = std::max(high[c], w);
    }
  }
}

CheckResult InvariantMonitor::finish() {
  observe();  // one final watermark observation at the end state

  CheckResult result;
  result.violations = online_violations_;

  std::vector<std::vector<CommitRecord>> logs = recorder_.site_logs();
  if (config_.dedup_replayed_commits) {
    for (auto& log : logs) {
      std::unordered_map<TOIndex, std::size_t> last;
      for (std::size_t i = 0; i < log.size(); ++i) last[log[i].index] = i;
      std::vector<CommitRecord> dedup;
      dedup.reserve(log.size());
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (last[log[i].index] == i) dedup.push_back(log[i]);
      }
      log = std::move(dedup);
    }
  }
  const CheckResult serializability = check_one_copy_serializability(logs);
  result.violations.insert(result.violations.end(), serializability.violations.begin(),
                           serializability.violations.end());

  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster_.site_count(); ++s) stores.push_back(&cluster_.store(s));
  const CheckResult convergence = compare_final_states(stores, cluster_.catalog());
  result.violations.insert(result.violations.end(), convergence.violations.begin(),
                           convergence.violations.end());

  if (audit_) {
    for (SiteId s = 0; s < cluster_.site_count(); ++s) {
      for (const std::string& v : audit_(s)) {
        result.violations.push_back("site " + std::to_string(s) + " audit: " + v);
      }
    }
  }
  return result;
}

}  // namespace otpdb
