// End-to-end integration tests: full clusters (network + failure detectors +
// atomic broadcast + replicas) under generated workloads, validated with the
// 1-copy-serializability checker (Theorem 4.2), starvation freedom
// (Theorem 4.1), query-snapshot consistency (Section 5), determinism, and
// fault injection. The lazy baseline is shown to violate what OTP guarantees.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "baseline/lazy_replica.h"
#include "checker/history.h"
#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

NetConfig calm_network() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.02;
  cfg.hiccup_mean = 1 * kMillisecond;
  return cfg;
}

NetConfig stormy_network() {
  NetConfig cfg;
  cfg.hiccup_prob = 0.25;
  cfg.hiccup_mean = 3 * kMillisecond;
  cfg.noise_max = 100 * kMicrosecond;
  return cfg;
}

std::vector<const VersionedStore*> all_stores(Cluster& cluster) {
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  return stores;
}

struct SweepParams {
  std::uint64_t seed;
  AbcastKind abcast;
  bool stormy;
  double skew;
};

class OtpClusterSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(OtpClusterSweep, OneCopySerializableAndStarvationFree) {
  const SweepParams p = GetParam();
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  config.seed = p.seed;
  config.abcast = p.abcast;
  config.net = p.stormy ? stormy_network() : calm_network();
  // Every site validates the class-queue invariants after each module step.
  Cluster cluster(config, [](const ReplicaDeps& d) {
    return std::make_unique<OtpReplica>(d.sim, d.abcast, d.storage, d.catalog, d.registry,
                                        d.site, OtpReplicaConfig{.paranoid_checks = true});
  });
  HistoryRecorder recorder(cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 150;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.class_skew_theta = p.skew;
  wl.duration = 1 * kSecond;
  WorkloadDriver driver(cluster, wl, p.seed * 31 + 7);
  driver.start();

  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond)) << "cluster failed to drain";

  // Starvation freedom / termination: every submitted update committed at
  // every site.
  const std::uint64_t expected = driver.updates_submitted();
  ASSERT_GT(expected, 50u);
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    EXPECT_EQ(cluster.replica(s).metrics().committed, expected) << "site " << s;
  }

  // Theorem 4.2 via the checker.
  const CheckResult serializability = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(serializability.ok()) << serializability.summary();

  // Identical final database state at every site.
  const CheckResult convergence = compare_final_states(all_stores(cluster), cluster.catalog());
  EXPECT_TRUE(convergence.ok()) << convergence.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OtpClusterSweep,
    ::testing::Values(SweepParams{1, AbcastKind::optimistic, false, 0.0},
                      SweepParams{2, AbcastKind::optimistic, true, 0.0},
                      SweepParams{3, AbcastKind::optimistic, true, 1.0},
                      SweepParams{4, AbcastKind::optimistic, false, 1.5},
                      SweepParams{5, AbcastKind::sequencer, false, 0.0},
                      SweepParams{6, AbcastKind::sequencer, true, 1.0},
                      SweepParams{7, AbcastKind::optimistic, true, 0.5},
                      SweepParams{8, AbcastKind::sequencer, true, 1.5}),
    [](const ::testing::TestParamInfo<SweepParams>& param_info) {
      const auto& p = param_info.param;
      return std::string(p.abcast == AbcastKind::optimistic ? "opt" : "seq") +
             (p.stormy ? "_stormy" : "_calm") + "_skew" +
             std::to_string(static_cast<int>(p.skew * 10)) + "_seed" +
             std::to_string(p.seed);
    });

TEST(OtpCluster, MismatchesOnlyHurtWhenTransactionsConflict) {
  // With many classes (few conflicts), a stormy network produces tentative/
  // definitive mismatches but almost no aborts; with one class (all conflict),
  // the same storm forces real aborts. This is the paper's Section 3.2 claim.
  auto run = [](std::size_t n_classes) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = n_classes;
    config.seed = 77;
    config.net = stormy_network();
    Cluster cluster(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 120;
    wl.mean_exec_time = 2 * kMillisecond;
    wl.duration = 1 * kSecond;
    WorkloadDriver driver(cluster, wl, 99);
    driver.start();
    cluster.run_for(wl.duration);
    EXPECT_TRUE(cluster.quiesce(60 * kSecond));
    std::uint64_t aborts = 0;
    for (SiteId s = 0; s < cluster.site_count(); ++s) {
      aborts += cluster.replica(s).metrics().aborts;
    }
    return aborts;
  };
  const std::uint64_t aborts_spread = run(16);
  const std::uint64_t aborts_hot = run(1);
  EXPECT_GT(aborts_hot, aborts_spread)
      << "conflict concentration must turn mismatches into aborts";
}

TEST(ConservativeCluster, CorrectButNeverAborts) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  config.seed = 21;
  config.net = stormy_network();
  Cluster cluster(config, engine_factory("conservative"));
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 100;
  wl.duration = 1 * kSecond;
  WorkloadDriver driver(cluster, wl, 5);
  driver.start();
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));

  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    EXPECT_EQ(cluster.replica(s).metrics().committed, driver.updates_submitted());
    EXPECT_EQ(cluster.replica(s).metrics().aborts, 0u);
  }
  EXPECT_TRUE(check_one_copy_serializability(recorder.site_logs()).ok());
  EXPECT_TRUE(compare_final_states(all_stores(cluster), cluster.catalog()).ok());
}

TEST(ClusterComparison, OtpHidesOrderingLatencyBehindExecution) {
  // Same seed, same workload, same network: OTP's mean commit latency must
  // beat the conservative engine's, because execution overlaps the ordering
  // phase instead of following it.
  auto mean_latency = [](ReplicaFactory factory) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 8;
    config.seed = 42;
    config.net = calm_network();
    auto cluster = factory == nullptr ? std::make_unique<Cluster>(config)
                                      : std::make_unique<Cluster>(config, std::move(factory));
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 100;
    wl.mean_exec_time = 5 * kMillisecond;  // comparable to the ordering delay
    wl.duration = 1 * kSecond;
    WorkloadDriver driver(*cluster, wl, 1234);
    driver.start();
    cluster->run_for(wl.duration);
    EXPECT_TRUE(cluster->quiesce(60 * kSecond));
    OnlineStats latency;
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      latency.merge(cluster->replica(s).metrics().commit_latency_ns);
    }
    return latency.mean();
  };
  const double otp = mean_latency(nullptr);
  const double conservative = mean_latency(engine_factory("conservative"));
  EXPECT_LT(otp, conservative);
}

TEST(LazyCluster, FastButNotOneCopySerializable) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 1;  // single hot class: cross-site conflicts guaranteed
  config.objects_per_class = 4;
  config.seed = 33;
  config.net = calm_network();
  Cluster cluster(config, engine_factory("lazy"));
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 200;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.ops_per_txn = 2;
  wl.duration = 1 * kSecond;
  WorkloadDriver driver(cluster, wl, 7);
  driver.start();
  cluster.run_for(wl.duration + kSecond);  // drain propagation
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));

  // Locally fast: every site committed exactly its own submissions...
  std::uint64_t conflicts = 0;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    auto* lazy = dynamic_cast<LazyReplica*>(&cluster.replica(s));
    ASSERT_NE(lazy, nullptr);
    conflicts += lazy->conflicts_detected();
  }
  // ...but concurrent read-modify-writes collide and updates are lost.
  EXPECT_GT(conflicts, 0u) << "workload must have produced write conflicts";
  const CheckResult check = check_one_copy_serializability(recorder.site_logs());
  EXPECT_FALSE(check.ok()) << "lazy replication must fail the 1SR checker";
}

TEST(LazyCluster, LastWriterWinsConvergesEventually) {
  // Divergent histories, but LWW reconciliation makes the final states equal
  // once propagation drains - eventual consistency without serializability.
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  config.objects_per_class = 4;
  config.seed = 44;
  config.net = calm_network();
  Cluster cluster(config, engine_factory("lazy"));
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 100;
  wl.duration = 500 * kMillisecond;
  WorkloadDriver driver(cluster, wl, 8);
  driver.start();
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  cluster.run_for(2 * kSecond);  // let the last write-sets propagate
  EXPECT_TRUE(compare_final_states(all_stores(cluster), cluster.catalog()).ok());
}

TEST(Queries, SnapshotsMatchDefinitivePrefixExactly) {
  // Every query's reads must equal the database state produced by exactly the
  // transactions with definitive index <= the query's snapshot index -
  // reconstructed independently from the commit history.
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.objects_per_class = 8;
  config.seed = 55;
  config.net = calm_network();
  Cluster cluster(config);
  HistoryRecorder recorder(cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 150;
  wl.mean_exec_time = 3 * kMillisecond;
  wl.duration = 800 * kMillisecond;
  WorkloadDriver driver(cluster, wl, 9);
  driver.start();

  // Interleave explicit queries at site 1 against two classes.
  struct Observed {
    QueryReport report;
  };
  std::vector<QueryReport> reports;
  const std::vector<ObjectId> targets = {cluster.catalog().object(0, 0),
                                         cluster.catalog().object(1, 0),
                                         cluster.catalog().object(2, 3)};
  for (int i = 1; i <= 20; ++i) {
    cluster.sim().schedule_at(i * 40 * kMillisecond, [&cluster, &targets, &reports] {
      cluster.replica(1).submit_query(
          [targets](QueryContext& ctx) {
            for (ObjectId obj : targets) (void)ctx.read(obj);
          },
          2 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
    });
  }

  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  ASSERT_EQ(reports.size(), 20u);

  // Reconstruct expected values from site 1's commit log.
  const auto& log = recorder.site_logs()[1];
  for (const QueryReport& report : reports) {
    std::map<ObjectId, std::int64_t> expected;
    for (const auto& r : log) {
      if (r.index > report.snapshot_index) continue;
      for (const auto& [obj, value] : r.writes) expected[obj] = as_int(value);
    }
    for (const auto& [obj, value] : report.reads) {
      const auto it = expected.find(obj);
      const std::int64_t want = it == expected.end() ? 0 : it->second;
      EXPECT_EQ(as_int(value), want)
          << "query snapshot " << report.snapshot_index << " object " << obj;
    }
  }
}

TEST(Queries, BlockOnInFlightCommitThenSeeIt) {
  // A query whose snapshot covers a TO-delivered but still-executing
  // transaction must wait for that commit and then observe its writes
  // (Section 5's "i.5" rule, in-flight edge).
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 1;
  config.seed = 66;
  config.net = calm_network();
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());

  // One slow update (200ms execution).
  TxnArgs args;
  args.ints = {5, 0};  // delta 5 to offset 0
  cluster.replica(0).submit_update(rmw, 0, args, 200 * kMillisecond);

  std::vector<QueryReport> reports;
  // Fire the query at a moment when the txn is TO-delivered but still running
  // at site 1 (ordering completes within ~10ms; execution lasts 200ms).
  cluster.sim().schedule_at(100 * kMillisecond, [&cluster, &reports] {
    cluster.replica(1).submit_query(
        [&cluster](QueryContext& ctx) { (void)ctx.read(cluster.catalog().object(0, 0)); },
        1 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  });
  cluster.run_for(2 * kSecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_GT(reports[0].snapshot_index, 0u) << "query must have started after TO-delivery";
  EXPECT_GT(reports[0].attempts, 1u) << "query must have waited for the in-flight commit";
  ASSERT_EQ(reports[0].reads.size(), 1u);
  EXPECT_EQ(as_int(reports[0].reads[0].second), 5) << "must observe the committed write";
}

TEST(Queries, SnapshotIgnoresLaterTransactions) {
  // A query started before an update's TO-delivery must NOT see it, even if
  // the update commits while the query is executing.
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 1;
  config.seed = 67;
  config.net = calm_network();
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());

  std::vector<QueryReport> reports;
  // Query starts at t=0 with a long execution; snapshot index is 0.
  cluster.replica(1).submit_query(
      [&cluster](QueryContext& ctx) { (void)ctx.read(cluster.catalog().object(0, 0)); },
      300 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  // Update submitted immediately after; it will commit long before the query
  // finishes executing.
  TxnArgs args;
  args.ints = {9, 0};
  cluster.replica(0).submit_update(rmw, 0, args, 1 * kMillisecond);

  cluster.run_for(2 * kSecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].snapshot_index, 0u);
  EXPECT_EQ(as_int(reports[0].reads[0].second), 0)
      << "snapshot isolation: concurrent update invisible";
}

TEST(Determinism, SameSeedSameOutcome) {
  auto fingerprint = [](std::uint64_t seed) {
    ClusterConfig config;
    config.n_sites = 4;
    config.n_classes = 4;
    config.seed = seed;
    config.net = stormy_network();
    Cluster cluster(config);
    WorkloadConfig wl;
    wl.updates_per_second_per_site = 100;
    wl.duration = 500 * kMillisecond;
    WorkloadDriver driver(cluster, wl, seed);
    driver.start();
    cluster.run_for(wl.duration);
    EXPECT_TRUE(cluster.quiesce(60 * kSecond));
    // Fingerprint: committed count, abort count, and a state checksum.
    std::uint64_t fp = cluster.total_committed();
    for (SiteId s = 0; s < cluster.site_count(); ++s) {
      fp = fp * 31 + cluster.replica(s).metrics().aborts;
    }
    for (ClassId c = 0; c < cluster.catalog().class_count(); ++c) {
      for (std::uint64_t k = 0; k < cluster.catalog().objects_per_class(); ++k) {
        const auto v = cluster.store(0).read_latest(cluster.catalog().object(c, k));
        fp = fp * 1099511628211ULL + (v ? static_cast<std::uint64_t>(as_int(*v)) : 0);
      }
    }
    return fp;
  };
  EXPECT_EQ(fingerprint(101), fingerprint(101));
  EXPECT_NE(fingerprint(101), fingerprint(102)) << "different seeds should differ";
}

TEST(FaultInjection, SurvivorsStayConsistentAfterMinorityCrash) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.seed = 202;
  config.net = calm_network();
  config.opt.consensus.round_timeout = 15 * kMillisecond;
  Cluster cluster(config);
  HistoryRecorder recorder(cluster);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.duration = 1 * kSecond;
  WorkloadDriver driver(cluster, wl, 11);
  driver.start();

  cluster.sim().schedule_at(300 * kMillisecond, [&cluster] { cluster.net().crash(3); });
  cluster.run_for(wl.duration);
  cluster.run_for(10 * kSecond);  // let survivors settle (no quiesce: site 3 is wedged)

  // The survivors' histories agree pairwise per class.
  auto logs = recorder.site_logs();
  logs.resize(3);  // drop the crashed site's log from the cross-check reference
  const CheckResult check = check_one_copy_serializability(logs);
  EXPECT_TRUE(check.ok()) << check.summary();
  // All three survivors committed the same (large) number of transactions.
  const auto committed0 = cluster.replica(0).metrics().committed;
  EXPECT_GT(committed0, 100u);
  for (SiteId s : {1u, 2u}) {
    EXPECT_EQ(cluster.replica(s).metrics().committed, committed0) << "site " << s;
  }
  // The crashed site's history is a consistent prefix (it stopped mid-run).
  const CheckResult with_crashed = check_one_copy_serializability(recorder.site_logs());
  EXPECT_TRUE(with_crashed.ok()) << with_crashed.summary();
}

}  // namespace
}  // namespace otpdb
