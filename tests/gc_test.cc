// Tests for multi-version garbage collection: the GC horizon tracks active
// query snapshots, trimming at commit and explicit pruning never break a
// running query, and chains stay at one version per object when no query
// holds an old snapshot.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

TEST(VersionGc, IdleClusterShrinksToOneVersionPerObject) {
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 2;
  config.objects_per_class = 4;
  config.seed = 1;
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());
  // 30 updates to the same object. With no query running, every commit
  // trims the chain it writes to the newest version, so the chain never
  // grows past one version - no prune call anywhere.
  std::size_t longest = 0;
  for (int i = 0; i < 30; ++i) {
    cluster.sim().schedule_at(i * 5 * kMillisecond, [&cluster, rmw] {
      TxnArgs args;
      args.ints = {1, 0};
      cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    });
    cluster.sim().schedule_at(i * 5 * kMillisecond + 3 * kMillisecond, [&cluster, &longest] {
      for (SiteId s = 0; s < 2; ++s) {
        longest = std::max(longest, cluster.store(s).total_versions());
      }
    });
  }
  cluster.run_for(500 * kMillisecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));
  EXPECT_EQ(longest, 1u) << "the chain must stay bounded while it is written";
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.store(s).total_versions(), 1u) << "site " << s;
    EXPECT_EQ(as_int(*cluster.store(s).read_latest(cluster.catalog().object(0, 0))), 30);
  }
  EXPECT_EQ(cluster.prune_all_versions(), 0u) << "commits already dropped every old version";
}

TEST(VersionGc, ActiveQueryPinsItsSnapshot) {
  ClusterConfig config;
  config.n_sites = 2;
  config.n_classes = 1;
  config.objects_per_class = 2;
  config.seed = 2;
  Cluster cluster(config);
  const ProcId rmw = register_rmw_procedure(cluster.procedures(), cluster.catalog());

  // Phase 1: a few updates commit.
  for (int i = 0; i < 5; ++i) {
    cluster.sim().schedule_at(i * 10 * kMillisecond, [&cluster, rmw] {
      TxnArgs args;
      args.ints = {1, 0};
      cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    });
  }
  // Phase 2: at t=100ms a LONG query starts at site 1 (snapshot ~5), then
  // more updates commit, then GC runs WHILE the query still executes.
  std::vector<QueryReport> reports;
  cluster.sim().schedule_at(100 * kMillisecond, [&cluster, &reports] {
    cluster.replica(1).submit_query(
        [&cluster](QueryContext& ctx) { (void)ctx.read(cluster.catalog().object(0, 0)); },
        500 * kMillisecond, [&reports](const QueryReport& r) { reports.push_back(r); });
  });
  for (int i = 0; i < 5; ++i) {
    cluster.sim().schedule_at(150 * kMillisecond + i * 10 * kMillisecond, [&cluster, rmw] {
      TxnArgs args;
      args.ints = {1, 0};
      cluster.replica(0).submit_update(rmw, 0, args, kMillisecond);
    });
  }
  cluster.sim().schedule_at(300 * kMillisecond, [&cluster] {
    // GC mid-query: the horizon must not pass the query's snapshot.
    cluster.prune_all_versions();
  });
  cluster.run_for(800 * kMillisecond);
  ASSERT_TRUE(cluster.quiesce(30 * kSecond));

  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].snapshot_index, 5u);
  EXPECT_EQ(as_int(reports[0].reads[0].second), 5)
      << "query must still see its pinned snapshot after the GC pass";
  // After completion the horizon advances; a final prune compacts fully.
  cluster.prune_all_versions();
  EXPECT_EQ(cluster.store(1).total_versions(), 1u);
}

TEST(VersionGc, HorizonUnderContinuousLoad) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 4;
  config.objects_per_class = 8;
  config.seed = 3;
  Cluster cluster(config);
  WorkloadConfig wl;
  wl.updates_per_second_per_site = 150;
  wl.query_fraction = 0.2;
  wl.duration = kSecond;
  WorkloadDriver driver(cluster, wl, 4);
  driver.start();
  // Periodic GC during the run: correctness must be unaffected.
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(i * 100 * kMillisecond,
                              [&cluster] { cluster.prune_all_versions(); });
  }
  cluster.run_for(wl.duration);
  ASSERT_TRUE(cluster.quiesce(60 * kSecond));
  cluster.prune_all_versions();
  // Fully compacted: at most one version per ever-written object.
  EXPECT_LE(cluster.store(0).total_versions(), cluster.catalog().object_count());
  // All sites identical after compaction.
  for (ClassId c = 0; c < cluster.catalog().class_count(); ++c) {
    for (std::uint64_t k = 0; k < cluster.catalog().objects_per_class(); ++k) {
      const ObjectId obj = cluster.catalog().object(c, k);
      EXPECT_EQ(cluster.store(0).read_latest(obj), cluster.store(1).read_latest(obj));
    }
  }
}

}  // namespace
}  // namespace otpdb
