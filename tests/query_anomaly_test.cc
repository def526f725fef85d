// The Section 5 anomaly, demonstrated and excluded.
//
// The paper shows that letting queries join class queues dynamically would
// let two queries at different sites order the same update transactions
// inconsistently (Q observes T2 -> Q -> T5 while Q' observes T5 -> Q' -> T2),
// breaking 1-copy-serializability. The snapshot protocol excludes this: every
// query observes, for every class, exactly the prefix of the definitive order
// up to its snapshot index - so for any two queries (at any sites), their
// observed class prefixes can never "cross".
//
// Detector: updates are +1 increments per class counter, so a query's read of
// class c's counter IS the number of class-c transactions its snapshot
// includes. Two queries cross iff one saw strictly more of class x but
// strictly less of class y. OTP snapshots: zero crossings (all seeds). Lazy
// replication: crossings appear (each site reads its own latest state, and
// propagation is unsynchronized).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/cluster.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

struct Observation {
  std::int64_t x = 0;
  std::int64_t y = 0;
};

int count_crossings(const std::vector<Observation>& observations) {
  int crossings = 0;
  for (std::size_t i = 0; i < observations.size(); ++i) {
    for (std::size_t j = i + 1; j < observations.size(); ++j) {
      const auto& a = observations[i];
      const auto& b = observations[j];
      if ((a.x > b.x && a.y < b.y) || (a.x < b.x && a.y > b.y)) ++crossings;
    }
  }
  return crossings;
}

int run_and_count_crossings(bool lazy, std::uint64_t seed) {
  ClusterConfig config;
  config.n_sites = 3;
  config.n_classes = 2;
  config.objects_per_class = 2;
  config.seed = seed;
  // Turbulence widens the window between a transaction's commits at
  // different sites - the raw material for the anomaly.
  config.net.hiccup_prob = 0.3;
  config.net.hiccup_mean = 5 * kMillisecond;
  auto cluster = std::make_unique<Cluster>(config, engine_factory(lazy ? "lazy" : "otp"));
  const ProcId rmw = register_rmw_procedure(cluster->procedures(), cluster->catalog());

  // Continuous +1 increments to both class counters from sites 0/1.
  for (int i = 0; i < 200; ++i) {
    cluster->sim().schedule_at(i * 4 * kMillisecond, [&cluster, rmw, i] {
      TxnArgs args;
      args.ints = {1, 0};  // +1 to offset 0
      cluster->replica(static_cast<SiteId>(i % 2))
          .submit_update(rmw, static_cast<ClassId>(i % 2), args, kMillisecond);
    });
  }
  // Interleaved queries at sites 1 and 2 reading both class counters.
  std::vector<Observation> observations;
  const ObjectId obj_x = cluster->catalog().object(0, 0);
  const ObjectId obj_y = cluster->catalog().object(1, 0);
  for (int i = 0; i < 60; ++i) {
    const SiteId site = static_cast<SiteId>(1 + i % 2);
    cluster->sim().schedule_at(i * 13 * kMillisecond,
                               [&cluster, &observations, obj_x, obj_y, site] {
                                 cluster->replica(site).submit_query(
                                     [&observations, obj_x, obj_y](QueryContext& ctx) {
                                       Observation obs;
                                       obs.x = ctx.read_int(obj_x);
                                       obs.y = ctx.read_int(obj_y);
                                       observations.push_back(obs);
                                     },
                                     kMillisecond, nullptr);
                               });
  }
  cluster->run_for(2 * kSecond);
  cluster->quiesce(60 * kSecond);
  return count_crossings(observations);
}

TEST(QueryAnomaly, SnapshotQueriesNeverCross) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(run_and_count_crossings(/*lazy=*/false, seed), 0)
        << "seed " << seed << ": snapshot queries must observe one total order";
  }
}

TEST(QueryAnomaly, UncoordinatedReadsDoCross) {
  // The contrast case: reading each replica's latest local state (as the
  // naive protocol and asynchronous replication do) produces crossings.
  int total = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    total += run_and_count_crossings(/*lazy=*/true, seed);
  }
  EXPECT_GT(total, 0) << "lazy reads should exhibit the Section 5 anomaly";
}

}  // namespace
}  // namespace otpdb
