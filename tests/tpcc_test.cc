// Tests for the TPC-C-lite workload: procedure semantics, invariant audits
// under every engine, and cross-engine consistency.
#include <gtest/gtest.h>

#include <memory>

#include "checker/history.h"
#include "workload/tpcc_lite.h"

namespace otpdb {
namespace {

using tpcc::Layout;

struct ProcFixture {
  ProcFixture() : catalog(2, layout.objects_per_warehouse()) {
    procs = tpcc::register_procedures(registry, catalog, layout);
    for (ClassId w = 0; w < 2; ++w) {
      for (std::uint64_t i = 0; i < layout.n_items; ++i) {
        store.load(catalog.object(w, layout.stock_offset(i)), Value{tpcc::kInitialStock});
      }
    }
  }

  std::int64_t run(ProcId proc, ClassId w, std::vector<std::int64_t> ints, TOIndex index) {
    const TxnId txn = 0;  // scratch dense id; freed by the commit below
    TxnArgs args;
    args.ints = std::move(ints);
    TxnContext ctx(store, catalog, txn, w, args);
    registry.get(proc)(ctx);
    store.commit(txn, index);
    return 0;
  }

  std::int64_t value(ClassId w, std::uint64_t offset) {
    return as_int(store.read_latest(catalog.object(w, offset)).value_or(Value{std::int64_t{0}}));
  }

  Layout layout;
  PartitionCatalog catalog;
  VersionedStore store;
  ProcedureRegistry registry;
  tpcc::Procedures procs;
};

TEST(TpccProcedures, NewOrderMovesStockAndBillsCustomer) {
  ProcFixture f;
  f.run(f.procs.new_order, 0, {/*district*/ 1, /*customer*/ 2, /*item*/ 0, /*qty*/ 3}, 1);
  EXPECT_EQ(f.value(0, f.layout.stock_offset(0)), tpcc::kInitialStock - 3);
  EXPECT_EQ(f.value(0, f.layout.customer_offset(2)), 3 * tpcc::kItemPrice);
  EXPECT_EQ(f.value(0, f.layout.district_offset(1)), 1);
}

TEST(TpccProcedures, NewOrderRefusesOversell) {
  ProcFixture f;
  // Drain item 0 almost completely, then order more than remains.
  f.run(f.procs.new_order, 0, {0, 0, 0, static_cast<std::int64_t>(tpcc::kInitialStock) - 1},
        1);
  f.run(f.procs.new_order, 0, {0, 1, 0, 5}, 2);  // only 1 left: line refused
  EXPECT_EQ(f.value(0, f.layout.stock_offset(0)), 1);
  EXPECT_EQ(f.value(0, f.layout.customer_offset(1)), 0) << "refused line is not billed";
  EXPECT_EQ(f.value(0, f.layout.district_offset(0)), 2) << "order id still advances";
}

TEST(TpccProcedures, PaymentConservesMoney) {
  ProcFixture f;
  f.run(f.procs.new_order, 0, {0, 0, 0, 4}, 1);  // bill 20
  f.run(f.procs.payment, 0, {0, 15}, 2);
  EXPECT_EQ(f.value(0, f.layout.customer_offset(0)), 4 * tpcc::kItemPrice - 15);
  EXPECT_EQ(f.value(0, f.layout.ytd_offset()), 15);
}

TEST(TpccProcedures, DeliveryCounts) {
  ProcFixture f;
  f.run(f.procs.delivery, 1, {0}, 1);
  f.run(f.procs.delivery, 1, {2}, 2);
  EXPECT_EQ(f.value(1, f.layout.delivered_offset()), 2);
}

TEST(TpccProcedures, WarehousesAreIsolated) {
  ProcFixture f;
  f.run(f.procs.new_order, 0, {0, 0, 0, 2}, 1);
  EXPECT_EQ(f.value(1, f.layout.stock_offset(0)), tpcc::kInitialStock)
      << "warehouse 1 untouched";
}

// --- Cluster integration per engine ------------------------------------------

enum class EngineKind { otp, conservative };

void run_tpcc_and_audit(EngineKind engine, std::uint64_t seed, bool stormy) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = seed;
  if (stormy) {
    config.net.hiccup_prob = 0.25;
    config.net.hiccup_mean = 3 * kMillisecond;
  }
  auto cluster = engine == EngineKind::conservative
                     ? std::make_unique<Cluster>(config, engine_factory("conservative"))
                     : std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);
  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 100;
  mix.duration = kSecond;
  tpcc::TpccDriver driver(*cluster, layout, mix, seed * 3 + 1);
  driver.start();
  cluster->run_for(mix.duration);
  ASSERT_TRUE(cluster->quiesce(120 * kSecond));

  // Conservation audit at every site, plus serializability of the history.
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    const auto violations = driver.audit(s);
    EXPECT_TRUE(violations.empty())
        << "site " << s << ": " << (violations.empty() ? "" : violations[0]);
  }
  EXPECT_TRUE(check_one_copy_serializability(recorder.site_logs()).ok());
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster->site_count(); ++s) stores.push_back(&cluster->store(s));
  EXPECT_TRUE(compare_final_states(stores, cluster->catalog()).ok());
}

TEST(TpccCluster, OtpCalm) { run_tpcc_and_audit(EngineKind::otp, 1, false); }
TEST(TpccCluster, OtpStormy) { run_tpcc_and_audit(EngineKind::otp, 2, true); }
TEST(TpccCluster, ConservativeCalm) { run_tpcc_and_audit(EngineKind::conservative, 3, false); }
TEST(TpccCluster, ConservativeStormy) {
  run_tpcc_and_audit(EngineKind::conservative, 4, true);
}

TEST(TpccCluster, AuditSurvivesCrashRecovery) {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 5;
  config.opt.consensus.round_timeout = 15 * kMillisecond;
  Cluster cluster(config);
  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 80;
  mix.duration = 1500 * kMillisecond;
  tpcc::TpccDriver driver(cluster, layout, mix, 17);
  driver.start();
  cluster.sim().schedule_at(400 * kMillisecond, [&] { cluster.crash_site(3); });
  cluster.sim().schedule_at(800 * kMillisecond, [&] { cluster.recover_site(3); });
  cluster.run_for(mix.duration);
  ASSERT_TRUE(cluster.quiesce(120 * kSecond));
  cluster.run_for(kSecond);
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const auto violations = driver.audit(s);
    EXPECT_TRUE(violations.empty())
        << "site " << s << ": " << (violations.empty() ? "" : violations[0]);
  }
}

}  // namespace
}  // namespace otpdb
