// Determinism suite: a run is a pure function of (configuration, seed).
//
// Every scenario runs twice and the two runs must agree bit for bit: commit
// histories (every field, including commit timestamps and written values),
// final store states, delivery and event counts, and metric counters. The
// same digests are also pinned as golden constants, so a change that moves
// the event loop's schedule - a reordered tie, an extra rng draw, a dropped
// or added event - fails here even when it is itself deterministic. A golden
// that changes on purpose is re-pinned once, with the reason in CHANGES.md.
//
// Coverage: the three TO-ordered engines (OTP, conservative, lock-table),
// mixed workloads (queries, cross-class updates, TPC-C-lite with remote
// transactions), loss/partition/crash chaos, deadline budgets with admission
// shedding and client retries,
// the durable WAL backend with a kill-and-restart-from-disk, and every
// network topology profile. The CLI section pins byte-identical output
// across repeat invocations and rejection of flags a subcommand does not
// understand.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/history.h"
#include "core/cluster.h"
#include "db/durable_store.h"
#include "net/topology.h"
#include "workload/tpcc_lite.h"
#include "workload/workload.h"

namespace otpdb {
namespace {

// -- digesting ---------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

std::uint64_t fold(const std::vector<std::uint64_t>& values) {
  Fnv f;
  for (std::uint64_t v : values) f.add(v);
  return f.h;
}

std::uint64_t digest_value(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return static_cast<std::uint64_t>(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(*d));
    __builtin_memcpy(&bits, d, sizeof(bits));
    return bits;
  }
  Fnv f;
  for (char c : std::get<std::string>(v)) f.add(static_cast<unsigned char>(c));
  return f.h;
}

/// Every field of every commit record, per site: sensitive to ordering,
/// timing, class sets, and written values alike.
std::vector<std::uint64_t> history_digests(const HistoryRecorder& recorder) {
  std::vector<std::uint64_t> out;
  for (const auto& log : recorder.site_logs()) {
    Fnv f;
    for (const CommitRecord& r : log) {
      f.add(r.txn.sender);
      f.add(r.txn.seq);
      f.add(r.proc);
      f.add(r.klass);
      for (ClassId c : r.classes) f.add(c);
      f.add(r.index);
      f.add(static_cast<std::uint64_t>(r.at));
      for (const auto& [obj, value] : r.writes) {
        f.add(obj);
        f.add(digest_value(value));
      }
    }
    out.push_back(f.h);
  }
  return out;
}

std::uint64_t store_digest(Cluster& cluster) {
  Fnv f;
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    for (ObjectId obj = 0; obj < cluster.catalog().object_count(); ++obj) {
      const auto v = cluster.store(s).read_latest(obj);
      f.add(v ? digest_value(*v) : 0xdeadull);
    }
  }
  return f.h;
}

struct RunResult {
  std::vector<std::uint64_t> history;  // per-site commit-history digests
  std::uint64_t stores = 0;
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> counters;  // per-site metric counters, flattened
  bool serializable = false;
  bool converged = false;
  std::uint64_t committed = 0;
};

/// The pinned digests of one scenario, recorded on the event loop.
struct Golden {
  std::uint64_t history;  // fold() of the per-site history digests
  std::uint64_t stores;
  std::uint64_t delivered;
  std::uint64_t events;
  std::uint64_t counters;  // fold() of the flattened counters
  std::uint64_t committed;
};

void collect_metrics(Cluster& cluster, RunResult& out) {
  for (SiteId s = 0; s < cluster.site_count(); ++s) {
    const ReplicaMetrics& m = cluster.replica(s).metrics();
    for (std::uint64_t v :
         {m.submitted_updates, m.committed, m.aborts, m.reexecutions, m.mismatch_reorders,
          m.queries_started, m.queries_done, m.query_retries}) {
      out.counters.push_back(v);
    }
    // Latency statistics are doubles accumulated in event order, so even
    // their bit patterns must repeat.
    out.counters.push_back(static_cast<std::uint64_t>(m.commit_latency_ns.count()));
    double mean = m.commit_latency_ns.mean();
    std::uint64_t bits;
    __builtin_memcpy(&bits, &mean, sizeof(bits));
    out.counters.push_back(bits);
  }
}

void collect_common(Cluster& cluster, const HistoryRecorder& recorder, RunResult& out) {
  out.history = history_digests(recorder);
  out.stores = store_digest(cluster);
  out.delivered = cluster.net().delivered_count();
  out.events = cluster.sim().executed();
  out.committed = cluster.total_committed();
  collect_metrics(cluster, out);
}

bool converged(Cluster& cluster) {
  std::vector<const VersionedStore*> stores;
  for (SiteId s = 0; s < cluster.site_count(); ++s) stores.push_back(&cluster.store(s));
  return compare_final_states(stores, cluster.catalog()).ok();
}

void expect_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.history, b.history) << "commit histories diverge between repeat runs";
  EXPECT_EQ(a.stores, b.stores) << "final states diverge between repeat runs";
  EXPECT_EQ(a.delivered, b.delivered) << "deliveries diverge between repeat runs";
  EXPECT_EQ(a.events, b.events) << "event counts diverge between repeat runs";
  EXPECT_EQ(a.counters, b.counters) << "metrics diverge between repeat runs";
  EXPECT_EQ(a.committed, b.committed);
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull", static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const RunResult& run, const Golden& golden) {
  const Golden actual{fold(run.history), run.stores, run.delivered,
                      run.events,        fold(run.counters), run.committed};
  // The message is the pinned form, ready to paste when a re-pin is justified.
  const std::string pinned = "{" + hex(actual.history) + ", " + hex(actual.stores) + ", " +
                             std::to_string(actual.delivered) + ", " +
                             std::to_string(actual.events) + ", " + hex(actual.counters) +
                             ", " + std::to_string(actual.committed) + "}";
  EXPECT_EQ(actual.history, golden.history) << "commit histories moved; actual " << pinned;
  EXPECT_EQ(actual.stores, golden.stores) << "final states moved; actual " << pinned;
  EXPECT_EQ(actual.delivered, golden.delivered) << "deliveries moved; actual " << pinned;
  EXPECT_EQ(actual.events, golden.events) << "event count moved; actual " << pinned;
  EXPECT_EQ(actual.counters, golden.counters) << "metrics moved; actual " << pinned;
  EXPECT_EQ(actual.committed, golden.committed) << "commit count moved; actual " << pinned;
}

// -- goldens -------------------------------------------------------------------

constexpr Golden kOtpMixed{0x01478f59c59979a9ull, 0xe4ad49445718edf6ull,
                           9017, 13334, 0x5ae11a0aa8494207ull, 1540};
constexpr Golden kOtpChaos{0x6a6efb3faa71e723ull, 0x43be53a996380a3bull,
                           7152, 10854, 0x9078f1d30887f6f5ull, 1485};
constexpr Golden kConservativeChaos{0xf31300c629b6fe38ull, 0xe4ad49445718edf6ull,
                                    7718, 11625, 0x2716033f1e21fc0bull, 1540};
constexpr Golden kDurable{0x01478f59c59979a9ull, 0xe4ad49445718edf6ull,
                          9017, 14074, 0x91e2a2a8adbafa7full, 1540};
constexpr Golden kDurableRestart{0x98300e90a4c9f3faull, 0x43be53a996380a3bull,
                                 7221, 11460, 0x3e15a2ed9588eb81ull, 1486};
constexpr Golden kTpccRemote{0xef73e19e5b4b82a2ull, 0x38d70610399dc75bull,
                             5838, 9279, 0xd474ab0be6aed766ull, 1188};
constexpr Golden kTopologyLan{0x744b0732c18c24edull, 0xd5427ce0118e8cd8ull,
                              5100, 7247, 0xc432ccfadeeca11bull, 715};
constexpr Golden kTopologyMetro{0x990cc35c26451a1bull, 0xd5427ce0118e8cd8ull,
                                5215, 7347, 0x7992480b53800809ull, 715};
constexpr Golden kTopologyWan{0xdc957b9ea17ef527ull, 0xd5427ce0118e8cd8ull,
                              1549, 2647, 0x6747fbbcc7c19b4cull, 715};
constexpr Golden kTopologyGeo3dc{0x715942734093f93bull, 0xd5427ce0118e8cd8ull,
                                 1551, 2646, 0xc7b9cd438e7915c5ull, 715};
constexpr Golden kLockTableMixed{0xa7d198706257c647ull, 0xdbb9884c4905bdaeull,
                                 9086, 13790, 0xfb343434ba62dd97ull, 1980};
constexpr Golden kConservativeOverloadCrash{0x77de912e2f732e82ull, 0x3cf6e3e26ceac683ull,
                                            7382, 14181, 0xe957978e63876843ull, 2196};

// -- scenarios ---------------------------------------------------------------

enum class EngineKind { otp, conservative };

/// Mixed rmw + cross-class + query workload with message loss, one
/// partition/heal cycle, and (OTP only) a crash/recovery cycle - warm with
/// the memory backend, kill-and-restart-from-disk with the durable one.
RunResult run_mixed(EngineKind engine, bool chaos, bool durable = false) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.net.loss_prob = chaos ? 0.01 : 0.0;
  if (durable) config.storage.backend = StorageBackendKind::durable;
  auto cluster = std::make_unique<Cluster>(
      config, engine_factory(engine == EngineKind::conservative ? "conservative" : "otp"));
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 80;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 900 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();

  if (chaos) {
    cluster->sim().schedule_at(250 * kMillisecond, [&cluster] {
      cluster->net().partition({0, 1}, {2, 3, 4});
    });
    cluster->sim().schedule_at(450 * kMillisecond,
                               [&cluster] { cluster->net().heal_partition(); });
    if (engine == EngineKind::otp) {
      cluster->sim().schedule_at(550 * kMillisecond, [&cluster] { cluster->crash_site(4); });
      cluster->sim().schedule_at(700 * kMillisecond, [&cluster, durable] {
        if (durable) {
          cluster->restart_site_from_disk(4);
        } else {
          cluster->recover_site(4);
        }
      });
    }
  }

  cluster->run_for(wl.duration + 200 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));

  RunResult out;
  collect_common(*cluster, recorder, out);
  // The memory backend exposes no WAL: its runs are the pre-storage-tier
  // behaviour, and the durable goldens share their commit histories.
  EXPECT_EQ(cluster->wal_stats(0) == nullptr, !durable);
  if (durable) {
    // Durability counters are part of the contract: group-commit scheduling
    // rides on deterministic sim events, not wall-clock I/O.
    for (SiteId s = 0; s < cluster->site_count(); ++s) {
      const WalStats* w = cluster->wal_stats(s);
      for (std::uint64_t v : {w->commits_logged, w->fsyncs, w->wal_bytes, w->checkpoints,
                              w->segments_truncated, w->replayed_commits,
                              w->checkpoint_restores, w->group_commit_batch.total()}) {
        out.counters.push_back(v);
      }
    }
  }
  if (durable && chaos) {
    // A kill-and-restart loses the unflushed group-commit tail, and replay
    // legitimately RE-commits those indices at the restarted site - its raw
    // log holds two entries for them (pre-crash and replayed). Check the
    // checker's invariant on the effective history: the last occurrence of
    // each definitive index per site.
    std::vector<std::vector<CommitRecord>> logs = recorder.site_logs();
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
    out.serializable = check_one_copy_serializability(logs).ok();
  } else {
    out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  }
  out.converged = converged(*cluster);
  return out;
}

RunResult run_tpcc() {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 6;
  tpcc::Layout layout;
  config.objects_per_class = layout.objects_per_warehouse();
  config.seed = 1999;
  auto cluster = std::make_unique<Cluster>(config);
  HistoryRecorder recorder(*cluster);

  tpcc::MixConfig mix;
  mix.txn_per_second_per_site = 100;
  mix.duration = 800 * kMillisecond;
  mix.warehouse_skew_theta = 0.4;
  mix.remote_txn_fraction = 0.1;
  tpcc::TpccDriver driver(*cluster, layout, mix, 2026);
  driver.start();
  cluster->run_for(mix.duration);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));

  RunResult out;
  collect_common(*cluster, recorder, out);
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    EXPECT_TRUE(driver.audit(s).empty()) << "site " << s << " audit violated";
  }
  out.converged = true;
  return out;
}

/// The lock-table engine on rmw updates plus snapshot queries, with message
/// loss and one partition/heal cycle. Its access-set extractor is keyed to a
/// single class, so the mix has no cross-class updates; it has no crash
/// recovery path, so no crash either.
RunResult run_lock_table_mixed() {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 4;
  config.objects_per_class = 32;
  config.seed = 77;
  config.net.loss_prob = 0.01;
  auto cluster = std::make_unique<Cluster>(config, engine_factory("locktable"));
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 100;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.ops_per_txn = 3;
  wl.query_fraction = 0.15;
  wl.duration = 900 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();
  cluster->sim().schedule_at(250 * kMillisecond, [&cluster] {
    cluster->net().partition({0, 1}, {2, 3, 4});
  });
  cluster->sim().schedule_at(450 * kMillisecond, [&cluster] { cluster->net().heal_partition(); });
  cluster->run_for(wl.duration + 200 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(60 * kSecond));

  RunResult out;
  collect_common(*cluster, recorder, out);
  out.serializable = check_object_level_serializability(recorder.site_logs()).ok();
  out.converged = converged(*cluster);
  return out;
}

/// The conservative engine past capacity: admission shedding, deadline
/// budgets (presubmit expiry and queue-head drops by the virtual service
/// clock), client retries with backoff, cross-class updates and queries, and
/// a warm crash/recovery whose replay rebuilds the service clock.
RunResult run_conservative_overload_crash() {
  ClusterConfig config;
  config.n_sites = 4;
  config.n_classes = 4;
  config.seed = 99;
  config.admission.enabled = true;
  config.admission.shed_depth = 160;
  config.admission.resume_depth = 64;
  config.opt.max_inflight_per_sender = 128;
  auto cluster = std::make_unique<Cluster>(config, engine_factory("conservative"));
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 500;
  wl.mean_exec_time = 4 * kMillisecond;
  wl.query_fraction = 0.1;
  wl.cross_class_fraction = 0.2;
  wl.duration = 600 * kMillisecond;
  wl.deadline_budget = 120 * kMillisecond;
  wl.max_retries = 4;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();
  cluster->sim().schedule_at(250 * kMillisecond, [&cluster] { cluster->crash_site(3); });
  cluster->sim().schedule_at(400 * kMillisecond, [&cluster] { cluster->recover_site(3); });
  cluster->run_for(wl.duration + 200 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(120 * kSecond));

  RunResult out;
  collect_common(*cluster, recorder, out);
  for (SiteId s = 0; s < cluster->site_count(); ++s) {
    const ReplicaMetrics& m = cluster->replica(s).metrics();
    for (std::uint64_t v : {m.admitted_updates, m.shed_updates, m.backpressured_updates,
                            m.deadline_expired_presubmit, m.deadline_expired_queue}) {
      out.counters.push_back(v);
    }
  }
  for (std::uint64_t v : {driver.retries(), driver.gave_up(), driver.expired_presubmit()}) {
    out.counters.push_back(v);
  }
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  out.converged = converged(*cluster);
  return out;
}

/// Runs `scenario` twice, checks the two runs agree bit for bit and match the
/// golden, and returns the first run for scenario-specific assertions.
template <typename Scenario>
RunResult run_twice(Scenario scenario, const Golden& golden) {
  const RunResult a = scenario();
  const RunResult b = scenario();
  expect_equal(a, b);
  expect_golden(a, golden);
  EXPECT_TRUE(a.serializable);
  EXPECT_TRUE(a.converged);
  EXPECT_GT(a.committed, 0u);
  return a;
}

TEST(Determinism, OtpMixedWorkload) {
  run_twice([] { return run_mixed(EngineKind::otp, /*chaos=*/false); }, kOtpMixed);
}

TEST(Determinism, OtpLossPartitionCrashChaos) {
  run_twice([] { return run_mixed(EngineKind::otp, /*chaos=*/true); }, kOtpChaos);
}

TEST(Determinism, ConservativeMixedWorkloadWithChaos) {
  run_twice([] { return run_mixed(EngineKind::conservative, /*chaos=*/true); },
            kConservativeChaos);
}

TEST(Determinism, DurableStorage) {
  // Group-commit WAL + fsync modeling: digests AND durability counters.
  run_twice([] { return run_mixed(EngineKind::otp, /*chaos=*/false, /*durable=*/true); },
            kDurable);
}

TEST(Determinism, DurableRestartFromDiskChaos) {
  // The chaos leg swaps the warm recovery for a kill-and-restart-from-disk:
  // real WAL replay inside sim events.
  run_twice([] { return run_mixed(EngineKind::otp, /*chaos=*/true, /*durable=*/true); },
            kDurableRestart);
}

TEST(Determinism, TpccRemoteMix) { run_twice([] { return run_tpcc(); }, kTpccRemote); }

TEST(Determinism, LockTableMixedWorkloadWithChaos) {
  run_twice([] { return run_lock_table_mixed(); }, kLockTableMixed);
}

TEST(Determinism, ConservativeOverloadWithCrashRecovery) {
  const RunResult run = run_twice([] { return run_conservative_overload_crash(); },
                                  kConservativeOverloadCrash);
  // The overload engaged: refusals, retries and queue-head drops all happened.
  const std::size_t sites = run.history.size();
  std::uint64_t shed = 0, queue_drops = 0;
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t base = run.counters.size() - 3 - 5 * (sites - s);
    shed += run.counters[base + 1];
    queue_drops += run.counters[base + 4];
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GT(queue_drops, 0u);
  EXPECT_GT(run.counters[run.counters.size() - 3], 0u) << "no client retries";
}

// -- topology sweeps ---------------------------------------------------------
//
// Every topology profile must uphold the same contract. The switched
// profiles additionally exercise the per-sender links and the per-edge rng
// streams. Each profile gets its own TEST name so CI can select subsets with
// --gtest_filter.

/// Cluster tuned for a topology: the wide-area profiles (40ms+ RTTs) need the
/// protocol timers rescaled, or retransmission/failure-detector false
/// positives swamp the run with noise.
ClusterConfig topology_config(TopologyProfile profile) {
  ClusterConfig config;
  config.n_sites = 5;
  config.n_classes = 8;
  config.seed = 77;
  config.net.topology = profile;
  config.net.loss_prob = 0.005;
  if (profile == TopologyProfile::wan || profile == TopologyProfile::geo_3dc) {
    config.opt.batch_delay = 10 * kMillisecond;
    config.opt.alignment_window = 8 * kMillisecond;
    config.opt.consensus.fast_wait = 150 * kMillisecond;
    config.opt.consensus.round_timeout = 500 * kMillisecond;
    config.fd.interval = 50 * kMillisecond;
    config.fd.suspect_timeout = 500 * kMillisecond;
  }
  return config;
}

RunResult run_topology(TopologyProfile profile) {
  auto cluster = std::make_unique<Cluster>(topology_config(profile));
  HistoryRecorder recorder(*cluster);

  WorkloadConfig wl;
  wl.updates_per_second_per_site = 50;
  wl.mean_exec_time = 2 * kMillisecond;
  wl.query_fraction = 0.15;
  wl.cross_class_fraction = 0.2;
  wl.duration = 600 * kMillisecond;
  WorkloadDriver driver(*cluster, wl, 4242);
  driver.start();
  cluster->run_for(wl.duration + 400 * kMillisecond);
  EXPECT_TRUE(cluster->quiesce(120 * kSecond));

  RunResult out;
  collect_common(*cluster, recorder, out);
  out.serializable = check_one_copy_serializability(recorder.site_logs()).ok();
  out.converged = converged(*cluster);
  return out;
}

TEST(Determinism, TopologyLan) {
  run_twice([] { return run_topology(TopologyProfile::lan); }, kTopologyLan);
}
TEST(Determinism, TopologyMetro) {
  run_twice([] { return run_topology(TopologyProfile::metro); }, kTopologyMetro);
}
TEST(Determinism, TopologyWan) {
  run_twice([] { return run_topology(TopologyProfile::wan); }, kTopologyWan);
}
TEST(Determinism, TopologyGeo3dc) {
  run_twice([] { return run_topology(TopologyProfile::geo_3dc); }, kTopologyGeo3dc);
}

/// `lan` is the flat shared-bus parameters spelled as a uniform matrix; the
/// Network keeps it on the bus path with the original rng stream, so a lan
/// cluster run is bitwise the same as a flat one.
TEST(Determinism, TopologyLanMatchesFlat) {
  expect_equal(run_topology(TopologyProfile::flat), run_topology(TopologyProfile::lan));
}

// -- CLI output stability and flag validation -----------------------------------
//
// The CLI is the one surface where internal state becomes human-visible
// bytes, so it gets its own determinism leg: --help and a full run summary
// must be byte-identical across repeat invocations (pins the Flags sorted
// keys() contract - values_ is an unordered_map - and catches any future
// hash-order drift in summary formatting). A flag or value the subcommand
// does not understand must exit with usage instead of running a silently
// different experiment.

#ifdef OTPDB_CLI_PATH
std::string run_cli(const std::string& args, int* exit_code) {
  const std::string cmd = std::string(OTPDB_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    *exit_code = -1;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(Determinism, CliHelpByteIdenticalAcrossRuns) {
  int code_a = 0, code_b = 0;
  const std::string a = run_cli("--help", &code_a);
  const std::string b = run_cli("--help", &code_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(code_a, code_b);
  EXPECT_EQ(a, b) << "usage/help output drifted between identical invocations";
}

TEST(Determinism, CliRunSummaryByteIdenticalAcrossRuns) {
  const std::string args =
      "run --engine=otp --sites=3 --classes=4 --objects=64 --rate=100 --seconds=1 --seed=7";
  int code_a = 0, code_b = 0;
  const std::string a = run_cli(args, &code_a);
  const std::string b = run_cli(args, &code_b);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(code_a, 0) << a;
  EXPECT_EQ(code_a, code_b);
  EXPECT_EQ(a, b) << "run summary drifted between identical invocations";
}

/// Exits with usage (status 2) and names the offending argument.
void expect_rejected(const std::string& args, const std::string& culprit) {
  int code = 0;
  const std::string out = run_cli(args, &code);
  EXPECT_EQ(code, 2) << args << " was accepted:\n" << out;
  EXPECT_NE(out.find(culprit), std::string::npos) << args << " did not name " << culprit;
  EXPECT_NE(out.find("usage:"), std::string::npos) << args << " printed no usage";
}

TEST(Determinism, CliRejectsUnknownEngineAndAbcast) {
  expect_rejected("run --engine=bogus --seconds=0.1", "--engine=bogus");
  expect_rejected("run --abcast=bogus --seconds=0.1", "--abcast=bogus");
}

TEST(Determinism, CliRejectsFlagsTheSubcommandDoesNotRead) {
  expect_rejected("run --threads=4 --seconds=0.1", "--threads");
  expect_rejected("tpcc --threads=4 --seconds=0.1", "--threads");
  expect_rejected("run --sites=3 --crash-sit=1 --seconds=0.1", "--crash-sit");
  expect_rejected("tpcc --engine=otp --seconds=0.1", "--engine");  // tpcc runs OTP only
  expect_rejected("spontorder --rate=5", "--rate");
  expect_rejected("run --seconds=0.1 stray", "stray");
}
#else
TEST(Determinism, CliHelpByteIdenticalAcrossRuns) {
  GTEST_SKIP() << "otpdb_cli not built alongside the test binary";
}
#endif

}  // namespace
}  // namespace otpdb
