// Shared snapshot-query machinery (paper Section 5), used by every engine
// that processes update transactions in definitive order (OTP, the
// conservative baseline, and the fine-granularity lock-table engine).
//
// The engine tracks state per *conflict domain*. For the class-queue engines
// a domain is a conflict class (the paper's model); for the lock-table engine
// a domain is a single object. Per domain it records the definitive indices
// TO-delivered at this site and the last locally committed index. A query
// started after the i-th TO-delivery reads snapshot "i.5": for each domain it
// observes the version written by the youngest domain transaction with
// definitive index <= i, waiting for that transaction's local commit when it
// is still in flight.
//
// The store trims its chains to gc_horizon() at every commit, so a snapshot
// is only as old as the store still serves (VersionedStore::snapshot_floor).
// A crash winds the TO-delivery history back to 0 while the chains stay
// trimmed; queries submitted before the replay has caught up therefore take
// the store's floor as their snapshot and park until the replay delivers it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "core/metrics.h"
#include "core/query.h"
#include "db/partition.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"

namespace otpdb {

class QueryEngine {
 public:
  /// Domain identifier: a conflict class, or a dense object index.
  using Domain = std::uint64_t;
  using DomainOf = std::function<Domain(ObjectId)>;

  /// Class-granularity engine (paper Section 2.3): domain = conflict class.
  QueryEngine(Simulator& sim, const VersionedStore& store, const PartitionCatalog& catalog,
              ReplicaMetrics& metrics);

  /// Generic engine: `domain_of` maps objects to [0, domain_count) domains.
  QueryEngine(Simulator& sim, const VersionedStore& store, std::size_t domain_count,
              DomainOf domain_of, ReplicaMetrics& metrics);

  /// Client entry point: runs `fn` against the current snapshot after
  /// `exec_duration` of simulated work; `done` receives the report. The
  /// snapshot is max(last_to_index(), store floor); one above
  /// last_to_index() (recovery catch-up) parks until the replay reaches it.
  void submit(QueryFn fn, SimTime exec_duration, QueryDoneFn done);

  /// Engine notification: a transaction covering `domain` was TO-delivered
  /// with `index`. For multi-domain transactions call once per domain after a
  /// single advance_to_index().
  void note_to_delivered(Domain domain, TOIndex index);

  /// Advances the site's highest processed definitive index (call exactly
  /// once per TO-delivery, before the per-domain notifications).
  void advance_to_index(TOIndex index);

  /// Engine notification: a transaction covering `domain` committed with
  /// `index`. Wakes queries that were waiting on that commit. A multi-domain
  /// commit passes wake = false per domain (so no query observes a state
  /// where only some covered watermarks moved) and calls wake_waiters(index)
  /// once afterwards.
  void note_committed(Domain domain, TOIndex index, bool wake = true);
  /// Wakes queries waiting on `index` without touching domain watermarks
  /// (multi-domain commit: call after per-domain note_committed calls).
  void wake_waiters(TOIndex index);

  /// Highest definitive index processed at this site.
  TOIndex last_to_index() const { return last_to_index_; }

  /// j = max{k <= snapshot : T_k covers domain}, 0 when no such txn exists.
  TOIndex snapshot_bound(Domain domain, TOIndex snapshot) const;

  /// Last committed definitive index of `domain` (the durable watermark used
  /// by crash recovery to suppress re-execution of replayed transactions).
  TOIndex last_committed(Domain domain) const { return last_committed_[domain]; }

  /// Crash recovery: clears volatile state (TO-delivery history, snapshot
  /// index, waiting queries - counted as dropped, never completed) while
  /// keeping the per-domain durable commit watermarks. The history is rebuilt
  /// by the redo replay; until it passes the store's snapshot floor, new
  /// queries wait for it (see submit()).
  void reset_volatile();

  /// Cold restart: overwrites the per-domain commit watermarks with the
  /// durable tier's recovered marks (possibly LOWER than before the crash -
  /// the unflushed group-commit tail died with RAM). Domains beyond the span
  /// reset to 0. Queries still executing move up to the rebuilt store's
  /// snapshot floor. Call after reset_volatile() and the store's rebuild.
  void restore_watermarks(std::span<const TOIndex> per_domain);

  /// One past the oldest snapshot a present or future query can read:
  /// min(active query snapshots, last_to_index) + 1. The argument engines pass
  /// to every commit (and prune()): versions older than the horizon are
  /// unreachable except the newest one per object, which trimming keeps.
  /// Future snapshots are never older because submit() hands out at least
  /// last_to_index() and, after a crash reset it to 0, at least the store's
  /// snapshot floor - the highest horizon - 1 ever trimmed against.
  TOIndex gc_horizon() const;

 private:
  // Queries live in a recycled slot pool: the scheduled event and the parked
  // waiter entries carry a slot index, not a shared_ptr, so neither submit
  // nor park/wake touches the heap once the pool is warm. A slot is freed
  // exactly when its query completes (it is referenced from one place at a
  // time: the scheduled event, then at most one waiter entry per retry).
  struct RunningQuery {
    QueryFn fn;
    QueryDoneFn done;
    TOIndex snapshot = 0;
    SimTime submitted_at = 0;
    std::uint32_t attempts = 0;
  };
  using QuerySlot = std::uint32_t;

  /// A parked query: re-run when the transaction with definitive index
  /// `index` commits locally. Kept sorted by index (FIFO within an index).
  struct Waiter {
    TOIndex index;
    QuerySlot slot;
  };

  QuerySlot acquire_slot();
  void release_slot(QuerySlot slot);
  void run(QuerySlot slot);
  void park(std::vector<Waiter>& list, TOIndex index, QuerySlot slot);
  /// Runs the catch-up queries whose snapshot the replay has delivered.
  void wake_caught_up();
  /// Snapshot reference counts (active_snapshots_), which bound gc_horizon().
  void pin(TOIndex snapshot);
  void unpin(TOIndex snapshot);
  Value read(ObjectId obj, TOIndex snapshot) const;  // throws detail::SnapshotNotReady

  Simulator& sim_;
  const VersionedStore& store_;
  DomainOf domain_of_;
  ReplicaMetrics& metrics_;

  std::vector<std::vector<TOIndex>> to_history_;  // per domain, ascending
  std::vector<TOIndex> last_committed_;           // per domain
  /// Per-domain floor set by a cold restart: indices <= it were restored from
  /// disk without re-entering to_history_. 0 everywhere in normal operation.
  std::vector<TOIndex> restored_floor_;
  TOIndex last_to_index_ = 0;
  std::vector<RunningQuery> pool_;       // slot-indexed, recycled
  std::vector<QuerySlot> free_slots_;
  std::vector<Waiter> waiters_;          // sorted by index, FIFO within ties
  /// Queries whose snapshot is ahead of the crash replay, keyed by snapshot
  /// and sorted like waiters_; the TO-delivery reaching one wakes them.
  std::vector<Waiter> catchup_;
  bool catchup_wake_scheduled_ = false;
  std::vector<QuerySlot> wake_scratch_;  // reused by wake_waiters
  std::map<TOIndex, std::size_t> active_snapshots_;  // snapshot -> live queries
};

}  // namespace otpdb
