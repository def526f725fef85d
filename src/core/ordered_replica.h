// OrderedReplica - the shared core of the engines that commit update
// transactions in the atomic broadcast's definitive (TO) order: the OTP
// engine (paper Section 3), the conservative baseline (OTP without optimistic
// execution) and the lock-table engine (OTP over object queues, Section 6).
//
//   ReplicaBase
//     OrderedReplica              submit gate + request stamping, snapshot
//       |                         queries, tombstone-aware TO-delivery,
//       |                         procedure runs, commit records and metrics,
//       |                         crash-reset and restart scaffolding
//       +- LockTableReplica       object queues, generalized Figure 6
//       +- ClassQueueReplica      class queues, heads_all_queues, ServiceClock
//            +- OtpReplica        Figures 4-6 (optimistic execution)
//            +- ConservativeReplica   execution at TO-delivery
//
// The base class owns what is order-neutral. Each engine keeps its own order
// of the steps that schedule events or run queries (starting successors,
// advancing commit watermarks, waking queries), because that order is part
// of its deterministic schedule.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "abcast/abcast.h"
#include "core/class_queue.h"
#include "core/metrics.h"
#include "core/query.h"
#include "core/query_engine.h"
#include "core/replica_base.h"
#include "core/txn.h"
#include "core/txn_table.h"
#include "db/partition.h"
#include "db/procedures.h"
#include "db/storage_backend.h"
#include "db/versioned_store.h"
#include "sim/simulator.h"

namespace otpdb {

class OrderedReplica : public ReplicaBase {
 public:
  // The abcast callbacks and scheduled completions hold `this`.
  OrderedReplica(const OrderedReplica&) = delete;
  OrderedReplica& operator=(const OrderedReplica&) = delete;

  // ReplicaBase. The update submits take class sets (the class-queue model);
  // the lock-table engine overrides them with its access-set submit.
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// Cross-partition update over a normalized class set; a single-element
  /// set routes to submit_update.
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;
  void submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) override;
  void set_commit_hook(CommitHook hook) override { commit_hook_ = std::move(hook); }
  /// Transactions not yet committed or dropped plus queries not yet answered.
  std::size_t in_flight() const override {
    return txns_.live() + metrics_.queries_in_flight();
  }
  const ReplicaMetrics& metrics() const override { return metrics_; }
  SiteId site() const override { return self_; }

  /// Crash recovery: drops all volatile state (queues, in-flight transactions
  /// and their scheduled completions, provisional writes, TO-delivery
  /// history). Committed versions and the per-domain commit watermarks
  /// survive; during the redo replay, TO-deliveries at or below a watermark
  /// are acknowledged without re-execution.
  void crash_recover_reset() override;
  /// Cold restart over the durable tier: the store was already rebuilt from
  /// checkpoint + WAL; this winds the query watermarks back to the durable
  /// marks and accepts body-less TO-delivery tombstones up to `durable_floor`
  /// during catch-up.
  void restart_from_disk(std::span<const TOIndex> class_watermarks,
                         TOIndex durable_floor) override;

  /// Highest definitive index processed at this site.
  TOIndex last_to_index() const { return queries_.last_to_index(); }
  /// Introspection for tests: the MsgId -> TxnId interner.
  const TxnIdInterner& interner() const { return txns_.interner(); }

  // Direct event entry points (public so unit tests can drive the engines
  // without a network; production wiring goes through the abcast callbacks).
  void on_opt_deliver(const Message& msg);
  /// TO-delivery. A commit at or below the cold-restart replay floor arrives
  /// as a body-less tombstone (this site already holds its versions from its
  /// own checkpoint + WAL) and only advances the processed index.
  void on_to_deliver(const MsgId& id, TOIndex index);
  /// Batched TO-delivery: drains a burst in one pass (same per-entry
  /// semantics and ordering as repeated on_to_deliver calls).
  void on_to_deliver_batch(std::span<const ToDelivery> batch);

 protected:
  /// Wires the abcast callbacks. `domain_count`/`domain_of` define the
  /// snapshot-query domains: conflict classes or single objects.
  OrderedReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                 const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                 SiteId self, std::size_t domain_count, QueryEngine::DomainOf domain_of);

  /// Opt-delivery of a freshly interned record (opt_delivered_at stamped).
  virtual void opt_delivered(TxnRecord* txn) = 0;
  /// TO-delivery of an Opt-delivered record (to_index, to_delivered_at and
  /// the processed index already advanced).
  virtual void to_delivered(TxnRecord* txn) = 0;
  /// The completion event of execute().
  virtual void execution_done(TxnRecord* txn) = 0;
  /// Crash recovery: drops the engine's queues and ordering state.
  virtual void reset_queues() = 0;

  /// The submit prologue: runs ingress_gate on this site's in-flight depth
  /// and opt/TO delivery lag.
  SubmitResult gate(SimTime deadline);
  /// Stamps an admitted request (origin, client sequence, submit time) and
  /// TO-broadcasts it.
  void broadcast(std::shared_ptr<TxnRequest> request);

  /// Runs `txn`'s stored procedure now, leaving its effects as provisional
  /// versions, and schedules execution_done after its modelled cost. An
  /// undo in between rolls the provisional versions back, exactly like
  /// undo-based recovery. The context is confined to the request's access
  /// set when it declares one, else to its covered classes.
  void execute(TxnRecord* txn);
  /// Cancels a running execution and rolls back its provisional writes.
  void undo(TxnRecord* txn);
  /// CC8: undoes a wrongly ordered pending transaction that has produced (or
  /// is producing) optimistic effects; it re-executes later.
  void abort_transaction(TxnRecord* txn);

  /// Stamps committed_at, captures the commit record (when a hook listens)
  /// and commits `txn`'s provisional writes at its definitive index.
  CommitRecord apply_commit(TxnRecord* txn);
  /// Commit metrics, then the commit hook.
  void count_commit(const TxnRecord* txn, const CommitRecord& record);

  Simulator& sim_;
  AtomicBroadcast& abcast_;
  StorageBackend& backend_;
  VersionedStore& store_;  // backend_.memory(): reads + provisional writes
  const PartitionCatalog& catalog_;
  const ProcedureRegistry& registry_;
  SiteId self_;
  /// Commits at or below this index arrive as body-less tombstones during a
  /// cold-restart catch-up (they are already applied from disk).
  TOIndex replay_floor_ = 0;

  TxnTable txns_;
  std::uint64_t next_client_seq_ = 0;
  ReplicaMetrics metrics_;
  QueryEngine queries_;
  CommitHook commit_hook_;

 private:
  SubmitResult submit_classes(ProcId proc, ClassId klass, std::vector<ClassId> classes,
                              TxnArgs args, SimTime exec_duration, SimTime deadline);
};

/// Per-class virtual service clock for deadline budgets: the virtual time at
/// which the class's serial service of all non-dropped TO-delivered
/// transactions finishes. Fed only by agreed data (definitive order,
/// submitted_at, exec_duration), hence identical at every site, and rebuilt
/// from zero by the recovery replay.
class ServiceClock {
 public:
  explicit ServiceClock(std::size_t classes) : finish_(classes, 0) {}

  /// Charges `request` its exec_duration of serial service on every covered
  /// class, starting no earlier than its submission and the covered classes'
  /// backlogs. Under overload the clock runs ahead of real submit times -
  /// that growing gap is exactly the queueing delay the deadline budgets
  /// against. Returns false, charging nothing, when the virtual finish
  /// overruns the deadline: the transaction is dropped at every site.
  bool charge(const TxnRequest& request);
  void reset() { finish_.assign(finish_.size(), 0); }

 private:
  std::vector<SimTime> finish_;
};

/// The class-queue engines (OTP and conservative): one ClassQueue per
/// conflict class, head-of-all gating for multi-class transactions, and the
/// deadline rule at TO-delivery.
class ClassQueueReplica : public OrderedReplica {
 public:
  /// Introspection for tests: the class queue of `klass`.
  const ClassQueue& class_queue(ClassId klass) const { return queues_[klass]; }

 protected:
  ClassQueueReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                    const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                    SiteId self);

  void reset_queues() override;

  /// True when `txn` heads every class queue it covers (trivially its single
  /// queue in the base model). Only such a transaction may run or commit.
  bool heads_all_queues(const TxnRecord* txn) const;
  /// Starts execution if `txn` is not dropped, active, not running, and
  /// heads all its queues.
  void try_execute(TxnRecord* txn);
  /// TO-delivery bookkeeping: per-class TO notes and the deadline decision
  /// (which runs before the replay check, so a warm restart's replay
  /// rebuilds the service clock exactly and re-makes every drop decision).
  /// Returns true for a crash-recovery replay: an index at or below the
  /// covered classes' commit watermarks, committed before the crash, to be
  /// acknowledged without re-execution.
  bool note_to_delivery(TxnRecord* txn);
  /// Advances every covered class watermark to `index`, then wakes waiters,
  /// so a query spanning several covered classes never observes a
  /// half-committed state.
  void advance_watermarks(std::span<const ClassId> classes, TOIndex index);

  std::vector<ClassQueue> queues_;
  ServiceClock service_clock_;
};

}  // namespace otpdb
