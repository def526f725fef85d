// LockTableReplica - optimistic transaction processing with fine-granularity
// (object-level) locking, the extension the paper's Section 6 announces and
// its companion report [13] develops.
//
// The class-queue model serializes every pair of transactions in the same
// conflict class even when they touch disjoint objects. Here each *object*
// has its own FIFO queue (a lock-table wait list). A transaction pre-declares
// its object access set (derived from its stored procedure's arguments by a
// registered extractor); on Opt-delivery it enters the queues of all its
// objects atomically, in tentative-order position; it executes when it heads
// every queue it is in ("holds all its locks") and commits once it is both
// executed and TO-delivered.
//
// Deadlock freedom without lock ordering: within a site, every queue's
// content order is consistent with one total order - committable transactions
// first (in definitive order), then pending transactions (in tentative
// arrival order, and a transaction enters all its queues at one instant).
// The least uncommitted transaction in that order heads all its queues, so
// some transaction can always run.
//
// The correctness-check step generalizes Figure 6: upon TO-delivery of T, any
// *pending* transaction that precedes T in one of T's queues and has started
// (or finished) executing is wrongly ordered relative to T - it is undone
// (provisional-version rollback) and re-executed later; T is rescheduled
// directly after the committable prefix of each of its queues. Conflicting
// transactions (shared object) therefore commit in definitive order at every
// site, giving 1-copy-serializability at object granularity - transactions
// of one class with disjoint access sets now run concurrently.
//
// Submission, delivery plumbing, procedure runs and the commit record live in
// OrderedReplica (core/ordered_replica.h); snapshot queries run over one
// domain per object. The engine has no crash recovery path.
#pragma once

#include <functional>
#include <vector>

#include "core/ordered_replica.h"

namespace otpdb {

/// Derives a transaction's object access set from its class and arguments.
/// Must be deterministic and identical at all sites (like the procedures).
using AccessSetExtractor = std::function<std::vector<ObjectId>(ClassId, const TxnArgs&)>;

/// Returns the extractor matching workload::register_rmw_procedure's argument
/// convention (ints = [delta, offset...] within the class partition).
AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog);

class LockTableReplica final : public OrderedReplica {
 public:
  LockTableReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                   const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                   SiteId self, AccessSetExtractor extractor);

  // ReplicaBase:
  /// Admission/backpressure + presubmit-deadline gating only: queue-head
  /// deadline drops would need per-object virtual service clocks, so a
  /// post-admission deadline is ignored once admitted.
  SubmitResult submit_update(ProcId proc, ClassId klass, TxnArgs args, SimTime exec_duration,
                             SimTime deadline = 0) override;
  /// The lock-table engine already serializes at object granularity; its
  /// access-set extractor is keyed to a single class's argument convention,
  /// so it routes single-element class sets to submit_update and rejects
  /// genuine multi-class submissions explicitly (declare the union access set
  /// via submit_update_with_access instead).
  SubmitResult submit_update_multi(ProcId proc, std::vector<ClassId> classes, TxnArgs args,
                                   SimTime exec_duration, SimTime deadline = 0) override;

  /// Submits with an explicit access set (bypasses the extractor).
  SubmitResult submit_update_with_access(ProcId proc, ClassId klass,
                                         std::vector<ObjectId> access_set, TxnArgs args,
                                         SimTime exec_duration, SimTime deadline = 0);

  /// Introspection for tests.
  std::size_t queue_length(ObjectId obj) const;

 private:
  /// One object's FIFO wait list. TxnRecord pointers, same invariants as the
  /// class queue: committable prefix in definitive order, pending suffix in
  /// tentative order.
  using ObjectQueue = std::vector<TxnRecord*>;

  void opt_delivered(TxnRecord* txn) override;
  void to_delivered(TxnRecord* txn) override;
  void execution_done(TxnRecord* txn) override;
  /// No recovery path: CHECK-fails.
  void reset_queues() override;

  bool heads_all_queues(const TxnRecord* txn) const;
  void try_execute(TxnRecord* txn);
  void commit(TxnRecord* txn);
  void reorder_before_first_pending(ObjectQueue& queue, TxnRecord* txn);
  void try_execute_heads_of(const std::vector<ObjectId>& objects);

  AccessSetExtractor extractor_;
  // The catalog's object space is contiguous, so the lock table is a plain
  // vector indexed by ObjectId - no hashing per lock acquire/release.
  std::vector<ObjectQueue> queues_;
};

}  // namespace otpdb
