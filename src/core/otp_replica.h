// OtpReplica - the OTP algorithm for optimistic transaction processing
// (paper Section 3, Figures 4-6).
//
// One OtpReplica runs at each site, wired to that site's atomic-broadcast
// endpoint and versioned store. The three algorithm modules are methods
// driven by events, exactly as the paper frames them ("steps in the lifetime
// of a transaction", not threads):
//
//   Serialization module (Figure 4)    <- Opt-deliver
//     S1 append to the class queue, S2 mark pending+active,
//     S3-S5 submit for execution if alone in the queue.
//
//   Execution module (Figure 5)        <- execution completion
//     E1-E3 commit if already committable and start the next transaction,
//     E4-E6 otherwise mark executed.
//
//   Correctness check module (Figure 6) <- TO-deliver
//     CC1-CC4 commit an executed head, else
//     CC5-CC13 mark committable, abort a wrongly ordered pending head (undo
//     via the store's provisional-version rollback), reorder before the first
//     pending transaction, and resubmit if now at the head.
//
// Update transactions are TO-broadcast (read-one/write-all replica control,
// Section 2.4); queries run locally on snapshots (Section 5, QueryEngine).
//
// Multi-class (cross-partition) transactions generalize every module to a
// sorted class *set* (Section 6 direction): Opt-deliver enqueues into every
// covered class queue, execution starts only while the transaction heads all
// of them, CC8/CC10 run per covered queue, and commit removes the head of and
// advances the commit watermark of every covered class atomically. All sites
// enqueue in the same tentative order and acquire queues in ascending class
// order, so the head-of-all gating cannot deadlock: queue contents stay
// consistent with one total order (committable prefix in definitive order,
// pending suffix in tentative order), and the least transaction in that order
// always heads all its queues.
//
// Transaction identity is interned at Opt-deliver time: the broadcast's
// MsgId becomes a dense site-local TxnId, and the transaction table, the
// store's provisional write-sets and the commit path all index flat arrays by
// it. Retired ids (and their record/write-set storage) are recycled.
//
// Submission, delivery plumbing, procedure runs, the commit record and the
// crash reset live in OrderedReplica; the class queues, the head-of-all
// gating and the deadline service clock in ClassQueueReplica (both in
// core/ordered_replica.h).
#pragma once

#include <span>
#include <vector>

#include "core/ordered_replica.h"

namespace otpdb {

struct OtpReplicaConfig {
  /// Validate queue invariants after every module step (debug/property tests).
  bool paranoid_checks = false;
};

class OtpReplica final : public ClassQueueReplica {
 public:
  OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
             const PartitionCatalog& catalog, const ProcedureRegistry& registry, SiteId self,
             OtpReplicaConfig config = {});

  /// Garbage-collects versions no active or future snapshot can reach.
  /// Returns the number of versions dropped. Safe to call at any time.
  std::size_t prune_versions() { return store_.prune(queries_.gc_horizon()); }

 private:
  // -- Figure 4: serialization module (upon Opt-delivery) --------------------
  void opt_delivered(TxnRecord* txn) override;
  // -- Figure 5: execution module (upon complete execution) ------------------
  void execution_done(TxnRecord* txn) override;
  // -- Figure 6: correctness check module (upon TO-delivery) -----------------
  void to_delivered(TxnRecord* txn) override;
  void correctness_check_module(TxnRecord* txn);

  /// CC7-CC8 for one covered queue: undoes its head when that head is a
  /// pending transaction ahead of `txn` with optimistic effects.
  void undo_wrongly_ordered_head(ClassQueue& queue, const TxnRecord* txn);
  /// For a transaction that retires without committing here (a recovery
  /// replay or a deadline drop): undoes its own optimistic effects and
  /// surfaces it to the head of the pending suffix of every covered queue -
  /// the CC7-CC10 handling a committing transaction would get, so the queue
  /// invariant keeps committable transactions ahead of pending ones.
  void surface(TxnRecord* txn);
  /// Retires an expired transaction heading all its covered queues: no
  /// effects, no commit hook, but the commit watermarks advance (waiting
  /// queries must not block on a slot that will never produce versions).
  void retire_expired(TxnRecord* txn);
  /// Worklist-driven head promotion after a commit or expired-retire: runs
  /// newly exposed heads, retiring expired committable ones. A worklist (not
  /// recursion) because N consecutive expired heads retire each other in a
  /// chain under overload.
  void promote_heads(std::span<const ClassId> classes);
  void commit(TxnRecord* txn);

  void check_invariants(const TxnRecord* txn) const;

  OtpReplicaConfig config_;
  std::vector<ClassId> promote_stack_;  // promote_heads worklist
  bool promoting_ = false;              // reentrancy guard for promote_heads
};

}  // namespace otpdb
