#include "core/otp_replica.h"

#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

OtpReplica::OtpReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                       const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                       SiteId self, OtpReplicaConfig config)
    : ClassQueueReplica(sim, abcast, storage, catalog, registry, self), config_(config) {}

// ---------------------------------------------------------------------------
// Figure 4: serialization module (upon Opt-delivery of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::opt_delivered(TxnRecord* txn) {
  txn->deliv = DeliveryState::pending;  // S2: mark pending and active
  txn->exec = ExecState::active;
  // S1: append to every covered queue, in ascending class order (identical at
  // all sites, so the head-of-all gating below is deadlock-free).
  for (ClassId c : txn->request->class_span()) queues_[c].append(txn);
  if (txn->request->deadline != 0 && sim_.now() > txn->request->deadline) {
    // Already past its budget when it arrived: skip the optimistic execution
    // (pure waste - its effects would be undone). Site-local economy only;
    // the transaction stays queued and the authoritative drop-vs-commit
    // decision is the virtual-clock rule at TO-delivery, so a skip here never
    // diverges the replicas.
    ++metrics_.deadline_skips_opt;
  } else {
    try_execute(txn);  // S3-S5: submit iff heading all covered queues
  }
  if (config_.paranoid_checks) check_invariants(txn);
}

// ---------------------------------------------------------------------------
// Figure 5: execution module (upon complete execution of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::execution_done(TxnRecord* txn) {
  txn->running = false;
  txn->executed_at = sim_.now();
  txn->exec = ExecState::executed;  // E5: mark executed
  if (txn->deliv == DeliveryState::committable) {  // E1: marked committable?
    commit(txn);  // E2-E3: commit, start next
  } else if (config_.paranoid_checks) {
    check_invariants(txn);
  }
}

// ---------------------------------------------------------------------------
// Figure 6: correctness check module (upon TO-delivery of transaction T_i)
// ---------------------------------------------------------------------------

void OtpReplica::to_delivered(TxnRecord* txn) {
  const auto classes = txn->request->class_span();
  if (note_to_delivery(txn)) {
    // Crash-recovery replay: already committed before the crash -
    // acknowledge it without re-executing (its versions are in the store).
    // A wrongly ordered live head is undone, the replayed transaction
    // surfaces to the head of every covered queue, and is then silently
    // retired. Replayed indices precede every live transaction's index, so
    // no committable transaction can sit ahead of it.
    surface(txn);
    for (ClassId c : classes) OTPDB_CHECK(queues_[c].head() == txn);
    for (ClassId c : classes) queues_[c].remove_head(txn);
    promote_heads(classes);  // before retire: `classes` views the request
    txns_.retire(txn);
    return;
  }
  if (txn->expired) {
    // Dropped at the definitive order: no store effects, no commit hook. It
    // retires once it heads all its queues - now, or when a committable
    // predecessor still executing commits and promote_heads reaches it.
    surface(txn);
    if (heads_all_queues(txn)) {
      retire_expired(txn);  // drops the request: no invariant walk over it below
    } else if (config_.paranoid_checks) {
      check_invariants(txn);
    }
    return;
  }
  correctness_check_module(txn);
}

void OtpReplica::correctness_check_module(TxnRecord* txn) {
  if (txn->exec == ExecState::executed) {  // CC2 (an executed txn heads all its queues)
    OTPDB_CHECK(heads_all_queues(txn));
    txn->deliv = DeliveryState::committable;
    commit(txn);  // CC3-CC4
    return;
  }
  txn->deliv = DeliveryState::committable;  // CC6
  bool moved = false;
  for (ClassId c : txn->request->class_span()) {
    ClassQueue& queue = queues_[c];
    OTPDB_ASSERT(queue.contains(txn));
    undo_wrongly_ordered_head(queue, txn);              // CC7-CC8
    moved |= queue.reorder_before_first_pending(txn);  // CC10
  }
  if (moved) ++metrics_.mismatch_reorders;
  if (!txn->running && heads_all_queues(txn)) {  // CC11 (unless already executing)
    execute(txn);                                // CC12
  }
  if (config_.paranoid_checks) check_invariants(txn);
}

void OtpReplica::undo_wrongly_ordered_head(ClassQueue& queue, const TxnRecord* txn) {
  // A pending head that has produced (or is producing) optimistic effects
  // ahead of txn is wrongly ordered - undo it. A pending head that never
  // started (a multi-class transaction waiting on another queue) has nothing
  // to undo; CC10 simply reorders past it.
  TxnRecord* head = queue.head();
  if (head != txn && head->deliv == DeliveryState::pending &&
      (head->running || head->exec == ExecState::executed)) {
    OTPDB_ASSERT(heads_all_queues(head));  // optimistic effects imply heading all
    abort_transaction(head);
  }
}

void OtpReplica::surface(TxnRecord* txn) {
  txn->deliv = DeliveryState::committable;
  undo(txn);
  for (ClassId c : txn->request->class_span()) {
    undo_wrongly_ordered_head(queues_[c], txn);
    queues_[c].reorder_before_first_pending(txn);
  }
}

void OtpReplica::retire_expired(TxnRecord* txn) {
  OTPDB_CHECK(txn->expired);
  OTPDB_CHECK(txn->deliv == DeliveryState::committable);
  OTPDB_CHECK(heads_all_queues(txn));
  OTPDB_CHECK(!txn->running && txn->exec == ExecState::active);
  const auto classes = txn->request->class_span();
  const TOIndex index = txn->to_index;
  for (ClassId c : classes) queues_[c].remove_head(txn);
  ++metrics_.deadline_expired_queue;
  OTPDB_TRACE("otp") << "site " << self_ << " drops expired txn (" << txn->id.sender << ","
                     << txn->id.seq << ") at index " << index;
  // The slot commits nothing, but the watermarks must advance past it (with a
  // wake): a query waiting on this index would otherwise block forever, and
  // the recovery replay relies on the watermark covering dropped slots. Reads
  // at this index fall back to the predecessor version - a drop is a no-op.
  advance_watermarks(classes, index);
  promote_heads(classes);  // before retire: `classes` views the request
  txns_.retire(txn);
}

void OtpReplica::promote_heads(std::span<const ClassId> classes) {
  promote_stack_.insert(promote_stack_.end(), classes.begin(), classes.end());
  if (promoting_) return;  // the active drain below picks the new entries up
  promoting_ = true;
  while (!promote_stack_.empty()) {
    const ClassId c = promote_stack_.back();
    promote_stack_.pop_back();
    TxnRecord* next = queues_[c].head();
    if (next == nullptr) continue;
    if (next->expired) {
      // A chained drop: the newly exposed head is itself expired-committable.
      // Its retire pushes its covered classes back onto the worklist.
      if (next->deliv == DeliveryState::committable && heads_all_queues(next)) {
        retire_expired(next);
      }
      continue;
    }
    try_execute(next);
  }
  promoting_ = false;
}

void OtpReplica::commit(TxnRecord* txn) {
  OTPDB_CHECK(heads_all_queues(txn));
  const auto classes = txn->request->class_span();
  const CommitRecord record = apply_commit(txn);
  for (ClassId c : classes) queues_[c].remove_head(txn);
  count_commit(txn, record);
  advance_watermarks(classes, txn->to_index);
  if (config_.paranoid_checks) check_invariants(txn);
  // E3/CC4: removing txn may promote the next head of every covered queue to
  // heads-all status; start whichever can now run, and retire expired
  // committable heads exposed by the removal (promote_heads' guards make the
  // per-class passes idempotent for successors sharing several classes).
  // Before retire: `classes` views the request the retire drops.
  promote_heads(classes);
  txns_.retire(txn);  // txn's slot is reusable beyond this point
}

void OtpReplica::check_invariants(const TxnRecord* txn) const {
  for (ClassId c : txn->request->class_span()) queues_[c].check_invariants();
}

}  // namespace otpdb
