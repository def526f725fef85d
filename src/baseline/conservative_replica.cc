#include "baseline/conservative_replica.h"

#include "util/assert.h"

namespace otpdb {

ConservativeReplica::ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast,
                                         StorageBackend& storage, const PartitionCatalog& catalog,
                                         const ProcedureRegistry& registry, SiteId self)
    : ClassQueueReplica(sim, abcast, storage, catalog, registry, self) {}

void ConservativeReplica::to_delivered(TxnRecord* txn) {
  txn->deliv = DeliveryState::committable;
  // Crash-recovery replay: acknowledged without re-executing. Nothing was
  // enqueued yet: the conservative engine enters queues only at TO-delivery,
  // and the replay runs in definitive order against empty queues.
  if (note_to_delivery(txn)) {
    txns_.retire(txn);
    return;
  }
  // Enter every covered queue in TO-delivery order (identical at all sites),
  // ascending by class; run once heading all of them. A dropped transaction
  // queues too (the conservative engine executes in definitive order, so
  // nothing optimistic exists to undo): its slot commits nothing, but the
  // watermarks may only pass it once every earlier transaction of its
  // classes has committed, i.e. when it heads all of its queues.
  const auto classes = txn->request->class_span();
  for (ClassId c : classes) queues_[c].append(txn);
  if (txn->expired) {
    retire_expired_heads(classes);
    return;
  }
  try_execute(txn);
}

void ConservativeReplica::execution_done(TxnRecord* txn) {
  txn->running = false;
  txn->exec = ExecState::executed;
  txn->executed_at = sim_.now();  // commit follows execution immediately
  OTPDB_CHECK(heads_all_queues(txn));
  const auto classes = txn->request->class_span();
  const CommitRecord record = apply_commit(txn);
  for (ClassId c : classes) queues_[c].remove_head(txn);
  count_commit(txn, record);
  // Removing txn may promote the next head of every covered queue.
  for (ClassId c : classes) {
    if (TxnRecord* next = queues_[c].head()) try_execute(next);
  }
  advance_watermarks(classes, txn->to_index);
  // Drops the removal exposed retire only now, behind txn's watermarks.
  retire_expired_heads(classes);
  txns_.retire(txn);  // the record slot is recycled by the next acquire
}

void ConservativeReplica::retire_expired_heads(std::span<const ClassId> classes) {
  retire_stack_.assign(classes.begin(), classes.end());
  while (!retire_stack_.empty()) {
    const ClassId c = retire_stack_.back();
    retire_stack_.pop_back();
    TxnRecord* head = queues_[c].head();
    if (head == nullptr || !head->expired || !heads_all_queues(head)) continue;
    // The slot commits nothing, but the watermarks advance past it (with a
    // wake): a query waiting on this index would otherwise block forever,
    // and the recovery replay relies on the watermark covering dropped slots.
    const auto covered = head->request->class_span();
    for (ClassId d : covered) queues_[d].remove_head(head);
    ++metrics_.deadline_expired_queue;
    for (ClassId d : covered) {
      if (TxnRecord* next = queues_[d].head()) try_execute(next);
    }
    advance_watermarks(covered, head->to_index);
    // A newly exposed head may itself be a drop.
    retire_stack_.insert(retire_stack_.end(), covered.begin(), covered.end());
    txns_.retire(head);
  }
}

}  // namespace otpdb
