#include "core/lock_table_replica.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace otpdb {

AccessSetExtractor rmw_access_extractor(const PartitionCatalog& catalog) {
  return [&catalog](ClassId klass, const TxnArgs& args) {
    std::vector<ObjectId> objects;
    objects.reserve(args.ints.size() > 0 ? args.ints.size() - 1 : 0);
    for (std::size_t i = 1; i < args.ints.size(); ++i) {
      const ObjectId obj = catalog.object(klass, static_cast<std::uint64_t>(args.ints[i]));
      if (std::find(objects.begin(), objects.end(), obj) == objects.end()) {
        objects.push_back(obj);
      }
    }
    return objects;
  };
}

LockTableReplica::LockTableReplica(Simulator& sim, AtomicBroadcast& abcast,
                                   StorageBackend& storage, const PartitionCatalog& catalog,
                                   const ProcedureRegistry& registry, SiteId self,
                                   AccessSetExtractor extractor)
    : OrderedReplica(sim, abcast, storage, catalog, registry, self, catalog.object_count(),
                     [](ObjectId obj) { return QueryEngine::Domain{obj}; }),
      extractor_(std::move(extractor)),
      queues_(catalog.object_count()) {
  OTPDB_CHECK(extractor_ != nullptr);
}

SubmitResult LockTableReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                             SimTime exec_duration, SimTime deadline) {
  std::vector<ObjectId> access_set = extractor_(klass, args);
  return submit_update_with_access(proc, klass, std::move(access_set), std::move(args),
                                   exec_duration, deadline);
}

SubmitResult LockTableReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                                   TxnArgs args, SimTime exec_duration,
                                                   SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK_MSG(classes.size() == 1,
                  "the lock-table engine's access-set extractor is keyed to one class's "
                  "argument convention; submit cross-partition transactions with an "
                  "explicit union access set via submit_update_with_access");
  return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
}

SubmitResult LockTableReplica::submit_update_with_access(ProcId proc, ClassId klass,
                                                         std::vector<ObjectId> access_set,
                                                         TxnArgs args, SimTime exec_duration,
                                                         SimTime deadline) {
  OTPDB_CHECK_MSG(!access_set.empty(), "a transaction must declare at least one object");
  const SubmitResult result = gate(deadline);
  if (result != SubmitResult::admitted) return result;
  auto request = std::make_shared<TxnRequest>();
  request->proc = proc;
  request->klass = klass;
  request->args = std::move(args);
  request->exec_duration = exec_duration;
  // `deadline` is deliberately NOT carried into the request: enforcing it at
  // the object queues would need per-object virtual service clocks to stay
  // deterministic across sites. The ingress gate above is the full extent of
  // deadline handling on this engine.
  request->access_set = std::move(access_set);
  broadcast(std::move(request));
  return SubmitResult::admitted;
}

std::size_t LockTableReplica::queue_length(ObjectId obj) const {
  return obj < queues_.size() ? queues_[obj].size() : 0;
}

void LockTableReplica::reset_queues() {
  OTPDB_CHECK_MSG(false, "this engine has no crash recovery path");
}

// ---------------------------------------------------------------------------
// Serialization (Opt-deliver): enter all object queues atomically.
// ---------------------------------------------------------------------------

void LockTableReplica::opt_delivered(TxnRecord* txn) {
  OTPDB_CHECK_MSG(!txn->request->access_set.empty(),
                  "lock-table engine requires pre-declared access sets");
  for (ObjectId obj : txn->request->access_set) {
    // The lock table is a dense vector over the catalog's object space; a
    // user-supplied extractor declaring an out-of-catalog id must fail loudly
    // here, not corrupt memory.
    OTPDB_CHECK_MSG(obj < queues_.size(), "declared object outside the catalog");
    queues_[obj].push_back(txn);
  }
  try_execute(txn);
}

bool LockTableReplica::heads_all_queues(const TxnRecord* txn) const {
  for (ObjectId obj : txn->request->access_set) {
    const auto& queue = queues_[obj];
    OTPDB_ASSERT(!queue.empty());
    if (queue.front() != txn) return false;
  }
  return true;
}

void LockTableReplica::try_execute(TxnRecord* txn) {
  if (txn->running || txn->exec != ExecState::active) return;
  if (!heads_all_queues(txn)) return;
  execute(txn);
}

// ---------------------------------------------------------------------------
// Execution completion (Figure 5 generalized).
// ---------------------------------------------------------------------------

void LockTableReplica::execution_done(TxnRecord* txn) {
  txn->running = false;
  txn->executed_at = sim_.now();
  txn->exec = ExecState::executed;
  if (txn->deliv == DeliveryState::committable) commit(txn);
}

// ---------------------------------------------------------------------------
// Correctness check (Figure 6 generalized to object queues).
// ---------------------------------------------------------------------------

void LockTableReplica::reorder_before_first_pending(ObjectQueue& queue, TxnRecord* txn) {
  auto self = std::find(queue.begin(), queue.end(), txn);
  OTPDB_CHECK(self != queue.end());
  queue.erase(self);
  auto first_pending = std::find_if(queue.begin(), queue.end(), [](const TxnRecord* t) {
    return t->deliv == DeliveryState::pending;
  });
  queue.insert(first_pending, txn);
}

void LockTableReplica::to_delivered(TxnRecord* txn) {
  for (ObjectId obj : txn->request->access_set) {
    queries_.note_to_delivered(QueryEngine::Domain{obj}, txn->to_index);
  }
  metrics_.opt_to_gap_ns.add(static_cast<double>(txn->to_delivered_at - txn->opt_delivered_at));

  if (txn->exec == ExecState::executed && heads_all_queues(txn)) {
    txn->deliv = DeliveryState::committable;
    commit(txn);
    return;
  }
  txn->deliv = DeliveryState::committable;

  // Undo every wrongly ordered predecessor: a *pending* transaction that sits
  // before T in one of T's queues but has already produced (or is producing)
  // effects. Its undo is a rollback of private provisional versions, so no
  // cascades. It re-executes after the committable prefix commits.
  bool moved = false;
  for (ObjectId obj : txn->request->access_set) {
    ObjectQueue& queue = queues_[obj];
    for (TxnRecord* other : queue) {
      if (other == txn) break;
      if (other->deliv == DeliveryState::pending &&
          (other->running || other->exec == ExecState::executed)) {
        abort_transaction(other);
      }
    }
    const TxnRecord* old_front = queue.front();
    reorder_before_first_pending(queue, txn);
    moved |= queue.front() != old_front || queue.front() == txn;
  }
  if (moved) ++metrics_.mismatch_reorders;

  try_execute(txn);
}

// ---------------------------------------------------------------------------
// Commit.
// ---------------------------------------------------------------------------

void LockTableReplica::commit(TxnRecord* txn) {
  OTPDB_CHECK(heads_all_queues(txn));
  const CommitRecord record = apply_commit(txn);
  const std::vector<ObjectId> objects = txn->request->access_set;
  for (ObjectId obj : objects) {
    ObjectQueue& queue = queues_[obj];
    OTPDB_CHECK(queue.front() == txn);
    queue.erase(queue.begin());
    // Multi-domain commit protocol: advance every covered watermark first,
    // wake waiters once below (so no query observes a half-committed state).
    queries_.note_committed(QueryEngine::Domain{obj}, txn->to_index, /*wake=*/false);
  }
  queries_.wake_waiters(txn->to_index);
  count_commit(txn, record);
  txns_.retire(txn);  // the record slot is recycled by the next acquire

  try_execute_heads_of(objects);
}

void LockTableReplica::try_execute_heads_of(const std::vector<ObjectId>& objects) {
  // Removing (or reordering around) a transaction may have promoted the
  // heads of these queues to hold-all-locks status.
  for (ObjectId obj : objects) {
    ObjectQueue& queue = queues_[obj];
    if (queue.empty()) continue;
    TxnRecord* head = queue.front();
    try_execute(head);
    // An executed+committable head that was waiting for this commit to reach
    // the front of every queue can now commit.
    if (head->exec == ExecState::executed && head->deliv == DeliveryState::committable &&
        !head->running && heads_all_queues(head)) {
      commit(head);
    }
  }
}

}  // namespace otpdb
