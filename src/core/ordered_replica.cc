#include "core/ordered_replica.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"
#include "util/log.h"

namespace otpdb {

OrderedReplica::OrderedReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                               const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                               SiteId self, std::size_t domain_count,
                               QueryEngine::DomainOf domain_of)
    : sim_(sim),
      abcast_(abcast),
      backend_(storage),
      store_(storage.memory()),
      catalog_(catalog),
      registry_(registry),
      self_(self),
      queries_(sim, store_, domain_count, std::move(domain_of), metrics_) {
  abcast_.set_callbacks(AbcastCallbacks{
      [this](const Message& msg) { on_opt_deliver(msg); },
      [this](const MsgId& id, TOIndex index) { on_to_deliver(id, index); },
      [this](std::span<const ToDelivery> batch) { on_to_deliver_batch(batch); },
  });
}

// ---------------------------------------------------------------------------
// Client entry points
// ---------------------------------------------------------------------------

SubmitResult OrderedReplica::gate(SimTime deadline) {
  const AbcastStats& ab = abcast_.stats();
  const std::uint64_t lag =
      ab.opt_delivered > ab.to_delivered ? ab.opt_delivered - ab.to_delivered : 0;
  return ingress_gate(sim_.now(), deadline, in_flight(), lag, abcast_.backpressured(),
                      metrics_);
}

void OrderedReplica::broadcast(std::shared_ptr<TxnRequest> request) {
  request->origin = self_;
  request->client_seq = next_client_seq_++;
  request->submitted_at = sim_.now();
  ++metrics_.submitted_updates;
  abcast_.broadcast(std::move(request));
}

SubmitResult OrderedReplica::submit_classes(ProcId proc, ClassId klass,
                                            std::vector<ClassId> classes, TxnArgs args,
                                            SimTime exec_duration, SimTime deadline) {
  const SubmitResult result = gate(deadline);
  if (result != SubmitResult::admitted) return result;
  auto request = std::make_shared<TxnRequest>();
  request->proc = proc;
  request->klass = klass;
  request->classes = std::move(classes);
  request->args = std::move(args);
  request->exec_duration = exec_duration;
  request->deadline = deadline;
  broadcast(std::move(request));
  return SubmitResult::admitted;
}

SubmitResult OrderedReplica::submit_update(ProcId proc, ClassId klass, TxnArgs args,
                                           SimTime exec_duration, SimTime deadline) {
  OTPDB_CHECK(klass < catalog_.class_count());
  return submit_classes(proc, klass, {}, std::move(args), exec_duration, deadline);
}

SubmitResult OrderedReplica::submit_update_multi(ProcId proc, std::vector<ClassId> classes,
                                                 TxnArgs args, SimTime exec_duration,
                                                 SimTime deadline) {
  normalize_class_set(classes);
  OTPDB_CHECK(classes.back() < catalog_.class_count());
  if (classes.size() == 1) {  // the base model's case: no class vector needed
    return submit_update(proc, classes.front(), std::move(args), exec_duration, deadline);
  }
  const ClassId primary = classes.front();
  return submit_classes(proc, primary, std::move(classes), std::move(args), exec_duration,
                        deadline);
}

void OrderedReplica::submit_query(QueryFn fn, SimTime exec_duration, QueryDoneFn done) {
  queries_.submit(std::move(fn), exec_duration, std::move(done));
}

// ---------------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------------

void OrderedReplica::on_opt_deliver(const Message& msg) {
  OTPDB_ASSERT(std::dynamic_pointer_cast<const TxnRequest>(msg.payload) != nullptr);
  auto request = std::static_pointer_cast<const TxnRequest>(msg.payload);
  // acquire() checks against duplicate Opt-delivery.
  TxnRecord* txn = txns_.acquire(msg.id, std::move(request));
  txn->opt_delivered_at = sim_.now();
  opt_delivered(txn);
}

void OrderedReplica::on_to_deliver(const MsgId& id, TOIndex index) {
  // Local Order guarantees Opt-deliver precedes TO-deliver - except for
  // durable catch-up tombstones.
  TxnRecord* txn = txns_.lookup_if_present(id);
  if (txn == nullptr) {
    OTPDB_CHECK_MSG(index <= replay_floor_, "TO-delivery without prior Opt-delivery");
    queries_.advance_to_index(index);
    return;
  }
  txn->to_index = index;
  txn->to_delivered_at = sim_.now();
  queries_.advance_to_index(index);
  to_delivered(txn);
}

void OrderedReplica::on_to_deliver_batch(std::span<const ToDelivery> batch) {
  for (const auto& [id, index] : batch) on_to_deliver(id, index);
}

// ---------------------------------------------------------------------------
// Execution, undo, commit
// ---------------------------------------------------------------------------

void OrderedReplica::execute(TxnRecord* txn) {
  OTPDB_CHECK(!txn->running);
  OTPDB_CHECK(txn->exec == ExecState::active);
  txn->running = true;
  ++txn->attempts;
  if (txn->attempts > 1) ++metrics_.reexecutions;
  const bool record_sets = commit_hook_ != nullptr;  // checker wants read/write sets
  const TxnRequest& request = *txn->request;
  auto run_in = [&](TxnContext& ctx) {
    registry_.get(request.proc)(ctx);
    txn->last_reads = ctx.take_reads();
    txn->last_writes = ctx.take_writes();
  };
  if (!request.access_set.empty()) {
    TxnContext ctx(store_, request.access_set, txn->tid, request.klass, request.args,
                   record_sets);
    run_in(ctx);
  } else if (request.multi_class()) {
    TxnContext ctx(store_, catalog_, request.class_span(), txn->tid, request.args, record_sets);
    run_in(ctx);
  } else {
    TxnContext ctx(store_, catalog_, txn->tid, request.klass, request.args, record_sets);
    run_in(ctx);
  }
  txn->completion =
      sim_.schedule_after(request.exec_duration, [this, txn] { execution_done(txn); });
}

void OrderedReplica::undo(TxnRecord* txn) {
  if (txn->running) {
    sim_.cancel(txn->completion);
    txn->running = false;
  }
  backend_.abort(txn->tid);  // undo provisional effects, if any
  txn->exec = ExecState::active;
}

void OrderedReplica::abort_transaction(TxnRecord* txn) {
  OTPDB_CHECK(txn->deliv == DeliveryState::pending);
  OTPDB_CHECK(txn->running || txn->exec == ExecState::executed);
  undo(txn);
  ++metrics_.aborts;
  OTPDB_TRACE("otp") << "site " << self_ << " aborts txn (" << txn->id.sender << ","
                     << txn->id.seq << ") for rescheduling";
}

CommitRecord OrderedReplica::apply_commit(TxnRecord* txn) {
  OTPDB_CHECK(txn->exec == ExecState::executed);
  OTPDB_CHECK(txn->deliv == DeliveryState::committable);
  OTPDB_CHECK(txn->to_index > 0);
  const TxnRequest& request = *txn->request;
  txn->committed_at = sim_.now();
  CommitRecord record;
  if (commit_hook_) {
    record.site = self_;
    record.txn = txn->id;
    record.proc = request.proc;
    record.klass = request.klass;
    if (request.multi_class()) {
      record.classes.assign(request.classes.begin(), request.classes.end());
    }
    record.index = txn->to_index;
    record.at = txn->committed_at;
    const auto writes = store_.provisional_writes(txn->tid);
    record.writes.assign(writes.begin(), writes.end());
    record.reads = txn->last_reads;
  }
  backend_.commit(txn->tid, txn->to_index, request.class_span(), queries_.gc_horizon());
  return record;
}

void OrderedReplica::count_commit(const TxnRecord* txn, const CommitRecord& record) {
  ++metrics_.committed;
  if (txn->request->origin == self_) {
    const double latency = static_cast<double>(txn->committed_at - txn->request->submitted_at);
    metrics_.commit_latency_ns.add(latency);
    metrics_.commit_latency_percentiles_ns.add(latency);
  }
  // Time spent fully executed but waiting for the definitive order: the part
  // of the broadcast's coordination cost the overlap failed to hide.
  metrics_.commit_wait_ns.add(static_cast<double>(txn->committed_at - txn->executed_at));
  if (commit_hook_) commit_hook_(record);
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

void OrderedReplica::crash_recover_reset() {
  txns_.for_each_live([this](TxnRecord* txn) {
    if (txn->running) sim_.cancel(txn->completion);
  });
  txns_.clear();
  reset_queues();
  backend_.clear_provisional();
  queries_.reset_volatile();
  admission_.reset();
}

void OrderedReplica::restart_from_disk(std::span<const TOIndex> class_watermarks,
                                       TOIndex durable_floor) {
  crash_recover_reset();  // volatile state is equally gone on a cold restart
  queries_.restore_watermarks(class_watermarks);
  replay_floor_ = durable_floor;
}

// ---------------------------------------------------------------------------
// Class-queue engines
// ---------------------------------------------------------------------------

bool ServiceClock::charge(const TxnRequest& request) {
  SimTime vstart = request.submitted_at;
  for (ClassId c : request.class_span()) vstart = std::max(vstart, finish_[c]);
  const SimTime vfinish = vstart + request.exec_duration;
  if (request.deadline != 0 && vfinish > request.deadline) return false;
  for (ClassId c : request.class_span()) finish_[c] = vfinish;
  return true;
}

ClassQueueReplica::ClassQueueReplica(Simulator& sim, AtomicBroadcast& abcast,
                                     StorageBackend& storage, const PartitionCatalog& catalog,
                                     const ProcedureRegistry& registry, SiteId self)
    : OrderedReplica(sim, abcast, storage, catalog, registry, self, catalog.class_count(),
                     [&catalog](ObjectId obj) {
                       return QueryEngine::Domain{catalog.class_of(obj)};
                     }),
      service_clock_(catalog.class_count()) {
  queues_.reserve(catalog.class_count());
  for (std::size_t c = 0; c < catalog.class_count(); ++c) {
    queues_.emplace_back(static_cast<ClassId>(c));
  }
}

void ClassQueueReplica::reset_queues() {
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    queues_[c] = ClassQueue(static_cast<ClassId>(c));
  }
  service_clock_.reset();  // rebuilt by the recovery replay
}

bool ClassQueueReplica::heads_all_queues(const TxnRecord* txn) const {
  for (ClassId c : txn->request->class_span()) {
    if (queues_[c].head() != txn) return false;
  }
  return true;
}

void ClassQueueReplica::try_execute(TxnRecord* txn) {
  if (txn->expired) return;  // dropped at TO-delivery: retired, never executed
  if (txn->running || txn->exec != ExecState::active) return;
  if (!heads_all_queues(txn)) return;
  execute(txn);
}

bool ClassQueueReplica::note_to_delivery(TxnRecord* txn) {
  const auto classes = txn->request->class_span();
  for (ClassId c : classes) queries_.note_to_delivered(c, txn->to_index);
  if (!service_clock_.charge(*txn->request)) txn->expired = true;
  if (txn->to_index <= queries_.last_committed(classes.front())) {
#ifndef NDEBUG
    // Commits are atomic across the covered classes, so the watermarks agree.
    for (ClassId c : classes) OTPDB_ASSERT(txn->to_index <= queries_.last_committed(c));
#endif
    return true;
  }
  metrics_.opt_to_gap_ns.add(static_cast<double>(txn->to_delivered_at - txn->opt_delivered_at));
  return false;
}

void ClassQueueReplica::advance_watermarks(std::span<const ClassId> classes, TOIndex index) {
  for (ClassId c : classes) queries_.note_committed(c, index, /*wake=*/false);
  queries_.wake_waiters(index);
}

}  // namespace otpdb
