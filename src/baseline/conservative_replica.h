// ConservativeReplica - the non-optimistic baseline ([1,12,16,17] in the
// paper): transactions execute only after TO-delivery, in definitive order.
//
// Identical substrate to OtpReplica (the shared ClassQueueReplica core: same
// broadcast, store, class queues, deadline service clock, snapshot queries)
// minus the optimism: Opt-deliveries only buffer the request body; execution
// starts at TO-delivery. Since execution order always equals the definitive
// order, there are never aborts or reorderings - but the full ordering
// latency of the broadcast sits on the critical path of every transaction.
// This is the direct ablation for the paper's overlap claim
// (bench/overlap_latency).
//
// What remains here is the ordering rule: a transaction enters its class
// queues at TO-delivery, and a commit starts its successors before it
// advances the commit watermarks and wakes queries.
#pragma once

#include <span>
#include <vector>

#include "core/ordered_replica.h"

namespace otpdb {

class ConservativeReplica final : public ClassQueueReplica {
 public:
  ConservativeReplica(Simulator& sim, AtomicBroadcast& abcast, StorageBackend& storage,
                      const PartitionCatalog& catalog, const ProcedureRegistry& registry,
                      SiteId self);

 private:
  /// The tentative order is ignored: the record only buffers the body until
  /// the TO-delivery confirmation matches it.
  void opt_delivered(TxnRecord*) override {}
  void to_delivered(TxnRecord* txn) override;
  /// Execution completes in definitive order, so it commits at once.
  void execution_done(TxnRecord* txn) override;
  /// Retires every deadline-dropped transaction that heads all of its queues,
  /// starting from the heads of `classes` and following the heads each
  /// retire exposes.
  void retire_expired_heads(std::span<const ClassId> classes);

  std::vector<ClassId> retire_stack_;  ///< retire_expired_heads worklist
};

}  // namespace otpdb
