#include "db/versioned_store.h"

#include <algorithm>

#include "util/assert.h"

namespace otpdb {

VersionedStore::VersionedStore(std::uint64_t dense_objects) : dense_limit_(dense_objects) {}

VersionedStore::Chain& VersionedStore::chain_slot(ObjectId obj) {
  if (obj < dense_limit_) {
    if (obj >= dense_chains_.size()) dense_chains_.resize(static_cast<std::size_t>(obj) + 1);
    return dense_chains_[obj];
  }
  return sparse_chains_[obj];
}

void VersionedStore::load(ObjectId obj, Value value) {
  Chain& chain = chain_slot(obj);
  OTPDB_CHECK_MSG(chain.empty(), "load() must precede all writes");
  chain.push_back(Version{0, std::move(value)});
  ++live_objects_;
}

const Value* VersionedStore::read_snapshot_ptr(ObjectId obj, TOIndex max_index) const {
  OTPDB_CHECK_MSG(max_index >= snapshot_floor_, "snapshot read below the prune floor");
  const Chain* chain = chain_of(obj);
  if (chain == nullptr || chain->empty()) return nullptr;
  // Chains are ascending by index; find the last version with index <= max.
  auto pos = std::upper_bound(chain->begin(), chain->end(), max_index,
                              [](TOIndex m, const Version& v) { return m < v.index; });
  if (pos == chain->begin()) return nullptr;  // object born after the snapshot
  return &std::prev(pos)->value;
}

const Value* VersionedStore::read_for_txn_ptr(TxnId txn, ObjectId obj) const {
  if (txn < provisional_.size()) {
    const auto& entries = provisional_[txn].entries;
    for (const auto& [o, v] : entries) {
      if (o == obj) return &v;
    }
  }
  return read_latest_ptr(obj);
}

void VersionedStore::write(TxnId txn, ObjectId obj, Value value) {
  OTPDB_CHECK(txn != kInvalidTxnId);
  if (txn >= provisional_.size()) provisional_.resize(txn + 1);
  WriteSet& ws = provisional_[txn];
  // Last write per object wins; reverse linear scan (freshest entries first,
  // and write-sets are a handful of entries by design).
  for (auto it = ws.entries.rbegin(); it != ws.entries.rend(); ++it) {
    if (it->first == obj) {
      it->second = std::move(value);
      return;
    }
  }
  ws.entries.emplace_back(obj, std::move(value));
  ws.sorted = false;
}

void VersionedStore::WriteSet::ensure_sorted() {
  if (sorted) return;
  std::sort(entries.begin(), entries.end(),
            [](const WriteEntry& a, const WriteEntry& b) { return a.first < b.first; });
  sorted = true;
}

void VersionedStore::commit(TxnId txn, TOIndex index, TOIndex horizon) {
  OTPDB_CHECK(index > 0);
  if (txn >= provisional_.size()) return;  // read-only or write-free transaction
  WriteSet& ws = provisional_[txn];
  ws.ensure_sorted();  // deterministic per-object commit order across sites
  for (auto& [obj, value] : ws.entries) {
    Chain& chain = chain_slot(obj);
    OTPDB_CHECK_MSG(chain.empty() || chain.back().index < index,
                    "commit indices must ascend per object");
    if (chain.empty()) ++live_objects_;
    chain.push_back(Version{index, std::move(value)});
    trim(chain, horizon);
  }
  ws.entries.clear();  // keeps capacity: the TxnId slot is recycled
  ws.sorted = false;
}

void VersionedStore::abort(TxnId txn) {
  if (txn >= provisional_.size()) return;
  provisional_[txn].entries.clear();
  provisional_[txn].sorted = false;
}

void VersionedStore::clear_provisional() {
  for (WriteSet& ws : provisional_) {
    ws.entries.clear();
    ws.sorted = false;
  }
}

void VersionedStore::install_version(ObjectId obj, TOIndex index, Value value) {
  Chain& chain = chain_slot(obj);
  if (!chain.empty() && chain.back().index >= index) return;  // already installed
  if (chain.empty()) ++live_objects_;
  chain.push_back(Version{index, std::move(value)});
}

void VersionedStore::for_each_chain(
    const std::function<void(ObjectId, std::span<const Version>)>& fn) const {
  for (ObjectId obj = 0; obj < dense_chains_.size(); ++obj) {
    if (!dense_chains_[obj].empty()) fn(obj, dense_chains_[obj]);
  }
  // Canonical ascending-ObjectId traversal of the sparse tail. This feeds
  // checkpoint serialization (DurableStore::do_checkpoint), so hash-order
  // emission would make checkpoint bytes a function of unordered_map
  // internals rather than of committed state. Called at checkpoint/digest
  // cadence, so the sort is off the hot path.
  std::vector<ObjectId> sparse_ids;
  sparse_ids.reserve(sparse_chains_.size());
  // DETLINT(order-insensitive): keys are collected then sorted; callbacks
  // only fire in the sorted pass below.
  for (const auto& [obj, chain] : sparse_chains_) {
    if (!chain.empty()) sparse_ids.push_back(obj);
  }
  std::sort(sparse_ids.begin(), sparse_ids.end());
  for (ObjectId obj : sparse_ids) fn(obj, sparse_chains_.at(obj));
}

void VersionedStore::reset_in_place() {
  for (Chain& chain : dense_chains_) chain.clear();
  sparse_chains_.clear();
  live_objects_ = 0;
  snapshot_floor_ = 0;
  clear_provisional();
}

std::span<const VersionedStore::WriteEntry> VersionedStore::provisional_writes(TxnId txn) {
  if (txn >= provisional_.size()) return {};
  WriteSet& ws = provisional_[txn];
  ws.ensure_sorted();
  return ws.entries;
}

std::size_t VersionedStore::total_versions() const {
  std::size_t n = 0;
  for (const auto& chain : dense_chains_) n += chain.size();
  // DETLINT(order-insensitive): commutative sum over all chains; no digest,
  // send, or cross-site-compared stat sees the visitation order.
  for (const auto& [obj, chain] : sparse_chains_) n += chain.size();
  return n;
}

std::size_t VersionedStore::trim(Chain& chain, TOIndex horizon) {
  if (horizon == 0) return 0;
  snapshot_floor_ = std::max(snapshot_floor_, horizon - 1);
  // Keep the newest version with index < horizon (still visible at horizon)
  // plus everything >= horizon.
  auto first_kept = std::lower_bound(
      chain.begin(), chain.end(), horizon,
      [](const Version& v, TOIndex h) { return v.index < h; });
  if (first_kept == chain.begin()) return 0;
  auto erase_end = std::prev(first_kept);  // newest pre-horizon version survives
  const auto dropped = static_cast<std::size_t>(std::distance(chain.begin(), erase_end));
  chain.erase(chain.begin(), erase_end);  // keeps capacity: no reallocation later
  return dropped;
}

std::size_t VersionedStore::prune(TOIndex horizon) {
  std::size_t dropped = 0;
  for (auto& chain : dense_chains_) dropped += trim(chain, horizon);
  // DETLINT(order-insensitive): each chain is pruned independently against
  // the same horizon and `dropped` is a commutative sum; the final store
  // state and return value are identical for every visitation order.
  for (auto& [obj, chain] : sparse_chains_) dropped += trim(chain, horizon);
  return dropped;
}

}  // namespace otpdb
