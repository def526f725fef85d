// Tests for the dense-identity hot path: the MsgId -> TxnId interner, the
// flat provisional write-set semantics, and a randomized check of prune() and
// trim-at-commit against a naive reference store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "db/txn_interner.h"
#include "db/versioned_store.h"
#include "util/rng.h"

namespace otpdb {
namespace {

// --- TxnIdInterner -----------------------------------------------------------

TEST(TxnIdInterner, AssignsDenseIdsFromZero) {
  TxnIdInterner interner;
  EXPECT_EQ(interner.intern(MsgId{0, 1}), 0u);
  EXPECT_EQ(interner.intern(MsgId{1, 1}), 1u);
  EXPECT_EQ(interner.intern(MsgId{0, 2}), 2u);
  EXPECT_EQ(interner.live(), 3u);
  EXPECT_EQ(interner.capacity(), 3u);
}

TEST(TxnIdInterner, FindAndLookup) {
  TxnIdInterner interner;
  const TxnId tid = interner.intern(MsgId{3, 7});
  EXPECT_EQ(interner.find(MsgId{3, 7}), tid);
  EXPECT_EQ(interner.lookup(MsgId{3, 7}), tid);
  EXPECT_EQ(interner.find(MsgId{3, 8}), kInvalidTxnId);
  EXPECT_EQ(interner.resolve(tid), (MsgId{3, 7}));
}

TEST(TxnIdInterner, ReleaseRecyclesIds) {
  TxnIdInterner interner;
  const TxnId a = interner.intern(MsgId{0, 1});
  const TxnId b = interner.intern(MsgId{0, 2});
  interner.release(a);
  EXPECT_EQ(interner.find(MsgId{0, 1}), kInvalidTxnId) << "binding retired";
  EXPECT_EQ(interner.live(), 1u);
  // The freed slot is reused; the id space stays dense.
  const TxnId c = interner.intern(MsgId{0, 3});
  EXPECT_EQ(c, a);
  EXPECT_EQ(interner.capacity(), 2u);
  EXPECT_EQ(interner.find(MsgId{0, 2}), b);
  EXPECT_EQ(interner.resolve(c), (MsgId{0, 3}));
}

TEST(TxnIdInternerDeathTest, DuplicateInternDies) {
  TxnIdInterner interner;
  interner.intern(MsgId{0, 1});
  EXPECT_DEATH(interner.intern(MsgId{0, 1}), "interned twice");
}

TEST(TxnIdInternerDeathTest, DoubleReleaseDies) {
  TxnIdInterner interner;
  const TxnId tid = interner.intern(MsgId{0, 1});
  interner.release(tid);
  EXPECT_DEATH(interner.release(tid), "released twice");
}

TEST(TxnIdInterner, ClearDropsEverything) {
  TxnIdInterner interner;
  interner.intern(MsgId{0, 1});
  interner.intern(MsgId{0, 2});
  interner.clear();
  EXPECT_EQ(interner.live(), 0u);
  EXPECT_EQ(interner.capacity(), 0u);
  EXPECT_EQ(interner.find(MsgId{0, 1}), kInvalidTxnId);
  EXPECT_EQ(interner.intern(MsgId{0, 1}), 0u) << "dense again after clear";
}

// --- Flat write-set semantics ------------------------------------------------

TEST(FlatWriteSet, ReadYourWrites) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{5}});
  TxnIdInterner interner;
  const TxnId t = interner.intern(MsgId{0, 1});
  store.write(t, 1, Value{std::int64_t{6}});
  store.write(t, 2, Value{std::int64_t{7}});
  EXPECT_EQ(as_int(*store.read_for_txn(t, 1)), 6);
  EXPECT_EQ(as_int(*store.read_for_txn(t, 2)), 7);
  EXPECT_EQ(as_int(*store.read_latest(1)), 5) << "other readers see committed state";
  EXPECT_FALSE(store.read_latest(2).has_value());
}

TEST(FlatWriteSet, AbortUndoLeavesSlotCleanForReuse) {
  VersionedStore store;
  TxnIdInterner interner;
  const TxnId t1 = interner.intern(MsgId{0, 1});
  store.write(t1, 1, Value{std::int64_t{10}});
  store.abort(t1);
  interner.release(t1);

  // The recycled id must start with an empty write-set: no leakage of the
  // aborted transaction's state into its successor.
  const TxnId t2 = interner.intern(MsgId{0, 2});
  ASSERT_EQ(t2, t1);
  EXPECT_TRUE(store.provisional_writes(t2).empty());
  EXPECT_FALSE(store.read_for_txn(t2, 1).has_value());
  store.commit(t2, 1);  // commit with no writes: no-op
  EXPECT_EQ(store.total_versions(), 0u);
}

TEST(FlatWriteSet, CommitClearsSlotForReuse) {
  VersionedStore store;
  TxnIdInterner interner;
  const TxnId t1 = interner.intern(MsgId{0, 1});
  store.write(t1, 1, Value{std::int64_t{10}});
  store.commit(t1, 1);
  interner.release(t1);

  const TxnId t2 = interner.intern(MsgId{1, 9});
  ASSERT_EQ(t2, t1) << "TxnId reused after GC";
  EXPECT_TRUE(store.provisional_writes(t2).empty());
  store.write(t2, 1, Value{std::int64_t{20}});
  store.commit(t2, 2);
  EXPECT_EQ(as_int(*store.read_latest(1)), 20);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 1)), 10);
}

TEST(FlatWriteSet, CommitIndexMonotonicityAcrossReusedIds) {
  VersionedStore store;
  // The same dense id commits repeatedly (the steady-state pattern); indices
  // must still ascend per object.
  for (TOIndex i = 1; i <= 5; ++i) {
    store.write(0, 7, Value{static_cast<std::int64_t>(i)});
    store.commit(0, i);
  }
  EXPECT_EQ(store.total_versions(), 5u);
  store.write(0, 7, Value{std::int64_t{99}});
  EXPECT_DEATH(store.commit(0, 5), "ascend") << "stale index must be rejected";
}

TEST(FlatWriteSet, ProvisionalWritesSortedByObject) {
  VersionedStore store;
  const TxnId t = 0;
  store.write(t, 9, Value{std::int64_t{1}});
  store.write(t, 3, Value{std::int64_t{2}});
  store.write(t, 6, Value{std::int64_t{3}});
  store.write(t, 3, Value{std::int64_t{4}});  // overwrite keeps last value
  const auto writes = store.provisional_writes(t);
  ASSERT_EQ(writes.size(), 3u);
  EXPECT_EQ(writes[0].first, 3u);
  EXPECT_EQ(as_int(writes[0].second), 4);
  EXPECT_EQ(writes[1].first, 6u);
  EXPECT_EQ(writes[2].first, 9u);
}

TEST(FlatWriteSet, LargeWriteSetStillDeduplicates) {
  // Exceed any small-set fast path: every object written twice, last wins.
  VersionedStore store;
  const TxnId t = 0;
  for (ObjectId obj = 0; obj < 50; ++obj) store.write(t, obj, Value{std::int64_t{1}});
  for (ObjectId obj = 0; obj < 50; ++obj) {
    store.write(t, obj, Value{static_cast<std::int64_t>(obj * 2)});
  }
  const auto writes = store.provisional_writes(t);
  ASSERT_EQ(writes.size(), 50u);
  for (ObjectId obj = 0; obj < 50; ++obj) {
    EXPECT_EQ(writes[obj].first, obj);
    EXPECT_EQ(as_int(writes[obj].second), static_cast<std::int64_t>(obj * 2));
  }
}

TEST(VersionedStore, SparseObjectIdsUseHashFallback) {
  // Ids beyond the dense window must behave identically (hash-map fallback).
  VersionedStore store(/*dense_objects=*/16);
  const ObjectId sparse = 1'000'000'000;
  store.load(sparse, Value{std::int64_t{1}});
  store.write(0, sparse, Value{std::int64_t{2}});
  store.write(0, 3, Value{std::int64_t{30}});  // dense id in the same txn
  store.commit(0, 1);
  EXPECT_EQ(as_int(*store.read_latest(sparse)), 2);
  EXPECT_EQ(as_int(*store.read_latest(3)), 30);
  EXPECT_EQ(store.object_count(), 2u);
  EXPECT_EQ(store.total_versions(), 3u);
  EXPECT_EQ(store.prune(2), 1u) << "sparse chain pruned too (initial version)";
}

// --- Randomized prune() property test ---------------------------------------

// Naive reference: full version history per object, never pruned.
struct ReferenceStore {
  std::map<ObjectId, std::vector<std::pair<TOIndex, std::int64_t>>> chains;

  void commit(ObjectId obj, TOIndex index, std::int64_t value) {
    chains[obj].emplace_back(index, value);
  }

  std::optional<std::int64_t> read_snapshot(ObjectId obj, TOIndex snapshot) const {
    auto it = chains.find(obj);
    if (it == chains.end()) return std::nullopt;
    std::optional<std::int64_t> out;
    for (const auto& [index, value] : it->second) {
      if (index <= snapshot) out = value;  // chains are ascending
    }
    return out;
  }

  std::optional<std::int64_t> read_latest(ObjectId obj) const {
    auto it = chains.find(obj);
    if (it == chains.end() || it->second.empty()) return std::nullopt;
    return it->second.back().second;
  }
};

/// Random multi-object transactions against the never-pruned reference.
/// Versions are dropped by explicit prune() passes and, when
/// `trim_at_commit`, by every commit trimming its chains to a random
/// (monotone) horizon - the engines' hot path. Either way every snapshot at or
/// above the store's floor (highest horizon - 1) must read exactly what the
/// reference reads, and the latest value must always agree.
void check_prune_property(bool trim_at_commit) {
  // Mixed dense/sparse id space to exercise both chain tables.
  const std::vector<ObjectId> objects = {0,  1,  2,  3,  7,  15, 16, 63,
                                         100'000, 100'001, 5'000'000'123};
  VersionedStore store(/*dense_objects=*/64);
  ReferenceStore reference;
  Rng rng(20260729);

  TOIndex next_index = 1;
  TOIndex pruned_to = 0;  // highest horizon passed to prune() or commit()
  std::map<ObjectId, TOIndex> applied;  // highest horizon each chain was trimmed to
  const auto draw_horizon = [&] {
    // Never below an earlier horizon (the engines' horizon only rises), and
    // up to one past the committing index (the lazy engine's choice).
    return static_cast<TOIndex>(rng.uniform_int(static_cast<std::int64_t>(pruned_to),
                                                static_cast<std::int64_t>(next_index)));
  };
  for (int step = 0; step < 400; ++step) {
    // Random multi-object transaction at the next index.
    const TxnId t = static_cast<TxnId>(rng.uniform_int(0, 3));
    const std::size_t writes = static_cast<std::size_t>(rng.uniform_int(1, 4));
    std::vector<ObjectId> written;
    for (std::size_t w = 0; w < writes; ++w) {
      const ObjectId obj = objects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(objects.size()) - 1))];
      const auto value = rng.uniform_int(0, 1'000'000);
      store.write(t, obj, Value{value});
      reference.commit(obj, next_index, value);  // dedup-free: one write per obj
      written.push_back(obj);
    }
    // The reference recorded every write; collapse duplicates like the store
    // does (last write per object wins, one version per object per commit).
    for (ObjectId obj : objects) {
      auto& chain = reference.chains[obj];
      while (chain.size() >= 2 && chain[chain.size() - 2].first == next_index &&
             chain.back().first == next_index) {
        chain.erase(chain.end() - 2);
      }
    }
    ++next_index;  // the committing index is next_index - 1 from here on
    const TOIndex horizon = trim_at_commit ? draw_horizon() : 0;
    store.commit(t, next_index - 1, horizon);
    pruned_to = std::max(pruned_to, horizon);
    for (ObjectId obj : written) applied[obj] = std::max(applied[obj], horizon);

    if (rng.uniform_int(0, 9) == 0) {
      const TOIndex prune_horizon = draw_horizon();
      store.prune(prune_horizon);
      pruned_to = std::max(pruned_to, prune_horizon);
      for (ObjectId obj : objects) applied[obj] = std::max(applied[obj], prune_horizon);
    }
    // Each chain is exactly its full history trimmed to the highest horizon
    // applied to it: the newest version below it plus everything at or above.
    std::map<ObjectId, std::vector<TOIndex>> kept;
    store.for_each_chain([&](ObjectId obj, std::span<const VersionedStore::Version> chain) {
      for (const auto& v : chain) kept[obj].push_back(v.index);
    });
    for (ObjectId obj : objects) {
      std::vector<TOIndex> want;
      for (const auto& [index, value] : reference.chains[obj]) {
        if (!want.empty() && index < applied[obj]) want.clear();  // superseded below h
        want.push_back(index);
      }
      ASSERT_EQ(kept[obj], want) << "obj " << obj << " horizon " << applied[obj];
    }
    const TOIndex floor = pruned_to == 0 ? 0 : pruned_to - 1;
    ASSERT_EQ(store.snapshot_floor(), floor);

    for (int probe = 0; probe < 8; ++probe) {
      const ObjectId obj = objects[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(objects.size()) - 1))];
      const auto snapshot = static_cast<TOIndex>(rng.uniform_int(
          static_cast<std::int64_t>(floor), static_cast<std::int64_t>(next_index)));
      const auto got = store.read_snapshot(obj, snapshot);
      const auto want = reference.read_snapshot(obj, snapshot);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "obj " << obj << " snapshot " << snapshot << " pruned_to " << pruned_to;
      if (want) ASSERT_EQ(as_int(*got), *want);
      const auto latest = store.read_latest(obj);
      const auto want_latest = reference.read_latest(obj);
      ASSERT_EQ(latest.has_value(), want_latest.has_value());
      if (want_latest) ASSERT_EQ(as_int(*latest), *want_latest);
    }
  }
}

TEST(PruneProperty, RandomizedAgainstReference) { check_prune_property(false); }

TEST(PruneProperty, TrimAtCommitAgainstReference) { check_prune_property(true); }

TEST(PruneProperty, ReadBelowTheFloorFailsLoudly) {
  VersionedStore store;
  store.load(1, Value{std::int64_t{100}});
  for (TOIndex i = 1; i <= 5; ++i) {
    store.write(0, 1, Value{static_cast<std::int64_t>(100 + i)});
    store.commit(0, i, /*horizon=*/i + 1);  // latest only, like the lazy engine
  }
  EXPECT_EQ(store.total_versions(), 1u);
  EXPECT_EQ(store.snapshot_floor(), 5u);
  EXPECT_EQ(as_int(*store.read_snapshot(1, 5)), 105);
  EXPECT_FALSE(store.read_snapshot(2, 5).has_value()) << "a never-written object reads empty";
  EXPECT_DEATH((void)store.read_snapshot(1, 4), "prune floor")
      << "the version snapshot 4 needs was dropped: fail, do not read 0";
}

}  // namespace
}  // namespace otpdb
