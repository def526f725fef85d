// Dense hierarchical timer wheel for cancel-heavy protocol timers.
//
// Retransmission and watchdog timers have a distinctive life cycle: armed by
// the thousand, almost always cancelled before they fire (the ack arrives,
// the consensus instance decides, the transaction commits). Feeding them
// through Simulator::schedule_after makes every one a heap entry that is
// pushed, sifted, and later popped as a cancelled tombstone - O(log n) each
// way for events that mostly never run, inflating the queue the hot delivery
// path sifts through. The wheel gives those timers O(1) arm and O(1) cancel
// (an intrusive doubly-linked unlink), and keeps exactly ONE simulator event
// pending - the pump, scheduled at the earliest armed deadline - regardless
// of how many timers are outstanding.
//
// Structure: kLevels levels of 64 slots each. Level l buckets are
// tick * 64^l wide, so the wheel spans tick * 64^kLevels (with the default
// 256us tick: level 0 covers 16.4ms at 256us granularity, level 1 covers
// 1.05s, level 2 covers 67s; deadlines beyond the span still work - they
// share the coarsest buckets). A timer's deadline is quantized UP to a tick
// boundary at arm time; the pump fires at exactly that boundary, so a timer
// goes off at most one tick late and never early. Each bucket tracks the
// minimum quantized deadline it holds, so the pump always knows the exact
// next firing instant - idle stretches cost nothing (no per-tick cascading
// events), and a fired pump re-arms itself at the new minimum.
//
// Steady-state churn performs zero heap allocations: timers live in a
// recycled slot pool (generation-tagged ids make stale cancels a no-op, like
// Simulator's EventId), callbacks are InlineAction (inline-only captures),
// and the pump recycles one simulator slot. tests/timer_wheel_test.cc pins
// the zero-allocation guarantee with a counting operator new.
//
// Determinism: the wheel is driven by the simulator, so it inherits the
// simulator's schedule. Timers sharing a quantized deadline fire in
// (level, slot, arm-order) order within one pump event - a fixed rule.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "util/assert.h"

namespace otpdb {

class TimerWheel {
 public:
  static constexpr int kLevels = 3;
  static constexpr std::uint32_t kSlotsPerLevel = 64;

  /// Handle for an armed timer; cancel() with a stale handle (timer already
  /// fired or cancelled) is a safe no-op. Default-constructed == null.
  struct TimerId {
    std::uint32_t slot = kNil;
    std::uint32_t generation = 0;
  };

  explicit TimerWheel(Simulator& sim, SimTime tick = 256 * kMicrosecond)
      : sim_(sim), tick_(tick) {
    OTPDB_CHECK(tick_ >= 1);
    spans_[0] = tick_;
    for (int l = 1; l < kLevels; ++l) spans_[l] = spans_[l - 1] * kSlotsPerLevel;
  }
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  SimTime tick() const { return tick_; }

  /// Arms a timer at absolute time `deadline` (>= now), fired at the first
  /// tick boundary >= deadline.
  TimerId schedule_at(SimTime deadline, Simulator::Action action) {
    OTPDB_CHECK(deadline >= sim_.now());
    const std::uint32_t idx = acquire();
    Node& node = nodes_[idx];
    node.at = quantize(deadline);
    node.action = std::move(action);
    node.armed = true;
    ++armed_;
    link(idx);
    maybe_schedule_pump();
    return TimerId{idx, node.generation};
  }

  /// Arms a timer `delay` after now (delay >= 0).
  TimerId schedule_after(SimTime delay, Simulator::Action action) {
    OTPDB_CHECK(delay >= 0);
    return schedule_at(sim_.now() + delay, std::move(action));
  }

  /// Disarms a timer. Returns false if it already fired or was cancelled
  /// (stale generation) - mirroring Simulator::cancel.
  bool cancel(TimerId id) {
    if (!armed(id)) return false;
    unlink(id.slot);
    release(id.slot);
    // A thinned bucket may leave the pending pump early; a spurious pump
    // just rescans and re-arms. But when the LAST timer is cancelled, drop
    // the pump outright - protocol timers are almost always cancelled (the
    // ack arrived, the instance decided), and a stale pump would otherwise
    // keep the simulation's event horizon alive for nothing.
    if (armed_ == 0 && pump_armed_) {
      sim_.cancel(pump_event_);
      pump_armed_ = false;
    }
    return true;
  }

  bool armed(TimerId id) const {
    return id.slot < nodes_.size() && nodes_[id.slot].armed &&
           nodes_[id.slot].generation == id.generation;
  }

  /// Armed timers currently outstanding.
  std::size_t armed_count() const { return armed_; }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct Node {
    SimTime at = 0;  // quantized deadline
    std::uint32_t generation = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint8_t level = 0;
    std::uint8_t bucket = 0;
    bool armed = false;
    Simulator::Action action;
  };
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    /// Exact minimum quantized deadline held (conservative - cancels may
    /// leave it low, which only makes a pump fire early and rescan).
    SimTime min_at = kSimTimeMax;
  };

  SimTime quantize(SimTime deadline) const {
    return (deadline + tick_ - 1) / tick_ * tick_;
  }

  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t idx = free_.back();
      free_.pop_back();
      return idx;
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  void release(std::uint32_t idx) {
    Node& node = nodes_[idx];
    node.armed = false;
    node.action = nullptr;
    ++node.generation;  // invalidates outstanding TimerIds
    --armed_;
    free_.push_back(idx);
  }

  /// Picks the level whose range covers the remaining delta (far deadlines
  /// share the coarsest level; exact bucket minima keep the pump precise).
  void link(std::uint32_t idx) {
    // Bucket storage materializes on the first arm: many wheel owners (e.g.
    // a replica whose watchdog is disabled) never arm a timer, and an idle
    // wheel should cost neither the ~4.6KB nor the construction-time zeroing.
    if (buckets_.empty()) buckets_.assign(kLevels * kSlotsPerLevel, Bucket{});
    Node& node = nodes_[idx];
    const SimTime delta = node.at - sim_.now();
    int level = kLevels - 1;
    for (int l = 0; l < kLevels; ++l) {
      if (delta < spans_[l] * kSlotsPerLevel) {
        level = l;
        break;
      }
    }
    const auto slot = static_cast<std::uint32_t>((node.at / spans_[level]) % kSlotsPerLevel);
    node.level = static_cast<std::uint8_t>(level);
    node.bucket = static_cast<std::uint8_t>(slot);
    Bucket& bucket = buckets_[static_cast<std::size_t>(level) * kSlotsPerLevel + slot];
    node.prev = bucket.tail;
    node.next = kNil;
    if (bucket.tail == kNil) {
      bucket.head = idx;
    } else {
      nodes_[bucket.tail].next = idx;
    }
    bucket.tail = idx;
    if (node.at < bucket.min_at) bucket.min_at = node.at;
    occupied_[level] |= 1ull << slot;
  }

  void unlink(std::uint32_t idx) {
    Node& node = nodes_[idx];
    Bucket& bucket = buckets_[static_cast<std::size_t>(node.level) * kSlotsPerLevel + node.bucket];
    if (node.prev != kNil) {
      nodes_[node.prev].next = node.next;
    } else {
      bucket.head = node.next;
    }
    if (node.next != kNil) {
      nodes_[node.next].prev = node.prev;
    } else {
      bucket.tail = node.prev;
    }
    if (bucket.head == kNil) {
      bucket.min_at = kSimTimeMax;
      occupied_[node.level] &= ~(1ull << node.bucket);
    }
  }

  SimTime earliest() const {
    SimTime next = kSimTimeMax;
    for (int l = 0; l < kLevels; ++l) {
      std::uint64_t bits = occupied_[l];
      while (bits != 0) {
        const int slot = __builtin_ctzll(bits);
        bits &= bits - 1;
        const SimTime at = buckets_[static_cast<std::size_t>(l) * kSlotsPerLevel + slot].min_at;
        if (at < next) next = at;
      }
    }
    return next;
  }

  void maybe_schedule_pump() {
    const SimTime next = earliest();
    if (next == kSimTimeMax) return;  // idle; a stale pump rescans harmlessly
    if (pump_armed_ && pump_at_ <= next) return;
    if (pump_armed_) sim_.cancel(pump_event_);
    pump_at_ = next;
    pump_armed_ = true;
    pump_event_ = sim_.schedule_at(next, [this] { pump(); });
  }

  void pump() {
    pump_armed_ = false;
    const SimTime now = sim_.now();
    for (int l = 0; l < kLevels; ++l) {
      std::uint64_t bits = occupied_[l];
      while (bits != 0) {
        const int slot = __builtin_ctzll(bits);
        bits &= bits - 1;
        Bucket& bucket = buckets_[static_cast<std::size_t>(l) * kSlotsPerLevel + slot];
        if (bucket.min_at > now) continue;
        // Fire ripe nodes in arm order and recompute the exact minimum of the
        // survivors. The stale minimum is erased first: a callback may arm new
        // timers (re-arm patterns), and tail insertion into this very bucket
        // min-updates bucket.min_at through link(), so min(bucket.min_at,
        // walk minimum) at the end is exact even for nodes the walk missed.
        bucket.min_at = kSimTimeMax;
        SimTime min_at = kSimTimeMax;
        std::uint32_t cur = bucket.head;
        while (cur != kNil) {
          const std::uint32_t next = nodes_[cur].next;
          if (nodes_[cur].at <= now) {
            unlink(cur);
            Simulator::Action action = std::move(nodes_[cur].action);
            release(cur);
            action();
          } else if (nodes_[cur].at < min_at) {
            min_at = nodes_[cur].at;
          }
          cur = next;
        }
        if (bucket.head != kNil) {
          bucket.min_at = bucket.min_at < min_at ? bucket.min_at : min_at;
        } else {
          bucket.min_at = kSimTimeMax;
        }
      }
    }
    maybe_schedule_pump();
  }

  Simulator& sim_;
  SimTime tick_;
  SimTime spans_[kLevels] = {};
  /// Heap-backed (kLevels x kSlotsPerLevel, row-major): 192 buckets are
  /// ~4.6KB, too fat to inline into every protocol object that owns a wheel
  /// - an embedded array would wedge cold bucket state between the owner's
  /// hot members and cost cache misses on paths that never touch a timer.
  std::vector<Bucket> buckets_;
  std::uint64_t occupied_[kLevels] = {};
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  std::size_t armed_ = 0;
  EventId pump_event_{};
  bool pump_armed_ = false;
  SimTime pump_at_ = 0;
};

}  // namespace otpdb
