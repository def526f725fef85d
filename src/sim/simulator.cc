#include "sim/simulator.h"

#include <utility>

namespace otpdb {

namespace {
// EventId value layout: (generation << 32 | slot) + 1, so the default-built
// EventId{0} never names a real event.
inline std::uint64_t encode(std::uint32_t slot, std::uint32_t generation) {
  return ((static_cast<std::uint64_t>(generation) << 32) | slot) + 1;
}
}  // namespace

EventId Simulator::schedule_at(SimTime at, Action action) {
  OTPDB_CHECK_MSG(at >= now_, "cannot schedule an event in the simulated past");
  OTPDB_CHECK(action != nullptr);
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.armed = true;
  heap_.push(Entry{at, next_seq_++, slot, s.generation});
  ++live_;
  return EventId{encode(slot, s.generation)};
}

EventId Simulator::schedule_after(SimTime delay, Action action) {
  OTPDB_CHECK(delay >= 0);
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(EventId id) {
  if (id.value == 0) return false;
  const std::uint64_t v = id.value - 1;
  const auto slot = static_cast<std::uint32_t>(v & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(v >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.armed || s.generation != generation) return false;  // already fired/cancelled
  s.armed = false;
  s.action = nullptr;
  ++s.generation;  // stale heap entry is skipped on pop
  free_slots_.push_back(slot);
  --live_;
  return true;
}

bool Simulator::settle_top() {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    const Slot& s = slots_[top.slot];
    if (s.armed && s.generation == top.generation) return true;
    heap_.pop();  // cancelled or recycled; drop the stale entry
  }
  return false;
}

bool Simulator::step() {
  if (!settle_top()) return false;
  const Entry top = heap_.top();
  heap_.pop();
  Slot& s = slots_[top.slot];
  Action action = std::move(s.action);
  s.action = nullptr;
  s.armed = false;
  ++s.generation;
  free_slots_.push_back(top.slot);
  --live_;
  now_ = top.at;
  ++executed_;
  action();
  return true;
}

std::uint64_t Simulator::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

void Simulator::run_until(SimTime deadline) {
  while (settle_top() && heap_.top().at <= deadline) step();
  now_ = std::max(now_, deadline);
}

}  // namespace otpdb
