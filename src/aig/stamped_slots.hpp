#pragma once
// Node-indexed scratch slots for the per-node window kernels (resub plans,
// cone truth tables, reuse/containment walks). Each kernel call needs a
// small map or set keyed by node id, and a fresh hash container per call
// costs more than the logic work of restructure and refactor. A StampedSlots
// instance instead keeps one slot per node and a generation counter: `reset` starts
// a new call in O(1) by bumping the generation, and a slot whose stamp is
// not the current generation reads as empty. A slot's stamp and value sit
// side by side, so reading a slot touches one cache line.
//
// Instances are meant to be `thread_local` inside one kernel each: kernels
// nest (a resub plan may fall back to cone_truth), so two kernels never
// share an instance, and concurrent evaluations never share one either.

#include <cstdint>
#include <vector>

namespace flowgen::aig {

template <typename T>
class StampedSlots {
public:
  /// Begin a call over a graph of `num_nodes` nodes: every slot reads
  /// empty afterwards. Grows to the largest graph seen; clears all stamps
  /// when the generation counter wraps.
  void reset(std::size_t num_nodes) {
    if (slots_.size() < num_nodes) slots_.resize(num_nodes);
    if (++gen_ == 0) {
      for (Slot& slot : slots_) slot.stamp = 0;
      gen_ = 1;
    }
  }

  /// True when slot `id` was written since the last reset.
  bool has(std::uint32_t id) const { return slots_[id].stamp == gen_; }

  /// Slot `id`, value-initialised on first touch since the last reset.
  T& at(std::uint32_t id) {
    Slot& slot = slots_[id];
    if (slot.stamp != gen_) {
      slot.stamp = gen_;
      slot.value = T{};
    }
    return slot.value;
  }

  /// Slot `id`, or T{} when it is empty.
  T get(std::uint32_t id) const {
    const Slot& slot = slots_[id];
    return slot.stamp == gen_ ? slot.value : T{};
  }

  /// Empty slot `id` again (a set that loses members, read with has()).
  void erase(std::uint32_t id) { slots_[id].stamp = 0; }

private:
  struct Slot {
    std::uint32_t stamp = 0;
    T value{};
  };
  std::uint32_t gen_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace flowgen::aig
