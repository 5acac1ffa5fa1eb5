#pragma once
// Reconvergence-driven cut computation (the cut used by ABC's refactor and
// resubstitution): grow a cut around a root node by repeatedly expanding the
// leaf whose fanins add the fewest new leaves, up to a leaf limit.
//
// Every restructure and refactor root starts here, so the kernel reads no
// more than it must: each leaf record carries its fanins and level, and
// leaf membership is a per-thread stamped mark (aig/stamped_slots.hpp),
// not a scan of the leaf list.

#include <cstdint>

#include "aig/aig.hpp"
#include "aig/inline_vec.hpp"

namespace flowgen::aig {

/// Widest window: window truth tables have at most 16 inputs, and the
/// registry caps restructure's and refactor's max_leaves at 16.
constexpr unsigned kMaxWindowLeaves = 16;

/// Leaves of one window, inline.
using WindowLeaves = InlineVec<std::uint32_t, kMaxWindowLeaves>;

/// Returns the sorted leaf node ids of a reconvergence-driven cut of `root`
/// with at most `max_leaves` leaves. Each step expands the leaf with the
/// lowest cost (fanins not yet leaves, minus one), ties going to the
/// higher level, then to the earlier leaf; it stops when no leaf is an AND
/// or the cheapest expansion would grow the cut past `max_leaves`. Throws
/// std::invalid_argument when max_leaves > kMaxWindowLeaves.
WindowLeaves reconv_cut(const Aig& aig, std::uint32_t root,
                        unsigned max_leaves);

}  // namespace flowgen::aig
