#pragma once
// Reconvergence-driven cut computation (the cut used by ABC's refactor and
// resubstitution): grow a cut around a root node by repeatedly expanding the
// leaf whose fanins add the fewest new leaves, up to a leaf limit.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace flowgen::aig {

/// Returns the sorted leaf node ids of a reconvergence-driven cut of `root`
/// with at most `max_leaves` leaves.
std::vector<std::uint32_t> reconv_cut(const Aig& aig, std::uint32_t root,
                                      unsigned max_leaves);

}  // namespace flowgen::aig
