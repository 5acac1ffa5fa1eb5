#pragma once
// `refactor` (ABC's `rf` / `rf -z`): large-cut resynthesis. For every node,
// compute one reconvergence-driven cut (up to ~8-10 leaves), derive the cut
// function's irredundant SOP, factor it algebraically, and replace the cone
// when the factored implementation is smaller than the MFFC it frees.

#include "aig/aig.hpp"

namespace flowgen::opt {

struct RefactorParams {
  unsigned max_leaves = 8;   ///< reconvergence-driven cut limit (<= 16)
  unsigned min_mffc = 2;     ///< skip nodes with trivially small cones
  bool zero_cost = false;    ///< `refactor -z`
};

/// Large-cut resynthesis. Each root's window and factored form are
/// computed on the input graph; `refactor` and `refactor -z` differ only in
/// the acceptance rule, gain >= 1 or gain >= -(1 + mffc/4), where gain =
/// mffc - added - reused. Since reused >= 0, the tentative build of the
/// factored form stops (and rolls back) once it has appended more than
/// mffc minus the threshold nodes: such a root is a certain reject, and
/// it skips the reuse and cycle checks.
aig::Aig refactor(const aig::Aig& in, const RefactorParams& params = {});

}  // namespace flowgen::opt
