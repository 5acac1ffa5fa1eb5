#pragma once
// `rewrite` (ABC's `rw` / `rw -z`): cut-based rewriting. For every node,
// enumerate its 4-feasible cuts, resynthesize each cut function (ISOP +
// algebraic factoring, cached per NPN class), and replace the node when the
// new cone costs fewer AIG nodes than the MFFC it frees. Structural hashing
// makes logic shared with the rest of the graph free, exactly as in ABC.
//
// `zero_cost` corresponds to `rewrite -z`: also accept gain-0 replacements,
// which perturbs the structure so that later passes find new opportunities.

#include "aig/aig.hpp"

namespace flowgen::opt {

struct RewriteParams {
  unsigned cut_size = 4;
  unsigned max_cuts_per_node = 8;
  /// `rewrite -z`: also accept non-improving replacements to perturb the
  /// structure out of local optima. With exact-gain resynthesis a strict
  /// zero-gain rule would almost always reproduce the existing structure,
  /// so the perturbation accepts bounded growth instead: gain >=
  /// -(1 + mffc/4) (docs/architecture.md, "The -z slack rule").
  bool zero_cost = false;
};

/// Growth budget of the -z perturbation for a cone of `mffc` nodes.
inline long zero_cost_slack(unsigned mffc) {
  return 1 + static_cast<long>(mffc) / 4;
}

/// Cut-based rewriting. Cut sets and their functions are enumerated once
/// on the input graph; cut-function factoring comes from the process-wide
/// memo, which `rewrite` and `rewrite -z` share with refactor. A cut beats
/// the best one so far only if its build appends at most mffc - best_gain
/// - 1 nodes, so each tentative build stops past that bound.
aig::Aig rewrite(const aig::Aig& in, const RewriteParams& params = {});

}  // namespace flowgen::opt
