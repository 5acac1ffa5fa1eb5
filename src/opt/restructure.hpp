#pragma once
// `restructure`: windowed resubstitution. For each node, build a window from
// a reconvergence-driven cut, compute exact truth tables of the node and of
// every divisor (window node outside the node's MFFC), and try to re-express
// the node as (a) an existing divisor, possibly complemented (0-resub), or
// (b) a single AND/OR of two divisors with arbitrary phases (1-resub).
// Replacing a node this way frees its whole MFFC.

#include "aig/aig.hpp"

namespace flowgen::opt {

struct RestructureParams {
  unsigned max_leaves = 8;    ///< window cut size (<= 16)
  unsigned max_divisors = 24; ///< bound on candidate divisors per window
};

/// Windowed resubstitution. Windows, divisor functions and the candidate
/// scan are computed on the input graph, root by root.
aig::Aig restructure(const aig::Aig& in, const RestructureParams& params = {});

}  // namespace flowgen::opt
