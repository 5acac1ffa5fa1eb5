#pragma once
// Irredundant sum-of-products computation via the Minato-Morreale procedure.
// This is the resynthesis front half of both `refactor` and `rewrite`:
// cut truth table -> ISOP cube list -> algebraic factoring -> new AIG cone.

#include <cstdint>
#include <string>
#include <vector>

#include "aig/truth.hpp"

namespace flowgen::aig {

/// One product term over n variables: var i appears positively if bit i of
/// `pos` is set, negatively if bit i of `neg` is set (never both).
struct Cube {
  std::uint32_t pos = 0;
  std::uint32_t neg = 0;

  unsigned num_literals() const;
  bool operator==(const Cube&) const = default;
};

using Sop = std::vector<Cube>;

/// Minato-Morreale irredundant SOP of `tt` (exact cover, no don't-cares).
/// Returns an empty SOP for the constant-0 function; the constant-1 function
/// yields a single empty cube.
Sop isop(const TruthTable& tt);

/// Append to `out` the cubes isop() returns for `tt`, or for ~tt when
/// `complement` is set, without building ~tt or copying the cube list.
void append_isop(const TruthTable& tt, bool complement, Sop& out);

/// Evaluate an SOP back into a truth table (for verification).
TruthTable sop_to_truth(const Sop& sop, unsigned num_vars);

/// Total literal count (the classic SOP cost function).
std::size_t sop_literals(const Sop& sop);

/// Human-readable form like "ab'c + d" for debugging.
std::string sop_to_string(const Sop& sop, unsigned num_vars);

}  // namespace flowgen::aig
