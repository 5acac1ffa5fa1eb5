#pragma once
// Algebraic factoring of sum-of-products expressions ("quick factor"), used
// by rewrite/refactor to turn an ISOP into a small multi-level AIG cone, and
// by the design generators to elaborate truth-table logic (AES S-box).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/isop.hpp"
#include "aig/truth.hpp"

namespace flowgen::aig {

/// Factored-form expression tree, stored flat in one array in postfix
/// order: every operator follows the subtrees of its operands, and the
/// root comes last.
struct FactorExpr {
  enum class Kind : std::uint8_t { kConst0, kConst1, kLiteral, kAnd, kOr };
  struct Node {
    Kind kind = Kind::kConst0;
    bool negated = false;     ///< valid for kLiteral
    std::uint8_t var = 0;     ///< valid for kLiteral
    std::uint32_t arity = 0;  ///< valid for kAnd / kOr: operand count
  };
  std::vector<Node> nodes;  ///< postfix; empty reads as kConst0

  /// Kind of the root.
  Kind kind() const {
    return nodes.empty() ? Kind::kConst0 : nodes.back().kind;
  }
  /// Literal count of the factored form (the standard cost measure).
  std::size_t num_literals() const;
};

/// Algebraic "quick factor": repeatedly divides by the most frequent literal.
FactorExpr factor_sop(const Sop& sop);

/// Append to `out` the postfix nodes factor_sop(cubes) holds, without
/// copying the cube list: `cubes` is the recursion's stack, which grows
/// above its size during the call and is restored on return.
void append_factored(Sop& cubes, std::vector<FactorExpr::Node>& out);

/// Construct the expression in `aig` with cut leaves mapped to `inputs`
/// (inputs[i] drives variable i). Returns the root literal. Children are
/// built left to right and folded by land_n/lor_n, so the land() sequence
/// (and with it every node id) is fixed by the expression alone.
///
/// A build that would append more than `max_new_nodes` nodes stops after
/// the first AND/OR that crosses the bound, rolls `aig` back to its size on
/// entry and returns kLitInvalid. The node count only grows during a build,
/// so it stops exactly when the full build would exceed the bound, and
/// every node the full build appends first is appended in the same order.
Lit build_factored(Aig& aig, const FactorExpr& expr,
                   std::span<const Lit> inputs,
                   std::size_t max_new_nodes = SIZE_MAX);

/// Full resynthesis helper: ISOP + factoring of both polarities of `tt`,
/// picking the polarity with fewer literals, built over `inputs`.
Lit build_from_truth(Aig& aig, const TruthTable& tt,
                     std::span<const Lit> inputs);

/// Naive Shannon (mux-tree) elaboration of `tt` over `inputs`, with
/// structural sharing of identical cofactors. This mirrors how an RTL
/// front-end elaborates a `case` statement: correct but unoptimized, which
/// is exactly what a synthesis flow is supposed to clean up. Design
/// generators use it so that flows have real optimization headroom.
Lit build_shannon(Aig& aig, const TruthTable& tt,
                  std::span<const Lit> inputs);

}  // namespace flowgen::aig
