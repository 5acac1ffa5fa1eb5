#pragma once
// Synthetic 14 nm-class standard-cell library. The paper maps with a
// proprietary 14 nm library; we provide a self-contained one with areas in
// um^2 and delays in ps chosen to be mutually consistent
// (docs/architecture.md, "The cell library").
//
// For matching, every cell function is expanded over all input permutations,
// input polarities and output polarity; polarity changes are priced as
// explicit inverters. The cheapest variant of each function lands in one
// flat table keyed by the function's 16-bit truth table, so matching a cut
// function is a table read.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aig/inline_vec.hpp"
#include "aig/truth.hpp"

namespace flowgen::map {

struct Cell {
  std::string name;
  unsigned num_inputs = 0;
  aig::TruthTable function;  ///< over its own pins
  double area_um2 = 0.0;
  double delay_ps = 0.0;  ///< worst pin-to-output delay
};

/// One way to realise a function with a cell: which of its variables must
/// be complemented (inverters), whether the output needs an inverter, and
/// the resulting total cost. The library's own matches are over a
/// function's essential variables; MatchRef::at_leaves() moves one to a
/// cut's leaves.
struct Match {
  std::uint32_t cell_id = 0;
  std::uint32_t leaf_flip_mask = 0;  ///< bit i: cut leaf i feeds through INV
  bool out_flip = false;             ///< output feeds through INV
  double area_um2 = 0.0;             ///< cell + all required inverters
  double delay_ps = 0.0;             ///< cell + output inverter (pin inverter
                                     ///< delay is added per-leaf at map time)
  /// Pin binding: cell pin i reads cut leaf pin_to_leaf[i] (after support
  /// compression, leaf indices refer to the cut's leaf order). Recorded so
  /// the mapped netlist can be replayed/verified gate by gate. Cells have
  /// at most 4 inputs.
  aig::InlineVec<std::uint8_t, 4> pin_to_leaf;
};

/// What CellLibrary::best_match finds for a cut function: the library's
/// own match for the function over its essential variables (null when no
/// cell implements it), and which of the cut's variables those are.
struct MatchRef {
  const Match* match = nullptr;
  /// Bit v set when the cut function reads variable v: the match's
  /// variable j is the cut's j-th essential variable, lowest first.
  std::uint32_t support = 0;

  explicit operator bool() const { return match != nullptr; }
  /// The match's input inverters over the cut's variables: bit j of the
  /// match's mask moves to the j-th set bit of the support.
  std::uint32_t leaf_flip_mask() const {
    std::uint32_t bits = match->leaf_flip_mask;
    std::uint32_t mask = 0;
    for (std::uint32_t vars = support; bits != 0;
         bits >>= 1, vars &= vars - 1) {
      if (bits & 1) mask |= vars & (0u - vars);
    }
    return mask;
  }
  /// A copy of the match with its pins and inverters on the cut's
  /// variables.
  Match at_leaves() const;
};

class CellLibrary {
public:
  /// The builtin ~30-cell library used throughout the repo.
  static const CellLibrary& builtin();

  /// Build a matching table for a custom cell list. The list must contain
  /// an inverter (1-input, f = ~a) to price polarity fixes. A cell whose
  /// function ignores one of its pins never matches.
  explicit CellLibrary(std::vector<Cell> cells);

  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(std::uint32_t id) const { return cells_[id]; }
  const Cell& inverter() const { return cells_[inverter_id_]; }
  double inverter_area() const { return inverter().area_um2; }
  double inverter_delay() const { return inverter().delay_ps; }

  /// Cheapest realisation of `tt` (a cut function of at most
  /// Cut::kMaxLeaves variables; only its essential variables count, at
  /// most 4): the lowest area, then the lowest delay, then the first
  /// variant in cell, pin permutation, input flip, output flip order. The
  /// essential variables are swapped down to the low positions with word
  /// operations, and the table is read with their 2^k bits.
  MatchRef best_match(const aig::TruthTable& tt) const {
    return best_match(tt.words(), tt.num_vars());
  }
  /// The same for the table of `num_vars` variables whose first
  /// 2^num_vars bits `words` holds in TruthTable's layout (as
  /// aig::CutManager::function_words hands them out).
  MatchRef best_match(std::span<const std::uint64_t> words,
                      unsigned num_vars) const;

  /// Number of distinct functions the library matches.
  std::size_t index_size() const { return matches_.size(); }

private:
  void build_table();

  std::vector<Cell> cells_;
  std::uint32_t inverter_id_ = 0;
  /// The cheapest match of each function, in order of first variant.
  std::vector<Match> matches_;
  /// 2^16 entries: a function of k <= 4 essential variables 0..k-1, its
  /// 2^k bits repeated to 16, maps to 1 + its index in matches_, or 0
  /// when no cell implements it. The repetition keeps every input count's
  /// keys apart, since the 16-bit word reads exactly variables 0..k-1.
  std::vector<std::uint16_t> table_;
};

}  // namespace flowgen::map
