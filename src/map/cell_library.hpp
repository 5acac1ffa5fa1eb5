#pragma once
// Synthetic 14 nm-class standard-cell library. The paper maps with a
// proprietary 14 nm library; we provide a self-contained one with areas in
// um^2 and delays in ps chosen to be mutually consistent
// (docs/architecture.md, "The cell library").
//
// For matching, every cell function is expanded over all input permutations,
// input polarities and output polarity; polarity changes are priced as
// explicit inverters. The expansion is indexed by truth table, giving O(1)
// exact matching of cut functions during mapping.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
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

/// One way to realise a cut function with a cell: which cut leaves must be
/// complemented (inverters), whether the output needs an inverter, and the
/// resulting total cost.
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

class CellLibrary {
public:
  /// The builtin ~30-cell library used throughout the repo.
  static const CellLibrary& builtin();

  /// Build a matching index for a custom cell list. The list must contain
  /// an inverter (1-input, f = ~a) to price polarity fixes.
  explicit CellLibrary(std::vector<Cell> cells);

  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& cell(std::uint32_t id) const { return cells_[id]; }
  const Cell& inverter() const { return cells_[inverter_id_]; }
  double inverter_area() const { return inverter().area_um2; }
  double inverter_delay() const { return inverter().delay_ps; }

  /// Cheapest realisation of `tt` (a cut function; only its essential
  /// variables count, at most 4), or nullopt if no cell variant implements
  /// it. The essential variables are swapped down to the low positions
  /// with word operations, and the index is read with the low 2^k bits.
  std::optional<Match> best_match(const aig::TruthTable& tt) const;

  /// Number of distinct (num_vars, function) entries in the match index.
  std::size_t index_size() const;

private:
  void build_index();

  std::vector<Cell> cells_;
  std::uint32_t inverter_id_ = 0;
  // One index per input count; key = truth table bits over that many vars.
  std::vector<std::unordered_map<std::uint64_t, Match>> index_;
};

}  // namespace flowgen::map
