#include "map/cell_library.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>

namespace flowgen::map {

using aig::TruthTable;

namespace {

Cell make_cell(std::string name, unsigned num_inputs, std::uint64_t bits,
               double area, double delay) {
  Cell c;
  c.name = std::move(name);
  c.num_inputs = num_inputs;
  c.function = TruthTable::from_bits(num_inputs, bits);
  c.area_um2 = area;
  c.delay_ps = delay;
  return c;
}

std::vector<Cell> builtin_cells() {
  // A consistent 14 nm-class library: areas in um^2, worst-pin delays in ps.
  // Complexity ordering mirrors real libraries (INV < NAND < AOI < XOR).
  return {
      make_cell("INV_X1", 1, 0x1, 0.137, 10),
      make_cell("BUF_X1", 1, 0x2, 0.180, 18),
      make_cell("NAND2_X1", 2, 0x7, 0.180, 12),
      make_cell("NOR2_X1", 2, 0x1, 0.180, 15),
      make_cell("AND2_X1", 2, 0x8, 0.220, 20),
      make_cell("OR2_X1", 2, 0xE, 0.220, 22),
      make_cell("XOR2_X1", 2, 0x6, 0.320, 28),
      make_cell("XNOR2_X1", 2, 0x9, 0.320, 28),
      make_cell("NAND3_X1", 3, 0x7F, 0.220, 16),
      make_cell("NOR3_X1", 3, 0x01, 0.220, 22),
      make_cell("AND3_X1", 3, 0x80, 0.270, 24),
      make_cell("OR3_X1", 3, 0xFE, 0.270, 26),
      make_cell("NAND4_X1", 4, 0x7FFF, 0.270, 20),
      make_cell("NOR4_X1", 4, 0x0001, 0.270, 28),
      make_cell("AND4_X1", 4, 0x8000, 0.320, 28),
      make_cell("OR4_X1", 4, 0xFFFE, 0.320, 30),
      make_cell("AOI21_X1", 3, 0x07, 0.220, 16),
      make_cell("OAI21_X1", 3, 0x1F, 0.220, 16),
      make_cell("AO21_X1", 3, 0xF8, 0.270, 22),
      make_cell("OA21_X1", 3, 0xE0, 0.270, 22),
      make_cell("AOI22_X1", 4, 0x0777, 0.270, 19),
      make_cell("OAI22_X1", 4, 0x111F, 0.270, 19),
      make_cell("AO22_X1", 4, 0xF888, 0.320, 25),
      make_cell("OA22_X1", 4, 0xEEE0, 0.320, 25),
      make_cell("AOI211_X1", 4, 0x0007, 0.270, 21),
      make_cell("OAI211_X1", 4, 0x1FFF, 0.270, 21),
      make_cell("MUX2_X1", 3, 0xCA, 0.320, 24),
      make_cell("MAJ3_X1", 3, 0xE8, 0.370, 26),
      make_cell("XOR3_X1", 3, 0x96, 0.550, 40),
  };
}

/// The function of `tt` over its essential variables `vars` (ascending,
/// at most 4) as the low 2^vars.size() bits of a word. Each vars[j] is
/// swapped down to position j; every variable it trades places with is
/// inessential, so the low minterms read the compressed function.
std::uint64_t compress_support(const TruthTable& tt,
                               std::span<const unsigned> vars) {
  TruthTable t = tt;  // inline up to 8 variables
  for (unsigned j = 0; j < vars.size(); ++j) {
    if (vars[j] != j) t.swap_vars(j, vars[j]);
  }
  return t.low_word() & ((std::uint64_t{1} << (1u << vars.size())) - 1);
}

}  // namespace

CellLibrary::CellLibrary(std::vector<Cell> cells) : cells_(std::move(cells)) {
  const TruthTable inv_tt = TruthTable::from_bits(1, 0x1);
  bool have_inverter = false;
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].num_inputs == 1 && cells_[i].function == inv_tt) {
      inverter_id_ = i;
      have_inverter = true;
      break;
    }
  }
  if (!have_inverter) {
    throw std::invalid_argument("CellLibrary requires an inverter cell");
  }
  build_index();
}

void CellLibrary::build_index() {
  index_.assign(5, {});
  for (std::uint32_t cid = 0; cid < cells_.size(); ++cid) {
    const Cell& cell = cells_[cid];
    const unsigned nv = cell.num_inputs;
    assert(nv >= 1 && nv <= 4);

    std::vector<unsigned> perm(nv);
    std::iota(perm.begin(), perm.end(), 0u);
    do {
      for (unsigned flip = 0; flip < (1u << nv); ++flip) {
        for (int out = 0; out < 2; ++out) {
          const TruthTable variant =
              cell.function.permute_flip(perm, flip, out != 0);
          Match m;
          m.cell_id = cid;
          m.out_flip = (out != 0);
          // Cell pin i reads cut leaf perm[i], through an inverter if the
          // flip bit for pin i is set.
          m.leaf_flip_mask = 0;
          for (unsigned leaf : perm) {
            m.pin_to_leaf.push_back(static_cast<std::uint8_t>(leaf));
          }
          for (unsigned i = 0; i < nv; ++i) {
            if ((flip >> i) & 1) m.leaf_flip_mask |= (1u << perm[i]);
          }
          const int num_invs =
              std::popcount(flip) + (m.out_flip ? 1 : 0);
          m.area_um2 = cell.area_um2 + num_invs * inverter_area();
          m.delay_ps =
              cell.delay_ps + (m.out_flip ? inverter_delay() : 0.0);

          const std::uint64_t key = variant.low_word();
          auto& slot = index_[nv];
          const auto it = slot.find(key);
          if (it == slot.end() || m.area_um2 < it->second.area_um2 ||
              (m.area_um2 == it->second.area_um2 &&
               m.delay_ps < it->second.delay_ps)) {
            slot[key] = m;
          }
        }
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
}

std::optional<Match> CellLibrary::best_match(const TruthTable& tt) const {
  // Cells have at most 4 inputs: a function with more essential variables
  // has no match, and a constant has none either (handled upstream).
  aig::InlineVec<unsigned, 4> vars;
  for (unsigned v = 0; v < tt.num_vars(); ++v) {
    if (!tt.depends_on(v)) continue;
    if (vars.size() == 4) return std::nullopt;
    vars.push_back(v);
  }
  const auto nv = static_cast<unsigned>(vars.size());
  if (nv == 0) return std::nullopt;

  const auto& slot = index_[nv];
  const auto it = slot.find(compress_support(tt, vars));
  if (it == slot.end()) return std::nullopt;

  // Map the match's leaf positions back to the cut's.
  Match m = it->second;
  std::uint32_t mask = 0;
  for (unsigned j = 0; j < nv; ++j) {
    if ((m.leaf_flip_mask >> j) & 1) mask |= (1u << vars[j]);
  }
  m.leaf_flip_mask = mask;
  for (auto& pin : m.pin_to_leaf) {
    pin = static_cast<std::uint8_t>(vars[pin]);
  }
  return m;
}

std::size_t CellLibrary::index_size() const {
  std::size_t n = 0;
  for (const auto& slot : index_) n += slot.size();
  return n;
}

const CellLibrary& CellLibrary::builtin() {
  static const CellLibrary lib(builtin_cells());
  return lib;
}

}  // namespace flowgen::map
