#include "map/cell_library.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
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

/// `w` with variable v complemented: its x_v = 0 and x_v = 1 halves trade
/// places.
std::uint64_t flip_var(std::uint64_t w, unsigned v) {
  const unsigned shift = 1u << v;
  return ((w & aig::kVarMask[v]) >> shift) | ((w << shift) & aig::kVarMask[v]);
}

}  // namespace

Match MatchRef::at_leaves() const {
  std::array<std::uint8_t, 4> var{};
  unsigned k = 0;
  for (std::uint32_t vars = support; vars != 0; vars &= vars - 1) {
    var[k++] = static_cast<std::uint8_t>(std::countr_zero(vars));
  }
  Match m = *match;
  m.leaf_flip_mask = leaf_flip_mask();
  for (auto& pin : m.pin_to_leaf) pin = var[pin];
  return m;
}

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
  build_table();
}

void CellLibrary::build_table() {
  table_.assign(std::size_t{1} << 16, 0);
  for (std::uint32_t cid = 0; cid < cells_.size(); ++cid) {
    const Cell& cell = cells_[cid];
    const unsigned nv = cell.num_inputs;
    assert(nv >= 1 && nv <= 4);
    // Every variant of a cell with a dead pin reads fewer than nv
    // variables, and best_match never looks such a function up as one of
    // nv: no query can reach it.
    bool live = true;
    for (unsigned v = 0; v < nv; ++v) {
      live = live && cell.function.depends_on(v);
    }
    if (!live) continue;
    const std::uint64_t function =
        aig::repeat_in_word(cell.function.low_word(), nv);

    std::array<unsigned, 4> perm{0, 1, 2, 3};
    std::array<std::uint64_t, 16> flipped{};
    do {
      // Cell pin i reads variable perm[i]: move each pin's variable there.
      // at[p] is the pin whose variable sits at position p.
      std::uint64_t permuted = function;
      std::array<unsigned, 4> at{0, 1, 2, 3};
      std::array<unsigned, 4> pos{0, 1, 2, 3};
      for (unsigned i = 0; i < nv; ++i) {
        const unsigned from = pos[i];
        const unsigned to = perm[i];
        if (from == to) continue;
        permuted = aig::swap_vars_in_word(permuted, std::min(from, to),
                                          std::max(from, to));
        const unsigned other = at[to];
        at[from] = other;
        pos[other] = from;
        at[to] = i;
        pos[i] = to;
      }
      // flipped[flip]: pin i reads perm[i] complemented for each set bit i,
      // built from the variant without the flip's lowest bit.
      flipped[0] = permuted;
      for (unsigned flip = 1; flip < (1u << nv); ++flip) {
        const unsigned low = static_cast<unsigned>(std::countr_zero(flip));
        flipped[flip] = flip_var(flipped[flip & (flip - 1)], perm[low]);
      }
      for (unsigned flip = 0; flip < (1u << nv); ++flip) {
        int pin_invs = 0;
        for (unsigned f = flip; f != 0; f &= f - 1) ++pin_invs;
        for (int out = 0; out < 2; ++out) {
          const int num_invs = pin_invs + out;
          const double area = cell.area_um2 + num_invs * inverter_area();
          const double delay =
              cell.delay_ps + (out != 0 ? inverter_delay() : 0.0);
          const std::uint64_t key =
              (flipped[flip] ^ (out != 0 ? ~0ull : 0ull)) & 0xFFFF;
          std::uint16_t& slot = table_[key];
          if (slot != 0) {
            // Variants arrive in the order the tie-break prefers: only a
            // strictly cheaper one replaces the match held.
            const Match& held = matches_[slot - 1];
            if (!(area < held.area_um2 ||
                  (area == held.area_um2 && delay < held.delay_ps))) {
              continue;
            }
          } else {
            // Keys are functions with full support over at most 4
            // variables: 64,824 of them, so 1 + an index fits 16 bits.
            matches_.emplace_back();
            assert(matches_.size() <= 0xFFFF);
            slot = static_cast<std::uint16_t>(matches_.size());
          }
          Match& m = matches_[slot - 1];
          m.cell_id = cid;
          m.out_flip = (out != 0);
          m.leaf_flip_mask = 0;
          m.pin_to_leaf.clear();
          for (unsigned i = 0; i < nv; ++i) {
            m.pin_to_leaf.push_back(static_cast<std::uint8_t>(perm[i]));
            if ((flip >> i) & 1) m.leaf_flip_mask |= 1u << perm[i];
          }
          m.area_um2 = area;
          m.delay_ps = delay;
        }
      }
    } while (std::next_permutation(perm.begin(), perm.begin() + nv));
  }
}

MatchRef CellLibrary::best_match(std::span<const std::uint64_t> words,
                                 unsigned num_vars) const {
  // Cells have at most 4 inputs: a function with more essential variables
  // has no match, and a constant has none either (handled upstream). Each
  // essential variable is swapped down to the next low position; every
  // variable it trades places with is inessential, so the low 2^k bits
  // then read the function over its k essential variables.
  // Variable v still sits at position v when it is tested: every swap so
  // far traded positions below it.
  std::uint32_t support = 0;
  unsigned k = 0;
  std::uint64_t low = 0;  // the low word, once compressed
  if (num_vars <= 6) {
    // One word (the mapper's cuts), in registers. Swaps below variable
    // num_vars keep its first 2^num_vars bits among themselves.
    low = num_vars < 6
              ? words[0] & ((std::uint64_t{1} << (1u << num_vars)) - 1)
              : words[0];
    for (unsigned v = 0; v < num_vars; ++v) {
      if ((((low >> (1u << v)) ^ low) & ~aig::kVarMask[v]) == 0) continue;
      if (k == 4) return {};
      if (v != k) low = aig::swap_vars_in_word(low, k, v);
      support |= 1u << v;
      ++k;
    }
  } else {
    TruthTable t = TruthTable::from_words(num_vars, words);
    for (unsigned v = 0; v < num_vars; ++v) {
      if (!t.depends_on(v)) continue;
      if (k == 4) return {};
      if (v != k) t.swap_vars(k, v);
      support |= 1u << v;
      ++k;
    }
    low = t.low_word();
  }
  if (k == 0) return {};
  const std::uint16_t entry = table_[aig::repeat_in_word(low, k) & 0xFFFF];
  if (entry == 0) return {};
  return {&matches_[entry - 1], support};
}

const CellLibrary& CellLibrary::builtin() {
  static const CellLibrary lib(builtin_cells());
  return lib;
}

}  // namespace flowgen::map
