#include "map/cell_library.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace flowgen::map {
namespace {

using aig::TruthTable;

const CellLibrary& lib() { return CellLibrary::builtin(); }

/// Replay a match: evaluate the cell function through the recorded pin
/// binding and polarity fixes; must reproduce `tt` exactly.
void expect_match_implements(const Match& m, const TruthTable& tt) {
  const Cell& cell = lib().cell(m.cell_id);
  for (std::size_t minterm = 0; minterm < tt.num_bits(); ++minterm) {
    std::size_t cell_input = 0;
    for (unsigned pin = 0; pin < cell.num_inputs; ++pin) {
      const unsigned leaf = m.pin_to_leaf[pin];
      bool v = (minterm >> leaf) & 1;
      if ((m.leaf_flip_mask >> leaf) & 1) v = !v;
      if (v) cell_input |= (std::size_t{1} << pin);
    }
    const bool out = cell.function.bit(cell_input) ^ m.out_flip;
    ASSERT_EQ(out, tt.bit(minterm))
        << "cell " << cell.name << " minterm " << minterm;
  }
}

/// The matcher as it was before the flat table, kept as the oracle: every
/// variant of every cell built with TruthTable::permute_flip and hashed by
/// its truth table per input count, a strictly cheaper variant (area, then
/// delay) replacing the one held; a query's essential variables swapped
/// down on a copy of the table, and the match moved back to them.
class HashIndexOracle {
public:
  explicit HashIndexOracle(const CellLibrary& lib) : lib_(lib), index_(5) {
    for (std::uint32_t cid = 0; cid < lib.cells().size(); ++cid) {
      const Cell& cell = lib.cell(cid);
      const unsigned nv = cell.num_inputs;
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
            for (unsigned leaf : perm) {
              m.pin_to_leaf.push_back(static_cast<std::uint8_t>(leaf));
            }
            for (unsigned i = 0; i < nv; ++i) {
              if ((flip >> i) & 1) m.leaf_flip_mask |= (1u << perm[i]);
            }
            const int num_invs = std::popcount(flip) + (m.out_flip ? 1 : 0);
            m.area_um2 = cell.area_um2 + num_invs * lib.inverter_area();
            m.delay_ps =
                cell.delay_ps + (m.out_flip ? lib.inverter_delay() : 0.0);
            auto& slot = index_[nv];
            const auto it = slot.find(variant.low_word());
            if (it == slot.end() || m.area_um2 < it->second.area_um2 ||
                (m.area_um2 == it->second.area_um2 &&
                 m.delay_ps < it->second.delay_ps)) {
              slot[variant.low_word()] = m;
            }
          }
        }
      } while (std::next_permutation(perm.begin(), perm.end()));
    }
  }

  std::optional<Match> best_match(const TruthTable& tt) const {
    std::vector<unsigned> vars;
    for (unsigned v = 0; v < tt.num_vars(); ++v) {
      if (!tt.depends_on(v)) continue;
      if (vars.size() == 4) return std::nullopt;
      vars.push_back(v);
    }
    const auto nv = static_cast<unsigned>(vars.size());
    if (nv == 0) return std::nullopt;
    TruthTable t = tt;
    for (unsigned j = 0; j < nv; ++j) {
      if (vars[j] != j) t.swap_vars(j, vars[j]);
    }
    const auto it = index_[nv].find(
        t.low_word() & ((std::uint64_t{1} << (1u << nv)) - 1));
    if (it == index_[nv].end()) return std::nullopt;
    Match m = it->second;
    std::uint32_t mask = 0;
    for (unsigned j = 0; j < nv; ++j) {
      if ((m.leaf_flip_mask >> j) & 1) mask |= (1u << vars[j]);
    }
    m.leaf_flip_mask = mask;
    for (auto& pin : m.pin_to_leaf) pin = static_cast<std::uint8_t>(vars[pin]);
    return m;
  }

  /// Every table of 1-4 variables gets the oracle's match from `lib`.
  void expect_all_small_functions_agree() const {
    for (unsigned nv = 1; nv <= 4; ++nv) {
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << (1u << nv));
           ++bits) {
        expect_agrees(TruthTable::from_bits(nv, bits));
      }
    }
  }

  void expect_agrees(const TruthTable& tt) const {
    const std::optional<Match> want = best_match(tt);
    const MatchRef got = lib_.best_match(tt);
    ASSERT_EQ(static_cast<bool>(got), want.has_value()) << tt.to_hex();
    if (!want) return;
    const Match m = got.at_leaves();
    EXPECT_EQ(m.cell_id, want->cell_id) << tt.to_hex();
    EXPECT_EQ(m.leaf_flip_mask, want->leaf_flip_mask) << tt.to_hex();
    EXPECT_EQ(got.leaf_flip_mask(), want->leaf_flip_mask) << tt.to_hex();
    EXPECT_EQ(m.out_flip, want->out_flip) << tt.to_hex();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.area_um2),
              std::bit_cast<std::uint64_t>(want->area_um2))
        << tt.to_hex();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.delay_ps),
              std::bit_cast<std::uint64_t>(want->delay_ps))
        << tt.to_hex();
    EXPECT_TRUE(m.pin_to_leaf == want->pin_to_leaf) << tt.to_hex();
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& slot : index_) n += slot.size();
    return n;
  }

private:
  const CellLibrary& lib_;
  std::vector<std::unordered_map<std::uint64_t, Match>> index_;
};

TEST(CellLibraryTest, BuiltinCellFunctionsAreConsistent) {
  for (const Cell& c : lib().cells()) {
    EXPECT_GE(c.num_inputs, 1u);
    EXPECT_LE(c.num_inputs, 4u);
    EXPECT_GT(c.area_um2, 0.0);
    EXPECT_GT(c.delay_ps, 0.0);
    // Every cell function must depend on all of its pins (no dead pins).
    for (unsigned v = 0; v < c.num_inputs; ++v) {
      EXPECT_TRUE(c.function.depends_on(v))
          << c.name << " pin " << v << " is dead";
    }
  }
}

TEST(CellLibraryTest, SpotCheckCellTruthTables) {
  // AOI21 = ~(ab + c) with a=v0, b=v1, c=v2.
  for (const Cell& c : lib().cells()) {
    if (c.name == "AOI21_X1") {
      for (std::size_t m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, cc = (m >> 2) & 1;
        EXPECT_EQ(c.function.bit(m), !((a && b) || cc));
      }
    }
    if (c.name == "MUX2_X1") {
      for (std::size_t m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, s = (m >> 2) & 1;
        EXPECT_EQ(c.function.bit(m), s ? b : a);
      }
    }
    if (c.name == "OAI22_X1") {
      for (std::size_t m = 0; m < 16; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, cc = (m >> 2) & 1,
                   d = (m >> 3) & 1;
        EXPECT_EQ(c.function.bit(m), !((a || b) && (cc || d)));
      }
    }
  }
}

TEST(CellLibraryTest, DirectFunctionsMatchWithoutInverters) {
  // AND2's own function must match with zero inverter overhead.
  const MatchRef m = lib().best_match(TruthTable::from_bits(2, 0x8));
  ASSERT_TRUE(m);
  EXPECT_EQ(m.match->leaf_flip_mask, 0u);
  EXPECT_FALSE(m.match->out_flip);
  EXPECT_DOUBLE_EQ(m.match->area_um2, 0.220);
}

TEST(CellLibraryTest, NandCheaperThanAndPlusInverter) {
  const MatchRef m = lib().best_match(TruthTable::from_bits(2, 0x7));
  ASSERT_TRUE(m);
  EXPECT_EQ(lib().cell(m.match->cell_id).name, "NAND2_X1");
}

TEST(CellLibraryTest, InverterAndBuffer) {
  const MatchRef inv = lib().best_match(TruthTable::from_bits(1, 0x1));
  ASSERT_TRUE(inv);
  EXPECT_EQ(lib().cell(inv.match->cell_id).name, "INV_X1");
  const MatchRef buf = lib().best_match(TruthTable::from_bits(1, 0x2));
  ASSERT_TRUE(buf);
  EXPECT_EQ(lib().cell(buf.match->cell_id).name, "BUF_X1");
}

TEST(CellLibraryTest, EveryTwoInputFunctionMatches) {
  // All non-constant, non-degenerate 2-var functions must be implementable.
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const TruthTable tt = TruthTable::from_bits(2, bits);
    if (tt.is_const0() || tt.is_const1()) continue;
    if (!tt.depends_on(0) && !tt.depends_on(1)) continue;
    const MatchRef m = lib().best_match(tt);
    ASSERT_TRUE(m) << "bits=" << bits;
    expect_match_implements(m.at_leaves(), tt);
  }
}

TEST(CellLibraryTest, MatchesReplayExactlyOnRandomFunctions) {
  util::Rng rng(2024);
  int matched = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const unsigned nv = 2 + static_cast<unsigned>(rng.below(3));
    TruthTable tt(nv);
    for (std::size_t m = 0; m < tt.num_bits(); ++m) {
      tt.set_bit(m, rng.chance(0.5));
    }
    const MatchRef m = lib().best_match(tt);
    if (!m) continue;
    expect_match_implements(m.at_leaves(), tt);
    ++matched;
  }
  EXPECT_GT(matched, 100);  // the library covers a lot of function space
}

TEST(CellLibraryTest, SupportCompressionHandlesDeadCutLeaves) {
  // f(a,b,c) = a & c  (b is a dead leaf): match must bind pins to leaves
  // 0 and 2 only.
  TruthTable tt(3);
  for (std::size_t m = 0; m < 8; ++m) {
    tt.set_bit(m, (m & 1) && ((m >> 2) & 1));
  }
  const MatchRef ref = lib().best_match(tt);
  ASSERT_TRUE(ref);
  const Match m = ref.at_leaves();
  expect_match_implements(m, tt);
  for (std::uint8_t pin : m.pin_to_leaf) EXPECT_NE(pin, 1);
}

TEST(CellLibraryTest, SupportCompressionMatchesTheCompactFunction) {
  // A function of at most 4 variables spread over up to 8 (dead leaves
  // around it, above the 6-variable word boundary too) must match as its
  // compact form does, with pins and inverters moved to its leaves.
  util::Rng rng(2026);
  int matched = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const unsigned k = 1 + static_cast<unsigned>(rng.below(4));
    const unsigned nv = k + static_cast<unsigned>(rng.below(9 - k));
    std::vector<unsigned> vars(nv);
    for (unsigned v = 0; v < nv; ++v) vars[v] = v;
    for (unsigned v = nv; v-- > 1;) {
      std::swap(vars[v], vars[rng.below(v + 1)]);
    }
    vars.resize(k);
    std::sort(vars.begin(), vars.end());
    TruthTable compact(k);
    for (std::size_t m = 0; m < compact.num_bits(); ++m) {
      compact.set_bit(m, rng.chance(0.5));
    }
    TruthTable spread(nv);
    for (std::size_t m = 0; m < spread.num_bits(); ++m) {
      std::size_t c = 0;
      for (unsigned j = 0; j < k; ++j) c |= ((m >> vars[j]) & 1) << j;
      spread.set_bit(m, compact.bit(c));
    }
    bool full_support = true;
    for (unsigned j = 0; j < k; ++j) full_support &= compact.depends_on(j);
    if (!full_support) continue;
    const MatchRef want_ref = lib().best_match(compact);
    const MatchRef got_ref = lib().best_match(spread);
    ASSERT_EQ(static_cast<bool>(got_ref), static_cast<bool>(want_ref))
        << "trial " << trial;
    if (!got_ref) continue;
    const Match want = want_ref.at_leaves();
    const Match got = got_ref.at_leaves();
    expect_match_implements(got, spread);
    EXPECT_EQ(got.cell_id, want.cell_id);
    EXPECT_EQ(got.out_flip, want.out_flip);
    std::uint32_t mask = 0;
    for (unsigned j = 0; j < k; ++j) {
      if ((want.leaf_flip_mask >> j) & 1) mask |= 1u << vars[j];
    }
    EXPECT_EQ(got.leaf_flip_mask, mask);
    for (std::size_t p = 0; p < want.pin_to_leaf.size(); ++p) {
      EXPECT_EQ(got.pin_to_leaf[p], vars[want.pin_to_leaf[p]]);
    }
    ++matched;
  }
  EXPECT_GT(matched, 100);
}

TEST(CellLibraryTest, ConstantFunctionsHaveNoMatch) {
  EXPECT_FALSE(lib().best_match(TruthTable::constant(3, false)));
  EXPECT_FALSE(lib().best_match(TruthTable::constant(2, true)));
}

TEST(CellLibraryTest, RequiresInverter) {
  std::vector<Cell> cells;
  Cell c;
  c.name = "AND2";
  c.num_inputs = 2;
  c.function = TruthTable::from_bits(2, 0x8);
  c.area_um2 = 1;
  c.delay_ps = 1;
  cells.push_back(c);
  EXPECT_THROW(CellLibrary{cells}, std::invalid_argument);
}

TEST(CellLibraryTest, IndexIsPopulated) {
  EXPECT_GT(lib().index_size(), 200u);
}

TEST(CellLibraryTest, EverySmallFunctionMatchesAsTheHashIndexDid) {
  // All 65,812 tables of 1-4 variables, with and without full support.
  const HashIndexOracle oracle(lib());
  EXPECT_EQ(lib().index_size(), oracle.size());
  oracle.expect_all_small_functions_agree();
}

TEST(CellLibraryTest, SpreadFunctionsMatchAsTheHashIndexDid) {
  // Functions of 1-5 essential variables spread over up to 8 (past the
  // 6-variable word boundary too), and dense tables of 5-8 variables.
  const HashIndexOracle oracle(lib());
  util::Rng rng(31);
  for (int trial = 0; trial < 3000; ++trial) {
    const unsigned k = 1 + static_cast<unsigned>(rng.below(5));
    const unsigned nv = k + static_cast<unsigned>(rng.below(9 - k));
    std::vector<unsigned> vars(nv);
    std::iota(vars.begin(), vars.end(), 0u);
    for (unsigned v = nv; v-- > 1;) {
      std::swap(vars[v], vars[rng.below(v + 1)]);
    }
    vars.resize(k);
    std::sort(vars.begin(), vars.end());
    TruthTable spread(nv);
    const std::uint64_t compact = rng.next();
    for (std::size_t m = 0; m < spread.num_bits(); ++m) {
      std::size_t c = 0;
      for (unsigned j = 0; j < k; ++j) c |= ((m >> vars[j]) & 1) << j;
      spread.set_bit(m, (compact >> c) & 1);
    }
    oracle.expect_agrees(spread);
    TruthTable dense(5 + static_cast<unsigned>(rng.below(4)));
    for (std::size_t m = 0; m < dense.num_bits(); ++m) {
      dense.set_bit(m, rng.chance(0.5));
    }
    oracle.expect_agrees(dense);
  }
}

TEST(CellLibraryTest, OnlyTheTablesOwnBitsCount) {
  // best_match over words reads the first 2^num_vars bits only: a table
  // repeated past them (as CutManager stores cut functions) or followed by
  // noise gets the match of the masked table.
  util::Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    const unsigned nv = static_cast<unsigned>(rng.below(6));
    const std::uint64_t noise = rng.next();
    const TruthTable tt = TruthTable::from_bits(nv, noise >> 7);
    const MatchRef want = lib().best_match(tt);
    const std::uint64_t repeated = aig::repeat_in_word(tt.words()[0], nv);
    const std::uint64_t tail = (~0ull << tt.num_bits()) & noise;
    for (const std::uint64_t w : {repeated, tt.words()[0] | tail}) {
      const MatchRef got = lib().best_match(std::span(&w, 1), nv);
      EXPECT_EQ(got.match, want.match) << tt.to_hex();
      EXPECT_EQ(got.support, want.support) << tt.to_hex();
    }
  }
}

TEST(CellLibraryTest, CustomLibraryMatchesAsTheHashIndexDid) {
  // A custom list whose ties fall differently from the builtin one: a
  // cheap inverter, a cell with a dead pin (never matched), NOR2 cheaper
  // than NAND2, one 3-input and one 4-input cell priced alike.
  auto cell = [](const char* name, unsigned n, std::uint64_t bits,
                 double area, double delay) {
    Cell c;
    c.name = name;
    c.num_inputs = n;
    c.function = TruthTable::from_bits(n, bits);
    c.area_um2 = area;
    c.delay_ps = delay;
    return c;
  };
  const CellLibrary custom({
      cell("NAND2", 2, 0x7, 0.30, 11),
      cell("INV", 1, 0x1, 0.05, 7),
      cell("NOR2", 2, 0x1, 0.25, 13),
      cell("AND3_DEAD", 3, 0x88, 0.20, 9),  // a & b; pin 2 unused
      cell("MUX2", 3, 0xCA, 0.40, 20),
      cell("AOI22", 4, 0x0777, 0.40, 18),
  });
  const HashIndexOracle oracle(custom);
  oracle.expect_all_small_functions_agree();
  const MatchRef and2 = custom.best_match(TruthTable::from_bits(2, 0x8));
  ASSERT_TRUE(and2);
  EXPECT_NE(custom.cell(and2.match->cell_id).name, "AND3_DEAD");
}

}  // namespace
}  // namespace flowgen::map
