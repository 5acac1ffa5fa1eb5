#include "map/cell_library.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
  const auto m = lib().best_match(TruthTable::from_bits(2, 0x8));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->leaf_flip_mask, 0u);
  EXPECT_FALSE(m->out_flip);
  EXPECT_DOUBLE_EQ(m->area_um2, 0.220);
}

TEST(CellLibraryTest, NandCheaperThanAndPlusInverter) {
  const auto m = lib().best_match(TruthTable::from_bits(2, 0x7));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(lib().cell(m->cell_id).name, "NAND2_X1");
}

TEST(CellLibraryTest, InverterAndBuffer) {
  const auto inv = lib().best_match(TruthTable::from_bits(1, 0x1));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(lib().cell(inv->cell_id).name, "INV_X1");
  const auto buf = lib().best_match(TruthTable::from_bits(1, 0x2));
  ASSERT_TRUE(buf.has_value());
  EXPECT_EQ(lib().cell(buf->cell_id).name, "BUF_X1");
}

TEST(CellLibraryTest, EveryTwoInputFunctionMatches) {
  // All non-constant, non-degenerate 2-var functions must be implementable.
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const TruthTable tt = TruthTable::from_bits(2, bits);
    if (tt.is_const0() || tt.is_const1()) continue;
    if (!tt.depends_on(0) && !tt.depends_on(1)) continue;
    const auto m = lib().best_match(tt);
    ASSERT_TRUE(m.has_value()) << "bits=" << bits;
    expect_match_implements(*m, tt);
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
    const auto m = lib().best_match(tt);
    if (!m) continue;
    expect_match_implements(*m, tt);
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
  const auto m = lib().best_match(tt);
  ASSERT_TRUE(m.has_value());
  expect_match_implements(*m, tt);
  for (std::uint8_t pin : m->pin_to_leaf) EXPECT_NE(pin, 1);
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
    const auto want = lib().best_match(compact);
    const auto got = lib().best_match(spread);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (!got) continue;
    expect_match_implements(*got, spread);
    EXPECT_EQ(got->cell_id, want->cell_id);
    EXPECT_EQ(got->out_flip, want->out_flip);
    std::uint32_t mask = 0;
    for (unsigned j = 0; j < k; ++j) {
      if ((want->leaf_flip_mask >> j) & 1) mask |= 1u << vars[j];
    }
    EXPECT_EQ(got->leaf_flip_mask, mask);
    for (std::size_t p = 0; p < want->pin_to_leaf.size(); ++p) {
      EXPECT_EQ(got->pin_to_leaf[p], vars[want->pin_to_leaf[p]]);
    }
    ++matched;
  }
  EXPECT_GT(matched, 100);
}

TEST(CellLibraryTest, ConstantFunctionsHaveNoMatch) {
  EXPECT_FALSE(lib().best_match(TruthTable::constant(3, false)).has_value());
  EXPECT_FALSE(lib().best_match(TruthTable::constant(2, true)).has_value());
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

}  // namespace
}  // namespace flowgen::map
