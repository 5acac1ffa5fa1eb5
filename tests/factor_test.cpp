#include "aig/factor.hpp"

#include <gtest/gtest.h>

#include "aig/reconv_cut.hpp"
#include "aig/simulate.hpp"
#include "flow_graphs.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flowgen::aig {
namespace {

TruthTable random_tt(unsigned nv, util::Rng& rng) {
  TruthTable t(nv);
  for (std::size_t m = 0; m < t.num_bits(); ++m) t.set_bit(m, rng.chance(0.5));
  return t;
}

/// Build `tt` into a fresh AIG over fresh PIs and read the function back.
template <typename Builder>
void expect_builds_function(const TruthTable& tt, Builder&& build) {
  Aig g;
  const std::vector<Lit> inputs = g.add_pis(tt.num_vars());
  const Lit root = build(g, tt, inputs);
  std::vector<std::uint32_t> leaves;
  for (Lit l : inputs) leaves.push_back(lit_node(l));
  if (lit_node(root) == 0) {
    // Constant result: compare directly.
    EXPECT_TRUE(tt.is_const0() || tt.is_const1());
    EXPECT_EQ(root == kLitTrue, tt.is_const1());
    return;
  }
  EXPECT_EQ(cone_truth(g, root, leaves), tt);
}

TEST(FactorTest, LiteralCounts) {
  // (ab + ac) factors to a(b + c): 3 literals, not 4.
  Sop s;
  s.push_back(Cube{0x3, 0});  // ab
  s.push_back(Cube{0x5, 0});  // ac
  const FactorExpr e = factor_sop(s);
  EXPECT_EQ(e.num_literals(), 3u);
}

TEST(FactorTest, ConstantExpressions) {
  EXPECT_EQ(factor_sop({}).kind(), FactorExpr::Kind::kConst0);
  const FactorExpr one = factor_sop({Cube{}});
  EXPECT_EQ(one.kind(), FactorExpr::Kind::kConst1);
}

TEST(FactorTest, FactoredFormPreservesFunction) {
  util::Rng rng(5);
  for (unsigned nv : {2u, 3u, 4u, 5u, 6u}) {
    for (int trial = 0; trial < 15; ++trial) {
      const TruthTable tt = random_tt(nv, rng);
      const Sop s = isop(tt);
      const FactorExpr e = factor_sop(s);
      Aig g;
      const std::vector<Lit> inputs = g.add_pis(nv);
      const Lit root = build_factored(g, e, inputs);
      std::vector<std::uint32_t> leaves;
      for (Lit l : inputs) leaves.push_back(lit_node(l));
      if (tt.is_const0() || tt.is_const1()) continue;
      EXPECT_EQ(cone_truth(g, root, leaves), tt)
          << "nv=" << nv << " trial=" << trial;
    }
  }
}

TEST(FactorTest, BuildFromTruthMatches) {
  util::Rng rng(7);
  for (unsigned nv : {2u, 4u, 6u, 8u}) {
    for (int trial = 0; trial < 10; ++trial) {
      expect_builds_function(random_tt(nv, rng),
                             [](Aig& g, const TruthTable& tt,
                                const std::vector<Lit>& in) {
                               return build_from_truth(g, tt, in);
                             });
    }
  }
}

TEST(FactorTest, BuildShannonMatches) {
  util::Rng rng(11);
  for (unsigned nv : {2u, 4u, 6u, 8u}) {
    for (int trial = 0; trial < 10; ++trial) {
      expect_builds_function(random_tt(nv, rng),
                             [](Aig& g, const TruthTable& tt,
                                const std::vector<Lit>& in) {
                               return build_shannon(g, tt, in);
                             });
    }
  }
}

TEST(FactorTest, BuildFromTruthConstants) {
  Aig g;
  const std::vector<Lit> in = g.add_pis(3);
  EXPECT_EQ(build_from_truth(g, TruthTable::constant(3, false), in),
            kLitFalse);
  EXPECT_EQ(build_from_truth(g, TruthTable::constant(3, true), in),
            kLitTrue);
  EXPECT_EQ(build_shannon(g, TruthTable::constant(3, false), in), kLitFalse);
}

TEST(FactorTest, FactoredIsSmallerThanShannonForSops) {
  // For a function with compact SOP structure, factoring should use fewer
  // nodes than the naive mux tree (this gap is the optimization headroom
  // the design generators rely on).
  TruthTable tt(6);
  // f = x0 x1 + x2 x3 + x4 x5
  for (std::size_t m = 0; m < 64; ++m) {
    const bool v = ((m & 3) == 3) || (((m >> 2) & 3) == 3) ||
                   (((m >> 4) & 3) == 3);
    tt.set_bit(m, v);
  }
  Aig g1;
  const auto in1 = g1.add_pis(6);
  build_from_truth(g1, tt, in1);
  Aig g2;
  const auto in2 = g2.add_pis(6);
  build_shannon(g2, tt, in2);
  EXPECT_LT(g1.num_ands(), g2.num_ands());
}

TEST(FactorTest, BuildShannonSharesCofactors) {
  // XOR of 4 variables has maximal cofactor sharing; the mux tree with
  // memoisation should stay near-linear, not exponential.
  TruthTable tt(4);
  for (std::size_t m = 0; m < 16; ++m) {
    tt.set_bit(m, __builtin_popcountll(m) & 1);
  }
  Aig g;
  const auto in = g.add_pis(4);
  build_shannon(g, tt, in);
  EXPECT_LE(g.num_ands(), 3u * 7u);  // <= 7 muxes worth of nodes
}

TEST(FactorTest, IsopAndQuickFactorOutputsArePinned) {
  // One CRC-32 over the exact outputs of isop() and factor_sop() for both
  // polarities of window functions that real flows meet (reconvergence
  // windows of 6, 8 and 12 leaves on the oracle graphs) and of random
  // small tables. Refactor and rewrite build the postfix nodes node by
  // node, so a kernel that reorders one cube or one operand moves node ids
  // even where the function is the same. The value was recorded before
  // the kernels were rewritten for speed and must never be re-recorded.
  std::vector<std::uint8_t> bytes;
  auto put = [&](std::uint32_t v) {  // little-endian
    for (int b = 0; b < 4; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  std::size_t tables = 0;
  auto digest = [&](const TruthTable& tt) {
    for (const TruthTable& t : {tt, ~tt}) {
      const Sop sop = isop(t);
      put(static_cast<std::uint32_t>(sop.size()));
      for (const Cube& c : sop) {
        put(c.pos);
        put(c.neg);
      }
      const FactorExpr e = factor_sop(sop);
      put(static_cast<std::uint32_t>(e.nodes.size()));
      for (const FactorExpr::Node& n : e.nodes) {
        put(static_cast<std::uint32_t>(n.kind) | n.negated << 8 |
            std::uint32_t{n.var} << 16);
        put(n.arity);
      }
    }
    ++tables;
  };

  std::size_t and_index = 0;
  for (const Aig& g : fixtures::oracle_graphs()) {
    for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
      if (!g.is_and(id) || and_index++ % 64 != 0) continue;
      for (unsigned max_leaves : {6u, 8u, 12u}) {
        const WindowLeaves leaves = reconv_cut(g, id, max_leaves);
        digest(cone_truth(g, make_lit(id, false), leaves));
      }
    }
  }
  util::Rng rng(31);
  for (unsigned nv = 2; nv <= 6; ++nv) {
    for (int trial = 0; trial < 200; ++trial) digest(random_tt(nv, rng));
  }
  EXPECT_EQ(tables, 8263u);
  EXPECT_EQ(util::crc32(bytes), 0x31b5b706u);
}

}  // namespace
}  // namespace flowgen::aig
