#include "aig/simulate.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "aig/reconv_cut.hpp"
#include "designs/alu.hpp"

namespace flowgen::aig {
namespace {

TEST(SimulateTest, ConstantAndPiSignatures) {
  Aig g;
  const Lit a = g.add_pi();
  g.add_po(a);
  g.add_po(kLitTrue);
  util::Rng rng(1);
  Simulator sim(g, rng, 2);
  const auto sig_true = sim.signature(kLitTrue);
  EXPECT_EQ(sig_true[0], ~0ull);
  const auto sig_a = sim.signature(a);
  const auto sig_na = sim.signature(lit_not(a));
  EXPECT_EQ(sig_a[0], ~sig_na[0]);
}

TEST(SimulateTest, AndSignature) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.land(a, b);
  util::Rng rng(2);
  Simulator sim(g, rng, 4);
  const auto sa = sim.signature(a);
  const auto sb = sim.signature(b);
  const auto sx = sim.signature(x);
  for (std::size_t w = 0; w < 4; ++w) EXPECT_EQ(sx[w], sa[w] & sb[w]);
}

TEST(SimulateTest, EquivalentGraphsMatch) {
  // Build XOR two different ways.
  Aig g1;
  {
    const Lit a = g1.add_pi();
    const Lit b = g1.add_pi();
    g1.add_po(g1.lxor(a, b));
  }
  Aig g2;
  {
    const Lit a = g2.add_pi();
    const Lit b = g2.add_pi();
    // (a | b) & ~(a & b)
    g2.add_po(g2.land(g2.lor(a, b), g2.lnand(a, b)));
  }
  util::Rng rng(3);
  EXPECT_TRUE(random_equivalent(g1, g2, rng));
}

TEST(SimulateTest, InequivalentGraphsDetected) {
  Aig g1;
  {
    const Lit a = g1.add_pi();
    const Lit b = g1.add_pi();
    g1.add_po(g1.land(a, b));
  }
  Aig g2;
  {
    const Lit a = g2.add_pi();
    const Lit b = g2.add_pi();
    g2.add_po(g2.lor(a, b));
  }
  util::Rng rng(4);
  EXPECT_FALSE(random_equivalent(g1, g2, rng));
}

TEST(SimulateTest, ArityMismatchIsInequivalent) {
  Aig g1;
  g1.add_po(g1.add_pi());
  Aig g2;
  g2.add_pi();
  g2.add_po(g2.add_pi());
  util::Rng rng(5);
  EXPECT_FALSE(random_equivalent(g1, g2, rng));
}

/// Parity of `n` inputs; with `flip`, also XORed with the minterm whose
/// input k is bit k of *flip, so the two graphs differ on that one pattern.
Aig parity(unsigned n, std::optional<std::uint32_t> flip = std::nullopt) {
  Aig g;
  std::vector<Lit> in;
  for (unsigned k = 0; k < n; ++k) in.push_back(g.add_pi());
  Lit out = in[0];
  for (unsigned k = 1; k < n; ++k) out = g.lxor(out, in[k]);
  if (flip) {
    Lit minterm = kLitTrue;
    for (unsigned k = 0; k < n; ++k) {
      minterm = g.land(minterm, (*flip >> k) & 1 ? in[k] : lit_not(in[k]));
    }
    out = g.lxor(out, minterm);
  }
  g.add_po(out);
  return g;
}

TEST(SimulateTest, ExhaustiveFindsTheMintermRandomPatternsMiss) {
  // 19 inputs, one pattern of 2^19 flipped: 512 random patterns miss it
  // (at this seed), every pattern does not.
  const Aig g = parity(19);
  const Aig flipped = parity(19, 0x5A3C1u);
  util::Rng rng(7);
  EXPECT_TRUE(random_equivalent(g, flipped, rng, 8));
  EXPECT_FALSE(exhaustive_equivalent(g, flipped));
  EXPECT_TRUE(exhaustive_equivalent(g, g));
  // Pattern 0 and the last pattern, at the two ends of the blocks.
  EXPECT_FALSE(exhaustive_equivalent(g, parity(19, 0u)));
  EXPECT_FALSE(exhaustive_equivalent(g, parity(19, (1u << 19) - 1)));
}

TEST(SimulateTest, ExhaustiveCatchesAFlippedOutput) {
  // XOR built two ways agrees everywhere; complementing one output, or
  // a graph of another function, is caught at any input count.
  for (const unsigned n : {2u, 7u, 12u}) {
    SCOPED_TRACE(n);
    const Aig g = parity(n);
    Aig rebuilt;
    {
      std::vector<Lit> in;
      for (unsigned k = 0; k < n; ++k) in.push_back(rebuilt.add_pi());
      Lit out = in[n - 1];
      for (unsigned k = n - 1; k-- > 0;) {
        // (a | b) & ~(a & b)
        out = rebuilt.land(rebuilt.lor(out, in[k]), rebuilt.lnand(out, in[k]));
      }
      rebuilt.add_po(out);
    }
    EXPECT_TRUE(exhaustive_equivalent(g, rebuilt));
    Aig inverted;
    {
      std::vector<Lit> in;
      for (unsigned k = 0; k < n; ++k) in.push_back(inverted.add_pi());
      Lit out = in[0];
      for (unsigned k = 1; k < n; ++k) out = inverted.lxor(out, in[k]);
      inverted.add_po(lit_not(out));
    }
    EXPECT_FALSE(exhaustive_equivalent(g, inverted));
    EXPECT_FALSE(exhaustive_equivalent(g, parity(n, 1u)));
  }
}

TEST(SimulateTest, ExhaustiveRefusesMoreThan24Inputs) {
  const Aig wide = parity(25);
  EXPECT_THROW(exhaustive_equivalent(wide, wide), std::invalid_argument);
  EXPECT_FALSE(exhaustive_equivalent(parity(3), parity(4)));  // arity
}

TEST(SimulateTest, ConeTruthOfMux) {
  Aig g;
  const Lit s = g.add_pi();
  const Lit t = g.add_pi();
  const Lit e = g.add_pi();
  const Lit m = g.lmux(s, t, e);
  // leaves ordered (s, t, e) -> vars (0, 1, 2): f = s ? t : e
  const TruthTable tt = cone_truth(
      g, m, std::vector<std::uint32_t>{lit_node(s), lit_node(t), lit_node(e)});
  for (std::size_t i = 0; i < 8; ++i) {
    const bool sv = i & 1, tv = (i >> 1) & 1, ev = (i >> 2) & 1;
    EXPECT_EQ(tt.bit(i), sv ? tv : ev) << i;
  }
}

TEST(SimulateTest, ConeTruthComplementedRoot) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.land(a, b);
  const TruthTable tt = cone_truth(
      g, lit_not(x), std::vector<std::uint32_t>{lit_node(a), lit_node(b)});
  EXPECT_EQ(tt.low_word() & 0xF, 0x7u);  // NAND
}

TEST(SimulateTest, ConeTruthRejectsNonCut) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.land(g.land(a, b), c);
  // {a} alone is not a cut of x.
  EXPECT_THROW(cone_truth(g, x, std::vector<std::uint32_t>{lit_node(a)}),
               std::invalid_argument);
}

TEST(SimulateTest, ConeTruthAtLeafIsProjection) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const TruthTable tt = cone_truth(
      g, a, std::vector<std::uint32_t>{lit_node(a), lit_node(b)});
  EXPECT_EQ(tt, TruthTable::variable(2, 0));
}

// cone_truth keeps per-thread scratch slots across calls. Results must not
// depend on what ran before on the thread: a larger graph, a smaller one, or
// a call that threw half-way through.
std::vector<TruthTable> window_truths(const Aig& g) {
  std::vector<TruthTable> out;
  for (std::uint32_t id = 1; id < g.num_nodes(); id += 5) {
    if (!g.is_and(id)) continue;
    out.push_back(cone_truth(g, make_lit(id, id % 2 != 0),
                             reconv_cut(g, id, 8)));
  }
  return out;
}

TEST(SimulateTest, ConeTruthScratchReuseMatchesFreshThread) {
  const Aig large = designs::make_alu(16);
  const Aig small = designs::make_alu(4);
  std::vector<TruthTable> large_ref, small_ref;
  std::thread([&] { large_ref = window_truths(large); }).join();
  std::thread([&] { small_ref = window_truths(small); }).join();
  ASSERT_GT(large_ref.size(), small_ref.size());

  EXPECT_EQ(window_truths(large), large_ref);
  EXPECT_EQ(window_truths(small), small_ref);
  EXPECT_EQ(window_truths(large), large_ref);

  // Throw after part of the cone has been evaluated: the root's fanin
  // cone reaches a PI that is not among the leaves.
  const std::uint32_t root = large.num_nodes() - 1;
  ASSERT_TRUE(large.is_and(root));
  EXPECT_THROW(
      cone_truth(large, make_lit(root, false),
                 std::vector<std::uint32_t>{lit_node(large.node(root).fanin0)}),
      std::invalid_argument);
  EXPECT_EQ(window_truths(small), small_ref);
  EXPECT_EQ(window_truths(large), large_ref);

  std::vector<std::thread> threads;
  std::vector<int> ok(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ok[t] = window_truths(t % 2 ? small : large) ==
                  (t % 2 ? small_ref : large_ref) &&
              window_truths(large) == large_ref;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok, std::vector<int>(4, 1));
}

}  // namespace
}  // namespace flowgen::aig
