#include "aig/cuts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "aig/simulate.hpp"
#include "designs/alu.hpp"
#include "flow_graphs.hpp"
#include "util/rng.hpp"

namespace flowgen::aig {
namespace {

Cut make_cut(const std::vector<std::uint32_t>& leaves) {
  Cut c;
  for (std::uint32_t id : leaves) c.leaves.push_back(id);
  c.compute_signature();
  return c;
}

std::vector<std::uint32_t> leaves_of(const Cut& c) {
  return {c.leaves.begin(), c.leaves.end()};
}

TEST(CutsTest, MergeWithinLimit) {
  Cut out;
  EXPECT_TRUE(merge_cuts(make_cut({1, 3}), make_cut({3, 5}), 4, out));
  EXPECT_EQ(leaves_of(out), (std::vector<std::uint32_t>{1, 3, 5}));
}

TEST(CutsTest, MergeRejectsOversize) {
  Cut out;
  EXPECT_FALSE(
      merge_cuts(make_cut({1, 2, 3}), make_cut({4, 5, 6}), 4, out));
}

TEST(CutsTest, MergeKeepsSorted) {
  Cut out;
  ASSERT_TRUE(merge_cuts(make_cut({2, 9}), make_cut({1, 5}), 4, out));
  EXPECT_TRUE(std::is_sorted(out.leaves.begin(), out.leaves.end()));
}

TEST(CutsTest, MergeRejectsOversizeWithAliasedSignatures) {
  // All four ids in each cut alias to one signature bit (id & 63), so
  // popcount(sig_a | sig_b) = 2 <= k even though the union has 8 distinct
  // leaves. The exact merge must still reject; only the signature
  // quick-reject is allowed to be optimistic, never the final answer.
  Cut out;
  EXPECT_FALSE(merge_cuts(make_cut({0, 64, 128, 192}),
                          make_cut({1, 65, 129, 193}), 4, out));
}

TEST(CutsTest, QuickRejectBoundIsSafeUnderAliasing) {
  // {1, 65} alias to the same bit: signature popcount underestimates the
  // leaf count, which is the safe direction for the popcount > k reject.
  const Cut a = make_cut({1, 65});
  EXPECT_EQ(std::popcount(a.signature), 1);
  Cut out;
  ASSERT_TRUE(merge_cuts(a, make_cut({2, 66}), 4, out));
  EXPECT_EQ(leaves_of(out), (std::vector<std::uint32_t>{1, 2, 65, 66}));
}

TEST(CutsTest, QuickRejectFiresOnDisjointSignatures) {
  // 6 distinct signature bits with k = 4: rejected before any merging.
  Cut out;
  EXPECT_FALSE(merge_cuts(make_cut({1, 2, 3}), make_cut({4, 5, 6}), 4, out));
}

TEST(CutsTest, SubsetDominance) {
  const Cut small = make_cut({1, 3});
  const Cut big = make_cut({1, 3, 7});
  EXPECT_TRUE(small.subset_of(big));
  EXPECT_FALSE(big.subset_of(small));
  EXPECT_TRUE(small.subset_of(small));
}

TEST(CutsTest, EveryNodeHasTrivialOrRealCuts) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const Lit x = g.land(a, b);
  const Lit y = g.land(x, c);
  g.add_po(y);

  CutParams p;
  p.cut_size = 4;
  CutManager cm(g, p);
  EXPECT_EQ(cm.cuts(lit_node(a)).size(), 1u);  // PI: trivial only
  const auto cuts_y = cm.cuts(lit_node(y));
  EXPECT_GE(cuts_y.size(), 2u);
  // The base cut {x, c} and the expanded {a, b, c} must both be present.
  bool found_base = false, found_leaves = false;
  for (const Cut& cut : cuts_y) {
    const std::vector<std::uint32_t> leaves = leaves_of(cut);
    if (leaves == std::vector<std::uint32_t>{lit_node(x), lit_node(c)} ||
        leaves == std::vector<std::uint32_t>{lit_node(c), lit_node(x)}) {
      found_base = true;
    }
    if (cut.leaves.size() == 3) found_leaves = true;
  }
  EXPECT_TRUE(found_base);
  EXPECT_TRUE(found_leaves);
}

TEST(CutsTest, CutsAreRealCuts) {
  // Property: every enumerated cut supports exact cone evaluation (throws
  // otherwise) on a real design.
  const Aig g = designs::make_alu(4);
  CutParams p;
  p.cut_size = 4;
  p.max_cuts = 6;
  CutManager cm(g, p);
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    for (const Cut& cut : cm.cuts(id)) {
      EXPECT_LE(cut.leaves.size(), 4u);
      EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
      EXPECT_NO_THROW(cone_truth(g, make_lit(id, false), cut.leaves));
    }
  }
}

TEST(CutsTest, RespectsMaxCuts) {
  const Aig g = designs::make_alu(8);
  CutParams p;
  p.cut_size = 4;
  p.max_cuts = 3;
  p.keep_trivial = true;
  CutManager cm(g, p);
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    EXPECT_LE(cm.cuts(id).size(), 4u);  // 3 + trivial
  }
}

TEST(CutsTest, NoDominatedCutsKept) {
  const Aig g = designs::make_alu(4);
  CutParams p;
  p.cut_size = 4;
  p.max_cuts = 8;
  p.keep_trivial = false;
  CutManager cm(g, p);
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    const auto cuts = cm.cuts(id);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      for (std::size_t j = 0; j < cuts.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(cuts[i].subset_of(cuts[j]) && cuts[i].leaves != cuts[j].leaves)
            << "dominated cut kept at node " << id;
      }
    }
  }
}

/// Every cut function of `cm` equals cone_truth over the cut, bit for bit
/// and tail mask included; returns the number of cuts checked.
std::size_t expect_functions_match(const Aig& g, const CutManager& cm) {
  std::size_t checked = 0;
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    const std::span<const Cut> cuts = cm.cuts(id);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      const TruthTable want =
          cone_truth(g, make_lit(id, false), cuts[i].leaves);
      const TruthTable got = cm.function(id, i);
      EXPECT_EQ(got.num_vars(), want.num_vars()) << "node " << id;
      EXPECT_TRUE(got == want) << "node " << id << " cut " << i << ": "
                               << got.to_hex() << " != " << want.to_hex();
      if (got != want) return checked;
      ++checked;
    }
  }
  return checked;
}

TEST(CutsTest, CutFunctionsMatchConeTruthOnFlowGraphs) {
  // Every cut of every graph that random m = 2 and m = 4 flows pass
  // through on alu:8, spn16 and mont:6: the mapper's shape (trivial cuts
  // kept) and rewrite's (dropped), at 4 and at 8 leaves.
  std::size_t checked = 0;
  for (const Aig& g : fixtures::oracle_graphs()) {
    for (unsigned k : {4u, 8u}) {
      for (bool keep_trivial : {true, false}) {
        CutParams p;
        p.cut_size = k;
        p.keep_trivial = keep_trivial;
        checked += expect_functions_match(g, CutManager(g, p));
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GT(checked, 1000000u);
}

TEST(CutsTest, CutFunctionsMatchConeTruthWhereALeafSitsInsideAFaninCone) {
  // Deep random graphs with few priority cuts per node: there a merged
  // cut can take a leaf of one fanin cut from inside the other fanin
  // cut's cone, where cone_truth stops while the stretched function of
  // that fanin cut does not. The cut's function must still be
  // cone_truth's.
  util::Rng rng(7);
  std::size_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Aig g;
    const std::vector<Lit> pis = g.add_pis(8);
    std::vector<Lit> lits(pis.begin(), pis.end());
    for (int i = 0; i < 150; ++i) {
      // Fanins from the six newest signals: long reconvergent chains.
      const std::size_t lo = lits.size() - 6;
      const Lit a = lits[lo + rng.below(6)] ^ static_cast<Lit>(rng.below(2));
      const Lit b = lits[lo + rng.below(6)] ^ static_cast<Lit>(rng.below(2));
      const Lit l = g.land(a, b);
      if (lit_node(l) > pis.size()) lits.push_back(l);
    }
    g.add_po(lits.back());
    for (unsigned k : {4u, 8u}) {
      CutParams p;
      p.cut_size = k;
      p.max_cuts = 5;
      checked += expect_functions_match(g, CutManager(g, p));
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(checked, 200000u);
}

}  // namespace
}  // namespace flowgen::aig
