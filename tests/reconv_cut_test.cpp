#include "aig/reconv_cut.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "aig/simulate.hpp"
#include "designs/alu.hpp"
#include "designs/montgomery.hpp"
#include "flow_graphs.hpp"

namespace flowgen::aig {
namespace {

// The reference reconv_cut: a linear scan of the leaf list for every
// membership test and every node record read from the graph. The kernel
// must return exactly its leaves.
WindowLeaves reference_reconv_cut(const Aig& aig, std::uint32_t root,
                                  unsigned max_leaves) {
  if (max_leaves > kMaxWindowLeaves) {
    throw std::invalid_argument("reconv_cut: max_leaves above 16");
  }
  // An expansion that adds a leaf runs only while the list stays within
  // max_leaves, so the list fits inline and membership is a linear scan
  // rather than a hash set.
  WindowLeaves leaves{root};
  auto is_leaf = [&](std::uint32_t id) {
    return std::find(leaves.begin(), leaves.end(), id) != leaves.end();
  };

  for (;;) {
    // Pick the expandable leaf with the lowest expansion cost (= number of
    // fanins not already leaves, minus the leaf it replaces).
    int best_cost = 3;
    std::size_t best_idx = leaves.size();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t id = leaves[i];
      if (!aig.is_and(id)) continue;
      const std::uint32_t f0 = lit_node(aig.node(id).fanin0);
      const std::uint32_t f1 = lit_node(aig.node(id).fanin1);
      int cost = -1;  // the leaf itself disappears
      if (!is_leaf(f0)) ++cost;
      if (f1 != f0 && !is_leaf(f1)) ++cost;
      if (cost < best_cost ||
          (cost == best_cost && best_idx < leaves.size() &&
           aig.level(id) > aig.level(leaves[best_idx]))) {
        best_cost = cost;
        best_idx = i;
      }
    }
    if (best_idx == leaves.size()) break;  // nothing expandable
    const auto projected =
        static_cast<long>(leaves.size()) + best_cost;
    if (projected > static_cast<long>(max_leaves) && best_cost > 0) break;

    const std::uint32_t id = leaves[best_idx];
    leaves.erase_at(best_idx);
    for (Lit fanin : {aig.node(id).fanin0, aig.node(id).fanin1}) {
      const std::uint32_t f = lit_node(fanin);
      if (!is_leaf(f)) leaves.push_back(f);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

TEST(ReconvCutTest, MatchesReferenceOnFlowGraphs) {
  // Every AND root of every graph that random m = 2 and m = 4 flows pass
  // through on alu:8, spn16 and mont:6, at three leaf limits.
  std::size_t roots = 0;
  for (const Aig& g : fixtures::oracle_graphs()) {
    for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
      if (!g.is_and(id)) continue;
      for (unsigned limit : {4u, 8u, 16u}) {
        ASSERT_EQ(reconv_cut(g, id, limit),
                  reference_reconv_cut(g, id, limit))
            << "node " << id << " of " << g.num_nodes() << ", limit "
            << limit;
      }
      ++roots;
    }
  }
  EXPECT_GT(roots, 50000u);
}

TEST(ReconvCutTest, SmallChain) {
  Aig g;
  const auto pis = g.add_pis(4);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(pis[2], pis[3]);
  const Lit z = g.land(x, y);
  g.add_po(z);
  const auto leaves = reconv_cut(g, lit_node(z), 8);
  // Everything expandable: cut should reach the PIs.
  std::vector<std::uint32_t> expected;
  for (Lit p : pis) expected.push_back(lit_node(p));
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(std::vector<std::uint32_t>(leaves.begin(), leaves.end()),
            expected);
}

TEST(ReconvCutTest, RespectsLeafLimit) {
  const Aig g = designs::make_alu(8);
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    for (unsigned limit : {4u, 8u, 12u}) {
      const auto leaves = reconv_cut(g, id, limit);
      EXPECT_LE(leaves.size(), limit) << "node " << id;
    }
  }
}

TEST(ReconvCutTest, LeavesFormCut) {
  // Property: cone_truth must succeed for every reconvergence-driven cut
  // (i.e. the leaves really separate the root from the PIs).
  const Aig g = designs::make_montgomery(4);
  int checked = 0;
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    const auto leaves = reconv_cut(g, id, 8);
    if (leaves.size() > 12) continue;
    EXPECT_NO_THROW(cone_truth(g, make_lit(id, false), leaves));
    ++checked;
  }
  EXPECT_GT(checked, 100);
}

TEST(ReconvCutTest, RootNotInItsOwnCut) {
  const Aig g = designs::make_alu(6);
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    const auto leaves = reconv_cut(g, id, 8);
    EXPECT_FALSE(std::binary_search(leaves.begin(), leaves.end(), id));
  }
}

}  // namespace
}  // namespace flowgen::aig
