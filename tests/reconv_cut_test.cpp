#include "aig/reconv_cut.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "aig/simulate.hpp"
#include "designs/alu.hpp"
#include "designs/montgomery.hpp"

namespace flowgen::aig {
namespace {

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
