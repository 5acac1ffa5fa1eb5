#include "aig/refs.hpp"

#include <gtest/gtest.h>

namespace flowgen::aig {
namespace {

TEST(RefsTest, CountsFanoutsAndPos) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.land(a, b);
  const Lit y = g.land(x, lit_not(a));
  g.add_po(y);
  g.add_po(x);

  RefCounts refs(g);
  EXPECT_EQ(refs.refs(lit_node(a)), 2u);  // x and y
  EXPECT_EQ(refs.refs(lit_node(b)), 1u);
  EXPECT_EQ(refs.refs(lit_node(x)), 2u);  // y and PO
  EXPECT_EQ(refs.refs(lit_node(y)), 1u);  // PO
}

TEST(RefsTest, DeadNodeDetected) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit used = g.land(a, b);
  const Lit dead = g.land(a, lit_not(b));
  g.add_po(used);
  RefCounts refs(g);
  EXPECT_FALSE(refs.dead(lit_node(used)));
  EXPECT_TRUE(refs.dead(lit_node(dead)));
}

TEST(RefsTest, MffcOfChainIsWholeChain) {
  Aig g;
  const auto pis = g.add_pis(4);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(x, pis[2]);
  const Lit z = g.land(y, pis[3]);
  g.add_po(z);
  RefCounts refs(g);
  EXPECT_EQ(refs.mffc_size(g, lit_node(z)), 3u);
  EXPECT_EQ(refs.mffc_size(g, lit_node(y)), 2u);
  EXPECT_EQ(refs.mffc_size(g, lit_node(x)), 1u);
}

TEST(RefsTest, SharedNodeExcludedFromMffc) {
  Aig g;
  const auto pis = g.add_pis(3);
  const Lit shared = g.land(pis[0], pis[1]);
  const Lit top1 = g.land(shared, pis[2]);
  const Lit top2 = g.land(shared, lit_not(pis[2]));
  g.add_po(top1);
  g.add_po(top2);
  RefCounts refs(g);
  // `shared` has two fanouts, so it survives removal of either top node.
  EXPECT_EQ(refs.mffc_size(g, lit_node(top1)), 1u);
  EXPECT_EQ(refs.mffc_size(g, lit_node(top2)), 1u);
}

TEST(RefsTest, DerefRefRoundTripRestoresCounts) {
  Aig g;
  const auto pis = g.add_pis(4);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(x, pis[2]);
  const Lit z = g.land(y, g.land(x, pis[3]));
  g.add_po(z);
  RefCounts refs(g);
  std::vector<std::uint32_t> before;
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    before.push_back(refs.refs(id));
  }
  const std::uint32_t size = refs.deref_mffc(g, lit_node(z));
  refs.ref_mffc(g, lit_node(z));
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    EXPECT_EQ(refs.refs(id), before[id]) << "node " << id;
  }
  EXPECT_GE(size, 1u);
}

TEST(RefsTest, MffcNodesListsDyingCone) {
  Aig g;
  const auto pis = g.add_pis(3);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(x, pis[2]);
  g.add_po(y);
  RefCounts refs(g);
  std::vector<std::uint32_t> dying;
  refs.mffc_nodes(g, lit_node(y), dying);
  EXPECT_EQ(dying.size(), 2u);
}

TEST(RefsTest, RefConeRevivesDeadLogic) {
  Aig g;
  const auto pis = g.add_pis(3);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(x, pis[2]);  // y and x both dead (no POs)
  RefCounts refs(g);
  EXPECT_TRUE(refs.dead(lit_node(y)));
  refs.ref_cone(g, y);
  EXPECT_EQ(refs.refs(lit_node(y)), 1u);
  EXPECT_EQ(refs.refs(lit_node(x)), 1u);
  EXPECT_FALSE(refs.dead(lit_node(x)));
}

TEST(RefsTest, TerminalStopsTraversal) {
  Aig g;
  const auto pis = g.add_pis(3);
  const Lit x = g.land(pis[0], pis[1]);
  const Lit y = g.land(x, pis[2]);
  g.add_po(y);
  RefCounts refs(g);
  refs.deref_mffc(g, lit_node(x));
  refs.set_terminal(lit_node(x));
  // Dereffing y must now stop at x without touching x's (removed) fanins.
  const std::uint32_t before_a = refs.refs(lit_node(pis[0]));
  const std::uint32_t n = refs.deref_mffc(g, lit_node(y));
  EXPECT_EQ(n, 1u);  // only y itself
  EXPECT_EQ(refs.refs(lit_node(pis[0])), before_a);
  refs.ref_mffc(g, lit_node(y));
}

TEST(RefsTest, GrowCoversAppendedNodes) {
  Aig g;
  const auto pis = g.add_pis(2);
  RefCounts refs(g);
  const Lit x = g.land(pis[0], pis[1]);
  refs.grow(g);
  EXPECT_EQ(refs.refs(lit_node(x)), 0u);
  refs.ref_cone(g, x);
  EXPECT_EQ(refs.refs(lit_node(x)), 1u);
}

}  // namespace
}  // namespace flowgen::aig
