#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "aig/simulate.hpp"
#include "util/rng.hpp"

namespace flowgen::aig {
namespace {

TEST(AigTest, FreshGraphHasOnlyConstant) {
  Aig g;
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_ands(), 0u);
  EXPECT_TRUE(g.is_const(0));
}

TEST(AigTest, LiteralHelpers) {
  EXPECT_EQ(make_lit(5, false), 10u);
  EXPECT_EQ(make_lit(5, true), 11u);
  EXPECT_EQ(lit_node(11), 5u);
  EXPECT_TRUE(lit_is_compl(11));
  EXPECT_FALSE(lit_is_compl(10));
  EXPECT_EQ(lit_not(10), 11u);
  EXPECT_EQ(lit_regular(11), 10u);
}

TEST(AigTest, TrivialAndRules) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  EXPECT_EQ(g.land(a, kLitFalse), kLitFalse);
  EXPECT_EQ(g.land(kLitFalse, b), kLitFalse);
  EXPECT_EQ(g.land(a, kLitTrue), a);
  EXPECT_EQ(g.land(kLitTrue, b), b);
  EXPECT_EQ(g.land(a, a), a);
  EXPECT_EQ(g.land(a, lit_not(a)), kLitFalse);
  EXPECT_EQ(g.num_ands(), 0u);
}

TEST(AigTest, StructuralHashingDeduplicates) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.land(a, b);
  const Lit y = g.land(b, a);  // commuted
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.num_ands(), 1u);
  const Lit z = g.land(a, lit_not(b));
  EXPECT_NE(x, z);
  EXPECT_EQ(g.num_ands(), 2u);
}

TEST(AigTest, DerivedGatesAreCorrectlyLeveled) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit x = g.lxor(a, b);
  EXPECT_EQ(g.node(lit_node(x)).level, 2u);  // two levels of ANDs
  EXPECT_EQ(g.num_ands(), 3u);
}

TEST(AigTest, DepthTracksPoCone) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  Lit x = g.land(a, b);
  x = g.land(x, c);
  g.add_po(x);
  EXPECT_EQ(g.depth(), 2u);
}

TEST(AigTest, CheckPassesOnHealthyGraph) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(g.lmux(a, b, lit_not(b)));
  EXPECT_EQ(g.check(), "");
}

TEST(AigTest, RollbackRemovesNodesAndStrashEntries) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  g.land(a, b);
  const std::size_t cp = g.checkpoint();
  const Lit x = g.land(b, c);
  EXPECT_EQ(g.num_nodes(), cp + 1);
  g.rollback(cp);
  EXPECT_EQ(g.num_nodes(), cp);
  // After rollback, rebuilding the same node gets a fresh id (not stale
  // strash entry pointing past the end).
  const Lit y = g.land(b, c);
  EXPECT_EQ(lit_node(y), cp);
  EXPECT_EQ(x, y);
  EXPECT_EQ(g.check(), "");
}

// The flat structural hash against a std::map reference: random land()
// calls that mix hits, misses and trivial cases, checkpoint/rollback of
// random depth across every table growth up to 50k ANDs, and copies that
// must diverge from their source. A rollback that empties a slot without
// the backward shift strands entries behind the hole, which the per-pair
// lookups and check() below both catch. Some rounds double the graph,
// forcing a table growth, and roll it all back, so rollbacks also span
// growths.
TEST(AigTest, StrashAgreesWithAReferenceMapUnderRandomRollback) {
  util::Rng rng(20261017);
  Aig g;
  g.add_pis(64);
  using Pair = std::pair<Lit, Lit>;
  std::map<Pair, std::uint32_t> ref;  // normalised fanins -> node id
  std::vector<std::size_t> checkpoints;
  std::vector<Pair> rolled_back;  // pairs removed by the last rollback

  auto random_lit = [&](const Aig& a) {
    const auto id = static_cast<std::uint32_t>(rng.below(a.num_nodes()));
    return make_lit(id, rng.chance(0.5));
  };
  // One land() on `a`, checked against `r`; new nodes join `r`.
  auto land_checked = [&](Aig& a, std::map<Pair, std::uint32_t>& r, Lit x,
                          Lit y) {
    const std::size_t before = a.num_nodes();
    const Lit got = a.land(x, y);
    const Lit lo = std::min(x, y);
    const Lit hi = std::max(x, y);
    if (lit_node(lo) == 0 || lo == hi || lo == lit_not(hi)) return;
    const auto it = r.find({lo, hi});
    if (it != r.end()) {
      ASSERT_EQ(got, make_lit(it->second, false));
      ASSERT_EQ(a.num_nodes(), before);
    } else {
      ASSERT_EQ(got, make_lit(static_cast<std::uint32_t>(before), false));
      r.emplace(Pair{lo, hi}, static_cast<std::uint32_t>(before));
    }
  };
  // Every live pair must land on its own node without growing the graph.
  auto expect_agrees = [&](Aig& a, const std::map<Pair, std::uint32_t>& r) {
    ASSERT_EQ(a.check(), "");
    ASSERT_EQ(a.num_ands(), r.size());
    const std::size_t before = a.num_nodes();
    for (const auto& [pair, id] : r) {
      ASSERT_EQ(a.land(pair.second, pair.first), make_lit(id, false));
    }
    ASSERT_EQ(a.num_nodes(), before);
  };

  std::size_t rounds = 0;
  while (g.num_ands() < 50000) {
    ++rounds;
    checkpoints.push_back(g.checkpoint());
    const bool doubling = rng.chance(0.05);
    const std::size_t steps =
        doubling ? 2 * g.num_ands() + 64
                 : static_cast<std::size_t>(rng.range(1, 3000));
    for (std::size_t i = 0; i < steps; ++i) {
      if (g.num_ands() > 0 && rng.chance(0.3)) {
        // A hit: re-land a live AND's fanins, operands swapped or not.
        const auto id = static_cast<std::uint32_t>(
            g.num_nodes() - 1 - rng.below(g.num_ands()));
        const Lit f0 = g.node(id).fanin0;
        const Lit f1 = g.node(id).fanin1;
        if (rng.chance(0.5)) {
          land_checked(g, ref, f0, f1);
        } else {
          land_checked(g, ref, f1, f0);
        }
      } else {
        land_checked(g, ref, random_lit(g), random_lit(g));
      }
      if (HasFatalFailure()) return;
    }

    rolled_back.clear();
    if (doubling || (checkpoints.size() > 1 && rng.chance(0.25))) {
      // Roll back a doubling round whole, else the last 1-3 rounds.
      const std::size_t depth =
          doubling ? 1
                   : 1 + rng.below(std::min<std::size_t>(3, checkpoints.size()));
      const std::size_t cp = checkpoints[checkpoints.size() - depth];
      checkpoints.resize(checkpoints.size() - depth);
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second < cp) {
          ++it;
          continue;
        }
        if (lit_node(it->first.second) < cp) rolled_back.push_back(it->first);
        it = ref.erase(it);
      }
      g.rollback(cp);
    }
    expect_agrees(g, ref);
    if (HasFatalFailure()) return;

    // A rolled-back pair whose fanins survived is created afresh, with the
    // next id.
    for (std::size_t i = 0; i < rolled_back.size() && i < 8; ++i) {
      const Pair p = rolled_back[rng.below(rolled_back.size())];
      if (ref.count(p)) continue;
      const std::size_t next = g.num_nodes();
      ASSERT_EQ(g.land(p.first, p.second),
                make_lit(static_cast<std::uint32_t>(next), false));
      ref.emplace(p, static_cast<std::uint32_t>(next));
    }

    if (rounds % 8 == 0) {
      // A copy grows and rolls back on its own; the source keeps its
      // nodes, table and fingerprint.
      const Fingerprint fp = g.fingerprint();
      const std::size_t nodes = g.num_nodes();
      Aig copy = g;
      auto copy_ref = ref;
      const std::size_t copy_cp = copy.checkpoint();
      for (int i = 0; i < 300; ++i) {
        land_checked(copy, copy_ref, random_lit(copy), random_lit(copy));
        if (HasFatalFailure()) return;
      }
      const std::size_t mid = copy_cp + (copy.num_nodes() - copy_cp) / 2;
      for (auto it = copy_ref.begin(); it != copy_ref.end();) {
        it = it->second >= mid ? copy_ref.erase(it) : std::next(it);
      }
      copy.rollback(mid);
      expect_agrees(copy, copy_ref);
      if (HasFatalFailure()) return;
      EXPECT_EQ(g.num_nodes(), nodes);
      EXPECT_EQ(g.fingerprint(), fp);
      // A pair only the copy holds is new to the source.
      for (const auto& [pair, id] : copy_ref) {
        if (id < nodes || lit_node(pair.second) >= nodes) continue;
        const std::size_t cp = g.checkpoint();
        EXPECT_EQ(g.land(pair.first, pair.second),
                  make_lit(static_cast<std::uint32_t>(nodes), false));
        g.rollback(cp);
        break;
      }
      expect_agrees(g, ref);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GE(g.num_ands(), 50000u);
  EXPECT_GT(rounds, 20u);
}

TEST(AigTest, CleanupDropsDeadNodes) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit used = g.land(a, b);
  g.land(a, lit_not(b));  // dead
  g.add_po(used);
  const Aig clean = g.cleanup();
  EXPECT_EQ(clean.num_ands(), 1u);
  EXPECT_EQ(clean.num_pis(), 2u);
  EXPECT_EQ(clean.num_pos(), 1u);
  EXPECT_EQ(clean.check(), "");
}

TEST(AigTest, CleanupPreservesComplementedPo) {
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  g.add_po(lit_not(g.land(a, b)));
  const Aig clean = g.cleanup();
  EXPECT_TRUE(lit_is_compl(clean.po(0)));
}

TEST(AigTest, NaryOpsBuildLinearChains) {
  Aig g;
  const auto pis = g.add_pis(5);
  const Lit all = g.land_n(pis);
  // AND of 5 inputs: 4 AND nodes in a linear (naive-elaboration) chain of
  // depth 4; the `balance` transform is what reduces such chains to log
  // depth.
  EXPECT_EQ(g.num_ands(), 4u);
  EXPECT_EQ(g.node(lit_node(all)).level, 4u);
  EXPECT_EQ(g.land_n({}), kLitTrue);
  EXPECT_EQ(g.lor_n({}), kLitFalse);
  EXPECT_EQ(g.lxor_n({}), kLitFalse);
  EXPECT_EQ(g.land_n(std::vector<Lit>{pis[0]}), pis[0]);
}

TEST(AigTest, MajIsFunctionallySymmetric) {
  // Different argument orders give different tree shapes (so possibly
  // different literals), but the function must be the same majority.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  const std::vector<std::uint32_t> leaves{lit_node(a), lit_node(b),
                                          lit_node(c)};
  const TruthTable maj = TruthTable::from_bits(3, 0xE8);
  EXPECT_EQ(cone_truth(g, g.lmaj(a, b, c), leaves), maj);
  EXPECT_EQ(cone_truth(g, g.lmaj(c, b, a), leaves), maj);
  EXPECT_EQ(cone_truth(g, g.lmaj(b, c, a), leaves), maj);
}

}  // namespace
}  // namespace flowgen::aig
