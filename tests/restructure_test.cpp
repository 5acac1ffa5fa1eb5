#include "opt/restructure.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "aig/reconv_cut.hpp"
#include "aig/refs.hpp"
#include "aig/simulate.hpp"
#include "designs/alu.hpp"
#include "designs/montgomery.hpp"
#include "designs/spn.hpp"
#include "opt/rebuild.hpp"

namespace flowgen::opt {
namespace {

using aig::Aig;
using aig::Lit;

TEST(RestructureTest, ZeroResubFindsFunctionalDuplicate) {
  // Build the same function twice with different structure; resubstitution
  // should collapse one onto the other.
  Aig g;
  const Lit a = g.add_pi();
  const Lit b = g.add_pi();
  const Lit c = g.add_pi();
  // f1 = (a & b) & c
  const Lit f1 = g.land(g.land(a, b), c);
  // f2 = (a & c) & b  -- structurally different, same function
  const Lit f2 = g.land(g.land(a, c), b);
  g.add_po(g.land(f1, g.add_pi()));
  g.add_po(g.land(f2, g.add_pi()));

  const std::size_t before = g.num_ands();
  const Aig r = restructure(g);
  util::Rng rng(1);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
  EXPECT_LT(r.num_ands(), before);
}

class RestructureDesignTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RestructureDesignTest, EquivalentAndWellFormed) {
  Aig g;
  const std::string name = GetParam();
  if (name == "alu") g = designs::make_alu(8);
  if (name == "mont") g = designs::make_montgomery(6);
  if (name == "spn") g = designs::make_spn(8, 2);

  const Aig r = restructure(g);
  util::Rng rng(7);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
  EXPECT_EQ(r.check(), "");
  EXPECT_LE(r.num_ands(), g.num_ands());  // resub never adds net nodes
}

INSTANTIATE_TEST_SUITE_P(Designs, RestructureDesignTest,
                         ::testing::Values("alu", "mont", "spn"));

TEST(RestructureTest, DivisorLimitHonored) {
  Aig g = designs::make_alu(8);
  RestructureParams p;
  p.max_divisors = 4;
  const Aig r = restructure(g, p);
  util::Rng rng(11);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
}

TEST(RestructureTest, IdempotentOnItsOwnOutput) {
  Aig g = designs::make_alu(6);
  const Aig r1 = restructure(g);
  const Aig r2 = restructure(r1);
  util::Rng rng(13);
  EXPECT_TRUE(aig::random_equivalent(r1, r2, rng));
  // Second application finds at most marginal extra opportunities.
  EXPECT_LE(r1.num_ands() - r2.num_ands(), r1.num_ands() / 10);
}

// reuse_cost and cone_contains keep per-thread scratch marks across calls.
// Results must not depend on what ran before on the thread: a larger graph,
// a smaller one, or a cone_truth call that threw.
struct WalkResults {
  std::vector<long> costs;
  std::vector<char> contains;
  bool operator==(const WalkResults&) const = default;
};

WalkResults window_walks(const Aig& g) {
  // Alias every seventh AND node to its first fanin (always an older node,
  // so alias chains terminate and resolved cones stay acyclic).
  std::vector<Lit> repl = identity_replacements(g.num_nodes());
  for (std::uint32_t id = 0; id < g.num_nodes(); id += 7) {
    if (g.is_and(id)) repl[id] = g.node(id).fanin0;
  }
  aig::RefCounts refs(g);
  WalkResults out;
  for (std::uint32_t id = 1; id < g.num_nodes(); id += 3) {
    if (!g.is_and(id)) continue;
    const auto leaves = aig::reconv_cut(g, id, 8);
    std::vector<std::uint32_t> mffc;
    refs.mffc_nodes(g, id, mffc);
    const Lit root = aig::make_lit(id, false);
    out.costs.push_back(reuse_cost(g, repl, root, leaves, mffc));
    out.contains.push_back(cone_contains(g, repl, root, leaves.front()));
    out.contains.push_back(cone_contains(g, repl, root, id / 2));
  }
  return out;
}

TEST(RestructureTest, WalkScratchReuseMatchesFreshThread) {
  const Aig large = designs::make_alu(16);
  const Aig small = designs::make_alu(4);
  WalkResults large_ref, small_ref;
  std::thread([&] { large_ref = window_walks(large); }).join();
  std::thread([&] { small_ref = window_walks(small); }).join();
  ASSERT_GT(large_ref.costs.size(), small_ref.costs.size());
  // Both walks see both outcomes on the large design.
  EXPECT_GT(std::count_if(large_ref.costs.begin(), large_ref.costs.end(),
                          [](long c) { return c > 0; }),
            0);
  EXPECT_GT(std::count(large_ref.contains.begin(), large_ref.contains.end(),
                       1),
            0);
  EXPECT_GT(std::count(large_ref.contains.begin(), large_ref.contains.end(),
                       0),
            0);

  EXPECT_EQ(window_walks(large), large_ref);
  EXPECT_EQ(window_walks(small), small_ref);
  EXPECT_EQ(window_walks(large), large_ref);

  const std::uint32_t root = large.num_nodes() - 1;
  ASSERT_TRUE(large.is_and(root));
  EXPECT_THROW(
      aig::cone_truth(large, aig::make_lit(root, false),
                      std::vector<std::uint32_t>{
                          aig::lit_node(large.node(root).fanin0)}),
      std::invalid_argument);
  EXPECT_EQ(window_walks(small), small_ref);
  EXPECT_EQ(window_walks(large), large_ref);

  std::vector<std::thread> threads;
  std::vector<int> ok(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ok[t] = window_walks(t % 2 ? small : large) ==
                  (t % 2 ? small_ref : large_ref) &&
              window_walks(large) == large_ref;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok, std::vector<int>(4, 1));
}

}  // namespace
}  // namespace flowgen::opt
