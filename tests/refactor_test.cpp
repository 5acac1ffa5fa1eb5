#include "opt/refactor.hpp"

#include <gtest/gtest.h>

#include "aig/analysis.hpp"
#include "aig/factor.hpp"
#include "aig/reconv_cut.hpp"
#include "aig/simulate.hpp"
#include "designs/alu.hpp"
#include "designs/montgomery.hpp"
#include "designs/spn.hpp"
#include "flow_graphs.hpp"

namespace flowgen::opt {
namespace {

using aig::Aig;
using aig::Lit;
using aig::TruthTable;

TEST(RefactorTest, BudgetedBuildStopsExactlyPastItsBudget) {
  // Refactor and rewrite bound each tentative build by the most nodes it
  // may append and still win. For every window of every graph that random
  // flows pass through on alu:8, spn16 and mont:6: a budgeted build fails
  // exactly when the full build appends more nodes than the budget, then
  // leaves the graph as it found it; otherwise it is the full build.
  std::size_t builds = 0, stopped = 0;
  for (const Aig& in : fixtures::oracle_graphs()) {
    Aig g = in;
    for (std::uint32_t id = 0; id < in.num_nodes(); ++id) {
      if (!in.is_and(id)) continue;
      const aig::WindowLeaves leaves = aig::reconv_cut(in, id, 8);
      if (aig::degenerate_window(leaves)) continue;
      const auto form = aig::factored_form(
          aig::cone_truth(in, aig::make_lit(id, false), leaves));
      aig::InlineVec<Lit, aig::kMaxWindowLeaves> inputs;
      for (std::uint32_t leaf : leaves) {
        inputs.push_back(aig::make_lit(leaf, false));
      }

      const std::size_t before = g.num_nodes();
      const Lit full = aig::build_factored_form(g, *form, inputs);
      const std::size_t added = g.num_nodes() - before;
      g.rollback(before);
      for (std::size_t budget : {std::size_t{0}, added - 1, added, added + 1}) {
        if (budget > added + 1) continue;  // added - 1 wrapped
        const Lit got = aig::build_factored_form(g, *form, inputs, budget);
        ++builds;
        if (added > budget) {
          ASSERT_EQ(got, aig::kLitInvalid) << "node " << id;
          ASSERT_EQ(g.num_nodes(), before) << "node " << id;
          ++stopped;
        } else {
          ASSERT_EQ(got, full) << "node " << id;
          ASSERT_EQ(g.num_nodes() - before, added) << "node " << id;
          g.rollback(before);
        }
      }
    }
    // Every rollback left the graph, structural hash included, as it was.
    ASSERT_EQ(g.fingerprint(), in.fingerprint());
    ASSERT_EQ(g.check(), "");
  }
  EXPECT_GT(builds, 100000u);
  EXPECT_GT(stopped, 10000u);
}

TEST(RefactorTest, CrunchesNaiveMuxTree) {
  // A Shannon mux tree of a simple SOP function should shrink a lot.
  TruthTable tt(6);
  for (std::size_t m = 0; m < 64; ++m) {
    tt.set_bit(m, ((m & 3) == 3) || (((m >> 2) & 3) == 3) ||
                      (((m >> 4) & 3) == 3));
  }
  Aig g;
  const auto in = g.add_pis(6);
  g.add_po(aig::build_shannon(g, tt, in));
  const std::size_t before = g.num_ands();

  const Aig r = refactor(g);
  util::Rng rng(1);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
  EXPECT_LT(r.num_ands(), before);
}

class RefactorDesignTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RefactorDesignTest, EquivalentAndWellFormed) {
  Aig g;
  const std::string name = GetParam();
  if (name == "alu") g = designs::make_alu(8);
  if (name == "mont") g = designs::make_montgomery(6);
  if (name == "spn") g = designs::make_spn(8, 2);

  const Aig r = refactor(g);
  util::Rng rng(7);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
  EXPECT_EQ(r.check(), "");
}

INSTANTIATE_TEST_SUITE_P(Designs, RefactorDesignTest,
                         ::testing::Values("alu", "mont", "spn"));

TEST(RefactorTest, ZeroCostVariantStaysEquivalent) {
  Aig g = designs::make_montgomery(6);
  RefactorParams p;
  p.zero_cost = true;
  const Aig r = refactor(g, p);
  util::Rng rng(11);
  EXPECT_TRUE(aig::random_equivalent(g, r, rng));
  EXPECT_EQ(r.check(), "");
}

TEST(RefactorTest, LeafLimitHonored) {
  Aig g = designs::make_alu(8);
  for (unsigned leaves : {4u, 6u, 10u}) {
    RefactorParams p;
    p.max_leaves = leaves;
    const Aig r = refactor(g, p);
    util::Rng rng(13 + leaves);
    EXPECT_TRUE(aig::random_equivalent(g, r, rng)) << leaves;
  }
}

}  // namespace
}  // namespace flowgen::opt
