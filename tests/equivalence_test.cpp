// The project's central safety property: every synthesis flow, no matter the
// order or repetition of transforms, preserves the function of every design.
// This is the property that makes the whole QoR exploration sound. Designs
// of up to 20 inputs are checked on every input pattern, larger ones on 512
// random patterns.

#include <gtest/gtest.h>

#include "aig/simulate.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "opt/transform.hpp"

namespace flowgen {
namespace {

/// Every pattern up to 20 inputs (2^20 patterns, a few ms per graph), 512
/// random ones past that.
bool equivalent(const aig::Aig& a, const aig::Aig& b, std::uint64_t seed) {
  if (a.num_pis() <= 20) return aig::exhaustive_equivalent(a, b);
  util::Rng sim_rng(seed);
  return aig::random_equivalent(a, b, sim_rng, 8);
}

struct Case {
  const char* design;
  std::uint64_t seed;
};

class FlowEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(FlowEquivalenceTest, RandomFlowPreservesFunction) {
  const Case c = GetParam();
  const aig::Aig g = designs::make_design(c.design);

  core::FlowSpace space(2);  // m=2: length-12 flows keep the test fast
  util::Rng rng(c.seed);
  const core::Flow flow = space.random_flow(rng);

  const aig::Aig out =
      space.registry().apply_steps(g, flow.steps);
  EXPECT_TRUE(equivalent(g, out, c.seed ^ 0xABCDEF))
      << c.design << " (" << g.num_pis()
      << " inputs) flow: " << flow.to_string();
  EXPECT_EQ(out.check(), "");
}

INSTANTIATE_TEST_SUITE_P(
    DesignsAndSeeds, FlowEquivalenceTest,
    ::testing::Values(Case{"alu:8", 1}, Case{"alu:8", 2}, Case{"alu:8", 3},
                      Case{"mont:6", 1}, Case{"mont:6", 2},
                      Case{"spn:8:2", 1}, Case{"spn:8:2", 2},
                      Case{"spn:12:3", 5}, Case{"alu:12", 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = info.param.design;
      for (char& ch : name) {
        if (ch == ':') ch = '_';
      }
      return name + "_seed" + std::to_string(info.param.seed);
    });

TEST(FlowEquivalenceTest, LongFlowOnSmallDesign) {
  const aig::Aig g = designs::make_design("alu:6");
  core::FlowSpace space(4);  // the paper's m = 4, L = 24
  util::Rng rng(99);
  const core::Flow flow = space.random_flow(rng);
  const aig::Aig out =
      space.registry().apply_steps(g, flow.steps);
  ASSERT_LE(g.num_pis(), 20u);
  EXPECT_TRUE(equivalent(g, out, 1234));
}

}  // namespace
}  // namespace flowgen
