#include "core/flow.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "opt/registry.hpp"
#include "util/rng.hpp"

namespace flowgen::core {
namespace {

// Paper-registry step ids (ids 0..5 are the fixed alphabet).
constexpr opt::StepId kBalance = 0;
constexpr opt::StepId kRestructure = 1;
constexpr opt::StepId kRewrite = 2;
constexpr opt::StepId kRefactorZ = 5;
constexpr opt::StepId kRewriteZ = 4;

TEST(FlowTest, KeyRoundTrip) {
  Flow f;
  f.steps = {kRewrite, kBalance, kRefactorZ};
  const std::string key = f.key();
  EXPECT_EQ(key, "205");
  EXPECT_EQ(Flow::from_key(key), f);
}

TEST(FlowTest, ToStringUsesAbcNames) {
  Flow f;
  f.steps = {kBalance, kRewriteZ};
  EXPECT_EQ(f.to_string(), "balance; rewrite -z");
}

TEST(FlowTest, FromKeyRejectsOutOfRangeSteps) {
  // The paper registry has 6 transforms: digits 6..9 (and letters) name no
  // spec and must be a typed error, never a silent out-of-range id.
  EXPECT_THROW(Flow::from_key("09"), opt::RegistryError);
  EXPECT_THROW(Flow::from_key("a"), opt::RegistryError);
  EXPECT_THROW(Flow::from_key("x"), opt::RegistryError);
  EXPECT_THROW(Flow::from_key("0 1"), opt::RegistryError);
}

TEST(FlowTest, FromKeyValidatesAgainstTheGivenRegistry) {
  // An 8-spec registry accepts digits 6 and 7; id 8 is still out of range.
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  opt::TransformSpec small_rewrite;
  small_rewrite.base = opt::TransformKind::kRewrite;
  small_rewrite.cut_size = 3;
  specs.push_back(small_rewrite);
  opt::TransformSpec narrow_restructure;
  narrow_restructure.base = opt::TransformKind::kRestructure;
  narrow_restructure.max_divisors = 12;
  specs.push_back(narrow_restructure);
  const opt::TransformRegistry registry(std::move(specs));

  const Flow f = Flow::from_key("067", registry);
  EXPECT_EQ(f.steps, (StepsKey{0, 6, 7}));
  EXPECT_EQ(f.key(), "067");
  EXPECT_EQ(f.to_string(registry),
            "balance; rewrite -K 3; restructure -D 12");
  EXPECT_THROW(Flow::from_key("8", registry), opt::RegistryError);
}

TEST(FlowTest, KeyUsesBase36BeyondTen) {
  // Registries can have more than 10 specs; text keys switch to letters.
  Flow f;
  f.steps = {11};
  EXPECT_EQ(f.key(), "b");
  Flow too_big;
  too_big.steps = {36};
  EXPECT_THROW(too_big.key(), opt::RegistryError);
}

TEST(FlowTest, EmptyFlow) {
  const Flow f;
  EXPECT_EQ(f.length(), 0u);
  EXPECT_EQ(f.key(), "");
  EXPECT_EQ(Flow::from_key(""), f);
}

TEST(FlowTest, AbcScriptExport) {
  Flow f;
  f.steps = {kBalance, kRestructure, kRewriteZ};
  EXPECT_EQ(f.to_abc_script(),
            "strash; balance; resub; rewrite -z; map");
}

TEST(FlowTest, AbcScriptUsesCanonicalTextNotSpecNames) {
  // ABC commands come from the canonical spec text; free-form spec names
  // (here a restructure spec named "rs") must not leak into the script.
  opt::TransformSpec rs;
  rs.name = "rs";
  rs.base = opt::TransformKind::kRestructure;
  rs.max_divisors = 12;
  const opt::TransformRegistry registry({rs});
  Flow f;
  f.steps = {0};
  EXPECT_EQ(f.to_abc_script(registry), "strash; resub -D 12; map");
}

TEST(FlowTest, HashDistinguishesOrders) {
  Flow f1;
  f1.steps = {kBalance, kRewrite};
  Flow f2;
  f2.steps = {kRewrite, kBalance};
  std::unordered_set<Flow, FlowHash> set;
  set.insert(f1);
  set.insert(f2);
  set.insert(f1);
  EXPECT_EQ(set.size(), 2u);
}

/// The order lexicographic_order must reproduce, spelled the slow way.
std::vector<std::size_t> stable_order(const std::vector<Flow>& flows) {
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return flows[a].steps < flows[b].steps;
                   });
  return order;
}

/// A batch that stresses every part of the packed key: lengths 0-40 (both
/// sides of its 12 step bytes), step ids 0-255 and from a two-letter
/// alphabet (so 12-byte keys tie), exact duplicates, and prefixes and
/// extensions of earlier flows (so a real 0 step meets a padding zero).
std::vector<Flow> tricky_batch(util::Rng& rng, std::size_t n) {
  std::vector<Flow> flows;
  const auto random_steps = [&](std::size_t len, unsigned alphabet) {
    StepsKey steps(len);
    for (auto& s : steps) s = static_cast<opt::StepId>(rng.below(alphabet));
    return steps;
  };
  while (flows.size() < n) {
    const std::uint64_t kind = flows.empty() ? 0 : rng.below(5);
    Flow f;
    if (kind == 0) {
      f.steps = random_steps(rng.below(41), 256);
    } else if (kind == 1) {
      f.steps = random_steps(rng.below(41), 2);
    } else {
      f = flows[rng.below(flows.size())];
      if (kind == 3) {
        f.steps.resize(rng.below(f.steps.size() + 1));
      } else if (kind == 4) {
        const StepsKey tail = random_steps(1 + rng.below(20), 2);
        f.steps.insert(f.steps.end(), tail.begin(), tail.end());
      }  // kind 2: an exact duplicate
    }
    flows.push_back(std::move(f));
  }
  return flows;
}

TEST(FlowOrderTest, LexicographicOrderEqualsStableSort) {
  EXPECT_TRUE(lexicographic_order(std::vector<Flow>{}).empty());
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    const std::vector<Flow> flows = tricky_batch(rng, 1 + rng.below(600));
    EXPECT_EQ(lexicographic_order(flows), stable_order(flows))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace flowgen::core
