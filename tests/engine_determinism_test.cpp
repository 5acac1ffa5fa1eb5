// The determinism suite for the evaluation engine: engine evaluation
// (each flow resumed from its predecessor's graphs on a trail, parallel
// batch scheduling over one trail per run) must be bit-identical to an
// independent oracle (every step applied to the design from scratch, then
// mapped, with no evaluator involved) across every registry design, serial
// and parallel, over repeated batches. Runs under ThreadSanitizer in CI
// together with the evaluator and service suites — one memo shared across
// threads and passes running concurrently on one input graph are exactly
// the kind of synchronisation TSan is good at breaking.

#include <gtest/gtest.h>

#include "aig/simulate.hpp"
#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// TSan runs everything an order of magnitude slower; it hunts
// synchronisation bugs, which the small designs exercise through exactly
// the same code paths, so the heavyweights are skipped there.
#if defined(__SANITIZE_THREAD__)
#define FLOWGEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGEN_TSAN 1
#endif
#endif

namespace flowgen::core {
namespace {

std::vector<Flow> sample_flows(std::size_t n, std::uint64_t seed) {
  const FlowSpace space(2);  // the paper's m=2 space, L=12
  util::Rng rng(seed);
  return space.sample_unique(n, rng);
}

void expect_bit_identical(const std::vector<map::QoR>& a,
                          const std::vector<map::QoR>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "QoR diverges at flow " << i;
  }
}

/// Every step applied to `design` from scratch, then mapped. On a design
/// of at most 19 inputs every such graph is also proved equivalent to the
/// design on all 2^n input patterns, not sampled.
std::vector<map::QoR> oracle(const aig::Aig& design,
                             const std::vector<Flow>& flows) {
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  std::vector<map::QoR> out;
  for (const Flow& f : flows) {
    const aig::Aig g = registry.apply_steps(design, f.steps);
    if (design.num_pis() <= 19) {
      EXPECT_TRUE(aig::exhaustive_equivalent(design, g)) << f.key();
    }
    out.push_back(map::evaluate_qor(g));
  }
  return out;
}

// Every registry design, same m=2 batch, engine (serial and parallel) vs
// the oracle. Small designs run more flows than the heavyweights so the
// suite stays minutes-fast while still crossing every generator.
class EngineDeterminismDesignTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminismDesignTest, EngineEqualsFromScratchBitForBit) {
  const std::string name = GetParam();
  const aig::Aig design = designs::make_design(name);
#ifdef FLOWGEN_TSAN
  if (design.num_ands() > 8000) {
    GTEST_SKIP() << name << " under TSan (same code paths as the small "
                 << "designs, 10x the wall-clock)";
  }
#endif
  const std::size_t flows_n = design.num_ands() > 50000  ? 2
                              : design.num_ands() > 5000 ? 4
                                                         : 16;
  const auto flows = sample_flows(flows_n, 0x5eed + design.num_ands());

  const std::vector<map::QoR> expected = oracle(design, flows);
  SynthesisEvaluator serial(design);
  expect_bit_identical(serial.evaluate_many(flows), expected);
  SynthesisEvaluator parallel(design);
  util::ThreadPool pool(2);
  expect_bit_identical(parallel.evaluate_many(flows, &pool), expected);
}

INSTANTIATE_TEST_SUITE_P(Registry, EngineDeterminismDesignTest,
                         ::testing::ValuesIn(([] {
                           static std::vector<std::string> storage =
                               designs::known_designs();
                           std::vector<const char*> out;
                           for (const auto& s : storage) {
                             out.push_back(s.c_str());
                           }
                           return out;
                         })()));

// The small generators (at most 19 inputs), whose oracle graphs are also
// proved equivalent to the design.
INSTANTIATE_TEST_SUITE_P(Small, EngineDeterminismDesignTest,
                         ::testing::Values("alu:8", "mont:6", "spn:8:2"));

TEST(EngineDeterminismTest, ParallelEngineEqualsSerialFromScratch) {
  // The parallel path: every thread resumes along its own trail while
  // passes run concurrently on the one design graph and the memo is
  // shared. Must still be bit-identical to the oracle.
  const aig::Aig design = designs::make_design("alu:6");
  const auto flows = sample_flows(48, 7);

  SynthesisEvaluator engine(design);
  util::ThreadPool pool(4);
  expect_bit_identical(engine.evaluate_many(flows, &pool),
                       oracle(design, flows));
}

TEST(EngineDeterminismTest, RepeatedBatchesStayIdentical) {
  // Second pass over the same batch: everything is served from the memo.
  // A fresh evaluator must agree with the warmed-up one flow for flow.
  const aig::Aig design = designs::make_design("mont:6");
  const auto flows = sample_flows(24, 11);
  SynthesisEvaluator a(design);
  const auto first = a.evaluate_many(flows);
  const auto second = a.evaluate_many(flows);
  expect_bit_identical(first, second);
  SynthesisEvaluator b(design);
  expect_bit_identical(first, b.evaluate_many(flows));
}

}  // namespace
}  // namespace flowgen::core
