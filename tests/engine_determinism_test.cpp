// The determinism suite for the evaluation engine: engine evaluation
// (prefix snapshots shared between flows, fingerprint-deduped mapping,
// parallel batch scheduling) must be bit-identical to from-scratch
// evaluation (every flow synthesized and mapped on its own) across every
// registry design, serial and parallel, over repeated batches. Runs under
// ThreadSanitizer in CI together with the evaluator/flow-cache suites —
// snapshots shared across threads and passes running concurrently on one
// input graph are exactly the kind of synchronisation TSan is good at
// breaking.

#include <gtest/gtest.h>

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

EvaluatorConfig cold_config() {
  EvaluatorConfig c;
  c.use_prefix_cache = false;
  c.dedup_mappings = false;
  return c;
}

// Every registry design, same m=2 batch, engine vs from-scratch
// evaluation. Small designs run more flows than the heavyweights so the
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

  SynthesisEvaluator engine(design);  // defaults: the full engine
  SynthesisEvaluator cold(design, map::CellLibrary::builtin(), {},
                          cold_config());
  expect_bit_identical(engine.evaluate_many(flows),
                       cold.evaluate_many(flows));
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

TEST(EngineDeterminismTest, ParallelEngineEqualsSerialFromScratch) {
  // The shared-snapshot path: parallel evaluation shares prefix snapshots
  // across threads at trie branch points, and passes run concurrently on
  // the same snapshot. Must still be bit-identical to a serial
  // from-scratch run.
  const aig::Aig design = designs::make_design("alu:6");
  const auto flows = sample_flows(48, 7);

  SynthesisEvaluator engine(design);
  util::ThreadPool pool(4);
  const auto parallel = engine.evaluate_many(flows, &pool);

  SynthesisEvaluator cold(design, map::CellLibrary::builtin(), {},
                          cold_config());
  expect_bit_identical(parallel, cold.evaluate_many(flows));
}

TEST(EngineDeterminismTest, RepeatedBatchesStayIdentical) {
  // Second pass over the same batch: everything is served from caches that
  // by then are maximally warm (snapshots + QoR). A fresh evaluator must
  // agree with the warmed-up one flow for flow.
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
