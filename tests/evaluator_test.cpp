#include "core/evaluator.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"

namespace flowgen::core {
namespace {

TEST(EvaluatorTest, BaselineMatchesDirectMapping) {
  const aig::Aig g = designs::make_design("alu:8");
  SynthesisEvaluator ev(g);
  const map::QoR direct = map::evaluate_qor(g);
  const map::QoR base = ev.baseline();
  EXPECT_DOUBLE_EQ(base.area_um2, direct.area_um2);
  EXPECT_DOUBLE_EQ(base.delay_ps, direct.delay_ps);
}

TEST(EvaluatorTest, CacheAvoidsRecomputation) {
  SynthesisEvaluator ev(designs::make_design("alu:6"));
  const FlowSpace space(1);
  util::Rng rng(1);
  const Flow f = space.random_flow(rng);
  const map::QoR q1 = ev.evaluate(f);
  EXPECT_EQ(ev.evaluations(), 1u);
  const map::QoR q2 = ev.evaluate(f);
  EXPECT_EQ(ev.evaluations(), 1u);  // cache hit
  EXPECT_DOUBLE_EQ(q1.area_um2, q2.area_um2);
  EXPECT_EQ(ev.cache_size(), 1u);
}

TEST(EvaluatorTest, DifferentFlowsAreDistinctEntries) {
  SynthesisEvaluator ev(designs::make_design("alu:6"));
  const FlowSpace space(1);
  util::Rng rng(2);
  const auto flows = space.sample_unique(5, rng);
  for (const Flow& f : flows) ev.evaluate(f);
  EXPECT_EQ(ev.cache_size(), 5u);
  EXPECT_EQ(ev.evaluations(), 5u);
}

TEST(EvaluatorTest, ParallelMatchesSerial) {
  SynthesisEvaluator ev_serial(designs::make_design("alu:6"));
  SynthesisEvaluator ev_parallel(designs::make_design("alu:6"));
  const FlowSpace space(1);
  util::Rng rng(3);
  const auto flows = space.sample_unique(8, rng);

  const auto serial = ev_serial.evaluate_many(flows, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = ev_parallel.evaluate_many(flows, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].area_um2, parallel[i].area_um2);
    EXPECT_DOUBLE_EQ(serial[i].delay_ps, parallel[i].delay_ps);
  }
}

TEST(EvaluatorTest, EvaluationIsDeterministic) {
  const FlowSpace space(2);
  util::Rng rng(4);
  const Flow f = space.random_flow(rng);
  SynthesisEvaluator ev1(designs::make_design("spn:8:2"));
  SynthesisEvaluator ev2(designs::make_design("spn:8:2"));
  const map::QoR q1 = ev1.evaluate(f);
  const map::QoR q2 = ev2.evaluate(f);
  EXPECT_DOUBLE_EQ(q1.area_um2, q2.area_um2);
  EXPECT_DOUBLE_EQ(q1.delay_ps, q2.delay_ps);
}

// --- prefix-sharing engine ---------------------------------------------

EvaluatorConfig naive_config() {
  EvaluatorConfig cfg;
  cfg.use_prefix_cache = false;
  cfg.dedup_mappings = false;
  return cfg;
}

std::vector<Flow> sample_flows(std::size_t count, std::uint64_t seed,
                               unsigned m = 2) {
  const FlowSpace space(m);
  util::Rng rng(seed);
  return space.sample_unique(count, rng);
}

void expect_identical(const std::vector<map::QoR>& a,
                      const std::vector<map::QoR>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal: every path must compute the
    // exact same mapping of the exact same graph.
    EXPECT_EQ(a[i].area_um2, b[i].area_um2) << "flow " << i;
    EXPECT_EQ(a[i].delay_ps, b[i].delay_ps) << "flow " << i;
    EXPECT_EQ(a[i].num_cells, b[i].num_cells) << "flow " << i;
    EXPECT_EQ(a[i].num_inverters, b[i].num_inverters) << "flow " << i;
  }
}

TEST(EvaluatorEngineTest, PrefixEngineMatchesFromScratch) {
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator naive(g, map::CellLibrary::builtin(), {},
                           naive_config());
  SynthesisEvaluator engine(g);
  const auto flows = sample_flows(10, 7);
  expect_identical(naive.evaluate_many(flows),
                   engine.evaluate_many(flows));
  // The engine actually reused prefixes while doing it.
  EXPECT_GT(engine.stats().transforms_skipped, 0u);
  EXPECT_GT(engine.stats().prefix.hit_rate(), 0.0);
}

TEST(EvaluatorEngineTest, SerialParallelAndWarmAreBitIdentical) {
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator serial(g);
  SynthesisEvaluator parallel(g);
  const auto flows = sample_flows(12, 8);

  const auto serial_cold = serial.evaluate_many(flows, nullptr);
  util::ThreadPool pool(4);
  const auto parallel_cold = parallel.evaluate_many(flows, &pool);
  const auto parallel_warm = parallel.evaluate_many(flows, &pool);
  const auto serial_warm = serial.evaluate_many(flows, nullptr);

  expect_identical(serial_cold, parallel_cold);
  expect_identical(serial_cold, parallel_warm);
  expect_identical(serial_cold, serial_warm);
  // Warm passes are pure QoR-cache hits.
  EXPECT_EQ(parallel.evaluations(), flows.size());
  EXPECT_EQ(serial.evaluations(), flows.size());
}

TEST(EvaluatorEngineTest, TinyPrefixBudgetStaysExact) {
  const aig::Aig g = designs::make_design("alu:4");
  EvaluatorConfig cfg;
  cfg.prefix_cache.byte_budget = 1 << 16;  // constant eviction pressure
  cfg.prefix_cache.shards = 2;
  SynthesisEvaluator tiny(g, map::CellLibrary::builtin(), {}, cfg);
  SynthesisEvaluator naive(g, map::CellLibrary::builtin(), {},
                           naive_config());
  const auto flows = sample_flows(8, 9);
  expect_identical(naive.evaluate_many(flows), tiny.evaluate_many(flows));
}

TEST(EvaluatorEngineTest, StatsAccountForEveryStep) {
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator engine(g);
  const auto flows = sample_flows(6, 10);
  // Serial batch: the exact counter invariants below only hold without
  // concurrent duplicate evaluations (see EvaluatorStats).
  engine.evaluate_many(flows);
  std::size_t total_steps = 0;
  for (const Flow& f : flows) total_steps += f.length();
  const EvaluatorStats s = engine.stats();
  EXPECT_EQ(s.transforms_applied + s.transforms_skipped, total_steps);
  EXPECT_EQ(s.evaluations, flows.size());
  EXPECT_EQ(s.mappings + s.mappings_deduped, flows.size());
}

TEST(EvaluatorEngineTest, ConcurrentSharedCacheIsDeterministic) {
  // Two pools hammer one evaluator; prefix cache and QoR shards are shared.
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator engine(g);
  const auto flows = sample_flows(16, 11);
  util::ThreadPool pool(4);
  const auto first = engine.evaluate_many(flows, &pool);
  const auto second = engine.evaluate_many(flows, &pool);
  SynthesisEvaluator reference(g, map::CellLibrary::builtin(), {},
                               naive_config());
  const auto expected = reference.evaluate_many(flows, nullptr);
  expect_identical(expected, first);
  expect_identical(expected, second);
}

// --- store-backed lookup ------------------------------------------------

TEST(EvaluatorStoreTest, StoredFlowIsAnsweredFromTheStoreAlone) {
  const std::string dir = ::testing::TempDir() + "flowgen_eval_lookup_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const aig::Aig g = designs::make_design("alu:4");
  const auto flows = sample_flows(2, 12);
  // No synthesis gives this label, so returning it proves the store
  // answered.
  const map::QoR stored{1.5, 2.5, 3, 4};
  {
    QorStore writer(QorStoreConfig{dir, "writer", false, nullptr, {}});
    ASSERT_TRUE(writer.append(g.fingerprint(), flows[0].steps, stored));
  }
  SynthesisEvaluator ev(g);
  ev.attach_store(std::make_shared<QorStore>(
      QorStoreConfig{dir, "reader", false, nullptr, {}}));

  EXPECT_EQ(ev.lookup(flows[0]), stored);
  EXPECT_EQ(ev.evaluate(flows[0]), stored);
  EXPECT_EQ(ev.evaluations(), 0u);
  EXPECT_EQ(ev.cache_size(), 0u);  // the store stays the only copy

  // An unlabeled flow: lookup answers nullopt without evaluating it, and
  // once evaluate() labels it, lookup finds the memo.
  EXPECT_EQ(ev.lookup(flows[1]), std::nullopt);
  EXPECT_EQ(ev.evaluations(), 0u);
  EXPECT_EQ(ev.cache_size(), 0u);
  const map::QoR fresh = ev.evaluate(flows[1]);
  EXPECT_EQ(ev.evaluations(), 1u);
  EXPECT_EQ(ev.cache_size(), 1u);
  EXPECT_EQ(ev.lookup(flows[1]), fresh);
  std::filesystem::remove_all(dir);
}

TEST(EvaluatorStoreTest, LookupWithoutAStoreReadsTheMemoAndValidates) {
  SynthesisEvaluator ev(designs::make_design("alu:4"));
  const auto flows = sample_flows(1, 13);
  EXPECT_EQ(ev.lookup(flows[0]), std::nullopt);
  EXPECT_EQ(ev.evaluations(), 0u);
  const map::QoR qor = ev.evaluate(flows[0]);
  EXPECT_EQ(ev.lookup(flows[0]), qor);
  Flow stray;
  stray.steps = {250};  // no such step in the paper alphabet
  EXPECT_THROW(ev.lookup(stray), opt::RegistryError);
}

TEST(EvaluatorTest, QorStringFormat) {
  map::QoR q;
  q.area_um2 = 12.345;
  q.delay_ps = 678.9;
  q.num_cells = 10;
  q.num_inverters = 3;
  const std::string s = q.to_string();
  EXPECT_NE(s.find("12.35"), std::string::npos);
  EXPECT_NE(s.find("cells = 10"), std::string::npos);
}

}  // namespace
}  // namespace flowgen::core
