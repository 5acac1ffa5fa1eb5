#include "core/evaluator.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "util/thread_pool.hpp"

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

// --- trail-resuming engine ---------------------------------------------

/// The independent oracle: every step applied to the design from scratch,
/// then mapped, with no evaluator in between.
map::QoR oracle(const aig::Aig& design, const Flow& flow,
                const opt::TransformRegistry& registry =
                    *opt::TransformRegistry::paper()) {
  return map::evaluate_qor(registry.apply_steps(design, flow.steps));
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

std::vector<map::QoR> oracle_batch(const aig::Aig& design,
                                   const std::vector<Flow>& flows) {
  std::vector<map::QoR> out;
  for (const Flow& f : flows) out.push_back(oracle(design, f));
  return out;
}

std::size_t common_prefix(const StepsKey& a, const StepsKey& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
}

TEST(EvaluatorEngineTest, PrefixEngineMatchesFromScratch) {
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator engine(g);
  const auto flows = sample_flows(10, 7);
  expect_identical(oracle_batch(g, flows), engine.evaluate_many(flows));
  // The engine actually reused prefixes while doing it.
  EXPECT_GT(engine.stats().transforms_skipped, 0u);
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
  EXPECT_EQ(s.mappings, flows.size());
}

TEST(EvaluatorEngineTest, TrailSkipsWhatAnyEarlierFlowShares) {
  // Mixed lengths, duplicates, the empty flow, and flows that are prefixes
  // of others: one sorted serial batch must skip, per synthesized flow,
  // exactly the longest prefix it shares with any flow synthesized before
  // it — what a cache of every earlier prefix would skip.
  const aig::Aig g = designs::make_design("alu:4");
  std::vector<Flow> flows = sample_flows(8, 14, 1);
  const std::size_t sampled = flows.size();
  for (std::size_t i = 0; i < sampled; ++i) {
    Flow cut = flows[i];
    cut.steps.resize(1 + i % cut.steps.size());
    flows.push_back(cut);
  }
  flows.push_back(flows[0]);
  flows.push_back(flows[sampled + 2]);
  flows.push_back(Flow{});

  SynthesisEvaluator engine(g);
  expect_identical(oracle_batch(g, flows), engine.evaluate_many(flows));

  // Brute force over the batch order: duplicates are memo hits and
  // synthesize nothing.
  std::vector<StepsKey> synthesized;
  std::size_t skipped = 0;
  std::size_t steps = 0;
  for (const std::size_t i : lexicographic_order(flows)) {
    const StepsKey& s = flows[i].steps;
    if (std::find(synthesized.begin(), synthesized.end(), s) !=
        synthesized.end()) {
      continue;
    }
    std::size_t best = 0;
    for (const StepsKey& earlier : synthesized) {
      best = std::max(best, common_prefix(s, earlier));
    }
    skipped += best;
    steps += s.size();
    synthesized.push_back(s);
  }
  const EvaluatorStats st = engine.stats();
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(st.transforms_skipped, skipped);
  EXPECT_EQ(st.transforms_applied + st.transforms_skipped, steps);
  EXPECT_EQ(st.evaluations, synthesized.size());
  EXPECT_EQ(st.mappings, synthesized.size());
}

TEST(EvaluatorEngineTest, TrailFromAnotherDesignStartsOver) {
  // One trail handed to an evaluator of another alphabet over the same
  // design, then of another design: the shared step bytes mean other
  // graphs there, so neither resumes, and each label equals its oracle.
  const aig::Aig a_design = designs::make_design("alu:4");
  const aig::Aig b_design = designs::make_design("alu:5");
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  specs.push_back(opt::spec_from_text("rewrite -K 3"));
  const auto wide =
      std::make_shared<const opt::TransformRegistry>(std::move(specs));
  EvaluatorConfig wide_config;
  wide_config.registry = wide;
  SynthesisEvaluator a(a_design);
  SynthesisEvaluator b(b_design);
  SynthesisEvaluator c(a_design, map::CellLibrary::builtin(), {},
                       wide_config);

  const Flow f{{0, 1, 2, 3}};
  const Flow g{{0, 1, 2, 4}};
  const Flow h{{0, 1, 2, 5}};
  SynthesisEvaluator::Trail trail;
  EXPECT_EQ(a.evaluate(f, trail), oracle(a_design, f));
  EXPECT_EQ(c.evaluate(g, trail), oracle(a_design, g, *wide));
  EXPECT_EQ(c.stats().transforms_skipped, 0u);
  EXPECT_EQ(b.evaluate(h, trail), oracle(b_design, h));
  EXPECT_EQ(b.stats().transforms_skipped, 0u);
  // Back on the first evaluator the trail holds another design's graphs:
  // start over once, then resume along the refilled trail.
  EXPECT_EQ(a.evaluate(g, trail), oracle(a_design, g));
  EXPECT_EQ(a.stats().transforms_skipped, 0u);
  EXPECT_EQ(a.evaluate(h, trail), oracle(a_design, h));
  EXPECT_EQ(a.stats().transforms_skipped, 3u);
  EXPECT_EQ(a.stats().transforms_applied, 4u + 4u + 1u);
}

TEST(EvaluatorEngineTest, ConcurrentSharedCacheIsDeterministic) {
  // Two pools hammer one evaluator; its QoR shards are shared.
  const aig::Aig g = designs::make_design("alu:4");
  SynthesisEvaluator engine(g);
  const auto flows = sample_flows(16, 11);
  util::ThreadPool pool(4);
  const auto first = engine.evaluate_many(flows, &pool);
  const auto second = engine.evaluate_many(flows, &pool);
  const auto expected = oracle_batch(g, flows);
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

TEST(EvaluatorStoreTest, BatchAnswersStoredFlowsAndSynthesizesOnlyTheRest) {
  // Every other flow of the batch is stored under a label no synthesis
  // gives. evaluate_many, serial and on a pool, answers those from one
  // pass over the store and synthesizes exactly the others: each flow is
  // looked up in the store once, never a second time on its way to
  // synthesis. A batch asks the store before the memo, so a second batch
  // over the same flows counts every flow as a store lookup and a hit
  // (the first batch appended each fresh label) and synthesizes nothing.
  const aig::Aig g = designs::make_design("alu:4");
  const auto flows = sample_flows(24, 14);
  const auto stored_label = [](std::size_t i) {
    return map::QoR{1.0 + static_cast<double>(i), 0.5, i, 9};
  };
  const std::size_t misses = flows.size() / 2;
  util::ThreadPool pool(3);
  for (util::ThreadPool* on : {static_cast<util::ThreadPool*>(nullptr),
                               &pool}) {
    SCOPED_TRACE(on ? "pool" : "serial");
    const std::string dir = ::testing::TempDir() + "flowgen_eval_batch_" +
                            (on ? "pool_" : "serial_") +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    {
      QorStore writer(QorStoreConfig{dir, "writer", false, nullptr, {}});
      for (std::size_t i = 0; i < flows.size(); i += 2) {
        ASSERT_TRUE(writer.append(g.fingerprint(), flows[i].steps,
                                  stored_label(i)));
      }
    }
    auto store = std::make_shared<QorStore>(
        QorStoreConfig{dir, "reader", false, nullptr, {}});
    SynthesisEvaluator ev(g);
    ev.attach_store(store);
    const std::vector<map::QoR> qor = ev.evaluate_many(flows, on);
    ASSERT_EQ(qor.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(qor[i], i % 2 == 0 ? stored_label(i) : oracle(g, flows[i]))
          << "flow " << i;
    }
    EXPECT_EQ(ev.evaluations(), misses);
    EXPECT_EQ(ev.cache_size(), misses);
    const QorStoreStats stats = store->stats();
    EXPECT_EQ(stats.lookups, flows.size());
    EXPECT_EQ(stats.hits, flows.size() - misses);
    EXPECT_EQ(stats.appends, misses);

    EXPECT_EQ(ev.evaluate_many(flows, on), qor);
    EXPECT_EQ(ev.evaluations(), misses);
    const QorStoreStats again = store->stats();
    EXPECT_EQ(again.lookups, 2 * flows.size());
    EXPECT_EQ(again.hits, 2 * flows.size() - misses);
    EXPECT_EQ(again.appends, misses);
    std::filesystem::remove_all(dir);
  }
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
