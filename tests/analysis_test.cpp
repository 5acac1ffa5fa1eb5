// Tests for the incremental analysis engine: whole-graph artifacts match
// their from-scratch counterparts, per-node plans are pure and shareable,
// and — the property everything else rests on — artifacts carried across a
// rebuild by AnalysisCache::derive are bitwise identical to a fresh
// computation on the new graph.

#include "aig/analysis.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "aig/cuts.hpp"
#include "aig/refs.hpp"
#include "designs/registry.hpp"
#include "opt/rebuild.hpp"
#include "opt/transform.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::aig {
namespace {

using opt::TransformKind;

void expect_same_refs(const RefCounts& a, const RefCounts& b,
                      std::size_t num_nodes) {
  for (std::uint32_t id = 0; id < num_nodes; ++id) {
    ASSERT_EQ(a.refs(id), b.refs(id)) << "node " << id;
  }
}

TEST(AnalysisTest, PristineRefsMatchExactConstructorOnDesigns) {
  for (const char* name : {"alu:6", "mont:6", "spn16"}) {
    const Aig g = designs::make_design(name);
    expect_same_refs(RefCounts::pristine(g), RefCounts(g), g.num_nodes());
  }
}

TEST(AnalysisTest, PristineRefsMatchExactConstructorOnTransformOutputs) {
  Aig g = designs::make_design("alu:6");
  for (TransformKind kind : opt::paper_transform_set()) {
    g = opt::apply_transform(g, kind);
    expect_same_refs(RefCounts::pristine(g), RefCounts(g), g.num_nodes());
  }
}

TEST(AnalysisTest, FanoutViewMatchesAdjacency) {
  const Aig g = designs::make_design("alu:6");
  AnalysisCache cache(g);
  const FanoutView fan = cache.fanouts(g);
  // Reference: per-node vectors built the way restructure used to.
  std::vector<std::vector<std::uint32_t>> ref(g.num_nodes());
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    ref[lit_node(g.node(id).fanin0)].push_back(id);
    ref[lit_node(g.node(id).fanin1)].push_back(id);
  }
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    ASSERT_EQ(fan.end(id) - fan.begin(id), ref[id].size()) << "node " << id;
    for (std::uint32_t k = 0; k < ref[id].size(); ++k) {
      ASSERT_EQ(fan.target(fan.begin(id) + k), ref[id][k]);
    }
  }
}

TEST(AnalysisTest, FactoredFormMemoIsPureAndShared) {
  const TruthTable tt = TruthTable::from_bits(3, 0b10010110);  // 3-input XOR
  const auto a = factored_form(tt);
  const auto b = factored_form(tt);
  EXPECT_EQ(a.get(), b.get());  // second lookup shares the memoised value
  EXPECT_GT(a->literals, 0u);
  // Both polarities of XOR cost the same; ties prefer positive.
  EXPECT_FALSE(a->output_compl);
}

void expect_same_cuts(const CutManager& a, const CutManager& b,
                      std::size_t num_nodes) {
  for (std::uint32_t id = 0; id < num_nodes; ++id) {
    ASSERT_EQ(a.cuts(id).size(), b.cuts(id).size()) << "node " << id;
    for (std::size_t c = 0; c < a.cuts(id).size(); ++c) {
      ASSERT_EQ(a.cuts(id)[c].leaves, b.cuts(id)[c].leaves)
          << "node " << id << " cut " << c;
      ASSERT_EQ(a.cuts(id)[c].signature, b.cuts(id)[c].signature);
    }
  }
}

// The heart of the damage-region machinery: run real passes back to back
// and check that everything `derive` carries equals a fresh computation on
// the pass output — cut sets node for node, and plans via the pass results
// themselves (warm == cold graphs, pinned here; QoR pinned in
// warm_analysis_test).
TEST(AnalysisTest, DerivedCutSetsMatchFreshEnumeration) {
  CutParams params;
  params.cut_size = 4;
  params.max_cuts = 8;
  params.keep_trivial = false;

  Aig g = designs::make_design("alu:8");
  auto cache = std::make_shared<AnalysisCache>(g);
  cache->cuts(g, params);  // materialise so derive has something to carry
  const std::vector<TransformKind> chain = {
      TransformKind::kRewrite, TransformKind::kRestructure,
      TransformKind::kRewriteZ, TransformKind::kRefactor};
  std::size_t carried_total = 0;
  for (TransformKind kind : chain) {
    opt::AnalyzedTransform r =
        opt::apply_transform_analyzed(g, kind, cache.get(), true);
    const auto derived = r.analysis->cuts(r.graph, params);
    const CutManager fresh(r.graph, params);
    expect_same_cuts(*derived, fresh, r.graph.num_nodes());
    carried_total += derived->reused_nodes();
    g = std::move(r.graph);
    cache = r.analysis;
  }
  // The chain converges, so at least one hop must have carried something.
  EXPECT_GT(carried_total, 0u);
}

TEST(AnalysisTest, DerivedPlansReproduceFreshPassOutputs) {
  // Chains mixing every replacement-style pass: at each hop the pass runs
  // once warm (with the derived cache) and once cold (fresh analysis); the
  // output graphs must be identical node for node (fingerprint covers
  // structure, PIs and POs).
  const std::vector<TransformKind> chain = {
      TransformKind::kRestructure, TransformKind::kRefactor,
      TransformKind::kRestructure, TransformKind::kRewrite,
      TransformKind::kRefactorZ,   TransformKind::kRestructure};
  Aig g = designs::make_design("alu:8");
  auto cache = std::make_shared<AnalysisCache>(g);
  for (TransformKind kind : chain) {
    opt::AnalyzedTransform warm =
        opt::apply_transform_analyzed(g, kind, cache.get(), true);
    const Aig cold = opt::apply_transform(g, kind);
    ASSERT_EQ(warm.graph.fingerprint(), cold.fingerprint())
        << "warm/cold divergence at " << opt::transform_name(kind);
    g = std::move(warm.graph);
    cache = warm.analysis;
  }
}

TEST(AnalysisTest, DeriveCarriesEverythingAcrossAnEmptyEdit) {
  // Iterate restructure to its fixpoint; once an application leaves the
  // graph untouched, the whole plan table must carry and the next warm
  // application must replay without computing a single plan.
  Aig g = designs::make_design("alu:6");
  auto cache = std::make_shared<AnalysisCache>(g);
  Fingerprint fp = g.fingerprint();
  bool converged = false;
  for (int i = 0; i < 5 && !converged; ++i) {
    opt::AnalyzedTransform r = opt::apply_transform_analyzed(
        g, TransformKind::kRestructure, cache.get(), true);
    converged = r.graph.fingerprint() == fp;
    fp = r.graph.fingerprint();
    g = std::move(r.graph);
    cache = r.analysis;
  }
  ASSERT_TRUE(converged) << "restructure did not reach a fixpoint";
  reset_analysis_counters();
  opt::AnalyzedTransform next = opt::apply_transform_analyzed(
      g, TransformKind::kRestructure, cache.get(), true);
  const AnalysisCounters c = analysis_counters();
  EXPECT_EQ(next.graph.fingerprint(), fp);
  EXPECT_EQ(c.resub_plans_computed, 0u);  // everything replayed from carry
  EXPECT_GT(c.resub_plans_carried, 0u);
}

// Reference for detail::scan_one_resub: the unfiltered pair scan, which
// tries every (i < j, phases) with a full comparison.
std::vector<ResubMatch> brute_force_scan(
    const TruthTable& target, const std::vector<const TruthTable*>& d,
    std::size_t cap) {
  std::vector<ResubMatch> out;
  for (std::size_t i = 0; i < d.size() && out.size() < cap; ++i) {
    for (std::size_t j = i + 1; j < d.size() && out.size() < cap; ++j) {
      for (unsigned phases = 0; phases < 4; ++phases) {
        const bool c0 = (phases & 1) != 0, c1 = (phases & 2) != 0;
        bool out_compl = false;
        if (target.matches_and(*d[i], c0, *d[j], c1, false)) {
          out_compl = false;
        } else if (target.matches_and(*d[i], c0, *d[j], c1, true)) {
          out_compl = true;
        } else {
          continue;
        }
        out.push_back(ResubMatch{static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(j), c0, c1,
                                 out_compl});
        if (out.size() >= cap) break;
      }
    }
  }
  return out;
}

TruthTable random_table(unsigned nv, util::Rng& rng) {
  TruthTable t(nv);
  for (std::size_t m = 0; m < t.num_bits(); m += 64) {
    const std::uint64_t w = rng();
    for (std::size_t b = 0; b < 64 && m + b < t.num_bits(); ++b) {
      t.set_bit(m + b, (w >> b) & 1);
    }
  }
  return t;
}

TEST(AnalysisTest, FilteredResubScanMatchesBruteForce) {
  constexpr std::size_t kCap = 64;  // the plan's kMaxOneMatches
  util::Rng rng(2024);
  std::size_t capped = 0, matched = 0;
  for (unsigned nv : {2u, 6u, 8u, 16u}) {
    const int trials = nv == 16 ? 6 : 40;
    for (int trial = 0; trial < trials; ++trial) {
      // Divisors as in a window: the leaf projections first, then random
      // functions; some are copies or complements of earlier ones so that
      // several pairs (and phases) match one target.
      const std::size_t num_divisors = 2 + rng.below(63);
      std::vector<TruthTable> tables;
      for (unsigned v = 0; v < nv && tables.size() < num_divisors; ++v) {
        tables.push_back(TruthTable::variable(nv, v));
      }
      while (tables.size() < num_divisors) {
        const std::uint64_t kind = rng.below(4);
        if (kind == 0 && !tables.empty()) {
          tables.push_back(tables[rng.below(tables.size())]);
        } else if (kind == 1 && !tables.empty()) {
          tables.push_back(~tables[rng.below(tables.size())]);
        } else {
          tables.push_back(random_table(nv, rng));
        }
      }
      std::vector<const TruthTable*> divisors;
      for (const TruthTable& t : tables) divisors.push_back(&t);

      // Target: the AND of a random divisor pair in random phases (so a
      // match exists), sometimes complemented; every fifth trial a target
      // unrelated to the divisors.
      TruthTable target;
      if (trial % 5 == 4) {
        target = random_table(nv, rng);
      } else {
        const std::size_t a = rng.below(tables.size());
        const std::size_t b = rng.below(tables.size());
        target = TruthTable::and_phase(tables[a], rng.below(2) != 0,
                                       tables[b], rng.below(2) != 0);
        if (rng.below(2)) target = ~target;
      }

      const std::vector<ResubMatch> want =
          brute_force_scan(target, divisors, kCap);
      std::vector<ResubMatch> got;
      detail::scan_one_resub(target, divisors, kCap, got);
      ASSERT_EQ(got.size(), want.size()) << "nv " << nv << " trial " << trial;
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(got[k].div0, want[k].div0) << "match " << k;
        ASSERT_EQ(got[k].div1, want[k].div1) << "match " << k;
        ASSERT_EQ(got[k].compl0, want[k].compl0) << "match " << k;
        ASSERT_EQ(got[k].compl1, want[k].compl1) << "match " << k;
        ASSERT_EQ(got[k].out_compl, want[k].out_compl) << "match " << k;
      }
      capped += want.size() == kCap;
      matched += !want.empty();
    }
  }
  EXPECT_GT(capped, 0u);  // the cap was reached at least once
  EXPECT_GT(matched, 50u);
}

TEST(AnalysisTest, MemoryBytesGrowsAsSlotsFill) {
  const Aig g = designs::make_design("alu:6");
  AnalysisCache cache(g);
  const std::size_t empty = cache.memory_bytes();
  cache.pristine_refs(g);
  cache.fanouts(g);
  const std::size_t with_graph_artifacts = cache.memory_bytes();
  EXPECT_GT(with_graph_artifacts, empty);
  opt::apply_transform_analyzed(g, TransformKind::kRestructure, &cache,
                                false);
  EXPECT_GT(cache.memory_bytes(), with_graph_artifacts);
}

TEST(AnalysisTest, ConcurrentLazyFillsAreSafeAndConsistent) {
  // Several threads run warm passes against one shared cache, as happens
  // when sibling flows resume from the same snapshot. All outputs must be
  // identical (also exercised under TSan by the CI determinism job).
  const Aig g = designs::make_design("alu:6");
  AnalysisCache cache(g);
  util::ThreadPool pool(4);
  std::vector<Fingerprint> fps(8);
  pool.parallel_for(fps.size(), [&](std::size_t i) {
    const TransformKind kind = (i % 2) ? TransformKind::kRestructure
                                       : TransformKind::kRefactor;
    fps[i] = opt::apply_transform_analyzed(g, kind, &cache, false)
                 .graph.fingerprint();
  });
  for (std::size_t i = 2; i < fps.size(); ++i) {
    EXPECT_EQ(fps[i], fps[i - 2]);
  }
}

}  // namespace
}  // namespace flowgen::aig
