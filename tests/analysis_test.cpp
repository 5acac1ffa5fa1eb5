// Tests for the per-pass analysis kernels: the pristine reference counts and
// CSR fanouts passes build for their input graph match their from-scratch
// counterparts, the factored-form memo is pure and shared and keeps what
// it is given, the filtered 1-resub scan matches brute force, a root with
// an unshared signature has no 0-resub candidate, and passes sharing one
// input graph across threads (per-thread scratch, process-wide memo) agree.

#include "aig/analysis.hpp"

#include <gtest/gtest.h>

#include "aig/reconv_cut.hpp"
#include "aig/refs.hpp"
#include "designs/registry.hpp"
#include "flow_graphs.hpp"
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

TEST(AnalysisTest, FanoutCsrMatchesAdjacency) {
  const Aig g = designs::make_design("alu:6");
  const Fanouts fan = build_fanouts(g);
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

TEST(AnalysisTest, FactoredFormMemoKeepsTablesThatDifferAboveLowMinterms) {
  // 9,000 distinct 8-input tables that agree on minterms 0-2 of every word
  // (they differ in bits 3-16 of word 0): the memo must spread them over
  // its shards and keep each, so a second lookup returns the first value.
  constexpr std::size_t kTables = 9000;
  auto table = [](std::size_t k) {
    const std::uint64_t words[4] = {0x5A5A5A5A5A500005ull | k << 3,
                                    0x0123456789ABCDEFull,
                                    0xFEDCBA9876543210ull,
                                    0x0F0F00FF0FF00F0Full};
    return TruthTable::from_words(8, words);
  };
  std::vector<std::shared_ptr<const FactoredForm>> first;
  for (std::size_t k = 0; k < kTables; ++k) {
    first.push_back(factored_form(table(k)));
  }
  for (std::size_t k = 0; k < kTables; ++k) {
    ASSERT_EQ(factored_form(table(k)).get(), first[k].get()) << "table " << k;
  }
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

TEST(AnalysisTest, PlanWithoutOnesHasTheFullPlansZeros) {
  // Restructure skips the 1-resub scan where it cannot use one; the
  // 0-resub candidates it reads must be the full plan's.
  std::size_t roots = 0, with_zeros = 0, with_ones = 0;
  ResubPlan full, zeros_only;
  for (const Aig& g : fixtures::oracle_graphs()) {
    RefCounts refs = RefCounts::pristine(g);
    const Fanouts fanouts = build_fanouts(g);
    for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
      if (!g.is_and(id)) continue;
      const WindowLeaves leaves = reconv_cut(g, id, 8);
      compute_resub_plan(g, id, leaves, 24, refs, fanouts, full);
      compute_resub_plan(g, id, leaves, 24, refs, fanouts, zeros_only,
                         /*scan_ones=*/false);
      ASSERT_EQ(zeros_only.zeros.size(), full.zeros.size()) << "node " << id;
      for (std::size_t k = 0; k < full.zeros.size(); ++k) {
        ASSERT_EQ(zeros_only.zeros[k].div, full.zeros[k].div);
        ASSERT_EQ(zeros_only.zeros[k].compl_, full.zeros[k].compl_);
      }
      ASSERT_TRUE(zeros_only.ones.empty());
      ++roots;
      with_zeros += !full.zeros.empty();
      with_ones += !full.ones.empty();
    }
  }
  EXPECT_GT(roots, 50000u);
  EXPECT_GT(with_zeros, 100u);
  EXPECT_GT(with_ones, 100u);
}

TEST(AnalysisTest, UnsharedSignatureRootsHaveNoZeroResub) {
  // Restructure builds no window for a root with a one-node MFFC whose
  // signature class is a singleton: it reads only the plan's 0-resub
  // candidates there, and this checks that the plan has none, at two
  // window sizes. The skip must also cover a good share of such roots.
  std::size_t one_node = 0, skipped = 0;
  ResubPlan plan;
  auto check = [&](const Aig& g) {
    const std::span<const std::uint8_t> shared = shared_signatures(g);
    ASSERT_EQ(shared.size(), g.num_nodes());
    RefCounts refs = RefCounts::pristine(g);
    const Fanouts fanouts = build_fanouts(g);
    for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
      if (!g.is_and(id) || refs.dead(id) || refs.mffc_size(g, id) != 1) {
        continue;
      }
      ++one_node;
      if (shared[id]) continue;
      ++skipped;
      for (unsigned max_leaves : {8u, 12u}) {
        compute_resub_plan(g, id, reconv_cut(g, id, max_leaves), 24, refs,
                           fanouts, plan, /*scan_ones=*/false);
        ASSERT_TRUE(plan.zeros.empty())
            << "node " << id << " at " << max_leaves << " leaves";
      }
    }
  };
  for (const Aig& g : fixtures::oracle_graphs()) check(g);
  check(designs::make_design("alu16"));
  EXPECT_GT(one_node, 10000u);
  EXPECT_GT(3 * skipped, one_node) << skipped << " of " << one_node;
}

TEST(AnalysisTest, ConcurrentPassesOnOneInputAreConsistent) {
  // Four threads run restructure and refactor on one shared input graph.
  // The passes share per-thread window scratch and the process-wide
  // factored-form memo, never the graph's mutable state, so every output
  // must equal a serial run (also exercised under TSan in CI).
  const Aig g = designs::make_design("alu:6");
  const Fingerprint restructured =
      opt::apply_transform(g, TransformKind::kRestructure).fingerprint();
  const Fingerprint refactored =
      opt::apply_transform(g, TransformKind::kRefactor).fingerprint();
  util::ThreadPool pool(4);
  std::vector<Fingerprint> fps(16);
  pool.parallel_for(fps.size(), [&](std::size_t i) {
    const TransformKind kind = (i % 2) ? TransformKind::kRestructure
                                       : TransformKind::kRefactor;
    fps[i] = opt::apply_transform(g, kind).fingerprint();
  });
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(fps[i], (i % 2) ? restructured : refactored) << "run " << i;
  }
}

}  // namespace
}  // namespace flowgen::aig
