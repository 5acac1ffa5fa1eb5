// google-benchmark microbenchmarks for the synthesis substrate: graph
// copies, per-pass transform cost, window cuts and window factoring, cut
// enumeration, technology mapping and the cell library's match table,
// full-flow evaluation and the batch order evaluation schedules by. These
// are the per-iteration costs behind the "collecting the training dataset
// takes most of the runtime" observation in the paper.
//
// This binary replaces the global operator new with a counting one, so
// the transform and mapping benchmarks also report `allocs`, the heap
// allocations of one iteration.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "aig/cuts.hpp"
#include "aig/factor.hpp"
#include "aig/isop.hpp"
#include "aig/reconv_cut.hpp"
#include "aig/simulate.hpp"
#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "map/mapper.hpp"
#include "opt/transform.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// All out of line: inlined into a caller, GCC pairs the malloc() or free()
// inside with the caller's new or delete and warns (-Wmismatched-new-delete)
// about a correct pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace flowgen;

/// Heap allocations per iteration since `start` (a g_allocs reading taken
/// before the timing loop).
benchmark::Counter allocs_per_iteration(std::uint64_t start) {
  return benchmark::Counter(
      static_cast<double>(g_allocs.load(std::memory_order_relaxed) - start),
      benchmark::Counter::kAvgIterations);
}

const aig::Aig& cached_design(const std::string& name) {
  static std::map<std::string, aig::Aig> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, designs::make_design(name)).first;
  }
  return it->second;
}

void BM_DesignElaboration(benchmark::State& state,
                          const std::string& name) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(designs::make_design(name));
  }
}
BENCHMARK_CAPTURE(BM_DesignElaboration, alu16, std::string("alu16"));
BENCHMARK_CAPTURE(BM_DesignElaboration, mont8, std::string("mont:8"));

void BM_AigCopy(benchmark::State& state, const std::string& name) {
  // The copy every replacement pass starts from (`Aig g = in;`).
  const aig::Aig& g = cached_design(name);
  for (auto _ : state) {
    aig::Aig copy = g;
    benchmark::DoNotOptimize(copy);
  }
  state.counters["and_nodes"] = static_cast<double>(g.num_ands());
  state.counters["bytes_per_and"] =
      static_cast<double>(g.memory_bytes()) / static_cast<double>(g.num_ands());
}
BENCHMARK_CAPTURE(BM_AigCopy, alu16, std::string("alu16"))
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_AigCopy, mont64, std::string("mont64"))
    ->Unit(benchmark::kMicrosecond);

void BM_Transform(benchmark::State& state, const std::string& design,
                  const std::string& transform) {
  const aig::Aig& g = cached_design(design);
  const opt::TransformKind kind = opt::transform_from_name(transform);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::apply_transform(g, kind));
  }
  state.counters["allocs"] = allocs_per_iteration(allocs);
  state.counters["and_nodes"] = static_cast<double>(g.num_ands());
}
BENCHMARK_CAPTURE(BM_Transform, alu16_balance, std::string("alu16"),
                  std::string("balance"));
BENCHMARK_CAPTURE(BM_Transform, alu16_rewrite, std::string("alu16"),
                  std::string("rewrite"));
BENCHMARK_CAPTURE(BM_Transform, alu16_refactor, std::string("alu16"),
                  std::string("refactor"));
BENCHMARK_CAPTURE(BM_Transform, alu16_restructure, std::string("alu16"),
                  std::string("restructure"));
BENCHMARK_CAPTURE(BM_Transform, alu16_rewrite_z, std::string("alu16"),
                  std::string("rewrite -z"));
BENCHMARK_CAPTURE(BM_Transform, alu16_refactor_z, std::string("alu16"),
                  std::string("refactor -z"));
BENCHMARK_CAPTURE(BM_Transform, mont8_rewrite, std::string("mont:8"),
                  std::string("rewrite"));

void BM_ReconvCut(benchmark::State& state, const std::string& design) {
  // The window every restructure and refactor root starts from: one
  // reconvergence-driven cut of every AND node at the passes' default
  // leaf limit of 8.
  const aig::Aig& g = cached_design(design);
  std::size_t leaves = 0;
  for (auto _ : state) {
    leaves = 0;
    for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
      if (g.is_and(id)) leaves += aig::reconv_cut(g, id, 8).size();
    }
    benchmark::DoNotOptimize(leaves);
  }
  state.counters["roots"] = static_cast<double>(g.num_ands());
  // Seconds per root (printed with an SI prefix, e.g. 950n).
  state.counters["per_root"] = benchmark::Counter(
      static_cast<double>(g.num_ands()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ReconvCut, alu16, std::string("alu16"))
    ->Unit(benchmark::kMicrosecond);

void BM_FactorWindows(benchmark::State& state, const std::string& design) {
  // What a factored-form memo miss costs: ISOP and quick-factor of both
  // polarities of the 8-leaf window function of every AND root, called
  // directly so that no memo serves a repeat. The window functions are
  // computed before the timed loop.
  const aig::Aig& g = cached_design(design);
  std::vector<aig::TruthTable> functions;
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!g.is_and(id)) continue;
    functions.push_back(aig::cone_truth(g, aig::make_lit(id, false),
                                        aig::reconv_cut(g, id, 8)));
  }
  std::size_t literals = 0;
  for (auto _ : state) {
    literals = 0;
    for (const aig::TruthTable& tt : functions) {
      literals += aig::factor_sop(aig::isop(tt)).num_literals();
      literals += aig::factor_sop(aig::isop(~tt)).num_literals();
    }
    benchmark::DoNotOptimize(literals);
  }
  state.counters["windows"] = static_cast<double>(functions.size());
  // Seconds per window, both polarities (printed with an SI prefix).
  state.counters["per_window"] = benchmark::Counter(
      static_cast<double>(functions.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_FactorWindows, alu16, std::string("alu16"))
    ->Unit(benchmark::kMicrosecond);

void BM_CutEnumeration(benchmark::State& state) {
  const aig::Aig& g = cached_design("alu16");
  aig::CutParams params;
  params.cut_size = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    aig::CutManager cuts(g, params);
    benchmark::DoNotOptimize(cuts.cuts(g.num_nodes() - 1).size());
  }
}
BENCHMARK(BM_CutEnumeration)->Arg(4)->Arg(5)->Arg(6);

void BM_TechnologyMapping(benchmark::State& state,
                          const std::string& design) {
  const aig::Aig& g = cached_design(design);
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map::evaluate_qor(g));
  }
  state.counters["allocs"] = allocs_per_iteration(allocs);
}
BENCHMARK_CAPTURE(BM_TechnologyMapping, alu16, std::string("alu16"));
BENCHMARK_CAPTURE(BM_TechnologyMapping, mont8, std::string("mont:8"));

void BM_CellLibraryBuild(benchmark::State& state) {
  // The match table every process builds before its first mapping, from
  // the builtin cell list. In this loop the table's memory is reused, so
  // the first touch of its pages, paid once per fresh process, is not
  // priced here.
  const std::vector<map::Cell>& cells = map::CellLibrary::builtin().cells();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const map::CellLibrary lib(cells);
    benchmark::DoNotOptimize(lib.index_size());
  }
  state.counters["allocs"] = allocs_per_iteration(allocs);
}
BENCHMARK(BM_CellLibraryBuild)->Unit(benchmark::kMicrosecond);

void BM_FullFlowEvaluation(benchmark::State& state) {
  // One length-24 flow end to end: the unit of work the pipeline pays per
  // labeled training flow.
  core::SynthesisEvaluator evaluator(cached_design("alu16"));
  core::FlowSpace space(4);
  util::Rng rng(1);
  for (auto _ : state) {
    const core::Flow flow = space.random_flow(rng);
    benchmark::DoNotOptimize(evaluator.evaluate(flow));
  }
}
BENCHMARK(BM_FullFlowEvaluation)->Unit(benchmark::kMillisecond);

void BM_LexicographicOrder(benchmark::State& state) {
  // The batch order every evaluation path sorts by, on the recall
  // workloads' shape: unique m = 2 flows of the paper alphabet (the alu16
  // batches, 12 steps each). The end-to-end trace cannot separate this
  // layer from evaluate_many.
  static std::map<std::size_t, std::vector<core::Flow>> batches;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto it = batches.find(n);
  if (it == batches.end()) {
    util::Rng rng(1);
    it = batches.emplace(n, core::FlowSpace(2).sample_unique(n, rng)).first;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lexicographic_order(it->second));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LexicographicOrder)
    ->Arg(1000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
