// google-benchmark micro-benchmarks for a QoR store: attaching one (the
// layer behind every resumed labeling run's, and every store-backed
// worker's, start-up), looking every stored flow up, and compacting it.
// Three layouts over the same seeded labels:
//
//   segment  every record compacted: mmap, whole-file CRC, offset table;
//   log      every record in one log: read, CRC, sort into one run;
//   mixed    the first 3/4 compacted and the rest in the log, the shape of
//            bench/e2e's recall_store fixture: the run is also merged
//            against the segment.
//
// BM_StoreAttach times each layout's attach. On the mixed layout,
// BM_StoreLookup looks every stored flow up: point_random one lookup() per
// flow in the order they were sampled, point_sorted one per flow in
// core::lexicographic_order, batch_sorted one lookup_sorted() over that
// order (the sort itself is not timed); BM_StoreCompact times compact()
// of a freshly attached copy of the store (the copy and attach are not
// timed). Each runs at 2*10^4 records (the CI smoke size) and 10^6 (the
// recall fixture's). Labels are m=2 flows of one design in random order,
// with synthetic QoR; no synthesis runs.
//
//   micro_store --benchmark_filter='/20000$'

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace flowgen;
namespace fs = std::filesystem;

enum class Layout { kSegment, kLog, kMixed };

constexpr aig::Fingerprint kDesign = {0x416C753136ull, 0x9e3779b97f4a7c15ull};

/// A store directory seeded once and removed at exit.
class SeededStore {
public:
  SeededStore(Layout layout, std::size_t records)
      : dir_((fs::temp_directory_path() /
              ("flowgen_micro_store_" + std::to_string(::getpid()) + "_" +
               std::to_string(static_cast<int>(layout)) + "_" +
               std::to_string(records)))
                 .string()) {
    fs::remove_all(dir_);
    util::Rng rng(1);
    flows_ = core::FlowSpace(2).sample_unique(records, rng);
    const std::vector<core::Flow>& flows = flows_;
    const std::size_t compacted = layout == Layout::kSegment ? records
                                  : layout == Layout::kMixed ? records * 3 / 4
                                                             : 0;
    core::QorStoreConfig config;
    config.dir = dir_;
    config.writer_name = "seed";
    core::QorStore store(config);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (i == compacted && i > 0) store.compact();
      store.append(kDesign, flows[i].steps,
                   map::QoR{100.0 + 0.25 * static_cast<double>(i % 4096),
                            500.0 + static_cast<double>(i % 997),
                            200 + i % 1000, i % 40});
    }
    if (compacted == records) store.compact();
  }
  ~SeededStore() { fs::remove_all(dir_); }
  SeededStore(const SeededStore&) = delete;
  SeededStore& operator=(const SeededStore&) = delete;

  const std::string& dir() const { return dir_; }
  /// Every stored flow, in the order it was sampled and appended.
  const std::vector<core::Flow>& flows() const { return flows_; }

private:
  std::string dir_;
  std::vector<core::Flow> flows_;
};

const SeededStore& seeded_store(Layout layout, std::size_t records) {
  static std::map<std::pair<Layout, std::size_t>, SeededStore> stores;
  const auto key = std::make_pair(layout, records);
  auto it = stores.find(key);
  if (it == stores.end()) {
    it = stores
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(layout, records))
             .first;
  }
  return it->second;
}

void BM_StoreAttach(benchmark::State& state, Layout layout) {
  const auto records = static_cast<std::size_t>(state.range(0));
  core::QorStoreConfig config;
  config.dir = seeded_store(layout, records).dir();
  // One writer name for every iteration: each attach resumes the same
  // (empty) log instead of leaving one more behind.
  config.writer_name = "attach";
  if (core::QorStore(config).size() != records) {
    state.SkipWithError("the seeded store lost records");
    return;
  }
  for (auto _ : state) {
    core::QorStore store(config);
    benchmark::DoNotOptimize(store.size());
  }
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK_CAPTURE(BM_StoreAttach, segment, Layout::kSegment)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreAttach, log, Layout::kLog)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreAttach, mixed, Layout::kMixed)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);

enum class Lookup { kPointRandom, kPointSorted, kBatchSorted };

void BM_StoreLookup(benchmark::State& state, Lookup how) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const SeededStore& seeded = seeded_store(Layout::kMixed, records);
  const std::vector<core::Flow>& flows = seeded.flows();
  core::QorStoreConfig config;
  config.dir = seeded.dir();
  config.writer_name = "lookup";
  const core::QorStore store(config);
  const std::vector<std::size_t> sorted = core::lexicographic_order(flows);
  std::vector<map::QoR> out(flows.size());
  std::vector<bool> answered;
  for (auto _ : state) {
    std::size_t hits = 0;
    switch (how) {
      case Lookup::kPointRandom:
        for (const core::Flow& f : flows) {
          hits += store.lookup(kDesign, f.steps).has_value();
        }
        break;
      case Lookup::kPointSorted:
        for (const std::size_t i : sorted) {
          hits += store.lookup(kDesign, flows[i].steps).has_value();
        }
        break;
      case Lookup::kBatchSorted:
        answered.assign(flows.size(), false);
        hits = store.lookup_sorted(kDesign, flows, sorted, out, answered);
        break;
    }
    benchmark::DoNotOptimize(hits);
    if (hits != records) {
      state.SkipWithError("a stored flow was not found");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records));
}
BENCHMARK_CAPTURE(BM_StoreLookup, point_random, Lookup::kPointRandom)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreLookup, point_sorted, Lookup::kPointSorted)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StoreLookup, batch_sorted, Lookup::kBatchSorted)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);

void BM_StoreCompact(benchmark::State& state, Layout layout) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string& seeded = seeded_store(layout, records).dir();
  // compact() rewrites the directory it runs on, so each one gets a fresh
  // copy of the seeded store.
  const std::string work = seeded + "_compact";
  core::QorStoreConfig config;
  config.dir = work;
  config.writer_name = "compact";
  std::optional<core::QorStore> store;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    fs::remove_all(work);
    fs::copy(seeded, work, fs::copy_options::recursive);
    store.emplace(config);
    state.ResumeTiming();
    if (store->compact().records != records) {
      state.SkipWithError("compaction lost records");
      break;
    }
  }
  store.reset();
  fs::remove_all(work);
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK_CAPTURE(BM_StoreCompact, mixed, Layout::kMixed)
    ->Arg(20000)->Arg(1000000)->Unit(benchmark::kMillisecond);

}  // namespace
