// google-benchmark micro-benchmarks for attaching a QoR store: the layer
// behind every resumed labeling run's (and every store-backed worker's)
// start-up. Three layouts over the same seeded labels:
//
//   segment  every record compacted: mmap, whole-file CRC, offset table;
//   log      every record in one log: read, CRC, sort into one run;
//   mixed    the first 3/4 compacted and the rest in the log, the shape of
//            bench/e2e's recall_store fixture: the run is also merged
//            against the segment.
//
// Each layout runs at 2*10^4 records (the CI smoke size) and 10^6 (the
// recall fixture's). Labels are m=2 flows of one design in random order,
// with synthetic QoR; no synthesis runs.
//
//   micro_store --benchmark_filter='/20000$'

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace flowgen;
namespace fs = std::filesystem;

enum class Layout { kSegment, kLog, kMixed };

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
    const std::vector<core::Flow> flows =
        core::FlowSpace(2).sample_unique(records, rng);
    const std::size_t compacted = layout == Layout::kSegment ? records
                                  : layout == Layout::kMixed ? records * 3 / 4
                                                             : 0;
    core::QorStoreConfig config;
    config.dir = dir_;
    config.writer_name = "seed";
    core::QorStore store(config);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (i == compacted && i > 0) store.compact();
      store.append({0x416C753136ull, 0x9e3779b97f4a7c15ull}, flows[i].steps,
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

private:
  std::string dir_;
};

const std::string& seeded_store(Layout layout, std::size_t records) {
  static std::map<std::pair<Layout, std::size_t>, SeededStore> stores;
  const auto key = std::make_pair(layout, records);
  auto it = stores.find(key);
  if (it == stores.end()) {
    it = stores
             .emplace(std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple(layout, records))
             .first;
  }
  return it->second.dir();
}

void BM_StoreAttach(benchmark::State& state, Layout layout) {
  const auto records = static_cast<std::size_t>(state.range(0));
  core::QorStoreConfig config;
  config.dir = seeded_store(layout, records);
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

}  // namespace
