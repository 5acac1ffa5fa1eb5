// bench_store — prices the QoR store at catalogue scale: append throughput,
// attaching every record from a log (read, CRC, sort into one run) vs from
// a compacted segment, compaction itself, and point-lookup latency on the
// compacted store (binary search over the segment). The headline number is
// attach_speedup (log attach seconds / segment attach seconds): the reason
// compaction exists is that a coordinator restarting over a 10^6-label
// catalogue must not spend its startup re-CRC-ing and sorting a million
// log frames.
//
//   bench_store --records 1000000 --json BENCH_store_alu16.json
//   bench_store --records 20000            # CI smoke scale
//
// No synthesis runs here: records are deterministic synthetic labels (the
// store neither knows nor cares), so the bench isolates storage cost.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/qor_store.hpp"
#include "util/cli.hpp"

namespace {

using namespace flowgen;
namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

core::QorStoreConfig config_for(const std::string& dir,
                                const std::string& writer) {
  core::QorStoreConfig config;
  config.dir = dir;
  config.writer_name = writer;
  return config;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const auto records = static_cast<std::size_t>(
      cli.get_int("records", cli.full_scale() ? 1000000 : 1000000));
  const auto num_designs =
      static_cast<std::size_t>(cli.get_int("designs", 64));
  const auto lookups =
      static_cast<std::size_t>(cli.get_int("lookups", 200000));
  const std::string dir =
      cli.get("dir", (fs::temp_directory_path() / "flowgen_bench_store")
                         .string());
  fs::remove_all(dir);

  // Deterministic synthetic labels: design fingerprints fan out over
  // --designs, step sequences walk the paper alphabet at lengths 4..12 —
  // the shape of a real labeling campaign without paying for synthesis.
  const auto design_of = [num_designs](std::size_t i) {
    const std::uint64_t d = i % num_designs;
    return aig::Fingerprint{0x416C753136ull + d, 0x9e3779b97f4a7c15ull * (d + 1)};
  };
  const auto steps_of = [num_designs](std::size_t i) {
    // Base-6 digits of i/num_designs (the per-design sequence number), 9
    // digits — unique per (design, i) by construction, lengths 9..12 via
    // a scrambled suffix so record sizes vary like real flows.
    core::StepsKey steps;
    std::uint64_t v = i / num_designs;
    for (std::size_t k = 0; k < 9; ++k) {
      steps.push_back(static_cast<opt::StepId>(v % 6));
      v /= 6;
    }
    const std::uint64_t x = 0x2545F4914F6CDD1Dull * (i + 1);
    for (std::size_t k = 0; k < x % 4; ++k) {
      steps.push_back(static_cast<opt::StepId>((x >> (8 * k)) % 6));
    }
    return steps;
  };
  const auto qor_of = [](std::size_t i) {
    return map::QoR{100.0 + 0.25 * static_cast<double>(i % 4096),
                    500.0 + static_cast<double>(i % 997),
                    200 + i % 1000, i % 40};
  };

  // ---- append ----
  std::printf("bench_store: appending %zu records over %zu designs...\n",
              records, num_designs);
  std::size_t appended = 0;
  double append_seconds = 0.0;
  {
    core::QorStore store(config_for(dir, "bench"));
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < records; ++i) {
      const core::StepsKey steps = steps_of(i);
      if (store.append(design_of(i), core::StepsView(steps), qor_of(i))) {
        ++appended;
      }
    }
    store.flush();
    append_seconds = seconds_since(t0);
  }

  // ---- attach from raw logs (one sorted run) ----
  double log_attach_seconds = 0.0;
  std::size_t loaded_from_log = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    core::QorStore store(config_for(dir, "reader"));
    log_attach_seconds = seconds_since(t0);
    loaded_from_log = store.size();
  }

  // ---- compact ----
  double compact_seconds = 0.0;
  std::size_t compacted_records = 0;
  {
    core::QorStore store(config_for(dir, "compactor"));
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = store.compact();
    compact_seconds = seconds_since(t0);
    compacted_records = result.records;
  }

  // ---- attach from the compacted segment ----
  double seg_attach_seconds = 0.0;
  std::size_t loaded_from_seg = 0;
  std::size_t segments_loaded = 0;
  double lookup_ns = 0.0;
  std::size_t hits = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    core::QorStore store(config_for(dir, "reader2"));
    seg_attach_seconds = seconds_since(t0);
    loaded_from_seg = store.size();
    segments_loaded = store.stats().segments_loaded;

    const auto l0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < lookups; ++i) {
      const std::size_t pick = (i * 2654435761u) % records;
      const core::StepsKey steps = steps_of(pick);
      if (store.lookup(design_of(pick), core::StepsView(steps))) ++hits;
    }
    lookup_ns = lookups ? seconds_since(l0) * 1e9 /
                              static_cast<double>(lookups)
                        : 0.0;
  }

  const bool sizes_agree =
      loaded_from_log == appended && loaded_from_seg == appended &&
      compacted_records == appended && hits == lookups;
  const double speedup =
      seg_attach_seconds > 0 ? log_attach_seconds / seg_attach_seconds : 0.0;

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\"design\": \"alu16\", \"records\": %zu, \"designs\": %zu,\n"
      " \"append_seconds\": %.3f, \"appends_per_sec\": %.0f,\n"
      " \"log_attach_seconds\": %.3f, \"compact_seconds\": %.3f,"
      " \"segment_attach_seconds\": %.3f,\n"
      " \"attach_speedup\": %.2f, \"segments_loaded\": %zu,\n"
      " \"lookup_ns\": %.0f, \"lookups\": %zu,\n"
      " \"sizes_agree\": %s}",
      appended, num_designs, append_seconds,
      append_seconds > 0 ? static_cast<double>(appended) / append_seconds
                         : 0.0,
      log_attach_seconds, compact_seconds, seg_attach_seconds, speedup,
      segments_loaded, lookup_ns, lookups,
      sizes_agree ? "true" : "false");
  std::printf("%s\n", json);

  if (const std::string path = cli.get("json", ""); !path.empty()) {
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json);
      std::fclose(f);
    }
  }

  // The gate CI runs: the compacted attach must beat the log attach by
  // the configured factor (default off; CI passes --gate 2).
  if (const double gate = cli.get_double("gate", 0.0); gate > 0.0) {
    if (!sizes_agree || speedup < gate) {
      std::fprintf(stderr,
                   "bench_store: FAIL speedup %.2f < gate %.2f (or size "
                   "mismatch)\n",
                   speedup, gate);
      return 1;
    }
  }
  fs::remove_all(dir);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_store: %s\n", e.what());
  return 1;
}
