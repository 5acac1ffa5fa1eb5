// Throughput benchmark for the flow-evaluation engine. Labels the same
// batch of m-repetition flows two ways at equal thread count — a naive
// replay (each flow's steps applied to the design from scratch and mapped
// on its own, no evaluator involved) and the engine, which resumes each
// flow of the sorted batch from its predecessor's graphs — and reports
// flows/sec, passes skipped and speedup as machine-readable JSON (stdout +
// optional --json file). It exits non-zero unless both label every flow
// identically, so the replay is the engine's independent oracle. The
// paper's dataset-collection step is exactly this workload.
//
// --transforms-json additionally emits per-transform pass timings on the
// design so the perf trajectory of every pass is tracked PR over PR.
//
// --telemetry-json prices the telemetry layer itself: the same labeling
// batch with metrics off (set_enabled(false) — the A/B the registry was
// designed for) vs on, plus the per-spec pass timings read back out of the
// flowgen_transform_ms histograms rather than separate timers.
// --overhead-gate PCT makes the bench exit non-zero when the measured
// overhead exceeds PCT percent — CI's telemetry budget. --trace FILE
// additionally captures Chrome trace events for the whole run.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "opt/registry.hpp"
#include "opt/transform.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace flowgen;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct RunResult {
  double seconds = 0.0;
  double flows_per_sec = 0.0;
  core::EvaluatorStats stats;
  std::vector<map::QoR> qor;
};

/// The extended-registry scenario: the paper alphabet + 2 parameterized
/// variants (8 specs), sampled at the same m, pushed through the full
/// engine. Emits flow-space sizes (how much larger the scenario space is)
/// and engine throughput as one JSON object (--registry-json).
std::string bench_registry(const aig::Aig& design,
                           const std::string& design_name, unsigned m,
                           std::size_t num_flows, std::size_t threads,
                           std::uint64_t seed);

RunResult run(const aig::Aig& design, const std::vector<core::Flow>& flows,
              const core::EvaluatorConfig& config, std::size_t threads) {
  core::SynthesisEvaluator evaluator(design, map::CellLibrary::builtin(), {},
                                     config);
  util::ThreadPool pool(threads);
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.qor = evaluator.evaluate_many(flows, threads > 1 ? &pool : nullptr);
  r.seconds = seconds_since(t0);
  r.flows_per_sec =
      r.seconds > 0 ? static_cast<double>(flows.size()) / r.seconds : 0.0;
  r.stats = evaluator.stats();
  return r;
}

/// The naive leg: every flow replayed from the design and mapped on its
/// own (registry apply_steps + evaluate_qor), one task per flow over a
/// pool of the same size.
RunResult replay(const aig::Aig& design, const std::vector<core::Flow>& flows,
                 std::size_t threads) {
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  util::ThreadPool pool(threads);
  RunResult r;
  r.qor.resize(flows.size());
  const auto one = [&](std::size_t i) {
    r.qor[i] = map::evaluate_qor(registry.apply_steps(design, flows[i].steps));
  };
  const auto t0 = std::chrono::steady_clock::now();
  if (threads > 1) {
    pool.parallel_for(flows.size(), one);
  } else {
    for (std::size_t i = 0; i < flows.size(); ++i) one(i);
  }
  r.seconds = seconds_since(t0);
  r.flows_per_sec =
      r.seconds > 0 ? static_cast<double>(flows.size()) / r.seconds : 0.0;
  return r;
}

/// Median wall-clock of `reps` invocations of `fn` in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    samples.push_back(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Per-transform pass timings on `design` (median of `reps` runs). Every
/// pass computes its own analysis; the process-wide factored-form memo does
/// warm across reps and kinds, deterministically — same order every run —
/// so columns stay comparable PR over PR, but cold_ms is not
/// memo-from-scratch cost. Emits one JSON object.
std::string bench_transforms(const aig::Aig& design,
                             const std::string& design_name, int reps) {
  std::string json = "{\"design\": \"" + design_name + "\", \"ands\": " +
                     std::to_string(design.num_ands()) +
                     ", \"transforms\": [\n";
  bool first = true;
  for (opt::TransformKind kind : opt::paper_transform_set()) {
    const double cold_ms = median_ms(
        reps, [&] { (void)opt::apply_transform(design, kind); });
    char line[256];
    std::snprintf(line, sizeof line,
                  "  {\"transform\": \"%s\", \"cold_ms\": %.3f}",
                  opt::transform_name(kind).c_str(), cold_ms);
    if (!first) json += ",\n";
    json += line;
    first = false;
    std::printf("  %-14s cold %8.3f ms\n", opt::transform_name(kind).c_str(),
                cold_ms);
  }
  json += "\n]}";
  return json;
}

std::string bench_registry(const aig::Aig& design,
                           const std::string& design_name, unsigned m,
                           std::size_t num_flows, std::size_t threads,
                           std::uint64_t seed) {
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  specs.push_back(opt::spec_from_text("rewrite -K 3"));
  specs.push_back(opt::spec_from_text("restructure -D 12"));
  const auto registry =
      std::make_shared<const opt::TransformRegistry>(std::move(specs));

  const core::FlowSpace paper_space(m);
  const core::FlowSpace space(m, registry);
  util::Rng rng(seed);
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);

  core::EvaluatorConfig config;
  config.registry = registry;
  const RunResult engine = run(design, flows, config, threads);

  std::printf("extended registry (%zu specs, m=%u, L=%u):\n",
              registry->size(), m, space.length());
  std::printf("  space %s flows (paper: %s)  engine %.2fs  %.1f flows/s  "
              "skipped %zu of %zu passes\n",
              core::u128_to_string(space.size()).c_str(),
              core::u128_to_string(paper_space.size()).c_str(),
              engine.seconds, engine.flows_per_sec,
              engine.stats.transforms_skipped,
              engine.stats.transforms_applied +
                  engine.stats.transforms_skipped);

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\"design\": \"%s\", \"m\": %u, \"flows\": %zu, \"threads\": %zu,\n"
      " \"registry_specs\": %zu, \"registry_fingerprint\": \"%s\",\n"
      " \"flow_length\": %u, \"space_size\": \"%s\","
      " \"paper_space_size\": \"%s\",\n"
      " \"engine_seconds\": %.3f, \"engine_flows_per_sec\": %.2f,\n"
      " \"transforms_applied\": %zu, \"transforms_skipped\": %zu}",
      design_name.c_str(), m, num_flows, threads, registry->size(),
      opt::registry_fingerprint_hex(registry->fingerprint()).c_str(),
      space.length(), core::u128_to_string(space.size()).c_str(),
      core::u128_to_string(paper_space.size()).c_str(), engine.seconds,
      engine.flows_per_sec, engine.stats.transforms_applied,
      engine.stats.transforms_skipped);
  return json;
}

/// Prices telemetry: median batch time with metrics disabled vs enabled
/// (same evaluator config, fresh evaluator each run so cache state is
/// symmetric), QoR equality across the two, and the per-spec pass timings
/// sourced from the flowgen_transform_ms histograms the evaluator itself
/// filled — no second set of timers.
std::string bench_telemetry(const aig::Aig& design,
                            const std::string& design_name,
                            const std::vector<core::Flow>& flows,
                            const core::EvaluatorConfig& config,
                            std::size_t threads, int reps,
                            double* overhead_out) {
  const auto registry =
      config.registry ? config.registry : opt::TransformRegistry::paper();
  // One warmup (memo/allocator state), then alternating off/on reps so
  // drift hits both sides equally.
  telemetry::set_enabled(false);
  (void)run(design, flows, config, threads);
  std::vector<double> off_s, on_s;
  std::vector<map::QoR> off_qor, on_qor;
  telemetry::reset_all();
  for (int i = 0; i < reps; ++i) {
    telemetry::set_enabled(false);
    RunResult off = run(design, flows, config, threads);
    off_s.push_back(off.seconds);
    if (off_qor.empty()) off_qor = std::move(off.qor);
    telemetry::set_enabled(true);
    RunResult on = run(design, flows, config, threads);
    on_s.push_back(on.seconds);
    if (on_qor.empty()) on_qor = std::move(on.qor);
  }
  telemetry::set_enabled(true);
  std::sort(off_s.begin(), off_s.end());
  std::sort(on_s.begin(), on_s.end());
  const double off_med = off_s[off_s.size() / 2];
  const double on_med = on_s[on_s.size() / 2];
  const double overhead =
      off_med > 0 ? (on_med - off_med) / off_med * 100.0 : 0.0;
  if (overhead_out) *overhead_out = overhead;

  bool identical = off_qor.size() == on_qor.size();
  for (std::size_t i = 0; identical && i < off_qor.size(); ++i) {
    identical = off_qor[i].area_um2 == on_qor[i].area_um2 &&
                off_qor[i].delay_ps == on_qor[i].delay_ps &&
                off_qor[i].num_cells == on_qor[i].num_cells &&
                off_qor[i].num_inverters == on_qor[i].num_inverters;
  }

  std::printf("telemetry overhead: off %.3fs  on %.3fs  %+.2f%%  "
              "bit_identical=%s\n",
              off_med, on_med, overhead, identical ? "true" : "false");

  char head[512];
  std::snprintf(
      head, sizeof head,
      "{\"design\": \"%s\", \"flows\": %zu, \"threads\": %zu, \"reps\": %d,\n"
      " \"telemetry_off_seconds\": %.3f, \"telemetry_on_seconds\": %.3f,\n"
      " \"overhead_percent\": %.2f, \"bit_identical\": %s,\n"
      " \"specs\": [\n",
      design_name.c_str(), flows.size(), threads, reps, off_med, on_med,
      overhead, identical ? "true" : "false");
  std::string json = head;
  // Same (name, labels, bounds) as the evaluator's registration — the
  // registry hands back the very histograms the on-runs filled.
  const std::vector<double> fine_ms = telemetry::exp_buckets(0.005, 2.0, 18);
  for (std::size_t i = 0; i < registry->size(); ++i) {
    const std::string& spec = registry->name(static_cast<opt::StepId>(i));
    const telemetry::Histogram::Snapshot cold =
        telemetry::histogram("flowgen_transform_ms",
                             "Per-transform pass wall time (ms)", fine_ms,
                             {{"spec", spec}, {"analysis", "cold"}})
            .snapshot();
    char line[256];
    std::snprintf(line, sizeof line,
                  "  {\"spec\": \"%s\", \"cold_count\": %" PRIu64
                  ", \"cold_mean_ms\": %.4f}%s\n",
                  spec.c_str(), cold.count, cold.mean(),
                  i + 1 < registry->size() ? "," : "");
    json += line;
  }
  json += "]}";
  return json;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  const std::string design_name = cli.get("design", "alu16");
  const unsigned m = static_cast<unsigned>(cli.get_int("m", 2));
  const std::size_t num_flows =
      static_cast<std::size_t>(cli.get_int("flows", 1000));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads", 1));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const bool skip_naive = cli.get_bool("skip-naive", false);
  const std::string transforms_json = cli.get("transforms-json", "");
  const std::string registry_json = cli.get("registry-json", "");
  const int transform_reps = cli.get_int("transform-reps", 5);
  const std::string telemetry_json = cli.get("telemetry-json", "");
  const int overhead_reps =
      std::max(1, static_cast<int>(cli.get_int("overhead-reps", 3)));
  const double overhead_gate = [&] {
    const std::string g = cli.get("overhead-gate", "");
    return g.empty() ? -1.0 : std::atof(g.c_str());
  }();
  if (const std::string trace = cli.get("trace", ""); !trace.empty()) {
    telemetry::start_tracing(trace);
  }

  const aig::Aig design = designs::make_design(design_name);
  const core::FlowSpace space(m);
  util::Rng rng(seed);
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);

  std::printf("bench_evaluator: design=%s (|AND|=%zu) m=%u L=%u flows=%zu "
              "threads=%zu\n",
              design_name.c_str(), design.num_ands(), m, space.length(),
              num_flows, threads);

  // Per-transform pass trajectory — before the batch runs so the memo
  // state at measurement time is the same fixed sequence every invocation
  // (see bench_transforms on what "cold" means).
  std::string transforms;
  if (!transforms_json.empty()) {
    std::printf("per-transform pass timings (%s):\n", design_name.c_str());
    transforms = bench_transforms(design, design_name, transform_reps);
    if (std::FILE* f = std::fopen(transforms_json.c_str(), "w")) {
      std::fprintf(f, "%s\n", transforms.c_str());
      std::fclose(f);
    }
  }

  const core::EvaluatorConfig engine_cfg{};

  RunResult naive;
  if (!skip_naive) {
    naive = replay(design, flows, threads);
    std::printf("  naive : %.2fs  %.1f flows/s\n", naive.seconds,
                naive.flows_per_sec);
  }
  const RunResult engine = run(design, flows, engine_cfg, threads);
  std::printf("  engine: %.2fs  %.1f flows/s\n", engine.seconds,
              engine.flows_per_sec);

  bool identical = true;
  if (!skip_naive) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (naive.qor[i] != engine.qor[i]) {
        identical = false;
        std::printf("  MISMATCH at flow %zu\n", i);
        break;
      }
    }
  }

  const double speedup =
      skip_naive || engine.seconds <= 0 ? 0.0 : naive.seconds / engine.seconds;
  const auto& st = engine.stats;
  char json[2048];
  std::snprintf(
      json, sizeof json,
      "{\"design\": \"%s\", \"m\": %u, \"flows\": %zu, \"threads\": %zu,\n"
      " \"naive_seconds\": %.3f, \"engine_seconds\": %.3f,\n"
      " \"naive_flows_per_sec\": %.2f, \"engine_flows_per_sec\": %.2f,\n"
      " \"speedup\": %.2f, \"bit_identical\": %s,\n"
      " \"transforms_applied\": %zu, \"transforms_skipped\": %zu,\n"
      " \"mappings\": %zu}",
      design_name.c_str(), m, num_flows, threads, naive.seconds,
      engine.seconds, naive.flows_per_sec, engine.flows_per_sec, speedup,
      skip_naive ? "null" : (identical ? "true" : "false"),
      st.transforms_applied, st.transforms_skipped, st.mappings);
  std::printf("%s\n", json);

  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json);
      std::fclose(f);
    }
  }

  // Telemetry overhead A/B + per-spec histogram readback
  // (BENCH_telemetry_<design>.json).
  if (!telemetry_json.empty() || overhead_gate >= 0) {
    double overhead = 0.0;
    const std::string report = bench_telemetry(
        design, design_name, flows, engine_cfg, threads, overhead_reps,
        &overhead);
    std::printf("%s\n", report.c_str());
    if (!telemetry_json.empty()) {
      if (std::FILE* f = std::fopen(telemetry_json.c_str(), "w")) {
        std::fprintf(f, "%s\n", report.c_str());
        std::fclose(f);
      }
    }
    if (overhead_gate >= 0 && overhead > overhead_gate) {
      std::fprintf(stderr,
                   "bench_evaluator: telemetry overhead %.2f%% exceeds gate "
                   "%.2f%%\n",
                   overhead, overhead_gate);
      return 1;
    }
  }

  // Extended-registry scenario run (BENCH_registry_<design>.json).
  if (!registry_json.empty()) {
    const std::string registry_report = bench_registry(
        design, design_name, m, num_flows, threads, seed);
    std::printf("%s\n", registry_report.c_str());
    if (std::FILE* f = std::fopen(registry_json.c_str(), "w")) {
      std::fprintf(f, "%s\n", registry_report.c_str());
      std::fclose(f);
    }
  }
  return (!skip_naive && !identical) ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_evaluator: %s\n", e.what());
  return 1;
}
