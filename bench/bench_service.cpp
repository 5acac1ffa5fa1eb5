// Distributed-labeling benchmark: the same 1000-flow m=2 batch the
// evaluator bench labels, pushed through the evaluation service at
// increasing loopback worker counts, against the in-process engine as the
// reference. Emits machine-readable JSON (BENCH_service_<design>.json) so
// the perf trajectory captures distributed scaling alongside single-process
// numbers. Results are cross-checked bit-identical against in-process
// evaluation — a wrong answer fails the bench, not just the speedup.
//
// Note: worker processes only help wall-clock when the host has cores for
// them (each loopback worker is a full synthesis process). On a 1-core
// host the curve is flat and the bench says so in the JSON (host_cores).
//
// --stream-bench switches to the streaming legs: the same batch through a
// fresh fleet with per-flow EvalResult streaming, plus a fault-injection
// run that SIGKILLs a worker mid-shard to price a requeue (only the
// undelivered suffix reruns). Emits BENCH_stream_<design>.json with the
// shard latency distribution per leg; any bit mismatch fails the bench.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "service/loopback.hpp"
#include "service/remote_evaluator.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

using namespace flowgen;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Run {
  std::size_t workers = 0;  ///< 0 = in-process
  double seconds = 0.0;
  double flows_per_sec = 0.0;
  bool identical = true;
  std::size_t shards = 0;
  std::size_t requeues = 0;
};

double percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

struct StreamRun {
  std::string mode;
  double seconds = 0.0;
  double flows_per_sec = 0.0;
  bool identical = true;
  std::size_t shards_done = 0;
  std::size_t flows_streamed = 0;
  std::size_t flows_dispatched = 0;
  std::size_t flows_rescued = 0;
  std::size_t flows_requeued = 0;
  std::size_t workers_lost = 0;
  double shard_ms_mean = 0.0;
  double shard_ms_p50 = 0.0;
  double shard_ms_p90 = 0.0;
  double shard_ms_max = 0.0;
};

// One leg: a fresh loopback fleet, one timed batch, bit-checked
// against the oracle, with the shard latency distribution pulled from the
// coordinator's bounded sample window. `kill_mid_shard` prices a requeue:
// SIGKILL worker 0 after its 10th streamed flow result.
StreamRun stream_leg(const std::string& mode, const std::string& design_name,
                     std::size_t workers, bool kill_mid_shard,
                     const std::vector<core::Flow>& flows,
                     const std::vector<map::QoR>& oracle) {
  service::WorkerOptions options;
  options.design_id = design_name;
  service::LoopbackCluster cluster(workers, options);
  service::CoordinatorConfig config;
  config.shards_per_worker = 8;
  service::EvalCoordinator coordinator(cluster.take_workers(), design_name,
                                       config);
  std::size_t from_worker_zero = 0;
  if (kill_mid_shard) {
    coordinator.set_progress_observer([&](std::size_t w) {
      if (w == 0 && ++from_worker_zero == 10) cluster.kill_worker(0);
    });
  }

  StreamRun r;
  r.mode = mode;
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<map::QoR> qor = coordinator.evaluate_many(flows);
  r.seconds = seconds_since(t0);
  r.flows_per_sec = static_cast<double>(flows.size()) / r.seconds;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (qor[i] != oracle[i]) {
      r.identical = false;
      std::printf("  MISMATCH at flow %zu in %s run\n", i, mode.c_str());
      break;
    }
  }
  const service::CoordinatorStats stats = coordinator.stats();
  r.shards_done = stats.shards_done;
  r.flows_streamed = stats.flows_streamed;
  r.flows_dispatched = stats.flows_dispatched;
  r.flows_rescued = stats.flows_rescued;
  r.flows_requeued = stats.flows_requeued;
  r.workers_lost = stats.workers_lost;
  std::vector<double> ms = stats.shard_ms;
  if (!ms.empty()) {
    double sum = 0.0;
    for (const double v : ms) sum += v;
    r.shard_ms_mean = sum / static_cast<double>(ms.size());
    std::sort(ms.begin(), ms.end());
    r.shard_ms_p50 = percentile(ms, 0.5);
    r.shard_ms_p90 = percentile(ms, 0.9);
    r.shard_ms_max = ms.back();
  }
  std::printf(
      "  %-16s: %.2fs  %.1f flows/s  shard_ms p50/p90/max %.0f/%.0f/%.0f  "
      "rescued=%zu requeued=%zu  (%s)\n",
      mode.c_str(), r.seconds, r.flows_per_sec, r.shard_ms_p50, r.shard_ms_p90,
      r.shard_ms_max, r.flows_rescued, r.flows_requeued,
      r.identical ? "bit-identical" : "MISMATCH");
  return r;
}

// Prices failpoints the way bench_evaluator prices telemetry: median batch
// time through a loopback fleet with no points armed vs an armed-but-idle
// keyed point on the hottest site (worker.eval.flow with a key no flow
// matches — the *worst* idle case: the full registry lookup on every flow,
// not just the relaxed armed-counter load a quiet process pays). Armed
// before each fleet's forks so the workers carry it, exactly like a chaos
// run. --overhead-gate PCT fails the bench when the armed-idle cost
// exceeds PCT; any QoR mismatch fails it regardless.
int run_failpoint_overhead(const util::Cli& cli, double gate) {
  const std::string design_name = cli.get("design", "alu16");
  const unsigned m = static_cast<unsigned>(cli.get_int("m", 2));
  const std::size_t num_flows =
      static_cast<std::size_t>(cli.get_int("flows", 1000));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::size_t workers =
      static_cast<std::size_t>(cli.get_int("overhead-workers", 2));
  const int reps = std::max(1, static_cast<int>(cli.get_int("overhead-reps", 3)));

  const core::FlowSpace space(m);
  util::Rng rng(seed);
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);
  core::SynthesisEvaluator in_process(designs::make_design(design_name));
  const std::vector<map::QoR> oracle = in_process.evaluate_many(flows);

  std::printf(
      "bench_service failpoint overhead: design=%s m=%u flows=%zu "
      "workers=%zu reps=%d\n",
      design_name.c_str(), m, num_flows, workers, reps);

  bool identical = true;
  const auto leg = [&](bool armed) {
    if (armed) {
      // 64 hex chars of no flow's steps: armed, never fires.
      util::failpoint::configure(
          "worker.eval.flow",
          "error(never)@key=" + std::string(64, 'f'));
    }
    auto remote = service::RemoteEvaluator::loopback(design_name, workers);
    util::failpoint::clear_all();
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<map::QoR> qor = remote->evaluate_many(flows);
    const double s = seconds_since(t0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (qor[i] != oracle[i]) {
        identical = false;
        std::printf("  MISMATCH at flow %zu (%s)\n", i,
                    armed ? "armed" : "off");
        break;
      }
    }
    return s;
  };

  // One warmup, then alternating off/armed so drift hits both sides.
  (void)leg(false);
  std::vector<double> off_s, on_s;
  for (int i = 0; i < reps; ++i) {
    off_s.push_back(leg(false));
    on_s.push_back(leg(true));
  }
  std::sort(off_s.begin(), off_s.end());
  std::sort(on_s.begin(), on_s.end());
  const double off_med = off_s[off_s.size() / 2];
  const double on_med = on_s[on_s.size() / 2];
  const double overhead =
      off_med > 0 ? (on_med - off_med) / off_med * 100.0 : 0.0;
  std::printf("failpoint overhead: off %.3fs  armed-idle %.3fs  %+.2f%%  "
              "bit_identical=%s\n",
              off_med, on_med, overhead, identical ? "true" : "false");

  const std::string json_path =
      cli.get("json", "BENCH_failpoint_" + design_name + ".json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"design\": \"%s\", \"flows\": %zu, \"workers\": %zu, "
                   "\"reps\": %d,\n \"off_seconds\": %.3f, "
                   "\"armed_idle_seconds\": %.3f,\n \"overhead_percent\": "
                   "%.2f, \"bit_identical\": %s}\n",
                   design_name.c_str(), num_flows, workers, reps, off_med,
                   on_med, overhead, identical ? "true" : "false");
      std::fclose(f);
    }
  }
  if (!identical) return 1;
  if (gate >= 0 && overhead > gate) {
    std::fprintf(stderr,
                 "bench_service: armed-idle failpoint overhead %.2f%% "
                 "exceeds gate %.2f%%\n",
                 overhead, gate);
    return 1;
  }
  return 0;
}

int run_stream_bench(const util::Cli& cli) {
  const std::string design_name = cli.get("design", "alu16");
  const unsigned m = static_cast<unsigned>(cli.get_int("m", 2));
  const std::size_t num_flows =
      static_cast<std::size_t>(cli.get_int("flows", 1000));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::size_t workers =
      static_cast<std::size_t>(cli.get_int("stream-workers", 2));

  const core::FlowSpace space(m);
  util::Rng rng(seed);
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);

  std::printf(
      "bench_service --stream-bench: design=%s m=%u flows=%zu workers=%zu "
      "host_cores=%u\n",
      design_name.c_str(), m, num_flows, workers,
      std::thread::hardware_concurrency());

  core::SynthesisEvaluator in_process(designs::make_design(design_name));
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<map::QoR> oracle = in_process.evaluate_many(flows);
  const double in_process_seconds = seconds_since(t0);
  std::printf("  in-process      : %.2fs  %.1f flows/s\n", in_process_seconds,
              static_cast<double>(num_flows) / in_process_seconds);

  std::vector<StreamRun> runs;
  runs.push_back(stream_leg("streamed", design_name, workers, /*kill=*/false,
                            flows, oracle));
  runs.push_back(stream_leg("streamed_requeue", design_name, workers,
                            /*kill=*/true, flows, oracle));

  std::string json =
      "{\"design\": \"" + design_name + "\", \"m\": " + std::to_string(m) +
      ", \"flows\": " + std::to_string(num_flows) + ", \"workers\": " +
      std::to_string(workers) + ",\n \"host_cores\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n \"in_process_seconds\": " + std::to_string(in_process_seconds) +
      ",\n \"runs\": [";
  bool all_identical = true;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const StreamRun& r = runs[i];
    all_identical = all_identical && r.identical;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s\n  {\"mode\": \"%s\", \"seconds\": %.3f, \"flows_per_sec\": %.2f, "
        "\"bit_identical\": %s, \"shards_done\": %zu, \"flows_streamed\": %zu, "
        "\"flows_dispatched\": %zu, \"flows_rescued\": %zu, "
        "\"flows_requeued\": %zu, \"workers_lost\": %zu,\n   \"shard_ms\": "
        "{\"mean\": %.1f, \"p50\": %.1f, \"p90\": %.1f, \"max\": %.1f}}",
        i ? "," : "", r.mode.c_str(), r.seconds, r.flows_per_sec,
        r.identical ? "true" : "false", r.shards_done, r.flows_streamed,
        r.flows_dispatched, r.flows_rescued, r.flows_requeued, r.workers_lost,
        r.shard_ms_mean, r.shard_ms_p50, r.shard_ms_p90, r.shard_ms_max);
    json += buf;
  }
  json += "\n]}";
  std::printf("%s\n", json.c_str());

  const std::string json_path =
      cli.get("json", "BENCH_stream_" + design_name + ".json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (cli.get_bool("stream-bench", false)) return run_stream_bench(cli);
  if (const std::string g = cli.get("overhead-gate", "");
      !g.empty() || cli.get_bool("failpoint-overhead", false)) {
    return run_failpoint_overhead(cli, g.empty() ? -1.0 : std::atof(g.c_str()));
  }
  const std::string design_name = cli.get("design", "alu16");
  const unsigned m = static_cast<unsigned>(cli.get_int("m", 2));
  const std::size_t num_flows =
      static_cast<std::size_t>(cli.get_int("flows", 1000));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::size_t max_workers =
      static_cast<std::size_t>(cli.get_int("max-workers", 8));
  // --ship-netlist assembles each fleet via protocol v2 LoadDesign (the
  // off-registry path) instead of a registry id in Hello — same QoR bits,
  // so the oracle check below also pins the serialization round-trip.
  const bool ship_netlist = cli.get_bool("ship-netlist", false);

  const core::FlowSpace space(m);
  util::Rng rng(seed);
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);

  std::printf("bench_service: design=%s m=%u flows=%zu host_cores=%u\n",
              design_name.c_str(), m, num_flows,
              std::thread::hardware_concurrency());

  // In-process reference (single thread) — also the bit-identity oracle.
  core::SynthesisEvaluator in_process(designs::make_design(design_name));
  Run reference;
  {
    const auto t0 = std::chrono::steady_clock::now();
    const auto qor = in_process.evaluate_many(flows);
    reference.seconds = seconds_since(t0);
    reference.flows_per_sec =
        static_cast<double>(num_flows) / reference.seconds;
    std::printf("  in-process      : %.2fs  %.1f flows/s\n",
                reference.seconds, reference.flows_per_sec);
  }
  const std::vector<map::QoR> oracle = in_process.evaluate_many(flows);

  std::vector<Run> runs;
  for (std::size_t workers = 1; workers <= max_workers; workers *= 2) {
    auto remote =
        ship_netlist
            ? service::RemoteEvaluator::loopback_netlist(in_process.design(),
                                                         workers)
            : service::RemoteEvaluator::loopback(design_name, workers);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<map::QoR> qor = remote->evaluate_many(flows);
    Run r;
    r.workers = workers;
    r.seconds = seconds_since(t0);
    r.flows_per_sec = static_cast<double>(num_flows) / r.seconds;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (qor[i] != oracle[i]) {
        r.identical = false;
        std::printf("  MISMATCH at flow %zu with %zu workers\n", i, workers);
        break;
      }
    }
    const auto stats = remote->stats();
    r.shards = stats.shards;
    r.requeues = stats.requeues;
    std::printf("  %zu worker(s)%s    : %.2fs  %.1f flows/s  (%s)\n", workers,
                workers >= 10 ? "" : " ", r.seconds, r.flows_per_sec,
                r.identical ? "bit-identical" : "MISMATCH");
    runs.push_back(r);
  }

  std::string json = "{\"design\": \"" + design_name + "\", \"m\": " +
                     std::to_string(m) + ", \"flows\": " +
                     std::to_string(num_flows) + ",\n \"host_cores\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\n \"in_process_seconds\": " +
                     std::to_string(reference.seconds) + ",\n \"runs\": [";
  bool all_identical = true;
  const double single_worker_seconds = runs.empty() ? 0.0 : runs[0].seconds;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    all_identical = all_identical && r.identical;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n  {\"workers\": %zu, \"seconds\": %.3f, "
                  "\"flows_per_sec\": %.2f, \"speedup_vs_one_worker\": %.2f, "
                  "\"bit_identical\": %s, \"shards\": %zu, \"requeues\": %zu}",
                  i ? "," : "", r.workers, r.seconds, r.flows_per_sec,
                  r.seconds > 0 ? single_worker_seconds / r.seconds : 0.0,
                  r.identical ? "true" : "false", r.shards, r.requeues);
    json += buf;
  }
  json += "\n]}";
  std::printf("%s\n", json.c_str());

  const std::string json_path =
      cli.get("json", "BENCH_service_" + design_name + ".json");
  if (!json_path.empty()) {
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  return all_identical ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_service: %s\n", e.what());
  return 1;
}
