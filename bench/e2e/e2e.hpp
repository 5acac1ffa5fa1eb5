#pragma once
// bench_e2e: one end-to-end benchmark over the whole labeling system. Five
// closed-loop workloads (one client submitting whole batches) drive the
// public API of every layer; each run prints the end-to-end metrics with
// their units after checking every label it can against an oracle, and a
// traced run adds per-layer metrics read from the layers' own stats structs
// and metrics pages plus timed calls into their public functions. Nothing
// under src/ is instrumented for this benchmark: every number here is taken
// from the outside.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "core/classifier.hpp"
#include "core/flow.hpp"
#include "core/qor_store.hpp"
#include "map/qor.hpp"

namespace flowgen::e2e {

using Clock = std::chrono::steady_clock;

/// The load budget: at most this many busy threads or processes, sized for
/// the 4-core host the baseline was recorded on. Untimed checks use all of
/// them; a fleet is 3 workers plus the coordinator.
inline constexpr std::size_t kThreads = 4;
/// Threads of an in-process system under test (evaluator, pipeline). One
/// thread keeps a batch's CPU time free of lock contention and of the
/// scheduling of sibling threads on a shared host, so it repeats.
inline constexpr std::size_t kSystemThreads = 1;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< sizes each phase; see batches_for
  bool trace = false;
  std::string trace_file;  ///< Chrome trace of the traced phase
  std::string json_out;    ///< append one JSON line per workload
  std::string scratch = "build-e2e/scratch";  ///< stores, fixture, traces
  std::string git_sha = "unknown";
  bool verify = false;  ///< pipeline_alu8: rerun at kThreads, compare
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload reports: metrics, the correctness ledger, and
/// the exact values (digests, selections) two runs of one seed must share.
struct Report {
  std::string workload;
  std::vector<Metric> e2e;     ///< BENCHMARK.json end_to_end, every workload
  std::vector<Metric> extra;   ///< untraced numbers of this workload only
  std::vector<Metric> layers;  ///< filled by traced runs only
  std::size_t attempted = 0;   ///< flows requested
  std::size_t failed = 0;      ///< flows unlabeled or labeled wrong
  std::vector<std::string> failures;  ///< first few, for humans
  std::vector<std::pair<std::string, std::string>> exact;

  void fail(std::size_t flows, const std::string& why);
  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_extra(const std::string& name, double value,
                 const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value,
                 const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void add_exact(const std::string& key, const std::string& value) {
    exact.emplace_back(key, value);
  }
};

// ------------------------------------------------------------ measuring --

double seconds_since(Clock::time_point t0);
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// CPU seconds (user + system) of this process so far, from getrusage.
double self_cpu_s();
/// CPU seconds of a live child, from /proc/<pid>/stat (clock ticks).
double child_cpu_s(pid_t pid);
/// VmHWM / VmRSS in MiB of `pid` (0 = this process), from /proc.
double vm_hwm_mb(pid_t pid = 0);
double vm_rss_mb();
/// Restart this process's VmHWM at its current RSS (/proc/self/clear_refs),
/// so each closed-loop batch reports its own peak.
void reset_peak_rss();

/// Closed-loop batches per phase: as many as fill `seconds` at `nominal_s`
/// each on the 4-core baseline host, and at least `minimum`. A count, not a
/// timer, so one seed always does the same work.
std::size_t batches_for(double seconds, double nominal_s, std::size_t minimum);

/// Open options.trace_file (appending: one file collects every workload).
void start_trace(const Options& options);

/// Prometheus text page as sample key ("name{labels}") -> value.
using Page = std::map<std::string, double>;
Page parse_page(const std::string& text);
void add_page(Page& into, const Page& page);
double page_value(const Page& page, const std::string& key);
/// _sum / _count of one histogram series; 0 when it has no samples.
double page_mean(const Page& page, const std::string& name,
                 const std::string& labels);

// ------------------------------------------------------------ workloads --

/// A store in `dir` appending to `<writer>.qorlog`.
core::QorStoreConfig store_config(const std::string& dir,
                                  const std::string& writer);

/// `count` distinct m-repetition flows of the paper registry, batch `k` of
/// the seed's stream: the same (seed, k, m, count) always gives the same
/// flows, and the system under test receives only these.
std::vector<core::Flow> make_batch(std::uint64_t seed, std::size_t k,
                                   unsigned m, std::size_t count);

/// CRC-32 over the wire records of `qor`, in order, as 8 hex digits.
std::string qor_digest(const std::vector<map::QoR>& qor);

/// Indices of the `count` lexicographically first flows.
std::vector<std::size_t> first_sorted(const std::vector<core::Flow>& flows,
                                      std::size_t count);

/// Step-by-step replay of `flows` through opt::apply_spec and
/// map::evaluate_qor from the design: the oracle the engine must match bit
/// for bit. `per_spec_ms` (when given) collects the time of every pass by
/// spec name and `map_ms` every mapping.
struct ReplayTimes {
  std::map<std::string, std::vector<double>> per_spec_ms;
  std::vector<double> map_ms;
};
std::vector<map::QoR> replay(const aig::Aig& design,
                             const std::vector<core::Flow>& flows,
                             std::size_t threads, ReplayTimes* times);

/// Metric-name form of a spec ("rewrite -z" -> "rewrite_z").
std::string spec_key(const std::string& spec);

// --------------------------------------------------------------- probes --
//
// Traced runs time each layer's public functions on the workload's own
// labeled flows, whether or not the workload's batch exercises that layer:
// a recall workload still reports what its flows cost to synthesize.

/// The pipeline workload's classifier (16 conv / 8 local / 32 dense) for
/// flows of `flow_length` paper-registry steps.
core::ClassifierConfig small_classifier(std::size_t flow_length,
                                        std::uint64_t seed);

struct ProbeInput {
  const aig::Aig* design = nullptr;
  const std::vector<core::Flow>* flows = nullptr;  ///< labeled flows
  const std::vector<map::QoR>* qor = nullptr;      ///< their labels
  /// The workload's own store, whose first `segment_records` flows are
  /// segment-resident and the rest log-resident; empty = build a scratch
  /// store of the labels in the same 3:1 shape.
  std::string store_dir;
  std::size_t segment_records = 0;
};

/// Engine, mapping, flow-cache, evaluator and store metrics read from the
/// system's own metrics pages, one page per closed-loop batch. Engine and
/// mapping latencies are reported only when the batches synthesized.
void page_layers(const std::vector<Page>& pages, Report& report);

/// opt.replay_ms.<spec> and map.replay_ms over the first 32 flows in
/// lexicographic order, one thread; each replayed QoR must equal
/// `engine[i]` (the workload's label for flows[i]) when given.
void probe_replay(const aig::Aig& design, const std::vector<core::Flow>& flows,
                  const std::vector<map::QoR>* engine, Report& report);
void probe_store(const Options& options, const ProbeInput& in, Report& report);
void probe_wire(const ProbeInput& in, Report& report);
void probe_classifier(const Options& options, const ProbeInput& in,
                      Report& report);

Report run_label(const Options& options);
Report run_fleet(const Options& options);
Report run_recall_store(const Options& options);
Report run_recall_fleet(const Options& options);
Report run_pipeline(const Options& options);

}  // namespace flowgen::e2e
