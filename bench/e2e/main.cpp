// bench_e2e — the repository's end-to-end benchmark; bench/e2e/README.md
// documents the workloads, metrics and how to compare two commits.
//
//   bench_e2e [--workload NAME|all] [--seed N] [--seconds S]
//             [--trace 0|1|FILE] [--json OUT] [--verify]
//             [--scratch DIR] [--git-sha SHA]
//
// Prints one `workload metric value unit` line per metric, then one JSON
// object per workload: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics, or with --trace the per-layer metrics every workload
// shares. Exits 1 when any label is wrong or missing, 2 on bad arguments.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "util/log.hpp"

namespace {

using namespace flowgen::e2e;
namespace fs = std::filesystem;

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"label_alu16", run_label},     {"fleet_alu16", run_fleet},
    {"recall_store", run_recall_store}, {"recall_fleet", run_recall_fleet},
    {"pipeline_alu8", run_pipeline},
};

/// BENCHMARK.json's per_layer list: the layer metrics every workload
/// measures. Workload-specific ones (engine latencies, fleet set-up and
/// shard times, pipeline phases) are printed and kept in --json records.
const char* const kSharedLayers[] = {
    "opt.replay_ms.balance",
    "opt.replay_ms.restructure",
    "opt.replay_ms.rewrite",
    "opt.replay_ms.refactor",
    "opt.replay_ms.rewrite_z",
    "opt.replay_ms.refactor_z",
    "opt.passes_applied",
    "opt.passes_skipped",
    "map.replay_ms",
    "map.mappings",
    "map.mappings_deduped",
    "flow_cache.hit_rate",
    "flow_cache.steps_saved",
    "flow_cache.evictions",
    "flow_cache.analysis_evictions",
    "flow_cache.bytes",
    "flow_cache.analysis_bytes",
    "evaluator.batch_s",
    "evaluator.evaluations",
    "evaluator.cpu_util",
    "store.attach_s",
    "store.attach_rss_mb",
    "store.lookup_ns.segment",
    "store.lookup_ns.log",
    "store.append_us",
    "store.lookups",
    "store.hits",
    "store.appends",
    "store.index_kicks",
    "store.index_rehashes",
    "wire.encode_ns.eval_result",
    "wire.decode_ns.eval_result",
    "wire.bytes_per_flow",
    "coordinator.cpu_s",
    "worker.busy_frac",
    "coordinator.shards",
    "coordinator.requests_sent",
    "coordinator.flows_streamed",
    "coordinator.requeues",
    "coordinator.workers_lost",
    "classifier.train_step_ms",
    "classifier.predict_us_per_flow",
    "trace.overhead_frac",
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1|FILE]\n"
               "                 [--json OUT] [--verify] [--scratch DIR] "
               "[--git-sha SHA]\n"
               "workloads: label_alu16 fleet_alu16 recall_store recall_fleet "
               "pipeline_alu8\n",
               error.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--verify") {
      o.verify = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        if (!(o.seconds > 0 && o.seconds <= 3600)) {
          usage("--seconds out of range");
        }
      } else if (flag == "--trace") {
        // 0/1 switch tracing; anything else names the trace file.
        o.trace = value != "0";
        if (value != "0" && value != "1") o.trace_file = value;
      } else if (flag == "--json") {
        o.json_out = value;
      } else if (flag == "--scratch") {
        o.scratch = value;
      } else if (flag == "--git-sha") {
        o.git_sha = value;
      } else {
        usage("unknown flag " + flag);
      }
      if (used && used != value.size()) usage("bad value for " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (o.workload != "all") {
    bool known = false;
    for (const Workload& w : kWorkloads) known = known || o.workload == w.name;
    if (!known) usage("unknown workload " + o.workload);
  }
  if (o.trace && o.trace_file.empty()) {
    o.trace_file = o.scratch + "/trace-" + o.workload + ".json";
  }
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::string metric_json(const Metric& m) {
  return quoted(m.name) + ": {\"value\": " + number(m.value) +
         ", \"unit\": " + quoted(m.unit) + "}";
}

const Metric& find_layer(const Report& r, const std::string& name) {
  for (const Metric& m : r.layers) {
    if (m.name == name) return m;
  }
  throw std::logic_error(r.workload + " did not measure " + name);
}

/// The result line: end-to-end metrics, or the shared per-layer metrics
/// when traced.
std::string result_line(const Report& r, bool traced) {
  std::string metrics;
  const auto add = [&](const Metric& m) {
    metrics += (metrics.empty() ? "" : ", ") + metric_json(m);
  };
  if (traced) {
    for (const char* name : kSharedLayers) add(find_layer(r, name));
  } else {
    for (const Metric& m : r.e2e) add(m);
  }
  return std::string("{\"correct\": ") +
         (r.failed == 0 && r.attempted > 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = __VERSION__;
#endif

/// Everything the run measured, for compare.py and the baseline file.
std::string record_line(const Options& o, const Report& r) {
  std::string metrics, exact;
  for (const auto* list : {&r.e2e, &r.extra, &r.layers}) {
    for (const Metric& m : *list) {
      metrics += (metrics.empty() ? "" : ", ") + metric_json(m);
    }
  }
  for (const auto& [key, value] : r.exact) {
    exact += (exact.empty() ? "" : ", ") + quoted(key) + ": " + quoted(value);
  }
  return "{\"workload\": " + quoted(r.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + number(o.seconds) +
         ", \"traced\": " + (o.trace ? "true" : "false") +
         ", \"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + quoted(kCompiler) +
         ", \"build_type\": " + quoted(E2E_BUILD_TYPE) +
         ", \"git_sha\": " + quoted(o.git_sha) +
         ", \"correct\": " + (r.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {" +
         metrics + "}, \"exact\": {" + exact + "}}";
}

/// Runs one workload, prints its lines and result, and returns its report.
Report run_workload(const Options& o, const Workload& w) {
  Options mine = o;
  mine.workload = w.name;
  Report r = w.run(mine);
  for (const auto* list : {&r.e2e, &r.extra, &r.layers}) {
    for (const Metric& m : *list) {
      std::printf("%s %s %.17g %s\n", w.name, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& [key, value] : r.exact) {
    std::printf("%s %s %s exact\n", w.name, key.c_str(), value.c_str());
  }
  for (const std::string& why : r.failures) {
    std::fprintf(stderr, "bench_e2e: %s: FAILED: %s\n", w.name, why.c_str());
  }
  if (!o.json_out.empty()) {
    std::ofstream(o.json_out, std::ios::app) << record_line(o, r) << '\n';
  }
  std::printf("%s\n", result_line(r, o.trace).c_str());
  std::fflush(stdout);
  return r;
}

/// --workload all: every workload in its own child process, so each one's
/// peak RSS and CPU are its own; label_alu16 and fleet_alu16 must then
/// agree on the digest of their first batch.
int run_all(const Options& o) {
  std::map<std::string, std::string> digests;
  std::size_t attempted = 0, failed = 0;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      int code = 1;
      try {
        const Report r = run_workload(o, w);
        std::string digest = "-";
        for (const auto& [key, value] : r.exact) {
          if (key == "qor_digest") digest = value;
        }
        const std::string line = std::to_string(r.attempted) + " " +
                                 std::to_string(r.failed) + " " + digest;
        code = ::write(fds[1], line.data(), line.size()) ==
                       static_cast<ssize_t>(line.size()) && r.failed == 0
                   ? 0
                   : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e: %s: %s\n", w.name, e.what());
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    ::close(fds[1]);
    std::string line;
    char buf[256];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
      line.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    std::size_t a = 0, f = 0;
    char digest[64] = "-";
    if (std::sscanf(line.c_str(), "%zu %zu %63s", &a, &f, digest) == 3) {
      attempted += a;
      failed += f;
      digests[w.name] = digest;
    } else {
      ok = false;
    }
  }
  if (digests.count("label_alu16") && digests.count("fleet_alu16") &&
      digests["label_alu16"] != digests["fleet_alu16"]) {
    std::fprintf(stderr,
                 "bench_e2e: FAILED: label_alu16 digest %s != fleet_alu16 "
                 "digest %s\n",
                 digests["label_alu16"].c_str(),
                 digests["fleet_alu16"].c_str());
    ok = false;
  }
  std::printf("all qor_digest_match %s exact\n", ok ? "yes" : "no");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {}}\n",
              ok && failed == 0 ? "true" : "false", attempted, failed);
  return ok && failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options options = parse(argc, argv);
  flowgen::util::set_log_level(flowgen::util::LogLevel::kWarn);
  fs::create_directories(options.scratch);
  if (options.trace) fs::remove(options.trace_file);
  if (options.workload == "all") return run_all(options);
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      return run_workload(options, w).failed == 0 ? 0 : 1;
    }
  }
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_e2e: %s\n", e.what());
  return 1;
}
