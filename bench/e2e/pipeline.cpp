// pipeline_alu8: the paper's whole loop, FlowGenPipeline::run on alu:8
// (m = 4, L = 24). CNN training takes about half of a run, so the nn layer
// does most of its work here and none in any other workload. A phase solves
// one or more problems, each seeded by run_seed, and runs each problem a few
// times on fresh one-thread pipelines; a seed always selects the same
// angels, under tracing and at any thread count.

#include <cstdio>
#include <memory>

#include "core/pipeline.hpp"
#include "designs/registry.hpp"
#include "e2e.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"

namespace flowgen::e2e {

namespace {

constexpr const char* kDesign = "alu:8";
constexpr std::size_t kMinProblems = 1;
constexpr std::size_t kReps = 3;        // runs per problem, the fastest kept
constexpr double kRun_s = 4.0;          // one run() on the baseline host
constexpr std::size_t kSetups = 11;     // set-ups per run, median kept
constexpr std::size_t kSpotChecks = 8;  // replayed labels per problem

core::PipelineConfig pipeline_config(std::uint64_t seed, std::size_t threads) {
  core::PipelineConfig c;
  c.repetitions = 4;
  c.training_flows = 30;
  c.initial_labeled = 10;
  c.retrain_every = 10;
  c.sample_flows = 200;
  c.steps_per_round = 40;
  c.num_angel = c.num_devil = 5;
  c.classifier = small_classifier(0, seed);  // geometry set by the pipeline
  c.labeler.objective = core::Objective::kDelay;
  c.seed = seed;
  c.threads = threads;
  return c;
}

struct Run {
  double setup_s = 0.0;
  double run_s = 0.0;
  double peak_rss_mb = 0.0;
  double self_cpu_s = 0.0;
  std::vector<core::RoundStats> rounds;
  core::PipelineResult result;
  Page page;
};

/// The seed of problem `i` of a phase; problem 0 uses the workload seed.
std::uint64_t run_seed(std::uint64_t seed, std::size_t i) {
  return i == 0 ? seed : seed * 1000003 + i;
}

Run run_once(std::uint64_t seed, std::size_t threads) {
  telemetry::reset_all();
  reset_peak_rss();
  Run r;
  std::unique_ptr<core::FlowGenPipeline> pipeline;
  std::vector<double> setup;
  for (std::size_t i = 0; i < kSetups; ++i) {
    pipeline.reset();
    const Clock::time_point t0 = Clock::now();
    telemetry::Span span("bench", "setup");
    pipeline = std::make_unique<core::FlowGenPipeline>(
        designs::make_design(kDesign), pipeline_config(seed, threads));
    setup.push_back(seconds_since(t0));
  }
  r.setup_s = median(setup);
  pipeline->set_round_callback(
      [&r](const core::RoundStats& s) { r.rounds.push_back(s); });
  const double cpu0 = self_cpu_s();
  const Clock::time_point t1 = Clock::now();
  {
    telemetry::Span span("bench", "run");
    r.result = pipeline->run();
  }
  r.run_s = seconds_since(t1);
  r.self_cpu_s = self_cpu_s() - cpu0;
  r.peak_rss_mb = vm_hwm_mb();
  r.page = parse_page(telemetry::render_prometheus());
  return r;
}

std::string text(double v, const char* format) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

double mean_delay(const std::vector<map::QoR>& qor) {
  double sum = 0.0;
  for (const map::QoR& q : qor) sum += q.delay_ps;
  return qor.empty() ? 0.0 : sum / static_cast<double>(qor.size());
}

/// What two runs of one seed must agree on exactly.
std::vector<std::pair<std::string, std::string>> outcome(const Run& r) {
  std::uint32_t crc = 0;
  for (const core::Flow& f : r.result.angel_flows) {
    crc = util::crc32(f.steps, crc);
  }
  char angels[9];
  std::snprintf(angels, sizeof angels, "%08x", crc);
  return {{"labels_digest", qor_digest(r.result.labeled_qor)},
          {"angels_digest", angels},
          {"paper_accuracy", text(r.result.paper_accuracy, "%.6f")},
          {"angel_delay_ps", text(mean_delay(r.result.angel_qor), "%.3f")}};
}

/// Replay a few labeled and angel flows; the pipeline's labels must match.
void spot_check(const Run& r, Report& report) {
  std::vector<core::Flow> flows;
  std::vector<map::QoR> labels;
  for (const std::size_t i :
       first_sorted(r.result.labeled_flows, kSpotChecks)) {
    flows.push_back(r.result.labeled_flows[i]);
    labels.push_back(r.result.labeled_qor[i]);
  }
  const std::size_t angels =
      std::min<std::size_t>(2, r.result.angel_flows.size());
  for (std::size_t i = 0; i < angels; ++i) {
    flows.push_back(r.result.angel_flows[i]);
    labels.push_back(r.result.angel_qor[i]);
  }
  const std::vector<map::QoR> oracle =
      replay(designs::make_design(kDesign), flows, kThreads, nullptr);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (oracle[i] != labels[i]) {
      report.fail(1, "pipeline labeled " + flows[i].key() + " " +
                         labels[i].to_string() + ", replay gives " +
                         oracle[i].to_string());
    }
  }
}

/// `count` problems, each run `reps` times on a fresh pipeline. The run
/// that used the least CPU time stands for its problem (a shared host slows
/// a core for a second or two at a time), set-up time and peak RSS are
/// medians over every run, and every run of a problem must reach the same
/// outcome.
std::vector<Run> run_phase(const Options& options, std::size_t count,
                           std::size_t reps, std::size_t per_run,
                           Report& report) {
  std::vector<Run> runs;
  for (std::size_t i = 0; i < count; ++i) {
    Run best;
    std::vector<double> setup, rss;
    for (std::size_t r = 0; r < reps; ++r) {
      Run run = run_once(run_seed(options.seed, i), kSystemThreads);
      setup.push_back(run.setup_s);
      rss.push_back(run.peak_rss_mb);
      if (r > 0 && outcome(run) != outcome(best)) {
        report.fail(per_run, "pipeline outcome changed between runs of one "
                             "seed");
      }
      if (r == 0 || run.self_cpu_s < best.self_cpu_s) best = std::move(run);
    }
    best.setup_s = median(setup);
    best.peak_rss_mb = median(rss);
    runs.push_back(std::move(best));
  }
  return runs;
}

void pipeline_layers(const std::vector<Run>& untraced,
                     const std::vector<Run>& traced, Report& report) {
  std::vector<Page> pages;
  std::vector<double> run_s, untraced_run_s, self_cpu, round_s, label_s,
      train_s, probe_s;
  double cpu = 0.0, capacity = 0.0;
  for (const Run& r : traced) {
    pages.push_back(r.page);
    run_s.push_back(r.run_s);
    self_cpu.push_back(r.self_cpu_s);
    cpu += r.self_cpu_s;
    capacity += r.run_s * static_cast<double>(kSystemThreads);
    double label = 0.0, train = 0.0;
    for (const core::RoundStats& s : r.rounds) {
      round_s.push_back(s.synthesis_seconds);
      label += s.synthesis_seconds;
      train += s.train_seconds;
    }
    label_s.push_back(label);
    train_s.push_back(train);
    probe_s.push_back(r.run_s - label - train);
  }
  for (const Run& r : untraced) untraced_run_s.push_back(r.run_s);
  page_layers(pages, report);
  report.add_layer("evaluator.batch_s", median(round_s), "s");
  report.add_layer("evaluator.cpu_util", cpu / capacity, "ratio");
  report.add_layer("coordinator.cpu_s", median(self_cpu), "s");
  report.add_layer("worker.busy_frac", 0.0, "ratio");
  for (const char* name :
       {"coordinator.shards", "coordinator.requests_sent",
        "coordinator.flows_streamed", "coordinator.requeues",
        "coordinator.workers_lost"}) {
    report.add_layer(name, 0.0, "count");
  }
  report.add_layer("pipeline.label_s", median(label_s), "s");
  report.add_layer("pipeline.train_s", median(train_s), "s");
  report.add_layer("pipeline.probe_s", median(probe_s), "s");
  report.add_layer("trace.overhead_frac",
                   median(run_s) / median(untraced_run_s), "ratio");
}

}  // namespace

Report run_pipeline(const Options& options) {
  Report report;
  report.workload = "pipeline_alu8";
  const core::PipelineConfig config =
      pipeline_config(options.seed, kSystemThreads);
  const std::size_t per_run =
      config.training_flows + config.num_angel + config.num_devil;

  const std::vector<Run> untraced = run_phase(
      options, batches_for(options.seconds, kRun_s * kReps, kMinProblems),
      kReps, per_run, report);
  report.attempted += untraced.size() * kReps * per_run;
  const auto pool = static_cast<double>(config.sample_flows);
  std::vector<double> cpu, run_s, setup, rss;
  for (const Run& r : untraced) {
    cpu.push_back(r.self_cpu_s * 1e3 / pool);
    run_s.push_back(r.run_s);
    setup.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    spot_check(r, report);
  }
  report.add_e2e("cpu_ms_per_flow", median(cpu), "ms");
  report.add_e2e("setup_s", median(setup), "s");
  report.add_e2e("peak_rss_mb", median(rss), "MiB");
  report.add_extra("flows_per_s", pool / median(run_s), "flows/s");
  report.add_extra("time_to_angels_s", median(run_s), "s");
  report.add_extra("paper_accuracy", untraced.front().result.paper_accuracy,
                   "ratio");
  report.add_extra("angel_delay_ps",
                   mean_delay(untraced.front().result.angel_qor), "ps");
  for (const auto& [key, value] : outcome(untraced.front())) {
    report.add_exact(key, value);
  }
  // Run i of a phase must reproduce untraced run i exactly.
  const auto same_outcome = [&](const Run& r, std::size_t i, const char* what) {
    if (outcome(r) != outcome(untraced[i])) {
      report.fail(per_run, std::string("pipeline outcome changed ") + what);
    }
  };

  if (options.verify) {
    const Run parallel = run_once(options.seed, kThreads);
    report.attempted += per_run;
    same_outcome(parallel, 0, "between 1 thread and 4 threads");
  }

  if (options.trace) {
    start_trace(options);
    const std::vector<Run> traced =
        run_phase(options, untraced.size(), 1, per_run, report);
    report.attempted += traced.size() * per_run;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      same_outcome(traced[i], i, "under tracing");
    }
    pipeline_layers(untraced, traced, report);
    const aig::Aig design = designs::make_design(kDesign);
    const core::PipelineResult& result = traced.front().result;
    probe_replay(design, result.labeled_flows, &result.labeled_qor, report);
    const ProbeInput in{&design, &result.labeled_flows, &result.labeled_qor,
                        "", 0};
    probe_store(options, in, report);
    probe_wire(in, report);
    probe_classifier(options, in, report);
    telemetry::stop_tracing();
  }
  return report;
}

}  // namespace flowgen::e2e
