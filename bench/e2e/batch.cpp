// The four batch workloads. Each repetition sets up a fresh system (an
// in-process SynthesisEvaluator, or a loopback fleet behind an
// EvalCoordinator), submits one whole batch, checks it, and tears the
// system down. Every batch runs a few times and its fastest repetition
// counts; a workload runs as many batches as fill the run's seconds on the
// baseline host.
//
//   label_alu16   in-process labeling: opt, map and the prefix cache work,
//                 the store only appends.
//   fleet_alu16   the same batches through 3 worker processes: prices the
//                 service layer and the prefix sharing lost at shards.
//   recall_store  10^6 labels already in a store (3/4 in a segment, 1/4 in
//                 a log): zero synthesis, store lookups are the batch.
//   recall_fleet  the same fixture behind 3 workers: every flow is a store
//                 hit that still crosses the wire.

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>

#include "core/evaluator.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "e2e.hpp"
#include "service/loopback.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace flowgen::e2e {

namespace fs = std::filesystem;

namespace {

constexpr const char* kDesign = "alu16";
constexpr unsigned kRepetitions = 2;         // m = 2, L = 12
constexpr std::size_t kLabelFlows = 25;      // per batch
constexpr std::size_t kFleetWorkers = 3;     // + the coordinator loop = 4
constexpr std::size_t kRecallFlows = 1000000;
constexpr std::size_t kRecallSegment = 750000;
constexpr std::size_t kSpotChecks = 4;       // replayed flows per batch
constexpr std::size_t kMinBatches = 2;       // distinct batches of flows
// Repetitions per batch, the fastest kept.
constexpr std::size_t kReps = 3;
// Wall time of one repetition (set-up, batch, checks, teardown) on the
// baseline host, which sizes each run to its --seconds.
constexpr double kLabelIteration_s = 2.0;
constexpr double kFleetIteration_s = 1.0;
constexpr double kRecallIteration_s = 4.0;
// Set-ups per batch, median kept: a millisecond set-up needs many samples,
// a half-second store attach fewer.
constexpr std::size_t kLabelSetups = 21;
constexpr std::size_t kFleetSetups = 5;
constexpr std::size_t kRecallSetups = 1;

/// One closed-loop batch on a freshly set-up system.
struct Iteration {
  double cpu_s() const { return self_cpu_s + worker_cpu_s; }

  double setup_s = 0.0;
  double batch_s = 0.0;
  double peak_rss_mb = 0.0;   ///< bench VmHWM + every worker's, pre-teardown
  double self_cpu_s = 0.0;    ///< bench process, during the batch
  double worker_cpu_s = 0.0;  ///< all workers, during the batch
  double fork_s = 0.0;
  double handshake_s = 0.0;
  double straggler_s = 0.0;   ///< spread of the workers' last deliveries
  std::size_t workers = 0;
  Page page;                  ///< the system's metrics page after the batch
  service::CoordinatorStats coordinator;
};

/// What a workload checks and feeds to the probes, across iterations.
struct Ledger {
  std::vector<core::Flow> spot_flows;  ///< replayed after the phase
  std::vector<map::QoR> spot_qor;
  std::vector<map::QoR> batch0;        ///< digested
  std::vector<core::Flow> traced_flows;
  std::vector<map::QoR> traced_qor;
};

/// Synthetic but deterministic label of a fixture flow: the store neither
/// knows nor cares, and the oracle is this function.
map::QoR fixture_qor(std::uint64_t seed, core::StepsView steps) {
  std::uint64_t h = core::StepsHash{}(steps) ^ (seed * 0x9E3779B97F4A7C15ull);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return {100.0 + 0.25 * static_cast<double>(h % 4096),
          500.0 + static_cast<double>((h >> 12) % 997), 200 + (h >> 24) % 1000,
          (h >> 40) % 40};
}

struct Fixture {
  std::string dir;
  std::vector<core::Flow> flows;
  std::vector<map::QoR> qor;
};

/// 10^6 seeded labels: the first 3/4 compacted into one segment, the rest
/// left in a log. Written by a child process so building the store never
/// counts toward this process's memory or CPU.
Fixture build_fixture(const Options& options) {
  Fixture f;
  f.dir = options.scratch + "/recall-fixture";
  fs::remove_all(f.dir);
  f.flows = make_batch(options.seed, 0, kRepetitions, kRecallFlows);
  f.qor.reserve(f.flows.size());
  for (const core::Flow& flow : f.flows) {
    f.qor.push_back(fixture_qor(options.seed, flow.steps));
  }
  const aig::Fingerprint fp = designs::make_design(kDesign).fingerprint();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed for the fixture writer");
  if (pid == 0) {
    int code = 0;
    try {
      core::QorStore store(store_config(f.dir, "fixture"));
      for (std::size_t i = 0; i < f.flows.size(); ++i) {
        if (i == kRecallSegment && !store.compact().performed) code = 2;
        if (!store.append(fp, f.flows[i].steps, f.qor[i])) code = 3;
      }
      store.flush();
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("fixture writer failed");
  }
  return f;
}

/// `count` batches, batch k run `reps` times by `once(k, rep)`. The
/// repetition that used the least CPU time stands for its batch: a shared
/// host slows a core for a second or two at a time, and the fastest
/// repetition is the one it left alone. Set-up time and peak RSS are
/// medians over every repetition. Past `cap_s` of wall time (a host much
/// slower than the baseline) the phase stops after kMinBatches.
std::vector<Iteration> run_phase(
    std::size_t count, std::size_t reps, double cap_s,
    const std::function<Iteration(std::size_t, std::size_t)>& once) {
  std::vector<Iteration> out;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    if (k >= kMinBatches && seconds_since(t0) > cap_s) break;
    Iteration best;
    std::vector<double> setup, rss;
    for (std::size_t r = 0; r < reps; ++r) {
      Iteration it = once(k, r);
      setup.push_back(it.setup_s);
      rss.push_back(it.peak_rss_mb);
      if (r == 0 || it.cpu_s() < best.cpu_s()) best = std::move(it);
    }
    best.setup_s = median(setup);
    best.peak_rss_mb = median(rss);
    out.push_back(std::move(best));
  }
  return out;
}

/// An in-process evaluator and its store, built the way a labeling client
/// would: design elaboration through store attach is the set-up. Batches
/// run on the calling thread, without a pool.
static_assert(kSystemThreads == 1, "in-process batches use one thread");
struct InProcess {
  std::shared_ptr<core::QorStore> store;
  std::unique_ptr<core::SynthesisEvaluator> evaluator;
};

InProcess start_in_process(const std::string& store_dir,
                           const std::string& writer) {
  InProcess s;
  telemetry::Span span("bench", "setup");
  aig::Aig design = designs::make_design(kDesign);
  s.store = std::make_shared<core::QorStore>(store_config(store_dir, writer));
  s.evaluator = std::make_unique<core::SynthesisEvaluator>(std::move(design));
  s.evaluator->attach_store(s.store);
  return s;
}

/// One batch through an in-process evaluator. `start(r)` builds the r-th of
/// `setups` systems; set-up time is their median and the last one runs the
/// batch, so a set-up of a millisecond is still measured steadily.
Iteration in_process_once(const std::function<InProcess(std::size_t)>& start,
                          std::size_t setups,
                          const std::vector<core::Flow>& flows,
                          std::vector<map::QoR>& qor, InProcess& system) {
  telemetry::reset_all();
  reset_peak_rss();
  Iteration it;
  std::vector<double> setup;
  for (std::size_t r = 0; r < setups; ++r) {
    system = {};
    const Clock::time_point t0 = Clock::now();
    system = start(r);
    setup.push_back(seconds_since(t0));
  }
  it.setup_s = median(setup);
  const double cpu0 = self_cpu_s();
  const Clock::time_point t1 = Clock::now();
  {
    telemetry::Span span("bench", "evaluate_many");
    qor = system.evaluator->evaluate_many(flows, nullptr);
  }
  it.batch_s = seconds_since(t1);
  it.self_cpu_s = self_cpu_s() - cpu0;
  it.peak_rss_mb = vm_hwm_mb();
  it.page = parse_page(telemetry::render_prometheus());
  return it;
}

/// One batch through a fresh loopback fleet of kFleetWorkers, set up
/// `setups` times (medians kept; the last fleet runs the batch).
Iteration fleet_once(const service::WorkerOptions& worker_options,
                     std::size_t setups, const std::vector<core::Flow>& flows,
                     std::vector<map::QoR>& qor, bool traced) {
  telemetry::reset_all();
  reset_peak_rss();
  Iteration it;
  it.workers = kFleetWorkers;
  std::unique_ptr<service::LoopbackCluster> cluster;
  std::unique_ptr<service::EvalCoordinator> coordinator;
  std::vector<double> setup, fork, handshake;
  for (std::size_t r = 0; r < setups; ++r) {
    coordinator.reset();
    cluster.reset();
    std::fflush(nullptr);
    const Clock::time_point t0 = Clock::now();
    telemetry::Span span("bench", "setup");
    cluster = std::make_unique<service::LoopbackCluster>(kFleetWorkers,
                                                         worker_options);
    fork.push_back(seconds_since(t0));
    coordinator = std::make_unique<service::EvalCoordinator>(
        cluster->take_workers(), kDesign);
    setup.push_back(seconds_since(t0));
    handshake.push_back(setup.back() - fork.back());
  }
  it.setup_s = median(setup);
  it.fork_s = median(fork);
  it.handshake_s = median(handshake);

  Clock::time_point t1;
  std::vector<double> last_delivery(kFleetWorkers, -1.0);
  if (traced) {
    coordinator->set_progress_observer([&](std::size_t w) {
      if (w < last_delivery.size()) last_delivery[w] = seconds_since(t1);
    });
  }
  const auto workers_cpu = [&] {
    double total = 0.0;
    for (std::size_t i = 0; i < cluster->size(); ++i) {
      total += child_cpu_s(cluster->pid(i));
    }
    return total;
  };
  const double worker_cpu0 = workers_cpu();
  const double cpu0 = self_cpu_s();
  t1 = Clock::now();
  {
    telemetry::Span span("bench", "evaluate_many");
    qor = coordinator->evaluate_many(flows);
  }
  it.batch_s = seconds_since(t1);
  it.self_cpu_s = self_cpu_s() - cpu0;
  it.worker_cpu_s = workers_cpu() - worker_cpu0;
  it.peak_rss_mb = vm_hwm_mb();
  for (std::size_t i = 0; i < cluster->size(); ++i) {
    it.peak_rss_mb += vm_hwm_mb(cluster->pid(i));
  }
  it.coordinator = coordinator->stats();
  it.page = parse_page(coordinator->fleet_metrics_text());
  std::vector<double> delivered;
  for (const double t : last_delivery) {
    if (t >= 0) delivered.push_back(t);
  }
  if (!delivered.empty()) {
    it.straggler_s = quantile(delivered, 1.0) - quantile(delivered, 0.0);
  }
  coordinator.reset();
  cluster.reset();
  return it;
}

/// Every flow of a fleet batch must come back as a streamed result; requeues
/// and lost workers are reported as layer metrics, not failures.
void check_fleet(const Iteration& it, std::size_t flows, Report& report) {
  const std::size_t streamed = it.coordinator.flows_streamed;
  if (streamed < flows) {
    report.fail(flows - streamed, "fleet batch streamed " +
                                      std::to_string(streamed) + "/" +
                                      std::to_string(flows) + " flows");
  }
}

void record(Ledger& ledger, std::size_t k, bool traced,
            const std::vector<core::Flow>& flows,
            const std::vector<map::QoR>& qor) {
  if (k == 0 && !traced) ledger.batch0 = qor;
  if (traced) {
    ledger.traced_flows.insert(ledger.traced_flows.end(), flows.begin(),
                               flows.end());
    ledger.traced_qor.insert(ledger.traced_qor.end(), qor.begin(), qor.end());
    return;
  }
  for (const std::size_t i : first_sorted(flows, kSpotChecks)) {
    ledger.spot_flows.push_back(flows[i]);
    ledger.spot_qor.push_back(qor[i]);
  }
}

/// Replay every spot-checked flow (kThreads at a time, untimed) and count
/// each disagreement with the label the system returned.
void spot_check(const Ledger& ledger, Report& report) {
  const std::vector<map::QoR> oracle =
      replay(designs::make_design(kDesign), ledger.spot_flows, kThreads,
             nullptr);
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i] != ledger.spot_qor[i]) {
      report.fail(1, "flow " + ledger.spot_flows[i].key() + " labeled " +
                         ledger.spot_qor[i].to_string() + ", replay gives " +
                         oracle[i].to_string());
    }
  }
}

void end_to_end(const std::vector<Iteration>& its, std::size_t flows,
                Report& report) {
  std::vector<double> cpu, rate, setup, rss;
  for (const Iteration& it : its) {
    cpu.push_back(it.cpu_s() * 1e3 / static_cast<double>(flows));
    rate.push_back(static_cast<double>(flows) / it.batch_s);
    setup.push_back(it.setup_s);
    rss.push_back(it.peak_rss_mb);
  }
  report.add_e2e("cpu_ms_per_flow", median(cpu), "ms");
  report.add_e2e("setup_s", median(setup), "s");
  report.add_e2e("peak_rss_mb", median(rss), "MiB");
  report.add_extra("flows_per_s", median(rate), "flows/s");
}

/// Per-layer metrics of the batch path, read from the traced iterations.
void batch_layers(const std::vector<Iteration>& untraced,
                  const std::vector<Iteration>& traced, Report& report) {
  std::vector<Page> pages;
  std::vector<double> batch, self_cpu, worker_cpu, fork, handshake, shard_ms,
      straggler;
  double cpu_total = 0.0, cpu_capacity = 0.0, busy = 0.0, busy_capacity = 0.0;
  service::CoordinatorStats sum;
  for (const Iteration& it : traced) {
    pages.push_back(it.page);
    batch.push_back(it.batch_s);
    self_cpu.push_back(it.self_cpu_s);
    worker_cpu.push_back(it.worker_cpu_s);
    fork.push_back(it.fork_s);
    handshake.push_back(it.handshake_s);
    straggler.push_back(it.straggler_s);
    shard_ms.insert(shard_ms.end(), it.coordinator.shard_ms.begin(),
                    it.coordinator.shard_ms.end());
    cpu_total += it.self_cpu_s + it.worker_cpu_s;
    // The workers plus the coordinator, or the in-process evaluator alone.
    cpu_capacity += it.batch_s * static_cast<double>(
                                     it.workers ? it.workers + 1
                                                : kSystemThreads);
    busy += it.worker_cpu_s;
    busy_capacity += it.batch_s * static_cast<double>(it.workers);
    sum.shards += it.coordinator.shards;
    sum.requests_sent += it.coordinator.requests_sent;
    sum.flows_streamed += it.coordinator.flows_streamed;
    sum.requeues += it.coordinator.requeues;
    sum.workers_lost += it.coordinator.workers_lost;
  }
  page_layers(pages, report);
  report.add_layer("evaluator.batch_s", median(batch), "s");
  report.add_layer("evaluator.cpu_util", cpu_total / cpu_capacity, "ratio");
  report.add_layer("coordinator.cpu_s", median(self_cpu), "s");
  const bool fleet = traced.front().workers > 0;
  if (fleet) {
    report.add_layer("loopback.fork_s", median(fork), "s");
    report.add_layer("coordinator.handshake_s", median(handshake), "s");
    report.add_layer("worker.cpu_s", median(worker_cpu), "s");
    report.add_layer("coordinator.shard_ms.p50", median(shard_ms), "ms");
    report.add_layer("coordinator.shard_ms.max", quantile(shard_ms, 1.0), "ms");
    report.add_layer("coordinator.straggler_s", median(straggler), "s");
  }
  report.add_layer("worker.busy_frac",
                   busy_capacity > 0 ? busy / busy_capacity : 0.0, "ratio");
  const auto count = [&](const char* name, std::size_t v) {
    report.add_layer(name, static_cast<double>(v), "count");
  };
  count("coordinator.shards", sum.shards);
  count("coordinator.requests_sent", sum.requests_sent);
  count("coordinator.flows_streamed", sum.flows_streamed);
  count("coordinator.requeues", sum.requeues);
  count("coordinator.workers_lost", sum.workers_lost);
  std::vector<double> untraced_batch;
  for (const Iteration& it : untraced) untraced_batch.push_back(it.batch_s);
  report.add_layer("trace.overhead_frac",
                   median(batch) / median(untraced_batch), "ratio");
}

/// The shared shape of every batch workload: an untraced phase for the
/// end-to-end metrics; when tracing, the same batches again, once each,
/// with spans on for the per-layer metrics, then the layer probes.
/// `once(k, rep, traced)` runs batch k; at least `min_batches` of them.
void run_batches(
    const Options& options, double iteration_s, std::size_t min_batches,
    std::size_t flows_per_batch,
    const std::function<Iteration(std::size_t, std::size_t, bool)>& once,
    const std::function<void()>& after_untraced,
    const std::function<void()>& probes, Report& report) {
  const std::vector<Iteration> untraced = run_phase(
      batches_for(options.seconds, iteration_s * kReps, min_batches), kReps,
      2 * options.seconds,
      [&](std::size_t k, std::size_t rep) { return once(k, rep, false); });
  report.attempted += untraced.size() * kReps * flows_per_batch;
  end_to_end(untraced, flows_per_batch, report);
  after_untraced();
  if (!options.trace) return;
  start_trace(options);
  const std::vector<Iteration> traced = run_phase(
      untraced.size(), 1, HUGE_VAL,
      [&](std::size_t k, std::size_t rep) { return once(k, rep, true); });
  report.attempted += traced.size() * flows_per_batch;
  batch_layers(untraced, traced, report);
  probes();
  telemetry::stop_tracing();
}

Report run_synthesis(const Options& options, const std::string& name,
                     bool fleet) {
  Report report;
  report.workload = name;
  Ledger ledger;
  std::vector<map::QoR> first;  // labels of the batch's first repetition
  const auto once = [&](std::size_t k, std::size_t rep, bool traced) {
    const std::vector<core::Flow> flows =
        make_batch(options.seed, k, kRepetitions, kLabelFlows);
    std::vector<map::QoR> qor;
    Iteration it;
    if (fleet) {
      service::WorkerOptions worker;
      worker.design_id = kDesign;
      it = fleet_once(worker, kFleetSetups, flows, qor, traced);
      check_fleet(it, flows.size(), report);
    } else {
      // Every set-up attaches a fresh, empty store.
      const std::string dir = options.scratch + "/label-store";
      fs::remove_all(dir);
      InProcess system;
      it = in_process_once(
          [&](std::size_t r) {
            return start_in_process(dir + "/" + std::to_string(r), "label");
          },
          kLabelSetups, flows, qor, system);
      // Every fresh label must also reach the store.
      const std::size_t appends = system.store->stats().appends;
      if (appends < flows.size()) {
        report.fail(flows.size() - appends,
                    "batch of " + std::to_string(flows.size()) + " flows: " +
                        std::to_string(appends) + " store appends");
      }
    }
    // Every repetition must label the batch alike; the first is recorded.
    if (rep == 0) {
      record(ledger, k, traced, flows, qor);
      first = qor;
    } else if (qor != first) {
      report.fail(flows.size(), "a repetition of batch " + std::to_string(k) +
                                    " labeled it differently");
    }
    return it;
  };
  const aig::Aig design = designs::make_design(kDesign);
  run_batches(
      options, fleet ? kFleetIteration_s : kLabelIteration_s, kMinBatches,
      kLabelFlows, once,
      [&] {
        spot_check(ledger, report);
        report.add_exact("qor_digest", qor_digest(ledger.batch0));
      },
      [&] {
        probe_replay(design, ledger.traced_flows, &ledger.traced_qor, report);
        const ProbeInput in{&design, &ledger.traced_flows, &ledger.traced_qor,
                            "", 0};
        probe_store(options, in, report);
        probe_wire(in, report);
        probe_classifier(options, in, report);
      },
      report);
  fs::remove_all(options.scratch + "/label-store");
  return report;
}

Report run_recall(const Options& options, const std::string& name,
                  bool fleet) {
  Report report;
  report.workload = name;
  const Fixture fixture = build_fixture(options);
  const auto check = [&](const std::vector<map::QoR>& qor, const Page& page) {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < qor.size(); ++i) {
      if (qor[i] != fixture.qor[i]) ++wrong;
    }
    if (wrong) {
      report.fail(wrong, "recall returned a record other than the fixture's");
    }
    const double evaluations = page_value(page, "flowgen_evaluations_total");
    if (evaluations != 0) {
      report.fail(static_cast<std::size_t>(evaluations),
                  "recall synthesized " + std::to_string(evaluations) +
                      " flows");
    }
  };
  const auto once = [&](std::size_t k, std::size_t rep, bool traced) {
    std::vector<map::QoR> qor;
    Iteration it;
    if (fleet) {
      service::WorkerOptions worker;
      worker.design_id = kDesign;
      worker.qor_store_dir = fixture.dir;
      it = fleet_once(worker, kRecallSetups, fixture.flows, qor, traced);
      check_fleet(it, fixture.flows.size(), report);
    } else {
      const std::string writer = (traced ? "traced-" : "pass-") +
                                 std::to_string(k) + "-" + std::to_string(rep);
      InProcess system;
      it = in_process_once(
          [&](std::size_t r) {
            return start_in_process(fixture.dir,
                                    writer + "-" + std::to_string(r));
          },
          kRecallSetups, fixture.flows, qor, system);
    }
    check(qor, it.page);
    return it;
  };
  const aig::Aig design = designs::make_design(kDesign);
  run_batches(
      // Every batch is the whole fixture, so one batch is enough.
      options, kRecallIteration_s, 1, kRecallFlows, once, [] {},
      [&] {
        probe_replay(design, fixture.flows, nullptr, report);
        const ProbeInput in{&design, &fixture.flows, &fixture.qor, fixture.dir,
                            kRecallSegment};
        probe_store(options, in, report);
        probe_wire(in, report);
        probe_classifier(options, in, report);
      },
      report);
  fs::remove_all(fixture.dir);
  return report;
}

}  // namespace

Report run_label(const Options& options) {
  return run_synthesis(options, "label_alu16", false);
}

Report run_fleet(const Options& options) {
  return run_synthesis(options, "fleet_alu16", true);
}

Report run_recall_store(const Options& options) {
  return run_recall(options, "recall_store", false);
}

Report run_recall_fleet(const Options& options) {
  return run_recall(options, "recall_fleet", true);
}

}  // namespace flowgen::e2e
