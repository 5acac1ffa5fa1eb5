// Chaos battery for fleet survivability (scripts/chaos.sh drives it with
// rotating seeds; docs/fault-model.md is the narrative):
//   * failpoint framework unit tests (spec grammar, 1inN counting, keys),
//   * a planted poisoned flow that SIGKILLs every worker it touches must
//     end up quarantined — bisected onto an exclusive probe shard,
//     convicted, persisted — while every other label stays bit-identical
//     to an in-process run,
//   * a CHAOS_SEED-randomized schedule of worker kills and injected
//     delays must change nothing about the surviving labels,
//   * torn-frame transport failures, store append failures and hung
//     evaluations (watchdog) must each degrade into their typed, recovered
//     form — never a failed batch, never a wrong bit,
//   * quarantine verdicts must survive a coordinator restart via the
//     QUARANTINE file next to the QoR store,
//   * the admin line protocol must answer garbage with "err ...", never
//     by dying.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "core/quarantine.hpp"
#include "designs/registry.hpp"
#include "service/admin.hpp"
#include "service/loopback.hpp"
#include "service/worker.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

// Fork-based batteries are skipped under ThreadSanitizer (see
// service_test.cpp); the failpoint unit and admin fuzz suites run under it.
#if defined(__SANITIZE_THREAD__)
#define FLOWGEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGEN_TSAN 1
#endif
#endif

#ifdef FLOWGEN_TSAN
#define SKIP_UNDER_TSAN() GTEST_SKIP() << "fork-based chaos battery under TSan"
#else
#define SKIP_UNDER_TSAN() (void)0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define FLOWGEN_SLOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLOWGEN_SLOW_SANITIZER 1
#endif
#endif

// The injection *sites* can be compiled out (-DFLOWGEN_FAILPOINTS=OFF);
// the configure/list API remains, so only the batteries that need live
// sites skip.
#ifdef FLOWGEN_NO_FAILPOINTS
#define SKIP_WITHOUT_FAILPOINTS() \
  GTEST_SKIP() << "failpoint sites compiled out (-DFLOWGEN_FAILPOINTS=OFF)"
#else
#define SKIP_WITHOUT_FAILPOINTS() (void)0
#endif

namespace flowgen::service {
namespace {

namespace fp = util::failpoint;
using core::Flow;

/// Every test disarms on every exit path: a leaked armed point would
/// silently poison the rest of the suite.
struct FailpointGuard {
  ~FailpointGuard() { fp::clear_all(); }
};

std::vector<Flow> sample_flows(std::size_t n, unsigned m = 2,
                               std::uint64_t seed = 1) {
  const core::FlowSpace space(m);
  util::Rng rng(seed);
  return space.sample_unique(n, rng);
}

/// The canonical key the worker's per-flow failpoint site uses — poisoning
/// one specific flow means arming exactly this string.
std::string flow_key_hex(const Flow& f) {
  return fp::key_hex(f.steps.data(), f.steps.size() * sizeof(opt::StepId));
}

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("CHAOS_SEED")) {
    if (const std::uint64_t v = std::strtoull(env, nullptr, 10)) return v;
  }
  return 20260808;
}

void expect_bit_identical_except(const std::vector<map::QoR>& got,
                                 const std::vector<map::QoR>& expected,
                                 const std::vector<std::size_t>& skip = {}) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
    ASSERT_EQ(got[i], expected[i]) << "QoR diverges at flow " << i;
  }
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "flowgen_chaos_" + tag +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------- failpoint framework --

TEST(FailpointTest, SpecGrammarNormalizesAndRejectsGarbage) {
  FailpointGuard guard;
  fp::configure("t.spec", "1in3*error(boom)@key=abc");
  const auto points = fp::list();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].name, "t.spec");
  // The normalized spec round-trips through configure().
  fp::configure("t.spec", points[0].spec);

  EXPECT_THROW(fp::configure("t.bad", "nonsense"), std::invalid_argument);
  EXPECT_THROW(fp::configure("t.bad", "1in0*crash"), std::invalid_argument);
  EXPECT_THROW(fp::configure("t.bad", "delay"), std::invalid_argument);
  EXPECT_THROW(fp::configure("t.bad", ""), std::invalid_argument);
  EXPECT_TRUE(fp::list().size() == 1u) << "a rejected spec must arm nothing";

  EXPECT_EQ(fp::configure_from_spec("t.a=error;t.b=1in2*delay(1)"), 2u);
  EXPECT_EQ(fp::list().size(), 3u);
  fp::clear("t.a");
  EXPECT_EQ(fp::list().size(), 2u);
  fp::clear_all();
  EXPECT_FALSE(fp::any_armed());
  EXPECT_NE(fp::describe().find("none armed"), std::string::npos);
}

TEST(FailpointTest, ErrorActionThrowsTypedFailpointError) {
  FailpointGuard guard;
  fp::configure("t.err", "error(kaput)");
  try {
    fp::hit("t.err");
    FAIL() << "armed error point did not throw";
  } catch (const util::FailpointError& e) {
    EXPECT_NE(std::string(e.what()).find("kaput"), std::string::npos);
  }
  // Unconfigured names are free.
  fp::hit("t.never.configured");
  // "off" disarms in place.
  fp::configure("t.err", "off");
  fp::hit("t.err");
}

TEST(FailpointTest, OneInNCountsDeterministically) {
  FailpointGuard guard;
  fp::configure("t.nth", "1in3*error");
  std::size_t fires = 0;
  std::vector<std::size_t> fired_at;
  for (std::size_t i = 1; i <= 9; ++i) {
    try {
      fp::hit("t.nth");
    } catch (const util::FailpointError&) {
      ++fires;
      fired_at.push_back(i);
    }
  }
  // Counter-based, not random: exactly every 3rd hit, replayable.
  EXPECT_EQ(fires, 3u);
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{3, 6, 9}));
  const auto points = fp::list();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].hits, 9u);
  EXPECT_EQ(points[0].fires, 3u);
}

TEST(FailpointTest, KeyedSpecFiresOnlyOnItsKey) {
  FailpointGuard guard;
  fp::configure("t.key", "error(poisoned)@key=deadbeef");
  EXPECT_THROW(fp::hit_keyed("t.key", "deadbeef"), util::FailpointError);
  fp::hit_keyed("t.key", "deadbeff");  // other keys pass
  fp::hit("t.key");                    // keyless hits never match a keyed spec
  // A keyless spec treats keyed hits like plain ones.
  fp::configure("t.plain", "error");
  EXPECT_THROW(fp::hit_keyed("t.plain", "anything"), util::FailpointError);
}

TEST(FailpointTest, KeyHexIsLowercaseByteHex) {
  const std::uint8_t bytes[] = {0x00, 0xab, 0xFF, 0x10};
  EXPECT_EQ(fp::key_hex(bytes, sizeof bytes), "00abff10");
  EXPECT_EQ(fp::key_hex(bytes, 0), "");
}

// ------------------------------------------------- poisoned-flow battery --

TEST(ChaosServiceTest, PoisonedFlowIsQuarantinedAndBatchSurvives) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
  const auto flows = sample_flows(60);
  const std::size_t poison = 17;

  // Arm before the forks: the children inherit the registry state, so the
  // keyed crash lives only worker-side once the parent disarms.
  FailpointGuard guard;
  fp::configure("worker.eval.flow",
                "crash@key=" + flow_key_hex(flows[poison]));
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(4, options);
  fp::clear_all();

  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");
  BatchReport report;
  const auto qor = coordinator.evaluate_many(flows, nullptr, &report);

  // Conviction path with the default thresholds: group shard loss (worker
  // 1 dies), grouped requeue loss (worker 2 dies), exclusive singleton
  // probe loss (worker 3 dies, definitive) — quarantined. One worker
  // finishes the batch.
  EXPECT_EQ(report.quarantined, std::vector<std::size_t>{poison});
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.flows_quarantined, 1u);
  EXPECT_EQ(stats.workers_lost, 3u);
  EXPECT_GE(stats.requeues, 2u);
  EXPECT_EQ(coordinator.num_workers_alive(), 1u);

  // The verdict is queryable: typed on the list, visible on the admin
  // surface, charged with the full loss count.
  const aig::Fingerprint fp_design = designs::make_design("alu:4").fingerprint();
  EXPECT_TRUE(coordinator.quarantine()->contains(
      fp_design, core::StepsView(flows[poison].steps)));
  const auto entries = coordinator.quarantine()->entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].losses, 3u);
  EXPECT_NE(coordinator.admin_text("quarantine").find("quarantined 1"),
            std::string::npos);
  EXPECT_NE(coordinator.admin_text("stats").find("flows_quarantined 1"),
            std::string::npos);

  // Every surviving label bit-identical; the quarantined slot stays default.
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical_except(qor, local.evaluate_many(flows), {poison});
  EXPECT_EQ(qor[poison], map::QoR{});

  // A follow-up batch never re-dispatches the convicted flow — and without
  // a report the caller gets the typed throw, not a silent drop.
  try {
    coordinator.evaluate_many(flows);
    FAIL() << "quarantined flow did not surface without a report";
  } catch (const FlowQuarantined& e) {
    EXPECT_EQ(e.indices(), std::vector<std::size_t>{poison});
  }
}

// ----------------------------------------------- seeded chaos schedule --

TEST(ChaosServiceTest, SeededKillAndDelayScheduleStaysBitIdentical) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("CHAOS_SEED=" + std::to_string(seed));
  util::Rng rng(seed);
  const auto flows = sample_flows(96, 2, seed | 1);

  // Armed pre-fork, worker-side only after the parent disarms: counter-
  // based delays on the eval entry and the transport send path. Delays
  // perturb timing (shard interleaving, deadline slack), never results.
  FailpointGuard guard;
  fp::configure_from_spec(
      "worker.eval.pre=1in" + std::to_string(2 + rng.below(4)) + "*delay(" +
      std::to_string(5 + rng.below(20)) + ");transport.send=1in" +
      std::to_string(3 + rng.below(6)) + "*delay(" +
      std::to_string(1 + rng.below(8)) + ")");
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(4, options);
  fp::clear_all();

  CoordinatorConfig config;
  config.shards_per_worker = 4;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);

  // Two seeded SIGKILLs at random progress points, distinct victims. Two
  // losses keep every flow below the conviction threshold by
  // construction, so the schedule may reorder and rerun work but never
  // quarantine.
  const std::size_t kill_at_a = 4 + rng.below(20);
  const std::size_t kill_at_b = kill_at_a + 8 + rng.below(24);
  const std::size_t victim_a = rng.below(4);
  const std::size_t victim_b = (victim_a + 1 + rng.below(3)) % 4;
  std::atomic<std::size_t> progressed{0};
  coordinator.set_progress_observer([&](std::size_t) {
    const std::size_t n = ++progressed;
    if (n == kill_at_a) cluster.kill_worker(victim_a);
    if (n == kill_at_b) cluster.kill_worker(victim_b);
  });

  BatchReport report;
  const auto qor = coordinator.evaluate_many(flows, nullptr, &report);
  EXPECT_TRUE(report.quarantined.empty())
      << "a victim flow was convicted on only " << 2 << " losses";
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.workers_lost, 1u);
  EXPECT_LE(stats.workers_lost, 2u);
  EXPECT_GE(stats.flows_requeued, 1u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical_except(qor, local.evaluate_many(flows));
}

// --------------------------------------------------- torn-frame battery --

TEST(ChaosServiceTest, TornFrameTransportFailureLosesOnlyUndeliveredFlows) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
  const auto flows = sample_flows(60);

  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(4, options);
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");

  // Re-fork slot 0 with a transport failpoint aboard: its 8th send (one
  // HelloAck, then streamed results) raises a typed TransportError inside
  // the worker — the stream dies at a frame boundary mid-shard, the
  // coordinator sees EOF and requeues only what never arrived.
  FailpointGuard guard;
  fp::configure("transport.send", "1in8*error(torn frame)");
  EvalCoordinator::Worker fresh = cluster.respawn_worker(0);
  fp::clear_all();
  // respawn_worker killed the old slot-0 process. Admit the replacement
  // only once the coordinator has seen that EOF: until then the old
  // connection is still in rotation and the candidate would be rejected.
  const auto old_slot_alive = [&coordinator] {
    for (const WorkerSnapshot& snap : coordinator.worker_snapshots()) {
      if (snap.name == "loopback-0") return snap.alive;
    }
    return false;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (old_slot_alive()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the coordinator never saw the old loopback-0 exit";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(coordinator.admit_worker(std::move(fresh)));

  BatchReport report;
  const auto qor = coordinator.evaluate_many(flows, nullptr, &report);
  EXPECT_TRUE(report.quarantined.empty());
  const CoordinatorStats stats = coordinator.stats();
  // The respawn cost one loss (old slot-0 connection) and the torn stream
  // a second; both were absorbed, not fatal.
  EXPECT_GE(stats.workers_lost, 1u);
  EXPECT_GE(stats.flows_requeued, 1u);
  EXPECT_EQ(coordinator.num_workers_alive() + stats.workers_lost,
            4u + stats.workers_readmitted);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical_except(qor, local.evaluate_many(flows));
}

// -------------------------------------------------- store-error battery --

TEST(ChaosServiceTest, StoreAppendFailuresNeverFailTheBatch) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
  const auto flows = sample_flows(24);

  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);  // forked clean — parent-side fault
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");
  const std::string dir = fresh_dir("store_err");
  coordinator.attach_store(std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "chaos", false, nullptr, {}}));

  // Full-disk stand-in: every append on the coordinator's store throws.
  // Labels must still reach the caller (kept in-memory), counted as
  // store_errors — a broken store degrades persistence, never results.
  FailpointGuard guard;
  fp::configure("store.append", "error(injected full disk)");
  const auto qor = coordinator.evaluate_many(flows);
  fp::clear_all();
  EXPECT_EQ(coordinator.stats().store_errors, flows.size());

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  const auto expected = local.evaluate_many(flows);
  expect_bit_identical_except(qor, expected);

  // Heal the "disk": the same batch re-dispatches (nothing was persisted)
  // and persists this time.
  const auto again = coordinator.evaluate_many(flows);
  expect_bit_identical_except(again, expected);
  EXPECT_GE(coordinator.stats().store_appends, flows.size());
  EXPECT_EQ(coordinator.stats().store_errors, flows.size());
}

// --------------------------------------- quarantine persistence battery --

TEST(ChaosServiceTest, QuarantineVerdictSurvivesCoordinatorRestart) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
  const auto flows = sample_flows(40);
  const std::size_t poison = 11;
  const std::string dir = fresh_dir("quarantine");

  {
    // First life: convict the planted flow, label everything else.
    FailpointGuard guard;
    fp::configure("worker.eval.flow",
                  "crash@key=" + flow_key_hex(flows[poison]));
    WorkerOptions options;
    options.design_id = "alu:4";
    LoopbackCluster cluster(4, options);
    fp::clear_all();
    EvalCoordinator a(cluster.take_workers(), "alu:4");
    a.attach_store(std::make_shared<core::QorStore>(
        core::QorStoreConfig{dir, "phase1", false, nullptr, {}}));
    BatchReport report;
    const auto qor = a.evaluate_many(flows, nullptr, &report);
    ASSERT_EQ(report.quarantined, std::vector<std::size_t>{poison});
    EXPECT_FALSE(a.quarantine()->path().empty())
        << "store-backed quarantine should persist to a file";
    a.shutdown_workers();
  }

  // Second life: a fresh fleet and coordinator on the same directory. The
  // verdict (QUARANTINE file) and the labels (QoR store) both load; the
  // repeated batch is answered without dispatching a single flow — the
  // poisoned one protected, the rest from the store.
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  EvalCoordinator b(cluster.take_workers(), "alu:4");
  b.attach_store(std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "phase2", false, nullptr, {}}));

  try {
    b.evaluate_many(flows);
    FAIL() << "persisted quarantine verdict did not surface";
  } catch (const FlowQuarantined& e) {
    EXPECT_EQ(e.indices(), std::vector<std::size_t>{poison});
  }

  BatchReport report;
  const auto qor = b.evaluate_many(flows, nullptr, &report);
  EXPECT_EQ(report.quarantined, std::vector<std::size_t>{poison});
  const CoordinatorStats stats = b.stats();
  EXPECT_EQ(stats.requests_sent, 0u);
  EXPECT_EQ(stats.flows_dispatched, 0u);
  EXPECT_GE(stats.store_hits, flows.size() - 1);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical_except(qor, local.evaluate_many(flows), {poison});
  b.shutdown_workers();
}

// ----------------------------------------------------- watchdog battery --

TEST(ChaosServiceTest, WatchdogConvictsHungFlowWithoutKillingWorkers) {
  SKIP_UNDER_TSAN();
  SKIP_WITHOUT_FAILPOINTS();
#ifdef FLOWGEN_SLOW_SANITIZER
  GTEST_SKIP() << "wall-clock eval budget under a slow sanitizer is noise";
#endif
  const auto flows = sample_flows(20);
  const std::size_t hung = 5;

  // One flow sleeps 5x the per-evaluation budget. The watchdog answers
  // each attempt with a typed Error frame while the evaluation is still
  // wedged — the worker's *slot* stays alive, only the request dies — and
  // three typed losses convict the flow exactly like three crashes would.
  FailpointGuard guard;
  fp::configure("worker.eval.flow",
                "delay(1000)@key=" + flow_key_hex(flows[hung]));
  WorkerOptions options;
  options.design_id = "alu:4";
  options.eval_budget_ms = 200;
  LoopbackCluster cluster(2, options);
  fp::clear_all();

  CoordinatorConfig config;
  config.breaker_failures = 2;  // let the repeated typed errors trip one
  config.breaker_cooldown_ms = 100;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  BatchReport report;
  const auto qor = coordinator.evaluate_many(flows, nullptr, &report);

  EXPECT_EQ(report.quarantined, std::vector<std::size_t>{hung});
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_GE(stats.eval_errors, 3u);
  EXPECT_EQ(stats.workers_lost, 0u) << "a hung eval must not cost the slot";
  EXPECT_EQ(stats.flows_quarantined, 1u);
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_EQ(coordinator.num_workers_alive(), 2u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical_except(qor, local.evaluate_many(flows), {hung});
  coordinator.shutdown_workers();
}

// ------------------------------------------------------- rlimit battery --

TEST(ChaosServiceTest, RlimitAsCapsWorkerAddressSpace) {
  SKIP_UNDER_TSAN();
#ifdef FLOWGEN_SLOW_SANITIZER
  GTEST_SKIP() << "RLIMIT_AS conflicts with sanitizer shadow mappings";
#endif
  // In a forked stand-in for a worker: cap the address space, then attempt
  // an allocation far beyond it. The cap must turn a would-be runaway into
  // a local failure (malloc -> null), not an OOM for the host.
  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    WorkerOptions options;
    options.rlimit_as_mb = 256;
    apply_worker_rlimits(options);
    void* p = std::malloc(1024u << 20);  // 1 GiB against a 256 MiB cap
    if (p != nullptr) {
      std::free(p);
      ::_exit(1);  // the cap was not applied
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "1 GiB allocation survived the cap";
}

// ----------------------------------------------------------- admin fuzz --

TEST(AdminFuzzTest, LineProtocolSurvivesGarbageAndOversizedCommands) {
  const std::string path = ::testing::TempDir() + "flowgen_admin_fuzz_" +
                           std::to_string(::getpid()) + ".sock";
  AdminServer server(Address::parse("unix:" + path),
                     [](const std::string& cmd) { return "echo " + cmd; });

  // A line past the 4 KiB cap is refused with a typed reply — unbounded
  // buffering on an unauthenticated local socket would be a free DoS.
  EXPECT_EQ(admin_query(server.address(), std::string(8192, 'x')),
            "err line too long");
  // Binary junk (every byte value except the line terminators) is just a
  // command that does not exist — or here, echoed by the handler.
  std::string junk;
  for (int c = 1; c < 256; ++c) {
    if (c != '\n' && c != '\r') junk.push_back(static_cast<char>(c));
  }
  EXPECT_EQ(admin_query(server.address(), junk), "echo " + junk);
  // The server is still serving after both.
  EXPECT_EQ(admin_query(server.address(), "ping"), "echo ping");
}

TEST(AdminFuzzTest, WorkerAdminFailpointCommandsRoundTrip) {
  FailpointGuard guard;
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);

  EXPECT_EQ(worker_admin_text(worker, "nonsense").rfind("err ", 0), 0u);
  EXPECT_EQ(worker_admin_text(worker, "").rfind("err ", 0), 0u);
  EXPECT_NE(worker_admin_text(worker, "help").find("failpoints"),
            std::string::npos);
  EXPECT_NE(worker_admin_text(worker, "failpoints").find("none armed"),
            std::string::npos);
  // Arm through the admin surface, see it listed, then disarm.
  EXPECT_EQ(worker_admin_text(worker, "failpoint chaos.admin error(x)")
                .rfind("ok", 0),
            0u);
  EXPECT_NE(worker_admin_text(worker, "failpoints").find("chaos.admin"),
            std::string::npos);
  EXPECT_EQ(worker_admin_text(worker, "failpoint chaos.admin off")
                .rfind("ok", 0),
            0u);
  // Malformed specs and usage errors answer "err ...", never throw.
  EXPECT_EQ(worker_admin_text(worker, "failpoint onlyname").rfind("err", 0),
            0u);
  EXPECT_EQ(
      worker_admin_text(worker, "failpoint x 1in0*crash").rfind("err", 0),
      0u);
}

}  // namespace
}  // namespace flowgen::service
