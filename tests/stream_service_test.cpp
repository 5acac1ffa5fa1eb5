// Tests for the streaming fleet: non-blocking transport under
// pathological socket buffers, per-flow result streaming (bit-identical to
// in-process evaluation under paper and extended alphabets),
// partial-progress requeue when a worker dies mid-shard,
// deadlines that bound silence instead of shard duration, mid-run worker
// re-admission (explicit and via auto-reconnect), fair interleaving of
// concurrent client batches, and the admin introspection socket.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "service/admin.hpp"
#include "service/loopback.hpp"
#include "service/reactor.hpp"
#include "service/wire.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

// Fork-based tests are skipped under ThreadSanitizer (see service_test.cpp
// for the rationale); thread-based suites here run under it.
#if defined(__SANITIZE_THREAD__)
#define FLOWGEN_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLOWGEN_TSAN 1
#endif
#endif

#ifdef FLOWGEN_TSAN
#define SKIP_UNDER_TSAN() GTEST_SKIP() << "fork-based service test under TSan"
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
#ifdef FLOWGEN_SLOW_SANITIZER
constexpr int kShortRequestTimeoutMs = 20000;
#else
constexpr int kShortRequestTimeoutMs = 500;
#endif

namespace flowgen::service {
namespace {

using core::Flow;

std::vector<Flow> sample_flows(std::size_t n, unsigned m = 2,
                               std::uint64_t seed = 1) {
  const core::FlowSpace space(m);
  util::Rng rng(seed);
  return space.sample_unique(n, rng);
}

void expect_bit_identical(const std::vector<map::QoR>& a,
                          const std::vector<map::QoR>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "QoR diverges at flow " << i;
  }
}

std::vector<std::uint8_t> patterned(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  }
  return bytes;
}

void shrink_buffers(const Socket& tx, const Socket& rx) {
  // The kernel clamps to its minimum (a few KiB) — small enough that a
  // single wire frame needs many short writes.
  const int tiny = 1;
  ASSERT_EQ(::setsockopt(tx.fd(), SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny),
            0);
  ASSERT_EQ(::setsockopt(rx.fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny),
            0);
}

// ------------------------------------------------------------- transport --

TEST(StreamTransportTest, SendAllSurvivesTinyBuffersOnNonBlockingSockets) {
  // send_all must treat a short write or EAGAIN as "wait for POLLOUT and
  // resume" — on a non-blocking socket (the mode every event loop leaves
  // fds in) a naive loop would either spin or throw on the first full
  // buffer. A megabyte through a ~4KiB socket buffer forces hundreds of
  // such stalls.
  auto [tx, rx] = socket_pair();
  shrink_buffers(tx, rx);
  tx.set_nonblocking(true);

  const std::vector<std::uint8_t> payload = patterned(1 << 20);
  std::vector<std::uint8_t> got(payload.size());
  std::atomic<bool> read_ok{false};
  std::thread reader([&] {
    std::size_t off = 0;
    while (off < got.size()) {
      const std::size_t n = std::min<std::size_t>(4096, got.size() - off);
      if (!rx.recv_all(got.data() + off, n, 30000)) return;
      off += n;
    }
    read_ok.store(true);
  });
  tx.send_all(payload.data(), payload.size(), 30000);
  reader.join();
  ASSERT_TRUE(read_ok.load());
  EXPECT_EQ(got, payload);
}

TEST(StreamTransportTest, FrameConnFlushesLargeFrameThroughTinyBuffer) {
  // The buffered writer state machine: a frame far larger than the socket
  // buffer is queued at once, then drained across many on_writable() calls
  // as POLLOUT readiness arrives — exactly the event-loop write path.
  auto [a, b] = socket_pair();
  shrink_buffers(a, b);
  FrameConn conn{std::move(a)};

  const std::vector<std::uint8_t> payload = patterned(512 * 1024);
  ASSERT_EQ(conn.enqueue(MsgType::kPing, payload), FrameConn::Io::kOk);
  EXPECT_TRUE(conn.want_write());  // cannot fit in one write

  std::optional<Frame> frame;
  std::thread reader([&b, &frame] { frame = recv_frame(b, 30000); });
  while (conn.want_write()) {
    struct pollfd p = {conn.fd(), POLLOUT, 0};
    ASSERT_GE(::poll(&p, 1, 30000), 1);
    ASSERT_EQ(conn.on_writable(), FrameConn::Io::kOk);
  }
  reader.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kPing);
  EXPECT_EQ(frame->payload, payload);
}

// ----------------------------------------------------------------- admin --

TEST(AdminTest, LineProtocolRoundTripsAndReportsHandlerErrors) {
  const std::string path = ::testing::TempDir() + "flowgen_admin_unit_" +
                           std::to_string(::getpid()) + ".sock";
  AdminServer server(Address::parse("unix:" + path),
                     [](const std::string& cmd) -> std::string {
                       if (cmd == "boom") throw std::runtime_error("kaput");
                       if (cmd == "multi") return "line one\nline two";
                       return "echo " + cmd;
                     });
  EXPECT_EQ(admin_query(server.address(), "stats"), "echo stats");
  EXPECT_EQ(admin_query(server.address(), "multi"), "line one\nline two");
  EXPECT_EQ(admin_query(server.address(), "boom"), "err kaput");
}

// ------------------------------------------------------------- streaming --

TEST(StreamServiceTest, StreamedBatchIsBitIdenticalWithPerFlowCallbacks) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(60);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  const auto expected = local.evaluate_many(flows);

  // Every flow arrives as its own EvalResult frame and the per-flow
  // callback sees each one.
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");
  std::size_t callbacks = 0;
  const auto qor = coordinator.evaluate_many(
      flows, [&callbacks](std::size_t, const map::QoR&) { ++callbacks; });
  expect_bit_identical(qor, expected);
  EXPECT_EQ(callbacks, flows.size());
  EXPECT_EQ(coordinator.stats().flows_streamed, flows.size());
  EXPECT_GE(coordinator.stats().shards_done, 1u);
  coordinator.shutdown_workers();
}

std::shared_ptr<const opt::TransformRegistry> extended_registry() {
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  specs.push_back(opt::spec_from_text("rewrite -K 3"));
  specs.push_back(opt::spec_from_text("restructure -D 12"));
  return std::make_shared<const opt::TransformRegistry>(std::move(specs));
}

TEST(StreamServiceTest, ExtendedRegistryStreamsBitIdentical) {
  SKIP_UNDER_TSAN();
  // Streaming composes with shipped alphabets: paper-default workers get
  // the extended registry at handshake and stream per-flow results under
  // it, bit-identical to in-process evaluation with the same registry.
  const auto registry = extended_registry();
  const core::FlowSpace space(1, registry);
  util::Rng rng(1);
  const auto flows = space.sample_unique(60, rng);

  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  CoordinatorConfig config;
  config.registry = registry;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  const auto remote_qor = coordinator.evaluate_many(flows);
  EXPECT_EQ(coordinator.stats().flows_streamed, flows.size());

  core::EvaluatorConfig ecfg;
  ecfg.registry = registry;
  core::SynthesisEvaluator local(designs::make_design("alu:4"),
                                 map::CellLibrary::builtin(), {}, ecfg);
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
  coordinator.shutdown_workers();
}

TEST(StreamServiceTest, WorkerKilledMidShardRequeuesOnlyUndeliveredFlows) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(120);

  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  CoordinatorConfig config;
  // One whole-batch-half shard per worker: worker 0 holds 60 flows when it
  // dies, far more than it has streamed — whole-shard requeue would rerun
  // all 60.
  config.shards_per_worker = 1;
  config.max_inflight_per_worker = 1;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);

  // SIGKILL worker 0 the moment its 10th streamed flow result is applied:
  // mid-shard by construction, with delivered progress on the books.
  std::size_t from_worker_zero = 0;
  coordinator.set_progress_observer([&](std::size_t w) {
    if (w == 0 && ++from_worker_zero == 10) cluster.kill_worker(0);
  });

  const auto remote_qor = coordinator.evaluate_many(flows);
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.workers_lost, 1u);
  EXPECT_EQ(stats.requeues, 1u);
  // Partial progress survived: the >=10 delivered flows were kept, only
  // the undelivered suffix of the 60-flow shard was requeued...
  EXPECT_GE(stats.flows_rescued, 10u);
  EXPECT_GE(stats.flows_requeued, 1u);
  EXPECT_EQ(stats.flows_rescued + stats.flows_requeued, 60u);
  // ...and dispatch accounting agrees: every flow sent once, plus exactly
  // the requeued remainder.
  EXPECT_EQ(stats.flows_dispatched, flows.size() + stats.flows_requeued);

  // Rescued results + rerun results must be indistinguishable bits.
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
}

TEST(StreamServiceTest, SlowStreamingWorkerSurvivesTightDeadline) {
  // Thread-based (TSan-safe) satellite: the liveness deadline bounds
  // *silence*, not shard duration. A worker that streams one result every
  // timeout/3 finishes a shard lasting 2x the timeout without ever being
  // declared lost — under whole-shard responses it would have been.
  const auto flows = sample_flows(6);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  const auto expected = local.evaluate_many(flows);
  std::map<core::StepsKey, map::QoR> answers;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    answers.emplace(flows[i].steps, expected[i]);
  }

  const int gap_ms = kShortRequestTimeoutMs / 3;
  auto [coordinator_end, worker_end] = socket_pair();
  std::thread slow_worker([&answers, gap_ms,
                           sock = std::move(worker_end)]() mutable {
    try {
      const auto hello = recv_frame(sock, 20000);
      if (!hello || hello->type != MsgType::kHello) return;
      HelloAckMsg ack;
      ack.design_id = "alu:4";
      ack.fingerprint = designs::make_design("alu:4").fingerprint();
      send_frame(sock, MsgType::kHelloAck, encode_hello_ack(ack));
      while (const auto frame = recv_frame(sock, 60000)) {
        if (frame->type == MsgType::kShutdown) return;
        if (frame->type != MsgType::kEvalRequest) continue;
        const EvalRequestMsg req = decode_eval_request(frame->payload);
        std::uint32_t count = 0;
        std::uint32_t crc = 0;
        for (std::size_t i = 0; i < req.flows.size(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
          const map::QoR& q = answers.at(req.flows[i]);
          send_frame(sock, MsgType::kEvalResult,
                     encode_eval_result(
                         {req.request_id, static_cast<std::uint32_t>(i), q}));
          crc = util::crc32(qor_record_bytes(q), crc);
          ++count;
        }
        send_frame(sock, MsgType::kShardDone,
                   encode_shard_done({req.request_id, count, crc}));
      }
    } catch (const std::exception&) {
    }
  });

  std::vector<EvalCoordinator::Worker> workers;
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "slow"});
  CoordinatorConfig config;
  config.request_timeout_ms = kShortRequestTimeoutMs;
  config.shards_per_worker = 1;  // one 6-flow shard: 6 * timeout/3 total
  EvalCoordinator coordinator(std::move(workers), "alu:4", config);

  expect_bit_identical(coordinator.evaluate_many(flows), expected);
  EXPECT_EQ(coordinator.stats().workers_lost, 0u);
  EXPECT_EQ(coordinator.stats().requeues, 0u);
  coordinator.shutdown_workers();
  slow_worker.join();
}

TEST(StreamServiceTest, LostWorkerIsReadmittedMidRun) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(240);

  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  CoordinatorConfig config;
  config.shards_per_worker = 8;  // 16 shards: plenty left after the loss
  config.max_inflight_per_worker = 1;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);

  std::atomic<bool> killed{false};
  coordinator.set_response_observer([&](std::size_t) {
    if (!killed.exchange(true)) cluster.kill_worker(0);
  });

  std::vector<map::QoR> remote_qor;
  std::thread runner(
      [&] { remote_qor = coordinator.evaluate_many(flows); });

  // The moment the loss is on the books, fork a fresh child into slot 0
  // and re-admit it under its old name — mid-run, through the ordinary
  // handshake.
  while (coordinator.stats().workers_lost == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(coordinator.admit_worker(cluster.respawn_worker(0)));
  runner.join();

  EXPECT_EQ(coordinator.stats().workers_lost, 1u);
  EXPECT_EQ(coordinator.stats().workers_readmitted, 1u);
  EXPECT_EQ(coordinator.num_workers_alive(), 2u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));

  // The revived slot is a full citizen again: a follow-up batch runs on
  // both workers (16 shards, capacity 1 each — neither can serve it alone
  // while the other idles).
  const auto more = sample_flows(60, 2, 7);
  expect_bit_identical(coordinator.evaluate_many(more),
                       local.evaluate_many(more));
  for (const WorkerSnapshot& snap : coordinator.worker_snapshots()) {
    EXPECT_TRUE(snap.alive) << snap.name;
    if (snap.name == "loopback-0") {
      EXPECT_GT(snap.flows_done, 0u);
    }
  }
}

TEST(StreamServiceTest, AddressNamedWorkerAutoReconnects) {
  // Thread-based (TSan-safe... except it isn't: EvalWorker evaluation under
  // TSan is the slow part, and the point here is reconnect timing). A
  // worker whose first connection dies mid-shard is re-dialed by name and
  // re-admitted automatically; the batch completes on the second life.
  SKIP_UNDER_TSAN();
  const std::string path = ::testing::TempDir() + "flowgen_reconnect_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));

  std::thread worker_thread([&listener] {
    try {
      {
        // First life: handshake, swallow one request, die abruptly.
        Socket conn = listener.accept(20000);
        const auto hello = recv_frame(conn, 20000);
        if (!hello || hello->type != MsgType::kHello) return;
        HelloAckMsg ack;
        ack.design_id = "alu:4";
        ack.fingerprint = designs::make_design("alu:4").fingerprint();
        send_frame(conn, MsgType::kHelloAck, encode_hello_ack(ack));
        recv_frame(conn, 20000);  // the first EvalRequest
      }  // close without answering: the coordinator sees EOF mid-shard
      // Second life: a real worker serves until Shutdown.
      WorkerOptions options;
      options.design_id = "alu:4";
      EvalWorker worker(options);
      Socket conn = listener.accept(20000);
      worker.serve(conn);
    } catch (const std::exception&) {
    }
  });

  CoordinatorConfig config;
  config.reconnect_ms = 200;
  std::vector<EvalCoordinator::Worker> workers =
      connect_workers({"unix:" + path});
  ASSERT_EQ(workers.size(), 1u);
  EvalCoordinator coordinator(std::move(workers), "alu:4", config);

  const auto flows = sample_flows(20);
  // The only worker dies mid-batch; with reconnect_ms set the batch waits
  // for the re-dial instead of failing as all-workers-lost.
  const auto remote_qor = coordinator.evaluate_many(flows);
  EXPECT_GE(coordinator.stats().workers_lost, 1u);
  EXPECT_GE(coordinator.stats().workers_readmitted, 1u);
  EXPECT_GE(coordinator.stats().flows_requeued, 1u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
  coordinator.shutdown_workers();
  worker_thread.join();
}

TEST(StreamServiceTest, SmallBatchOvertakesLargeBatchOnOneWorker) {
  SKIP_UNDER_TSAN();
  // Fairness: with one worker serving one shard at a time, a 2-flow batch
  // submitted after a 64-flow batch's first shard must interleave into the
  // shard stream and finish well before the big batch — FIFO would hold it
  // until the entire big batch drained.
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(1, options);
  CoordinatorConfig config;
  config.max_inflight_per_worker = 1;
  config.shards_per_worker = 8;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);

  const auto flows_a = sample_flows(64, 2, 1);  // 8 shards of 8
  const auto flows_b = sample_flows(2, 2, 2);   // 2 shards of 1

  std::vector<map::QoR> qa, qb;
  std::chrono::steady_clock::time_point a_done, b_done;
  std::thread ta([&] {
    qa = coordinator.evaluate_many(flows_a);
    a_done = std::chrono::steady_clock::now();
  });
  // Submit B only once A owns the fleet (its first shard has completed).
  while (coordinator.stats().shards_done == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::thread tb([&] {
    qb = coordinator.evaluate_many(flows_b);
    b_done = std::chrono::steady_clock::now();
  });
  ta.join();
  tb.join();

  EXPECT_LT(b_done, a_done)
      << "small batch waited for the large one: dispatch is FIFO, not fair";
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(qa, local.evaluate_many(flows_a));
  expect_bit_identical(qb, local.evaluate_many(flows_b));
}

// "key value" gauge lines from the admin "stats" reply; -1 if absent.
long admin_gauge(const std::string& reply, const std::string& key) {
  std::istringstream in(reply);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

TEST(StreamServiceTest, AdminSocketServesLiveStatsDuringBatch) {
  SKIP_UNDER_TSAN();
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  CoordinatorConfig config;
  config.admin_addr = "unix:" + ::testing::TempDir() + "flowgen_admin_" +
                      std::to_string(::getpid()) + ".sock";
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  const Address& admin = coordinator.admin_address();

  const auto flows = sample_flows(120);
  std::vector<map::QoR> remote_qor;
  std::thread runner(
      [&] { remote_qor = coordinator.evaluate_many(flows); });

  // Probe the admin socket *while the batch runs*: it must report an open
  // batch and in-flight work on a live worker, mid-run.
  bool saw_active = false;
  bool saw_inflight = false;
  for (int i = 0; i < 4000 && !(saw_active && saw_inflight); ++i) {
    const std::string stats = admin_query(admin, "stats");
    if (admin_gauge(stats, "active_batches") >= 1 &&
        admin_gauge(stats, "flows_dispatched") >= 1) {
      saw_active = true;
    }
    const std::string workers = admin_query(admin, "workers");
    for (std::size_t pos = workers.find("inflight_flows=");
         pos != std::string::npos;
         pos = workers.find("inflight_flows=", pos + 1)) {
      if (std::strtol(workers.c_str() + pos + 15, nullptr, 10) > 0) {
        saw_inflight = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runner.join();
  EXPECT_TRUE(saw_active) << "admin stats never showed an open batch";
  EXPECT_TRUE(saw_inflight) << "admin workers never showed in-flight flows";

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));

  // After the batch: the gauges settle, the counters stand.
  const std::string stats = admin_query(admin, "stats");
  EXPECT_EQ(admin_gauge(stats, "active_batches"), 0);
  EXPECT_EQ(admin_gauge(stats, "batches"), 1);
  EXPECT_EQ(admin_gauge(stats, "workers_alive"), 2);
  EXPECT_EQ(admin_gauge(stats, "flows_streamed"),
            static_cast<long>(flows.size()));
  const std::string workers = admin_query(admin, "workers");
  EXPECT_NE(workers.find("loopback-0"), std::string::npos);
  EXPECT_NE(workers.find("loopback-1"), std::string::npos);
  EXPECT_NE(admin_query(admin, "help").find("stats"), std::string::npos);
  EXPECT_EQ(admin_query(admin, "nonsense").rfind("err ", 0), 0u);
  coordinator.shutdown_workers();
}

TEST(StreamServiceTest, FleetMetricsScrapeMergesWorkerPages) {
  SKIP_UNDER_TSAN();
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  CoordinatorConfig config;
  config.admin_addr = "unix:" + ::testing::TempDir() + "flowgen_metrics_" +
                      std::to_string(::getpid()) + ".sock";
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  const Address& admin = coordinator.admin_address();

  const auto flows = sample_flows(24);
  const std::vector<map::QoR> qor = coordinator.evaluate_many(flows);
  ASSERT_EQ(qor.size(), flows.size());

  // One fleet page: worker samples (evaluator counters, answered over
  // GetMetrics/MetricsText) merged with the coordinator's own
  // (coordinator counters) — both families must be present.
  const std::string page = admin_query(admin, "metrics");
  EXPECT_NE(page.find("# TYPE flowgen_evaluations_total counter"),
            std::string::npos);
  EXPECT_NE(page.find("flowgen_coordinator_dispatches_total"),
            std::string::npos);
  EXPECT_NE(page.find("flowgen_coordinator_shard_ms_bucket"),
            std::string::npos);

  // The two workers' evaluation counts sum to at least the batch (the
  // coordinator's own page contributes 0 — it evaluates nothing).
  const std::size_t at = page.find("\nflowgen_evaluations_total ");
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::strtol(page.c_str() + at + 27, nullptr, 10),
            static_cast<long>(flows.size()));

  // A second scrape still answers (nonces don't collide or leak).
  EXPECT_NE(admin_query(admin, "metrics")
                .find("flowgen_evaluations_total"),
            std::string::npos);
  coordinator.shutdown_workers();
}

}  // namespace
}  // namespace flowgen::service
