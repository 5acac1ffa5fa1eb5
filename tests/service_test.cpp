// Tests for the distributed flow-evaluation service: wire format round
// trips, transport addressing, coordinator scheduling, and — the part that
// justifies the subsystem — fault tolerance: a worker SIGKILLed mid-batch
// must cost nothing but a requeue, and distributed results must be
// bit-identical to in-process evaluation.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/serialize.hpp"
#include "core/evaluator.hpp"
#include "core/qor_store.hpp"
#include "core/quarantine.hpp"
#include "core/flow_space.hpp"
#include "core/pipeline.hpp"
#include "designs/registry.hpp"
#include "service/loopback.hpp"
#include "service/remote_evaluator.hpp"
#include "service/wire.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

// Fork-based tests are skipped under ThreadSanitizer: TSan's runtime does
// not support tracking child processes that keep running after fork, and
// the forked workers would run synthesis at TSan speed anyway. The
// determinism-relevant concurrency (evaluator, trails, thread pool) is
// covered by the non-fork suites.
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

// Sanitizer builds run synthesis an order of magnitude slower; tests that
// pick a deliberately short request timeout must scale it or the *healthy*
// worker's shards also blow the deadline and the whole batch (correctly)
// fails as all-workers-lost.
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

// ----------------------------------------------------------------- wire --

TEST(WireTest, AddressParsesUnixAndTcp) {
  const Address u = Address::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, Address::Kind::kUnix);
  EXPECT_EQ(u.host, "/tmp/x.sock");
  EXPECT_EQ(u.to_string(), "unix:/tmp/x.sock");

  const Address t = Address::parse("tcp:127.0.0.1:9000");
  EXPECT_EQ(t.kind, Address::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9000);

  EXPECT_THROW(Address::parse("http://x"), TransportError);
  EXPECT_THROW(Address::parse("tcp:nohost"), TransportError);
  EXPECT_THROW(Address::parse("tcp:host:notaport"), TransportError);
  EXPECT_THROW(Address::parse("unix:"), TransportError);
}

TEST(WireTest, EvalRequestRoundTrips) {
  EvalRequestMsg msg;
  msg.request_id = 0x1122334455667788ull;
  msg.design = {0xDEADBEEFCAFEF00Dull, 0x0123456789ABCDEFull};
  msg.flows.push_back({0, 5});  // balance, refactor -z
  msg.flows.push_back({});  // empty flow (baseline) is legal
  msg.flows.push_back({2});  // rewrite

  const auto decoded = decode_eval_request(encode_eval_request(msg));
  EXPECT_EQ(decoded.request_id, msg.request_id);
  EXPECT_EQ(decoded.design, msg.design);
  ASSERT_EQ(decoded.flows.size(), 3u);
  EXPECT_EQ(decoded.flows[0], msg.flows[0]);
  EXPECT_TRUE(decoded.flows[1].empty());
  EXPECT_EQ(decoded.flows[2], msg.flows[2]);
}

TEST(WireTest, HelloAckAndLoadDesignAckRoundTrip) {
  HelloAckMsg ack;
  ack.version = kProtocolVersion;
  ack.design_id = "alu16";
  ack.fingerprint = {7, 9};
  const HelloAckMsg decoded = decode_hello_ack(encode_hello_ack(ack));
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.design_id, "alu16");
  EXPECT_EQ(decoded.fingerprint, (aig::Fingerprint{7, 9}));

  const aig::Fingerprint fp = {0xAABBCCDDEEFF0011ull, 42};
  EXPECT_EQ(decode_load_design_ack(encode_load_design_ack(fp)), fp);
}

TEST(WireTest, HelloAndErrorRoundTrip) {
  const HelloMsg hello = decode_hello(encode_hello({3, "alu16"}));
  EXPECT_EQ(hello.version, 3);
  EXPECT_EQ(hello.design_id, "alu16");

  const ErrorMsg err = decode_error(encode_error({99, "boom"}));
  EXPECT_EQ(err.request_id, 99u);
  EXPECT_EQ(err.message, "boom");
}

TEST(WireTest, DecodersRejectTruncatedAndTrailingBytes) {
  EvalRequestMsg msg;
  msg.request_id = 1;
  msg.flows.push_back({0});  // balance
  auto bytes = encode_eval_request(msg);
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_THROW(decode_eval_request(truncated), WireError);
  bytes.push_back(0);
  EXPECT_THROW(decode_eval_request(bytes), WireError);
}

TEST(WireTest, DecodersRejectCountsExceedingPayload) {
  // A corrupt count field must fail validation, not turn into a
  // multi-gigabyte reserve().
  EvalRequestMsg req_msg;
  req_msg.request_id = 1;
  req_msg.flows.push_back({0});  // balance
  auto req = encode_eval_request(req_msg);
  // count: little-endian u32 after u64 request id + the two 16-byte
  // fingerprints (design, registry)
  req[40] = 0xFF;
  req[41] = 0xFF;
  req[42] = 0xFF;
  req[43] = 0xFF;
  EXPECT_THROW(decode_eval_request(req), WireError);
}

TEST(ServiceTest, HandshakeRejectsMismatchedAckDesign) {
  // A peer that acks the handshake but names a different design (a
  // misconfigured evald server fleet, say) must be dropped — answering
  // with QoR of the wrong circuit would silently corrupt labels.
  auto [coordinator_end, fake_end] = socket_pair();
  std::thread fake([sock = std::move(fake_end)]() mutable {
    try {
      const auto hello = recv_frame(sock, 10000);
      if (!hello || hello->type != MsgType::kHello) return;
      HelloAckMsg ack;
      ack.design_id = "mont:8";
      ack.fingerprint = designs::make_design("mont:8").fingerprint();
      send_frame(sock, MsgType::kHelloAck, encode_hello_ack(ack));
      recv_frame(sock, 10000);  // linger until the coordinator hangs up
    } catch (const std::exception&) {
    }
  });
  std::vector<EvalCoordinator::Worker> workers;
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "fake"});
  EXPECT_THROW(EvalCoordinator(std::move(workers), "alu:4"), ServiceError);
  fake.join();
}

TEST(WireTest, FramesTraverseSocketsAndRejectGarbage) {
  auto [a, b] = socket_pair();
  send_frame(a, MsgType::kPing, encode_u64(12345));
  const auto frame = recv_frame(b, 1000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, MsgType::kPing);
  EXPECT_EQ(decode_u64(frame->payload), 12345u);

  const char junk[] = "GET / HTTP/1.1\r\n";
  a.send_all(junk, sizeof junk);
  EXPECT_THROW(recv_frame(b, 1000), WireError);

  // Clean EOF at a frame boundary is a nullopt, not an error.
  auto [c, d] = socket_pair();
  c.close();
  EXPECT_EQ(recv_frame(d, 1000), std::nullopt);
}

TEST(WireTest, ConnectToDeadEndpointFailsFast) {
  EXPECT_THROW(
      connect_to(Address::parse("unix:/tmp/flowgen-no-such.sock"), 500),
      TransportError);
}

TEST(ServiceTest, UnixSocketWorkerServesRemoteEvaluator) {
  // The full socket path without fork: a worker served from a thread on a
  // real unix listener, driven through RemoteEvaluator::connect.
  const std::string path = ::testing::TempDir() + "flowgen_worker.sock";
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  std::thread server([&listener] {
    WorkerOptions options;
    options.design_id = "alu:4";
    EvalWorker worker(options);
    Socket conn = listener.accept(20000);
    worker.serve(conn);  // returns on client disconnect
  });

  auto remote = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  const auto flows = sample_flows(12);
  const auto remote_qor = remote->evaluate_many(flows);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
  remote.reset();  // hang up; worker's serve() sees EOF
  server.join();
}

// -------------------------------------------------------------- service --

TEST(ServiceTest, LoopbackMatchesInProcessBitForBit) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(60);
  auto remote = RemoteEvaluator::loopback("alu:4", 2);
  const auto remote_qor = remote->evaluate_many(flows);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
}

// The acceptance bar: a 1000-flow labeling batch through >= 4 loopback
// workers, bit-identical to the in-process engine.
TEST(ServiceTest, ThousandFlowBatchOnFourWorkersIsBitIdentical) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(1000);
  auto remote = RemoteEvaluator::loopback("alu:4", 4);
  const auto remote_qor = remote->evaluate_many(flows);
  EXPECT_EQ(remote->num_workers_alive(), 4u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
}

TEST(ServiceTest, EvaluateSingleFlowWorks) {
  SKIP_UNDER_TSAN();
  auto remote = RemoteEvaluator::loopback("alu:4", 1);
  const Flow flow = Flow::from_key("0213");
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  EXPECT_EQ(remote->evaluate(flow), local.evaluate(flow));
  EXPECT_EQ(remote->baseline(), local.baseline());
}

TEST(ServiceTest, WorkerCachesStayWarmAcrossRequests) {
  SKIP_UNDER_TSAN();
  // Same batch twice: the second pass must be served from the workers' QoR
  // caches. We can't read child stats directly, but identical results on
  // the repeat exercise the path.
  const auto flows = sample_flows(40);
  auto remote = RemoteEvaluator::loopback("alu:4", 2);
  const auto first = remote->evaluate_many(flows);
  const auto second = remote->evaluate_many(flows);
  expect_bit_identical(first, second);
  EXPECT_EQ(remote->stats().batches, 2u);
}

TEST(ServiceTest, WorkerKilledMidBatchIsRequeuedAndBatchCompletes) {
  SKIP_UNDER_TSAN();
  const auto flows = sample_flows(240);

  WorkerOptions options;
  options.design_id = "alu:4";
  auto cluster = std::make_unique<LoopbackCluster>(2, options);
  LoopbackCluster* cluster_ptr = cluster.get();

  CoordinatorConfig config;
  config.shards_per_worker = 8;  // plenty of pending work at kill time
  auto coordinator = std::make_unique<EvalCoordinator>(
      cluster->take_workers(), "alu:4", config);

  // SIGKILL worker 0 the moment the first shard response (from either
  // worker) lands — mid-batch by construction, with most shards pending.
  bool killed = false;
  coordinator->set_response_observer([&](std::size_t) {
    if (!killed) {
      killed = true;
      cluster_ptr->kill_worker(0);
    }
  });

  const auto remote_qor = coordinator->evaluate_many(flows);
  EXPECT_TRUE(killed);
  EXPECT_EQ(coordinator->num_workers_alive(), 1u);
  EXPECT_EQ(coordinator->stats().workers_lost, 1u);
  EXPECT_GE(coordinator->stats().requeues, 1u);

  // No lost shards, no corruption: every result bit-identical in-process.
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
}

TEST(ServiceTest, UnresponsiveWorkerTimesOutAndBatchCompletes) {
  SKIP_UNDER_TSAN();
  // One real loopback worker plus one fake worker that handshakes and then
  // goes silent: its shards must time out and rerun on the real worker.
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(1, options);

  auto [coordinator_end, fake_end] = socket_pair();
  std::thread fake_worker([sock = std::move(fake_end)]() mutable {
    // Everything here is best-effort: the coordinator may hang up at any
    // point (EOF or reset), and a recv timeout in this fake must end the
    // thread, not std::terminate the test.
    try {
      const auto hello = recv_frame(sock, 10000);
      if (!hello || hello->type != MsgType::kHello) return;
      HelloAckMsg ack;
      ack.design_id = "alu:4";
      ack.fingerprint = designs::make_design("alu:4").fingerprint();
      send_frame(sock, MsgType::kHelloAck, encode_hello_ack(ack));
      // Swallow requests without answering until the coordinator hangs up
      // (it does so only after kShortRequestTimeoutMs of silence).
      while (recv_frame(sock, kShortRequestTimeoutMs + 10000)) {
      }
    } catch (const std::exception&) {
    }
  });

  std::vector<EvalCoordinator::Worker> workers = cluster.take_workers();
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "fake"});

  CoordinatorConfig config;
  config.request_timeout_ms = kShortRequestTimeoutMs;
  EvalCoordinator coordinator(std::move(workers), "alu:4", config);
  ASSERT_EQ(coordinator.num_workers_alive(), 2u);

  const auto flows = sample_flows(80);
  const auto remote_qor = coordinator.evaluate_many(flows);
  EXPECT_EQ(coordinator.num_workers_alive(), 1u);
  EXPECT_EQ(coordinator.stats().workers_lost, 1u);
  EXPECT_GE(coordinator.stats().requeues, 1u);

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
  coordinator.shutdown_workers();  // closes the fake's socket too
  fake_worker.join();
}

TEST(ServiceTest, BatchFailsLoudlyWhenEveryWorkerDies) {
  SKIP_UNDER_TSAN();
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(1, options);
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");
  cluster.kill_worker(0);
  const auto flows = sample_flows(20);
  EXPECT_THROW(coordinator.evaluate_many(flows), ServiceError);
}

TEST(ServiceTest, HandshakeRejectsUnknownDesign) {
  SKIP_UNDER_TSAN();
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  // Workers cannot elaborate this id; every handshake errors out and the
  // coordinator refuses to assemble an empty fleet.
  EXPECT_THROW(
      EvalCoordinator(cluster.take_workers(), "no-such-design-anywhere"),
      ServiceError);
}

TEST(ServiceTest, PipelineRunsDistributedViaConfig) {
  SKIP_UNDER_TSAN();
  core::PipelineConfig cfg;
  cfg.training_flows = 30;
  cfg.sample_flows = 60;
  cfg.initial_labeled = 15;
  cfg.retrain_every = 15;
  cfg.num_angel = 5;
  cfg.num_devil = 5;
  cfg.steps_per_round = 20;
  cfg.repetitions = 2;
  cfg.classifier.conv_filters = 4;
  cfg.classifier.local_filters = 2;
  cfg.classifier.dense_units = 8;
  cfg.seed = 3;
  cfg.threads = 1;
  cfg.service.loopback_workers = 2;
  cfg.service.design_id = "alu:4";

  core::FlowGenPipeline pipe(designs::make_design("alu:4"), cfg);
  const core::PipelineResult res = pipe.run();
  EXPECT_EQ(res.labeled_flows.size(), 30u);
  EXPECT_EQ(res.angel_flows.size(), 5u);
  EXPECT_GT(res.baseline.area_um2, 0.0);
}

// --------------------------------------------------- protocol v2: designs --

// A circuit deliberately absent from designs::registry — the "customer
// netlist" case the v2 protocol exists for. Combinational, ~90 ANDs.
aig::Aig make_off_registry_design() {
  aig::Aig g;
  g.name = "offreg8";
  const std::vector<aig::Lit> x = g.add_pis(8);
  std::vector<aig::Lit> layer;
  for (std::size_t i = 0; i < 8; ++i) {
    layer.push_back(g.lxor(x[i], x[(i + 3) % 8]));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    layer[i] = g.lmaj(layer[i], x[(i + 1) % 8], layer[(i + 5) % 8]);
  }
  aig::Lit parity = g.lxor_n(layer);
  for (std::size_t i = 0; i < 4; ++i) {
    g.add_po(g.lmux(parity, layer[i], layer[i + 4]));
  }
  g.add_po(parity);
  return g;
}

// The acceptance bar for netlist shipping: a design no registry knows,
// labeled by a 4-worker fleet via LoadDesign, bit-identical to in-process
// evaluation of the same netlist.
TEST(ServiceTest, OffRegistryDesignOnFourWorkersViaLoadDesign) {
  SKIP_UNDER_TSAN();
  const aig::Aig design = make_off_registry_design();
  EXPECT_THROW(designs::make_design(design.name), std::invalid_argument);

  const auto flows = sample_flows(200);
  auto remote = RemoteEvaluator::loopback_netlist(design, 4);
  const auto remote_qor = remote->evaluate_many(flows);
  EXPECT_EQ(remote->num_workers_alive(), 4u);

  core::SynthesisEvaluator local{aig::Aig(design)};
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
}

TEST(ServiceTest, WorkerMultiplexesDesignsAcrossConnections) {
  // One long-lived worker (thread, no fork — TSan-safe), three clients in
  // sequence: registry design, shipped netlist, registry again. The LRU
  // must keep both designs instantiated and route by fingerprint.
  const std::string path = ::testing::TempDir() + "flowgen_mux.sock";
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  WorkerOptions options;  // design-less until the first Hello
  EvalWorker worker(options);
  std::thread server([&] {
    for (int i = 0; i < 3; ++i) {
      Socket conn = listener.accept(20000);
      worker.serve(conn);
    }
  });

  const aig::Aig off_registry = make_off_registry_design();
  const auto flows = sample_flows(10);
  core::SynthesisEvaluator local_alu(designs::make_design("alu:4"));
  core::SynthesisEvaluator local_off{aig::Aig(off_registry)};

  auto alu = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  expect_bit_identical(alu->evaluate_many(flows),
                       local_alu.evaluate_many(flows));
  alu.reset();

  auto off = RemoteEvaluator::connect_netlist({"unix:" + path}, off_registry);
  expect_bit_identical(off->evaluate_many(flows),
                       local_off.evaluate_many(flows));
  off.reset();

  auto alu_again = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  expect_bit_identical(alu_again->evaluate_many(flows),
                       local_alu.evaluate_many(flows));
  alu_again.reset();
  server.join();
  EXPECT_EQ(worker.num_designs(), 2u);
}

TEST(ServiceTest, DeferredFleetEvaluatesAfterLoadDesign) {
  SKIP_UNDER_TSAN();
  WorkerOptions options;  // design-less workers
  LoopbackCluster cluster(2, options);
  EvalCoordinator coordinator(cluster.take_workers(), "");  // deferred
  const auto flows = sample_flows(20);
  // No design yet: evaluation must fail loudly, not hang or mislabel.
  EXPECT_THROW(coordinator.evaluate_many(flows), ServiceError);

  const aig::Aig design = make_off_registry_design();
  coordinator.load_design(design);
  EXPECT_EQ(coordinator.design_fingerprint(), design.fingerprint());
  core::SynthesisEvaluator local{aig::Aig(design)};
  expect_bit_identical(coordinator.evaluate_many(flows),
                       local.evaluate_many(flows));
  coordinator.shutdown_workers();
}

TEST(ServiceTest, TwoSimultaneousClientsOnOneFleet) {
  SKIP_UNDER_TSAN();
  // A server fronting one fleet must accept concurrent client connections.
  // Both clients hold their connections open across the whole exchange —
  // under the old serial accept loop the second client's handshake would
  // block until the first disconnected (this test would hang).
  WorkerOptions options;
  options.design_id = "alu:4";
  LoopbackCluster cluster(2, options);
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4");

  const std::string path = ::testing::TempDir() + "flowgen_server_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  std::thread server([&] {
    serve_connections(listener,
                      [&] { return make_coordinator_service(coordinator); });
  });

  // Both clients connect and complete their handshake before either
  // evaluates, then their batches run concurrently (the coordinator
  // serialises them internally).
  auto a = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  auto b = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  const auto flows_a = sample_flows(24, 2, 1);
  const auto flows_b = sample_flows(24, 2, 2);
  std::vector<map::QoR> qa, qb;
  std::thread ta([&] { qa = a->evaluate_many(flows_a); });
  std::thread tb([&] { qb = b->evaluate_many(flows_b); });
  ta.join();
  tb.join();

  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(qa, local.evaluate_many(flows_a));
  expect_bit_identical(qb, local.evaluate_many(flows_b));

  a.reset();
  b.reset();
  // A Shutdown frame stops the accept loop; the server thread then joins
  // cleanly and the fleet is told to exit.
  Socket stop = connect_to(Address::parse("unix:" + path), 5000);
  send_frame(stop, MsgType::kShutdown, {});
  server.join();
  coordinator.shutdown_workers();
}

// ------------------------------------------------------ the serve loop --

/// `key`'s value in a worker admin "stats" reply; -1 when absent.
long stat_value(const std::string& reply, const std::string& key) {
  std::istringstream in(reply);
  std::string name;
  long value = 0;
  while (in >> name >> value) {
    if (name == key) return value;
  }
  return -1;
}

TEST(ServiceTest, ThreadServedWorkerCountsItsBatchInAdminStats) {
  // serve_frames keeps the worker's admin counters, so a worker served
  // from a plain thread (the way loopback workers are served) reports
  // exactly the requests, flows and streamed results of its batch.
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  auto [coordinator_end, worker_end] = socket_pair();
  std::thread server([&worker, sock = std::move(worker_end)]() mutable {
    worker.serve(sock);
  });
  std::vector<EvalCoordinator::Worker> workers;
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "thread"});
  EvalCoordinator coordinator(std::move(workers), "alu:4");
  const auto flows = sample_flows(12);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(coordinator.evaluate_many(flows),
                       local.evaluate_many(flows));
  const std::size_t requests = coordinator.stats().requests_sent;
  coordinator.shutdown_workers();
  server.join();

  const std::string stats = worker_admin_text(worker, "stats");
  EXPECT_EQ(stat_value(stats, "connections_total"), 1) << stats;
  EXPECT_EQ(stat_value(stats, "connections_open"), 0) << stats;
  EXPECT_EQ(stat_value(stats, "requests"), static_cast<long>(requests))
      << stats;
  EXPECT_EQ(stat_value(stats, "flows_received"),
            static_cast<long>(flows.size()))
      << stats;
  EXPECT_EQ(stat_value(stats, "results_streamed"),
            static_cast<long>(flows.size()))
      << stats;
  EXPECT_EQ(stat_value(stats, "errors"), 0) << stats;
}

/// A store directory holding `labels[i]` for `flows[i]` of `design`.
void write_labels(const std::string& dir, const aig::Aig& design,
                  const std::vector<Flow>& flows,
                  const std::vector<map::QoR>& labels) {
  std::filesystem::remove_all(dir);
  core::QorStore store(core::QorStoreConfig{dir, "seed", false, nullptr, {}});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    store.append(design.fingerprint(), flows[i].steps, labels[i]);
  }
}

/// A label no synthesis produces, so finding it proves the store answered.
map::QoR stored_label(std::size_t i) {
  return {1.0 + static_cast<double>(i), 2.0, i, 7};
}

TEST(ServiceTest, StoredResultLeavesBeforeTheNextSynthesisStarts) {
  // The shard [stored flow, unstored flow]: the stored flow's EvalResult
  // is queued, and the worker sends the queue before it synthesizes the
  // second flow. So once that first result is read, nothing more is on
  // the socket while the synthesis runs; a worker that held results back
  // for a timer or a full burst would deliver both frames together.
  const std::string dir = ::testing::TempDir() + "flowgen_burst_order_" +
                          std::to_string(::getpid());
  const aig::Aig design = designs::make_design("alu16");
  const auto flows = sample_flows(2, 4, 21);  // 24 steps: a long synthesis
  write_labels(dir, design, {flows[0]}, {stored_label(0)});
  WorkerOptions options;
  options.design_id = "alu16";
  options.qor_store_dir = dir;
  EvalWorker worker(options);
  auto [client, server_sock] = socket_pair();
  std::thread server([&worker, sock = std::move(server_sock)]() mutable {
    worker.serve(sock);
  });
  HelloMsg hello;
  hello.design_id = "alu16";
  send_frame(client, MsgType::kHello, encode_hello(hello));
  const auto ack = recv_frame(client, 30000);
  ASSERT_TRUE(ack && ack->type == MsgType::kHelloAck);

  EvalRequestMsg req;
  req.request_id = 5;
  req.design = decode_hello_ack(ack->payload).fingerprint;
  for (const Flow& f : flows) req.flows.push_back(f.steps);
  send_frame(client, MsgType::kEvalRequest, encode_eval_request(req));
  const auto first = recv_frame(client, 30000);
  ASSERT_TRUE(first && first->type == MsgType::kEvalResult);
  EXPECT_FALSE(client.wait_readable(0))
      << "the stored result waited for the synthesis behind it";
  const EvalResultMsg stored = decode_eval_result(first->payload);
  EXPECT_EQ(stored.index, 0u);
  EXPECT_EQ(stored.result, stored_label(0));

  const auto second = recv_frame(client, 120000);
  ASSERT_TRUE(second && second->type == MsgType::kEvalResult);
  const EvalResultMsg fresh = decode_eval_result(second->payload);
  EXPECT_EQ(fresh.index, 1u);
  const auto done = recv_frame(client, 30000);
  ASSERT_TRUE(done && done->type == MsgType::kShardDone);
  const ShardDoneMsg shard = decode_shard_done(done->payload);
  EXPECT_EQ(shard.count, 2u);
  EXPECT_EQ(shard.crc32,
            util::crc32(qor_record_bytes(fresh.result),
                        util::crc32(qor_record_bytes(stored.result))));
  send_frame(client, MsgType::kShutdown, {});
  server.join();
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, ShardOfStoredFlowsStreamsIntactInBursts) {
  // 2000 stored flows in one shard: about 110 KB of EvalResult frames,
  // which leave in 64 KiB sends. The coordinator must still see every
  // result once, with ShardDone's count and CRC matching (no requeue, no
  // lost worker), and the worker's stats must count every frame.
  const std::string dir = ::testing::TempDir() + "flowgen_burst_shard_" +
                          std::to_string(::getpid());
  const aig::Aig design = designs::make_design("alu:4");
  const auto flows = sample_flows(2000, 2, 22);
  std::vector<map::QoR> labels;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    labels.push_back(stored_label(i));
  }
  write_labels(dir, design, flows, labels);
  WorkerOptions options;
  options.design_id = "alu:4";
  options.qor_store_dir = dir;
  EvalWorker worker(options);
  auto [coordinator_end, worker_end] = socket_pair();
  std::thread server([&worker, sock = std::move(worker_end)]() mutable {
    worker.serve(sock);
  });
  std::vector<EvalCoordinator::Worker> workers;
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "thread"});
  CoordinatorConfig config;
  config.shards_per_worker = 1;
  EvalCoordinator coordinator(std::move(workers), "alu:4", config);
  expect_bit_identical(coordinator.evaluate_many(flows), labels);
  const CoordinatorStats cs = coordinator.stats();
  EXPECT_EQ(cs.shards, 1u);
  EXPECT_EQ(cs.flows_streamed, flows.size());
  EXPECT_EQ(cs.requeues, 0u);
  EXPECT_EQ(cs.workers_lost, 0u);
  coordinator.shutdown_workers();
  server.join();
  const std::string stats = worker_admin_text(worker, "stats");
  EXPECT_EQ(stat_value(stats, "results_streamed"),
            static_cast<long>(flows.size()))
      << stats;
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, RetiredMessageTypesAreAnsweredWithErrorAndServingContinues) {
  // Type 4 (the whole-shard answer, retired in v5) and types 17 and 18
  // (live store streaming, retired in v6) are never reused, so a worker
  // treats them like any unknown number: an Error tied to no request, and
  // the connection keeps serving. Each is sent with the 16-byte payload a
  // v5 StoreSubscribe carried, so a worker that still knew type 17 would
  // answer it with silence instead.
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  auto [client, server_sock] = socket_pair();
  std::thread server([&worker, sock = std::move(server_sock)]() mutable {
    worker.serve(sock);
  });
  const std::vector<std::uint8_t> payload =
      encode_load_registry_ack(opt::paper_registry_fingerprint());
  const int retired[] = {4, 17, 18};
  for (const int type : retired) {
    send_frame(client, static_cast<MsgType>(type), payload);
    send_frame(client, MsgType::kPing, encode_u64(type));
  }
  send_frame(client, MsgType::kShutdown, {});
  server.join();  // the six small answers wait in the socket buffer
  for (const int type : retired) {
    SCOPED_TRACE("type " + std::to_string(type));
    const auto reply = recv_frame(client, 10000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kError);
    const ErrorMsg err = decode_error(reply->payload);
    EXPECT_EQ(err.request_id, 0u);
    EXPECT_EQ(err.message, "unexpected message type");
    const auto pong = recv_frame(client, 10000);
    ASSERT_TRUE(pong.has_value());
    ASSERT_EQ(pong->type, MsgType::kPong);
    EXPECT_EQ(decode_u64(pong->payload), static_cast<std::uint64_t>(type));
  }
  EXPECT_EQ(recv_frame(client, 10000), std::nullopt);
}

TEST(ServiceTest, PooledWorkerStreamsEachResultOnceAndRoutesErrors) {
  // A worker with a thread pool evaluates a shard's flows concurrently but
  // still answers with one EvalResult per flow, then ShardDone; a flow the
  // evaluator rejects ends the stream with an Error for that request, and
  // the connection keeps serving.
  WorkerOptions options;
  options.design_id = "alu:4";
  options.threads = 3;
  EvalWorker worker(options);
  auto [client, server_sock] = socket_pair();
  std::thread server([&worker, sock = std::move(server_sock)]() mutable {
    worker.serve(sock);
  });
  send_frame(client, MsgType::kHello, encode_hello({}));
  const auto ack = recv_frame(client, 10000);
  ASSERT_TRUE(ack && ack->type == MsgType::kHelloAck);
  const aig::Fingerprint fp = decode_hello_ack(ack->payload).fingerprint;

  const auto flows = sample_flows(20, 2, 6);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  const std::vector<map::QoR> expected = local.evaluate_many(flows);
  EvalRequestMsg req;
  req.request_id = 1;
  req.design = fp;
  for (const Flow& f : flows) req.flows.push_back(f.steps);
  send_frame(client, MsgType::kEvalRequest, encode_eval_request(req));
  std::vector<bool> seen(flows.size(), false);
  while (true) {
    const auto frame = recv_frame(client, 30000);
    ASSERT_TRUE(frame);
    if (frame->type == MsgType::kShardDone) {
      const ShardDoneMsg done = decode_shard_done(frame->payload);
      EXPECT_EQ(done.request_id, 1u);
      EXPECT_EQ(done.count, flows.size());
      break;
    }
    ASSERT_EQ(frame->type, MsgType::kEvalResult);
    const EvalResultMsg r = decode_eval_result(frame->payload);
    ASSERT_LT(r.index, flows.size());
    EXPECT_FALSE(seen[r.index]) << "index " << r.index << " twice";
    seen[r.index] = true;
    EXPECT_EQ(r.result, expected[r.index]);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<long>(flows.size()));

  req.request_id = 2;
  req.flows.push_back({250});  // no such step in the paper alphabet
  send_frame(client, MsgType::kEvalRequest, encode_eval_request(req));
  while (true) {
    const auto frame = recv_frame(client, 30000);
    ASSERT_TRUE(frame);
    ASSERT_NE(frame->type, MsgType::kShardDone);
    if (frame->type == MsgType::kError) {
      EXPECT_EQ(decode_error(frame->payload).request_id, 2u);
      break;
    }
    const EvalResultMsg r = decode_eval_result(frame->payload);
    ASSERT_LT(r.index, flows.size());
    EXPECT_EQ(r.result, expected[r.index]);
  }

  send_frame(client, MsgType::kPing, encode_u64(3));
  const auto pong = recv_frame(client, 10000);
  ASSERT_TRUE(pong && pong->type == MsgType::kPong);
  send_frame(client, MsgType::kShutdown, {});
  server.join();
}

TEST(ServiceTest, PooledWorkerResumesWithinARun) {
  // A pooled worker splits each shard into contiguous runs with a trail
  // each, so flows after the first of a run resume from their
  // predecessor's graphs; every label still equals the from-scratch
  // oracle.
  WorkerOptions options;
  options.design_id = "alu:4";
  options.threads = 2;
  EvalWorker worker(options);
  auto [coordinator_end, worker_end] = socket_pair();
  std::thread server([&worker, sock = std::move(worker_end)]() mutable {
    worker.serve(sock);
  });
  std::vector<EvalCoordinator::Worker> workers;
  workers.push_back(
      EvalCoordinator::Worker{std::move(coordinator_end), "thread"});
  EvalCoordinator coordinator(std::move(workers), "alu:4");
  const auto flows = sample_flows(48, 2, 9);
  const std::vector<map::QoR> labels = coordinator.evaluate_many(flows);
  coordinator.shutdown_workers();
  server.join();

  const aig::Aig design = designs::make_design("alu:4");
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  ASSERT_EQ(labels.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(labels[i], map::evaluate_qor(
                             registry.apply_steps(design, flows[i].steps)))
        << flows[i].key();
  }
  ASSERT_NE(worker.current_evaluator(), nullptr);
  EXPECT_GT(worker.current_evaluator()->stats().transforms_skipped, 0u);
}

TEST(ServiceTest, ServeForeverDrainsOpenConnectionsAfterShutdown) {
  // A Shutdown on one connection stops the accept loop, but a client that
  // is already connected keeps being served until it hangs up: its batch
  // still completes bit-identically, and only then does serve_forever
  // return.
  const std::string path = ::testing::TempDir() + "flowgen_drain_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  std::atomic<bool> returned{false};
  std::thread server([&] {
    worker.serve_forever(listener);
    returned.store(true);
  });

  Socket a = connect_to(Address::parse("unix:" + path), 5000);
  auto b = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  send_frame(a, MsgType::kShutdown, {});
  // A's connection closes once its Shutdown is handled.
  EXPECT_EQ(recv_frame(a, 10000), std::nullopt);
  // A latecomer is hung up on at once, not left unanswered in the backlog.
  Socket late = connect_to(Address::parse("unix:" + path), 5000);
  EXPECT_EQ(recv_frame(late, 10000), std::nullopt);

  const auto flows = sample_flows(12);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(b->evaluate_many(flows), local.evaluate_many(flows));
  EXPECT_FALSE(returned.load()) << "returned with a client still connected";

  b.reset();  // hang up: the last open connection drains
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!returned.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(returned.load()) << "serve_forever outlived its last client";
  server.join();
}

TEST(ServiceTest, ServeForeverHangsUpOnClientsWhenAcceptFails) {
  // A dead listener is a hard accept failure: serve_forever rethrows it at
  // once and hangs up on the connected client, instead of waiting for
  // that client to leave.
  const std::string path = ::testing::TempDir() + "flowgen_deadlisten_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  std::atomic<bool> threw{false};
  std::thread server([&] {
    try {
      worker.serve_forever(listener);
    } catch (const TransportError&) {
      threw.store(true);
    }
  });

  Socket client = connect_to(Address::parse("unix:" + path), 5000);
  send_frame(client, MsgType::kPing, encode_u64(1));
  const auto pong = recv_frame(client, 10000);  // the client is being served
  ASSERT_TRUE(pong && pong->type == MsgType::kPong);
  ::shutdown(listener.fd(), SHUT_RDWR);  // accept now fails for good
  EXPECT_EQ(recv_frame(client, 10000), std::nullopt);
  server.join();
  EXPECT_TRUE(threw.load());
}

/// `n` alu:4 EvalWorkers in this process, each serving one end of a socket
/// pair on its own thread: a fleet that TSan can follow, unlike forked
/// loopback workers. Declare it before the coordinator that takes its
/// ends, so the coordinator hangs up first and the threads can be joined.
class ThreadFleet {
 public:
  explicit ThreadFleet(std::size_t n) {
    WorkerOptions options;
    options.design_id = "alu:4";
    for (std::size_t i = 0; i < n; ++i) {
      auto [coordinator_end, worker_end] = socket_pair();
      EvalWorker& worker =
          *workers_.emplace_back(std::make_unique<EvalWorker>(options));
      threads_.emplace_back(
          [&worker, sock = std::move(worker_end)]() mutable {
            worker.serve(sock);
          });
      ends_.push_back(EvalCoordinator::Worker{std::move(coordinator_end),
                                              "thread-" + std::to_string(i)});
    }
  }
  ThreadFleet(const ThreadFleet&) = delete;
  ThreadFleet& operator=(const ThreadFleet&) = delete;
  ~ThreadFleet() {
    for (std::thread& t : threads_) t.join();
  }

  std::vector<EvalCoordinator::Worker> take_workers() {
    return std::move(ends_);
  }

 private:
  std::vector<std::unique_ptr<EvalWorker>> workers_;
  std::vector<std::thread> threads_;
  std::vector<EvalCoordinator::Worker> ends_;
};

/// Hello for alu:4 on a raw client socket; returns the acked fingerprint.
aig::Fingerprint raw_hello(Socket& sock) {
  HelloMsg hello;
  hello.design_id = "alu:4";
  send_frame(sock, MsgType::kHello, encode_hello(hello));
  const auto ack = recv_frame(sock, 10000);
  if (!ack || ack->type != MsgType::kHelloAck) {
    throw std::runtime_error("no HelloAck");
  }
  return decode_hello_ack(ack->payload).fingerprint;
}

TEST(ServiceTest, ServerKeepsServingWhileAClientStopsReading) {
  // The evald --mode server setup. Results reach the server on its
  // coordinator's loop thread, which serves every worker and every client,
  // so a client that stops reading must hold up none of them. One client
  // asks for far more results than its socket buffer holds and reads
  // nothing: a second client's batch still finishes promptly (well inside
  // the 5 s a bounded send would wait), and the stalled client, once it
  // reads again, gets its whole answer — nothing dropped its connection.
  ThreadFleet fleet(2);
  EvalCoordinator coordinator(fleet.take_workers(), "alu:4");
  const std::string path = ::testing::TempDir() + "flowgen_stall_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  std::thread server([&] {
    serve_connections(listener,
                      [&] { return make_coordinator_service(coordinator); });
  });
  const auto flows = sample_flows(8, 2, 5);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  const std::vector<map::QoR> expected = local.evaluate_many(flows);

  // About 2000 EvalResult frames: a unix socket buffers a few hundred.
  constexpr std::uint32_t kStalledResults = 2000;
  Socket stalled = connect_to(Address::parse("unix:" + path), 5000);
  EvalRequestMsg req;
  req.request_id = 7;
  req.design = raw_hello(stalled);
  for (std::uint32_t i = 0; i < kStalledResults; ++i) {
    req.flows.push_back(flows[i % flows.size()].steps);
  }
  send_frame(stalled, MsgType::kEvalRequest, encode_eval_request(req));

  auto b = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  auto batch = std::async(std::launch::async,
                          [&] { return b->evaluate_many(flows); });
  const bool prompt = batch.wait_for(std::chrono::seconds(4)) ==
                      std::future_status::ready;
  EXPECT_TRUE(prompt) << "a stalled client held up another client's batch";

  // Read the stalled stream to its end (which also frees a server that
  // waits on it, so the test finishes either way).
  std::vector<bool> seen(kStalledResults, false);
  std::uint32_t results = 0;
  std::optional<ShardDoneMsg> done;
  while (!done) {
    const auto frame = recv_frame(stalled, 30000);
    ASSERT_TRUE(frame) << "stalled client dropped after " << results
                       << " results";
    if (frame->type == MsgType::kShardDone) {
      done = decode_shard_done(frame->payload);
      break;
    }
    ASSERT_EQ(frame->type, MsgType::kEvalResult);
    const EvalResultMsg r = decode_eval_result(frame->payload);
    ASSERT_LT(r.index, kStalledResults);
    EXPECT_FALSE(seen[r.index]) << "index " << r.index << " twice";
    seen[r.index] = true;
    ASSERT_EQ(r.result, expected[r.index % flows.size()]);
    ++results;
  }
  EXPECT_EQ(results, kStalledResults);
  EXPECT_EQ(done->count, kStalledResults);
  expect_bit_identical(batch.get(), expected);
  b.reset();
  stalled.close();

  Socket stop = connect_to(Address::parse("unix:" + path), 5000);
  send_frame(stop, MsgType::kShutdown, {});
  server.join();
  coordinator.shutdown_workers();
}

TEST(ServiceTest, ServerSurvivesClientHangingUpMidStream) {
  // The evald --mode server setup. A client that hangs up after its first
  // streamed result costs only its own connection: the server's later
  // sends to it fail on that connection's thread and drop it, another
  // client's batch stays bit-identical, and a Shutdown still stops the
  // server.
  ThreadFleet fleet(2);
  EvalCoordinator coordinator(fleet.take_workers(), "alu:4");
  const std::string path = ::testing::TempDir() + "flowgen_hangup_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  std::thread server([&] {
    serve_connections(listener,
                      [&] { return make_coordinator_service(coordinator); });
  });

  {
    Socket quitter = connect_to(Address::parse("unix:" + path), 5000);
    EvalRequestMsg req;
    req.request_id = 1;
    req.design = raw_hello(quitter);
    for (const Flow& f : sample_flows(40, 2, 3)) req.flows.push_back(f.steps);
    send_frame(quitter, MsgType::kEvalRequest, encode_eval_request(req));
    const auto first = recv_frame(quitter, 30000);
    ASSERT_TRUE(first && first->type == MsgType::kEvalResult);
  }  // hang up mid-stream

  auto b = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  const auto flows = sample_flows(24, 2, 4);
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(b->evaluate_many(flows), local.evaluate_many(flows));
  b.reset();

  Socket stop = connect_to(Address::parse("unix:" + path), 5000);
  send_frame(stop, MsgType::kShutdown, {});
  server.join();
  coordinator.shutdown_workers();
}

// ------------------------------------------------ protocol v3: registries --

// The paper alphabet plus two parameterized variants (8 entries) — the
// acceptance registry for the fleet scenarios.
std::shared_ptr<const opt::TransformRegistry> extended_registry() {
  std::vector<opt::TransformSpec> specs =
      opt::TransformRegistry::paper()->specs();
  specs.push_back(opt::spec_from_text("rewrite -K 3"));
  specs.push_back(opt::spec_from_text("restructure -D 12"));
  return std::make_shared<const opt::TransformRegistry>(std::move(specs));
}

std::vector<Flow> sample_extended_flows(
    std::size_t n, const std::shared_ptr<const opt::TransformRegistry>& reg,
    std::uint64_t seed = 1) {
  const core::FlowSpace space(1, reg);  // m=1: length-8 flows stay fast
  util::Rng rng(seed);
  return space.sample_unique(n, rng);
}

// The acceptance bar for alphabets: an extended registry served by a
// 4-worker fleet whose workers were born with only the paper alphabet —
// LoadRegistry must ship the specs at handshake — bit-identical to
// in-process evaluation under the same registry.
TEST(ServiceTest, ExtendedRegistryOnFourWorkersViaLoadRegistry) {
  SKIP_UNDER_TSAN();
  const auto registry = extended_registry();
  const auto flows = sample_extended_flows(120, registry);

  WorkerOptions options;  // paper-default workers: LoadRegistry is forced
  options.design_id = "alu:4";
  LoopbackCluster cluster(4, options);
  CoordinatorConfig config;
  config.registry = registry;
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  ASSERT_EQ(coordinator.num_workers_alive(), 4u);
  EXPECT_EQ(coordinator.registry_fingerprint(), registry->fingerprint());
  const auto remote_qor = coordinator.evaluate_many(flows);

  core::EvaluatorConfig ecfg;
  ecfg.registry = registry;
  core::SynthesisEvaluator local(designs::make_design("alu:4"),
                                 map::CellLibrary::builtin(), {}, ecfg);
  expect_bit_identical(remote_qor, local.evaluate_many(flows));
  // Serial == parallel under the extended alphabet too.
  util::ThreadPool pool(4);
  core::SynthesisEvaluator parallel(designs::make_design("alu:4"),
                                    map::CellLibrary::builtin(), {}, ecfg);
  expect_bit_identical(remote_qor, parallel.evaluate_many(flows, &pool));
  coordinator.shutdown_workers();
}

TEST(ServiceTest, OneWorkerServesTwoAlphabets) {
  // One long-lived worker (thread, no fork — TSan-safe), two alphabets in
  // sequence over separate connections: the (design, registry) LRU must
  // keep both evaluators and answer each client bit-identically to
  // in-process evaluation under its own registry.
  const std::string path = ::testing::TempDir() + "flowgen_tworeg.sock";
  ::unlink(path.c_str());
  Listener listener = Listener::bind(Address::parse("unix:" + path));
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  std::thread server([&] {
    for (int i = 0; i < 3; ++i) {
      Socket conn = listener.accept(20000);
      worker.serve(conn);
    }
  });

  const auto registry = extended_registry();
  const auto paper_flows = sample_flows(10);
  const auto ext_flows = sample_extended_flows(10, registry);

  core::SynthesisEvaluator local_paper(designs::make_design("alu:4"));
  core::EvaluatorConfig ecfg;
  ecfg.registry = registry;
  core::SynthesisEvaluator local_ext(designs::make_design("alu:4"),
                                     map::CellLibrary::builtin(), {}, ecfg);

  auto paper_client = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  expect_bit_identical(paper_client->evaluate_many(paper_flows),
                       local_paper.evaluate_many(paper_flows));
  paper_client.reset();

  CoordinatorConfig ext_config;
  ext_config.registry = registry;
  auto ext_client =
      RemoteEvaluator::connect({"unix:" + path}, "alu:4", ext_config);
  expect_bit_identical(ext_client->evaluate_many(ext_flows),
                       local_ext.evaluate_many(ext_flows));
  ext_client.reset();

  // The paper alphabet is still warm — same fleet, two alphabets.
  auto paper_again = RemoteEvaluator::connect({"unix:" + path}, "alu:4");
  expect_bit_identical(paper_again->evaluate_many(paper_flows),
                       local_paper.evaluate_many(paper_flows));
  paper_again.reset();
  server.join();
  EXPECT_EQ(worker.num_designs(), 2u);  // alu:4 under paper + extended
}

TEST(ServiceTest, StoreDirFollowsRegistrySwitches) {
  SKIP_UNDER_TSAN();
  // A directory-rooted store must serve non-paper alphabets (in their own
  // reg-<fp16> subdir) instead of wedging on a fingerprint mismatch — and
  // still short-circuit a rerun.
  const std::string dir = ::testing::TempDir() + "flowgen_regstore_" +
                          std::to_string(::getpid());
  const auto registry = extended_registry();
  const auto flows = sample_extended_flows(20, registry);
  CoordinatorConfig config;
  config.registry = registry;
  WorkerOptions options;
  options.design_id = "alu:4";
  std::vector<map::QoR> first_qor;
  {
    LoopbackCluster cluster(2, options);
    EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
    coordinator.attach_store_dir(dir);
    first_qor = coordinator.evaluate_many(flows);
    EXPECT_EQ(coordinator.stats().store_appends, flows.size());
    coordinator.shutdown_workers();
  }
  LoopbackCluster cluster(2, options);
  EvalCoordinator coordinator(cluster.take_workers(), "alu:4", config);
  coordinator.attach_store_dir(dir);
  expect_bit_identical(coordinator.evaluate_many(flows), first_qor);
  EXPECT_EQ(coordinator.stats().store_hits, flows.size());
  EXPECT_EQ(coordinator.stats().requests_sent, 0u);
  // The labels live under the per-alphabet subdirectory, not the root.
  const std::string sub =
      dir + "/reg-" +
      opt::registry_fingerprint_hex(registry->fingerprint()).substr(0, 16);
  EXPECT_TRUE(std::filesystem::exists(sub));
  coordinator.shutdown_workers();
}

TEST(ServiceTest, RequestForUnloadedRegistryIsARoutedError) {
  // A hand-rolled EvalRequest naming an alphabet the worker never saw must
  // come back as an Error frame, not undefined dispatch.
  auto [client, server_sock] = socket_pair();
  WorkerOptions options;
  options.design_id = "alu:4";
  EvalWorker worker(options);
  std::thread server([&worker, sock = std::move(server_sock)]() mutable {
    worker.serve(sock);
  });

  send_frame(client, MsgType::kHello, encode_hello({}));
  const auto ack = recv_frame(client, 10000);
  ASSERT_TRUE(ack && ack->type == MsgType::kHelloAck);
  const HelloAckMsg acked = decode_hello_ack(ack->payload);

  EvalRequestMsg req;
  req.request_id = 9;
  req.design = acked.fingerprint;
  req.registry = {0xBAD, 0xC0DE};  // never loaded
  req.flows.push_back({0});
  send_frame(client, MsgType::kEvalRequest, encode_eval_request(req));
  const auto reply = recv_frame(client, 10000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kError);
  const ErrorMsg err = decode_error(reply->payload);
  EXPECT_EQ(err.request_id, 9u);
  EXPECT_NE(err.message.find("registry"), std::string::npos);

  send_frame(client, MsgType::kShutdown, {});
  server.join();
}

TEST(ServiceTest, CoordinatorStoreShortCircuitsSecondRun) {
  SKIP_UNDER_TSAN();
  const std::string dir =
      ::testing::TempDir() + "flowgen_coord_store_" +
      std::to_string(::getpid());
  const auto flows = sample_flows(40);
  std::vector<map::QoR> first_qor;
  {
    auto remote = RemoteEvaluator::loopback("alu:4", 2);
    remote->attach_store(std::make_shared<core::QorStore>(
        core::QorStoreConfig{dir, "coord-a", false, nullptr, {}}));
    first_qor = remote->evaluate_many(flows);
    EXPECT_EQ(remote->stats().store_appends, flows.size());
  }
  // Fresh fleet, fresh coordinator, same store directory: every label must
  // come from disk — zero requests cross the wire.
  auto remote = RemoteEvaluator::loopback("alu:4", 2);
  remote->attach_store(std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "coord-b", false, nullptr, {}}));
  expect_bit_identical(remote->evaluate_many(flows), first_qor);
  EXPECT_EQ(remote->stats().store_hits, flows.size());
  EXPECT_EQ(remote->stats().requests_sent, 0u);
  EXPECT_EQ(remote->stats().shards, 0u);
}

TEST(ServiceTest, SiblingCoordinatorsShareLabelsAtCompaction) {
  // Two coordinators, each with a one-worker fleet of its own, share a
  // store directory. B attaches before A labels anything, so A's labels
  // land in a sibling log that B has not read. B's compaction rescans that
  // log under its lock and folds it in; B then answers A's batch from its
  // store without sending a single request.
  const std::string dir = ::testing::TempDir() + "flowgen_sibling_store_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  ThreadFleet fleet_a(1);
  ThreadFleet fleet_b(1);
  EvalCoordinator a(fleet_a.take_workers(), "alu:4");
  EvalCoordinator b(fleet_b.take_workers(), "alu:4");
  a.attach_store(std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "coord-a", false, nullptr, {}}));
  auto store_b = std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "coord-b", false, nullptr, {}});
  b.attach_store(store_b);

  const auto flows = sample_flows(40);
  const auto qor_a = a.evaluate_many(flows);
  EXPECT_EQ(a.stats().store_appends, flows.size());
  const aig::Fingerprint fp = designs::make_design("alu:4").fingerprint();
  EXPECT_FALSE(
      store_b->lookup(fp, core::StepsView(flows[0].steps)).has_value())
      << "B saw A's label before it compacted";

  const std::string compacted = b.compact_store_text();
  EXPECT_EQ(compacted.rfind("compacted", 0), 0u) << compacted;
  const auto qor_b = b.evaluate_many(flows);
  EXPECT_EQ(b.stats().requests_sent, 0u);
  EXPECT_EQ(b.stats().store_hits, flows.size());
  expect_bit_identical(qor_b, qor_a);
  a.shutdown_workers();
  b.shutdown_workers();
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, CoordinatorAnswersStoredFlowsAndShipsOnlyTheRest) {
  // The store holds every other flow of the batch, so hits and misses
  // interleave in the caller's order and in the sorted order the store is
  // checked in. The hits are answered locally, only the misses cross the
  // wire, and every flow completes exactly once with its own label.
  const std::string dir = ::testing::TempDir() + "flowgen_partial_store_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const auto flows = sample_flows(40);
  std::vector<Flow> stored;
  for (std::size_t i = 0; i < flows.size(); i += 2) stored.push_back(flows[i]);
  ThreadFleet fleet(1);
  EvalCoordinator coordinator(fleet.take_workers(), "alu:4");
  coordinator.attach_store(std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "coord", false, nullptr, {}}));
  // The `store` admin reply says what the store holds and what it wrote:
  // after each batch, every flow that batch shipped.
  const auto store_reply = [&](const std::string& field) -> std::size_t {
    const std::string reply = coordinator.admin_text("store");
    const std::size_t at = reply.find("\n" + field + " ");
    if (at == std::string::npos) {
      ADD_FAILURE() << "no " << field << " in:\n" << reply;
      return 0;
    }
    return std::stoul(reply.substr(at + field.size() + 2));
  };
  coordinator.evaluate_many(stored);
  EXPECT_EQ(store_reply("records"), stored.size());
  EXPECT_EQ(store_reply("appends"), stored.size());
  const CoordinatorStats before = coordinator.stats();

  std::vector<std::size_t> completions(flows.size(), 0);
  const auto qor = coordinator.evaluate_many(
      flows, [&](std::size_t i, const map::QoR&) { ++completions[i]; });
  const CoordinatorStats after = coordinator.stats();
  EXPECT_EQ(after.store_hits - before.store_hits, stored.size());
  EXPECT_EQ(after.flows_dispatched - before.flows_dispatched,
            flows.size() - stored.size());
  EXPECT_EQ(completions, std::vector<std::size_t>(flows.size(), 1));
  EXPECT_EQ(store_reply("records"), flows.size());
  EXPECT_EQ(store_reply("appends"), flows.size());
  core::SynthesisEvaluator local(designs::make_design("alu:4"));
  expect_bit_identical(qor, local.evaluate_many(flows));
  coordinator.shutdown_workers();
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, WorkerAnswersStoredFlowsAndSynthesizesOnlyTheRest) {
  // The worker's store holds every other flow of a one-request batch under
  // a label no synthesis gives. Serial and pooled, the worker answers those
  // from its store and synthesizes exactly the others, looking each flow
  // up in the store once.
  const aig::Aig design = designs::make_design("alu:4");
  const auto flows = sample_flows(30, 2, 24);
  std::vector<Flow> stored;
  std::vector<map::QoR> labels;
  for (std::size_t i = 0; i < flows.size(); i += 2) {
    stored.push_back(flows[i]);
    labels.push_back(stored_label(i));
  }
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  for (const std::size_t threads : {1u, 2u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const std::string dir = ::testing::TempDir() + "flowgen_worker_store_" +
                            std::to_string(threads) + "_" +
                            std::to_string(::getpid());
    write_labels(dir, design, stored, labels);
    WorkerOptions options;
    options.design_id = "alu:4";
    options.qor_store_dir = dir;
    options.threads = threads;
    EvalWorker worker(options);
    auto [coordinator_end, worker_end] = socket_pair();
    std::thread server([&worker, sock = std::move(worker_end)]() mutable {
      worker.serve(sock);
    });
    std::vector<EvalCoordinator::Worker> workers;
    workers.push_back(
        EvalCoordinator::Worker{std::move(coordinator_end), "thread"});
    CoordinatorConfig config;
    config.shards_per_worker = 1;
    EvalCoordinator coordinator(std::move(workers), "alu:4", config);
    const std::vector<map::QoR> qor = coordinator.evaluate_many(flows);
    EXPECT_EQ(coordinator.stats().requests_sent, 1u);
    coordinator.shutdown_workers();
    server.join();

    ASSERT_EQ(qor.size(), flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      EXPECT_EQ(qor[i], i % 2 == 0 ? stored_label(i)
                                   : map::evaluate_qor(registry.apply_steps(
                                         design, flows[i].steps)))
          << "flow " << i;
    }
    ASSERT_NE(worker.current_evaluator(), nullptr);
    EXPECT_EQ(worker.current_evaluator()->evaluations(),
              flows.size() - stored.size());
    const auto stores = worker.open_stores();
    ASSERT_EQ(stores.size(), 1u);
    const core::QorStoreStats st = stores[0]->stats();
    EXPECT_EQ(st.lookups, flows.size());
    EXPECT_EQ(st.hits, stored.size());
    EXPECT_EQ(st.appends, flows.size() - stored.size());
    std::filesystem::remove_all(dir);
  }
}

TEST(ServiceTest, QuarantinedFlowIsNeverAnsweredFromTheStore) {
  // Every flow of the batch is stored and one of them is also convicted:
  // quarantine outranks the store. That flow is reported, never answered
  // (no label, no callback, no store lookup), and the rest come from the
  // store without a request crossing the wire.
  const std::string dir = ::testing::TempDir() + "flowgen_quarantine_store_" +
                          std::to_string(::getpid());
  const aig::Aig design = designs::make_design("alu:4");
  const auto flows = sample_flows(12, 2, 25);
  std::vector<map::QoR> labels;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    labels.push_back(stored_label(i));
  }
  write_labels(dir, design, flows, labels);
  constexpr std::size_t kConvicted = 5;
  core::QuarantineList(dir).add(design.fingerprint(),
                                flows[kConvicted].steps, 3, "poisoned");
  ThreadFleet fleet(1);
  EvalCoordinator coordinator(fleet.take_workers(), "alu:4");
  auto store = std::make_shared<core::QorStore>(
      core::QorStoreConfig{dir, "coord", false, nullptr, {}});
  coordinator.attach_store(store);
  std::vector<std::size_t> completions(flows.size(), 0);
  BatchReport report;
  const auto qor = coordinator.evaluate_many(
      flows, [&](std::size_t i, const map::QoR&) { ++completions[i]; },
      &report);
  EXPECT_EQ(report.quarantined, std::vector<std::size_t>{kConvicted});
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const bool convicted = i == kConvicted;
    EXPECT_EQ(completions[i], convicted ? 0u : 1u) << "flow " << i;
    EXPECT_EQ(qor[i], convicted ? map::QoR{} : labels[i]) << "flow " << i;
  }
  const CoordinatorStats stats = coordinator.stats();
  EXPECT_EQ(stats.store_hits, flows.size() - 1);
  EXPECT_EQ(stats.requests_sent, 0u);
  EXPECT_EQ(store->stats().lookups, flows.size() - 1);
  coordinator.shutdown_workers();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace flowgen::service
