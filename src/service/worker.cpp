#include "service/worker.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <list>
#include <mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "aig/reader.hpp"
#include "aig/serialize.hpp"
#include "designs/registry.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace flowgen::service {

namespace {

telemetry::Counter& scrapes_answered() {
  static telemetry::Counter& c = telemetry::counter(
      "flowgen_metrics_scrapes_total", "kGetMetrics scrapes answered");
  return c;
}

constexpr const char* kBudgetExceededMsg =
    "evaluation exceeded its wall-clock budget (watchdog)";

/// Bound on each wait of the watchdog's send, the one made off the serving
/// thread: a peer that stops reading costs its connection, never a wedged
/// watchdog.
constexpr int kSendTimeoutMs = 5000;

/// How often serve_connections re-checks its stop flag between accepts.
constexpr int kAcceptPollMs = 100;

/// Arms a per-evaluation wall-clock budget (EvalService::eval_budget_ms).
/// When the evaluation outlives it, `on_expire` fires once from the
/// watchdog thread — it must be thread-safe and nonthrowing — and
/// expired() turns true so the (still running) evaluation's late frames
/// can be suppressed. budget_ms <= 0 arms nothing. The destructor disarms
/// and joins, so on_expire never outlives its captures.
class EvalWatchdog {
 public:
  EvalWatchdog(int budget_ms, std::function<void()> on_expire) {
    if (budget_ms <= 0) return;
    thread_ = std::thread(
        [this, budget_ms, on_expire = std::move(on_expire)] {
          std::unique_lock lock(mu_);
          if (cv_.wait_for(lock, std::chrono::milliseconds(budget_ms),
                           [this] { return done_; })) {
            return;  // evaluation finished inside its budget
          }
          expired_.store(true, std::memory_order_release);
          lock.unlock();
          on_expire();
        });
  }

  EvalWatchdog(const EvalWatchdog&) = delete;
  EvalWatchdog& operator=(const EvalWatchdog&) = delete;

  ~EvalWatchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool expired() const { return expired_.load(std::memory_order_acquire); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> expired_{false};
  std::thread thread_;
};

/// A served connection sends its queued frames once this many bytes are
/// queued: a shard of store hits leaves in writes of this size instead of
/// one write per result.
constexpr std::size_t kBurstBytes = 64 * 1024;

/// The write side of one served connection: a queue of whole frames and the
/// sends that empty it. The serving thread owns the socket. It queues each
/// EvalResult in place (queue_result) and sends the queue once kBurstBytes
/// are queued, in the same send as any other frame it answers, and
/// (flush) before it waits on anything, so no result waits behind a read
/// or a synthesis. Its sends wait for the peer like any blocking socket's.
/// One send comes from another thread: the watchdog's Error. It passes a
/// timeout, which bounds both the wait for the send lock and each wait for
/// buffer space, and its frame leaves behind whatever is queued, so frames
/// keep their order. No send throws. The first failed send drops the
/// connection: the socket is shut down, which ends the serving thread's
/// recv (or blocked send), and every later send is skipped.
class FrameSender {
 public:
  explicit FrameSender(Socket& sock) : sock_(sock) {
    queued_.reserve(2 * kBurstBytes);  // a burst and the frame that ends it
  }

  /// Queue one EvalResult frame, chaining its QoR record onto `crc`
  /// (ShardDone's CRC) straight from the queued bytes. False once the
  /// connection is dropped.
  bool queue_result(const EvalResultMsg& result, std::uint32_t& crc) {
    std::unique_lock lock = lock_for(-1);
    if (!lock) return false;
    crc = util::crc32(append_eval_result_frame(queued_, result), crc);
    return queued_.size() < kBurstBytes || send_queued(-1);
  }

  /// Send what is queued. False once the connection is dropped.
  bool flush() {
    std::unique_lock lock = lock_for(-1);
    if (!lock) return false;
    return queued_.empty() || send_queued(-1);
  }

  /// Send what is queued and then one frame, in one send. timeout_ms < 0
  /// (the serving thread) waits as long as the peer takes.
  bool send(MsgType type, std::span<const std::uint8_t> payload,
            int timeout_ms = -1) {
    std::unique_lock lock = lock_for(timeout_ms);
    if (!lock) return false;
    append_frame(queued_, type, payload);
    return send_queued(timeout_ms);
  }

  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  /// The send lock, waiting at most timeout_ms for it (< 0: as long as it
  /// takes). Returned unlocked when the connection is, or is now, dropped.
  std::unique_lock<std::timed_mutex> lock_for(int timeout_ms) {
    std::unique_lock lock(mu_, std::defer_lock);
    if (timeout_ms < 0) {
      lock.lock();
    } else if (!lock.try_lock_for(std::chrono::milliseconds(timeout_ms))) {
      drop("timed out waiting for the send lock");
      return lock;
    }
    if (broken()) lock.unlock();
    return lock;
  }

  /// Send the whole queue and empty it; requires mu_.
  bool send_queued(int timeout_ms) {
    try {
      sock_.send_all(queued_.data(), queued_.size(), timeout_ms);
      queued_.clear();
      return true;
    } catch (const std::exception& e) {
      drop(e.what());
      return false;
    }
  }

  void drop(const char* why) {
    if (broken_.exchange(true, std::memory_order_acq_rel)) return;
    util::log_warn("evald: send failed, dropping connection: ", why);
    sock_.shutdown();
  }

  std::timed_mutex mu_;
  Socket& sock_;
  std::vector<std::uint8_t> queued_;  ///< whole frames not yet sent
  std::atomic<bool> broken_{false};
};

/// Results handed from the threads that compute them to a connection's
/// serving thread, the only one that sends. Each of `producers` threads
/// calls run() once; drain() emits the results on the serving thread as
/// they arrive and, once every producer has returned, hands back the first
/// error one threw (to rethrow after joining). stopped() tells producers
/// to skip the rest of their work: one failed, or the client is gone.
class ResultQueue {
 public:
  explicit ResultQueue(std::size_t producers) : producers_left_(producers) {}
  ResultQueue(const ResultQueue&) = delete;
  ResultQueue& operator=(const ResultQueue&) = delete;
  /// Producers hold references to the queue: even when drain() is left by
  /// an exception, wait for them before the queue goes away.
  ~ResultQueue() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return producers_left_ == 0; });
  }

  void push(std::uint32_t index, const map::QoR& q) {
    std::lock_guard lock(mu_);
    ready_.emplace_back(index, q);
    cv_.notify_one();
  }

  /// One producer: `produce` pushes results; what it throws stops the rest.
  void run(const std::function<void()>& produce) {
    std::exception_ptr error;
    try {
      produce();
    } catch (...) {
      error = std::current_exception();
    }
    // Notify under the lock: once the last producer is done, drain() may
    // return and the queue be destroyed.
    std::lock_guard lock(mu_);
    if (error && !error_) error_ = error;
    if (error) stopped_ = true;
    --producers_left_;
    cv_.notify_one();
  }

  bool stopped() const { return stopped_; }

  /// `flush` runs before every wait for a producer, so what `emit` queued
  /// never waits behind one.
  std::exception_ptr drain(
      const std::function<bool(std::uint32_t, const map::QoR&)>& emit,
      const std::function<bool()>& flush) {
    std::vector<std::pair<std::uint32_t, map::QoR>> batch;
    std::unique_lock lock(mu_);
    while (producers_left_ > 0 || !ready_.empty()) {
      if (ready_.empty()) {
        lock.unlock();
        if (!flush()) stopped_ = true;  // the client is gone
        lock.lock();
        cv_.wait(lock,
                 [this] { return !ready_.empty() || producers_left_ == 0; });
      }
      batch.swap(ready_);
      lock.unlock();
      for (const auto& [index, q] : batch) {
        if (!emit(index, q)) stopped_ = true;  // the client is gone
      }
      batch.clear();
      lock.lock();
    }
    return error_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<std::uint32_t, map::QoR>> ready_;
  std::size_t producers_left_;
  std::exception_ptr error_;
  std::atomic<bool> stopped_{false};
};

/// Evaluate the flows at `misses` (indices into `flows`, which
/// lookup_many left unanswered) on `pool` and emit each result on this
/// thread as soon as it completes. The misses are split into
/// min(n, 4 x pool) contiguous runs, one task and one trail each; requests
/// arrive as lexicographic runs (coordinator shards), so each flow resumes
/// from the graphs its predecessor in the run left behind. Nothing waits
/// for a run to finish, so one shard keeps the whole pool busy while every
/// result still leaves as its own frame, sent before this thread next waits
/// for the pool; and pool threads never send, so a client that stops
/// reading holds up only this thread.
void stream_on_pool(
    const core::SynthesisEvaluator& evaluator,
    const std::vector<core::Flow>& flows,
    const std::vector<std::uint32_t>& misses, util::ThreadPool& pool,
    const std::function<bool(std::uint32_t, const map::QoR&)>& emit,
    const std::function<bool()>& flush) {
  const std::size_t runs = std::min(misses.size(), pool.size() * 4);
  ResultQueue queue(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t begin = r * misses.size() / runs;
    const std::size_t end = (r + 1) * misses.size() / runs;
    pool.submit([&queue, &evaluator, &flows, &misses, begin, end] {
      queue.run([&] {
        core::SynthesisEvaluator::Trail trail;
        for (std::size_t m = begin; m < end && !queue.stopped(); ++m) {
          const std::uint32_t i = misses[m];
          queue.push(i, evaluator.evaluate(flows[i], trail));
        }
      });
    });
  }
  if (const std::exception_ptr error = queue.drain(emit, flush)) {
    std::rethrow_exception(error);
  }
}

}  // namespace

bool serve_frames(Socket& sock, const EvalService& service,
                  ServeStats* stats) {
  ServeStats unshared;  // counts nobody reads when the caller passes none
  ServeStats& st = stats ? *stats : unshared;
  st.connections_total.fetch_add(1, std::memory_order_relaxed);
  st.connections_open.fetch_add(1, std::memory_order_relaxed);
  struct Cleanup {
    ServeStats& st;
    ~Cleanup() { st.connections_open.fetch_sub(1, std::memory_order_relaxed); }
  } cleanup{st};
  FrameSender sender(sock);
  const auto send_error = [&](std::uint64_t request_id,
                              const std::string& message,
                              int timeout_ms = -1) {
    if (sender.send(MsgType::kError, encode_error({request_id, message}),
                    timeout_ms)) {
      st.errors.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // Nothing queued may wait behind the next read.
  while (sender.flush()) {
    std::optional<Frame> frame;
    try {
      frame = recv_frame(sock);
    } catch (const std::exception& e) {
      util::log_warn("evald: connection lost: ", e.what());
      return false;
    }
    if (!frame) return false;  // clean EOF — client went away

    try {
      switch (frame->type) {
        case MsgType::kHello: {
          const HelloMsg hello = decode_hello(frame->payload);
          if (hello.version != kProtocolVersion) {
            send_error(0, "unsupported protocol version " +
                              std::to_string(hello.version));
            break;
          }
          sender.send(MsgType::kHelloAck,
                      encode_hello_ack(service.on_hello(hello)));
          break;
        }
        case MsgType::kLoadDesign: {
          // decode_binary rejects corrupt/non-canonical netlists with a
          // typed error, answered as an Error frame below.
          aig::Aig design = aig::decode_binary(frame->payload);
          const aig::Fingerprint fp =
              service.on_load_design(std::move(design), frame->payload);
          sender.send(MsgType::kLoadDesignAck, encode_load_design_ack(fp));
          break;
        }
        case MsgType::kLoadRegistry: {
          // decode re-validates every spec; malformed alphabets are a typed
          // RegistryError, answered as an Error frame below.
          std::shared_ptr<const opt::TransformRegistry> registry =
              opt::TransformRegistry::decode(frame->payload);
          const opt::RegistryFingerprint fp =
              service.on_load_registry(std::move(registry), frame->payload);
          sender.send(MsgType::kLoadRegistryAck,
                      encode_load_registry_ack(fp));
          break;
        }
        case MsgType::kEvalRequest: {
          EvalRequestMsg req = decode_eval_request(frame->payload);
          telemetry::Span span("serve", "handle_eval");
          span.arg("request_id", req.request_id);
          span.arg("flows", static_cast<std::uint64_t>(req.flows.size()));
          st.requests.fetch_add(1, std::memory_order_relaxed);
          st.flows_received.fetch_add(req.flows.size(),
                                      std::memory_order_relaxed);
          std::vector<core::Flow> flows;
          flows.reserve(req.flows.size());
          for (core::StepsKey& steps : req.flows) {
            flows.push_back(core::Flow{std::move(steps)});
          }
          // Watchdog: a hung transform answers the request with a typed
          // Error *now* (the client requeues the shard elsewhere) instead
          // of wedging this connection until the client's timeout drops
          // the whole worker.
          EvalWatchdog watchdog(service.eval_budget_ms,
                                [&send_error, id = req.request_id] {
                                  send_error(id, kBudgetExceededMsg,
                                             kSendTimeoutMs);
                                });
          // One EvalResult per flow as it completes, then ShardDone with
          // the emitted count and a CRC-32 chained over the 32-byte QoR
          // records in emission order. Results are queued and leave in
          // bursts (FrameSender); the ShardDone carries the last of them.
          std::uint32_t emitted = 0;
          std::uint32_t crc = 0;
          const auto emit = [&](std::uint32_t index, const map::QoR& q) {
            ++emitted;
            if (watchdog.expired()) return true;
            if (!sender.queue_result({req.request_id, index, q}, crc)) {
              return false;
            }
            st.results_streamed.fetch_add(1, std::memory_order_relaxed);
            return true;
          };
          const auto flush = [&] { return sender.flush(); };
          try {
            service.on_eval(req.design, req.registry, std::move(flows), emit,
                            flush);
          } catch (const std::exception& e) {
            // Evaluator failure: already-emitted results stand (they are
            // correct and the client applied them); the error closes the
            // rest of the stream.
            if (!watchdog.expired()) send_error(req.request_id, e.what());
            break;
          }
          // Budget blown: the watchdog already answered with an Error;
          // a trailing ShardDone would be a stale frame.
          if (watchdog.expired()) break;
          sender.send(MsgType::kShardDone,
                      encode_shard_done({req.request_id, emitted, crc}));
          break;
        }
        case MsgType::kPing:
          sender.send(MsgType::kPong, frame->payload);
          break;
        case MsgType::kGetMetrics: {
          scrapes_answered().inc();
          sender.send(MsgType::kMetricsText,
                      encode_metrics_text({decode_u64(frame->payload),
                                           telemetry::render_prometheus()}));
          break;
        }
        case MsgType::kShutdown:
          return true;
        default:
          send_error(0, "unexpected message type");
          break;
      }
    } catch (const std::exception& e) {
      // Bad payloads / rejected hellos / rejected designs: report and keep
      // serving.
      send_error(0, e.what());
    }
  }
  return false;  // a send failed and dropped the connection
}

void serve_connections(Listener& listener,
                       const std::function<EvalService()>& make_service,
                       ServeStats* stats) {
  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::atomic<bool> stop{false};
  std::list<Connection> connections;  // stable addresses for the threads
  const auto reap = [&connections](bool all) {
    connections.remove_if([all](Connection& c) {
      if (!all && !c.done.load(std::memory_order_acquire)) return false;
      if (c.thread.joinable()) c.thread.join();
      return true;
    });
  };
  try {
    while (true) {
      reap(false);
      const bool draining = stop.load(std::memory_order_acquire);
      if (draining && connections.empty()) break;
      Socket sock;
      try {
        sock = listener.accept(kAcceptPollMs);
      } catch (const AcceptTimeout&) {
        continue;  // re-check the stop flag and reap
      }
      if (draining) {
        // After a Shutdown a latecomer (a coordinator re-dialing, say) is
        // hung up on at once instead of waiting in the backlog unanswered.
        util::log_info("evald: draining, closing a new connection");
        continue;
      }
      util::log_info("evald: client connected");
      Connection& c = connections.emplace_back();
      c.sock = std::move(sock);
      c.thread = std::thread([&stop, &make_service, stats, &c] {
        try {
          if (serve_frames(c.sock, make_service(), stats)) {
            util::log_info("evald: shutdown requested");
            stop.store(true, std::memory_order_release);
          }
        } catch (const std::exception& e) {
          util::log_warn("evald: connection failed: ", e.what());
        }
        c.done.store(true, std::memory_order_release);
      });
    }
  } catch (...) {
    // A hard accept failure (fd exhaustion, dead listener) surfaces now:
    // hang up on the open connections so their threads return promptly.
    for (Connection& c : connections) c.sock.shutdown();
    reap(true);
    throw;
  }
}

EvalWorker::EvalWorker(WorkerOptions options) : options_(std::move(options)) {
  options_.max_designs = std::max<std::size_t>(1, options_.max_designs);
  const auto& registry = default_registry();
  registries_.emplace(registry->fingerprint(), registry);
  registries_.emplace(opt::paper_registry_fingerprint(),
                      opt::TransformRegistry::paper());
  // Open the default store now (no other thread exists yet): an unusable
  // --store directory should fail worker startup, not the first request.
  if (!options_.qor_store_dir.empty()) store_locked(registry);
  if (!options_.design_id.empty()) {
    std::lock_guard lock(mutex_);
    ensure_design_locked(options_.design_id, registry);
  }
  if (!options_.design_file.empty()) {
    aig::Aig design = aig::read_blif_file(options_.design_file);
    std::lock_guard lock(mutex_);
    adopt_locked(std::move(design), "", registry);
  }
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

const std::shared_ptr<const opt::TransformRegistry>&
EvalWorker::default_registry() const {
  return options_.evaluator.registry ? options_.evaluator.registry
                                     : opt::TransformRegistry::paper();
}

std::shared_ptr<const opt::TransformRegistry>
EvalWorker::find_registry_locked(const opt::RegistryFingerprint& fp) const {
  const auto it = registries_.find(fp);
  return it == registries_.end() ? nullptr : it->second;
}

opt::RegistryFingerprint EvalWorker::load_registry(
    std::shared_ptr<const opt::TransformRegistry> registry) {
  const opt::RegistryFingerprint fp = registry->fingerprint();
  std::lock_guard lock(mutex_);
  registries_.emplace(fp, std::move(registry));
  return fp;
}

std::shared_ptr<core::QorStore> EvalWorker::store_locked(
    const std::shared_ptr<const opt::TransformRegistry>& registry) {
  if (options_.qor_store_dir.empty()) return nullptr;
  const opt::RegistryFingerprint fp = registry->fingerprint();
  if (const auto it = stores_.find(fp); it != stores_.end()) {
    return it->second;
  }
  // One directory per alphabet: the configured root for the paper registry
  // (pre-registry stores keep working in place), reg-<fp> below it for any
  // other — QorStore itself refuses mixed-alphabet directories.
  core::QorStoreConfig config;
  config.dir = registry->is_paper()
                   ? options_.qor_store_dir
                   : options_.qor_store_dir + "/reg-" +
                         opt::registry_fingerprint_hex(fp).substr(0, 16);
  config.registry = registry;
  auto store = std::make_shared<core::QorStore>(std::move(config));
  stores_.emplace(fp, store);
  return store;
}

std::shared_ptr<core::SynthesisEvaluator> EvalWorker::find(
    const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry) {
  std::lock_guard lock(mutex_);
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->fp == fp && it->registry == registry) {
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front().evaluator;
    }
  }
  return nullptr;
}

EvalWorker::DesignEntry& EvalWorker::adopt_locked(
    aig::Aig design, std::string design_id,
    std::shared_ptr<const opt::TransformRegistry> registry) {
  DesignEntry entry;
  entry.fp = design.fingerprint();
  entry.registry = registry->fingerprint();
  entry.design_id = std::move(design_id);
  core::EvaluatorConfig config = options_.evaluator;
  config.registry = registry;
  entry.evaluator = std::make_shared<core::SynthesisEvaluator>(
      std::move(design), map::CellLibrary::builtin(), map::MapperParams{},
      config);
  if (const auto store = store_locked(registry)) {
    entry.evaluator->attach_store(store);
  }
  designs_.push_front(std::move(entry));
  while (designs_.size() > options_.max_designs) {
    util::log_info("evald worker: evicting design ",
                   designs_.back().design_id.empty()
                       ? aig::fingerprint_hex(designs_.back().fp)
                       : designs_.back().design_id);
    designs_.pop_back();
  }
  return designs_.front();
}

EvalWorker::DesignEntry& EvalWorker::ensure_design_locked(
    const std::string& design_id,
    std::shared_ptr<const opt::TransformRegistry> registry) {
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->design_id == design_id &&
        it->registry == registry->fingerprint()) {
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front();
    }
  }
  // make_design throws std::invalid_argument for unknown ids; the serve
  // loop answers that with an Error frame.
  aig::Aig design = designs::make_design(design_id);
  return adopt_locked(std::move(design), design_id, std::move(registry));
}

aig::Fingerprint EvalWorker::load_design(
    aig::Aig design, std::shared_ptr<const opt::TransformRegistry> registry) {
  const aig::Fingerprint fp = design.fingerprint();
  const opt::RegistryFingerprint reg = registry->fingerprint();
  if (find(fp, reg)) return fp;  // already instantiated, memo intact
  std::lock_guard lock(mutex_);
  // Two clients can race the same netlist here; re-check under the lock so
  // the second shares the first's evaluator instead of replacing it.
  for (const DesignEntry& e : designs_) {
    if (e.fp == fp && e.registry == reg) return fp;
  }
  adopt_locked(std::move(design), "", std::move(registry));
  return fp;
}

std::shared_ptr<core::SynthesisEvaluator> EvalWorker::evaluator_for(
    const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry) {
  if (auto evaluator = find(fp, registry)) return evaluator;
  // Pair miss. The design may be instantiated under another alphabet (the
  // graph is inside that evaluator) and the registry may have arrived via
  // LoadRegistry — then a fresh evaluator for the pair is one copy away.
  std::lock_guard lock(mutex_);
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->fp == fp && it->registry == registry) {  // raced another client
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front().evaluator;
    }
  }
  std::shared_ptr<const opt::TransformRegistry> reg =
      find_registry_locked(registry);
  if (!reg) {
    throw opt::RegistryError("registry " +
                             opt::registry_fingerprint_hex(registry) +
                             " not loaded on this worker");
  }
  for (const DesignEntry& e : designs_) {
    if (e.fp == fp) {
      aig::Aig design = e.evaluator->design();  // copy under the lock
      return adopt_locked(std::move(design), e.design_id, std::move(reg))
          .evaluator;
    }
  }
  throw std::runtime_error("design " + aig::fingerprint_hex(fp) +
                           " not loaded on this worker");
}

HelloAckMsg EvalWorker::ack_front_locked() const {
  HelloAckMsg ack;
  if (const DesignEntry* front =
          designs_.empty() ? nullptr : &designs_.front()) {
    ack.design_id = front->design_id;
    ack.fingerprint = front->fp;
  }
  return ack;
}

EvalService EvalWorker::make_service() {
  // Per-connection alphabet: the one the client announced (Hello) or
  // shipped (LoadRegistry) most recently, so a shipped netlist is
  // instantiated under the registry the client will actually request with
  // — not the worker default, which would burn an LRU slot on an
  // evaluator nobody uses. A connection is served by one thread, so plain
  // shared state needs no lock.
  auto conn_registry = std::make_shared<
      std::shared_ptr<const opt::TransformRegistry>>(default_registry());
  EvalService service;
  service.on_hello = [this, conn_registry](const HelloMsg& hello) {
    std::lock_guard lock(mutex_);
    // Serve the client's alphabet when we have it; otherwise ack our
    // default so the client knows to ship a LoadRegistry.
    std::shared_ptr<const opt::TransformRegistry> registry =
        find_registry_locked(hello.registry);
    if (!registry) registry = default_registry();
    *conn_registry = registry;
    if (!hello.design_id.empty()) {
      ensure_design_locked(hello.design_id, registry);
    }
    HelloAckMsg ack = ack_front_locked();
    ack.registry = registry->fingerprint();
    return ack;
  };
  service.on_load_design = [this, conn_registry](
                               aig::Aig design,
                               std::span<const std::uint8_t>) {
    return load_design(std::move(design), *conn_registry);
  };
  service.on_load_registry =
      [this, conn_registry](
          std::shared_ptr<const opt::TransformRegistry> registry,
          std::span<const std::uint8_t>) {
        *conn_registry = registry;
        return load_registry(std::move(registry));
      };
  service.eval_budget_ms = options_.eval_budget_ms;
  service.on_eval =
      [this](const aig::Fingerprint& fp,
             const opt::RegistryFingerprint& registry,
             std::vector<core::Flow> flows,
             const std::function<bool(std::uint32_t, const map::QoR&)>& emit,
             const std::function<bool()>& flush) {
        // Chaos hooks: "worker.eval.pre" fires once per request,
        // "worker.eval.flow" is keyed by the hex of a flow's step bytes so a
        // *specific* flow can be made poisonous (crash/delay/error follows
        // it to whichever worker it is requeued on). Both compile out under
        // -DFLOWGEN_FAILPOINTS=OFF and cost one relaxed load when idle.
        FLOWGEN_FAILPOINT("worker.eval.pre");
        for (const core::Flow& f : flows) {
          FLOWGEN_FAILPOINT_KEYED(
              "worker.eval.flow",
              util::failpoint::key_hex(f.steps.data(),
                                       f.steps.size() * sizeof(opt::StepId)));
        }
        // Evaluate outside the designs lock: evaluators are thread-safe, so
        // concurrent connections on the same design share its memo.
        const std::shared_ptr<core::SynthesisEvaluator> evaluator =
            evaluator_for(fp, registry);
        // Labels the store or the memo already holds first: they join the
        // queued burst, emitted after the store lock is released. The
        // request arrives pre-sorted (coordinator shards are lexicographic
        // runs), so the whole request is one merge over the store. A false
        // emit or flush: the connection is gone, nobody will read the rest.
        std::vector<std::uint32_t> misses;
        {
          std::vector<map::QoR> known(flows.size());
          std::vector<bool> answered(flows.size());
          evaluator->lookup_many(flows, {}, known, answered);
          for (std::size_t i = 0; i < flows.size(); ++i) {
            const auto index = static_cast<std::uint32_t>(i);
            if (!answered[i]) {
              misses.push_back(index);
            } else if (!emit(index, known[i])) {
              return;
            }
          }
        }
        if (pool_) {
          stream_on_pool(*evaluator, flows, misses, *pool_, emit, flush);
          return;
        }
        // Then one flow at a time along the request's trail, each result
        // emitted as it completes: the coordinator applies (and persists)
        // it as it lands. A synthesis first sends the queue, so no result
        // waits behind it.
        core::SynthesisEvaluator::Trail trail;
        for (const std::uint32_t i : misses) {
          if (!flush()) return;
          if (!emit(i, evaluator->evaluate(flows[i], trail))) return;
        }
      };
  return service;
}

bool EvalWorker::serve(Socket& sock) {
  return serve_frames(sock, make_service(), &serve_stats_);
}

void apply_worker_rlimits(const WorkerOptions& options) {
  const auto apply = [](int resource, const char* name, rlim_t limit) {
    rlimit rl{};
    rl.rlim_cur = limit;
    rl.rlim_max = limit;
    if (::setrlimit(resource, &rl) != 0) {
      // Best effort: an already-lower hard limit or an unprivileged raise
      // attempt should not kill a worker that would otherwise serve fine.
      util::log_warn("evald worker: setrlimit(", name,
                     ") failed: ", std::strerror(errno));
    } else {
      util::log_info("evald worker: ", name, " capped at ",
                     static_cast<unsigned long long>(limit));
    }
  };
  if (options.rlimit_as_mb > 0) {
    apply(RLIMIT_AS, "RLIMIT_AS",
          static_cast<rlim_t>(options.rlimit_as_mb) * 1024 * 1024);
  }
  if (options.rlimit_cpu_s > 0) {
    apply(RLIMIT_CPU, "RLIMIT_CPU",
          static_cast<rlim_t>(options.rlimit_cpu_s));
  }
}

std::string worker_admin_text(const EvalWorker& worker,
                              const std::string& command) {
  if (command == "stats") {
    const ServeStats& s = worker.serve_stats();
    std::ostringstream os;
    os << "connections_total " << s.connections_total.load() << '\n'
       << "connections_open " << s.connections_open.load() << '\n'
       << "requests " << s.requests.load() << '\n'
       << "flows_received " << s.flows_received.load() << '\n'
       << "results_streamed " << s.results_streamed.load() << '\n'
       << "errors " << s.errors.load() << '\n'
       << "designs_loaded " << worker.num_designs() << '\n';
    return os.str();
  }
  if (command == "store") {
    const auto stores = worker.open_stores();
    if (stores.empty()) return "no store configured";
    std::ostringstream os;
    for (const auto& store : stores) {
      const core::QorStoreStats st = store->stats();
      os << "registry "
         << opt::registry_fingerprint_hex(store->registry_fingerprint())
         << " records " << store->size() << " epoch " << store->epoch()
         << " appends " << st.appends
         << " compactions " << st.compactions << '\n';
    }
    return os.str();
  }
  if (command == "compact") {
    const auto stores = worker.open_stores();
    if (stores.empty()) return "no store configured";
    std::ostringstream os;
    for (const auto& store : stores) {
      os << opt::registry_fingerprint_hex(store->registry_fingerprint());
      try {
        const auto r = store->compact();
        if (r.performed) {
          os << " compacted epoch=" << r.epoch << " records=" << r.records
             << " logs_folded=" << r.logs_folded << '\n';
        } else {
          os << " skipped (lock busy or store empty)\n";
        }
      } catch (const std::exception& e) {
        os << " err " << e.what() << '\n';
      }
    }
    return os.str();
  }
  // Local scrape surface: evalctl reads a single worker here without going
  // through a coordinator; the fleet view is the server's "metrics".
  if (command == "metrics") return telemetry::render_prometheus();
  if (command == "failpoints") return util::failpoint::describe();
  if (command.rfind("failpoint ", 0) == 0) {
    const std::string rest = command.substr(10);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) return "err usage: failpoint <name> <spec>";
    const std::string name = rest.substr(0, sp);
    const std::string spec = rest.substr(sp + 1);
    try {
      util::failpoint::configure(name, spec);
    } catch (const std::exception& e) {
      return std::string("err ") + e.what();
    }
    return "ok " + name + " = " + spec;
  }
  if (command == "help") {
    return "commands: stats store compact metrics failpoints failpoint help "
           "quit";
  }
  return "err unknown command '" + command + "' (try help)";
}

void EvalWorker::serve_forever(Listener& listener) {
  serve_connections(listener, [this] { return make_service(); },
                    &serve_stats_);
}

EvalService make_coordinator_service(EvalCoordinator& coordinator) {
  EvalService svc;
  svc.on_hello = [&coordinator](const HelloMsg& hello) {
    auto [id, fp] = coordinator.design_identity();
    if (!hello.design_id.empty() && hello.design_id != id) {
      // Unknown ids throw std::invalid_argument -> an Error frame. The
      // broadcast is labeled with the *requested* id (not the netlist's
      // own name) so the ack satisfies registry-mode clients, which
      // require the acked id to equal what they asked for.
      const aig::Aig design = designs::make_design(hello.design_id);
      coordinator.load_design(aig::encode_binary(design),
                              design.fingerprint(), hello.design_id);
      std::tie(id, fp) = coordinator.design_identity();
    }
    // The ack is a consistent (id, fp) snapshot: if another client swapped
    // the design in between, the client sees a coherent *different* design
    // and rejects the handshake loudly instead of mislabeling silently.
    // The registry field works like the worker's: echo the client's
    // alphabet iff the fleet already serves it, otherwise answer with the
    // fleet's current one — the client then ships a LoadRegistry, which is
    // re-broadcast below.
    HelloAckMsg ack;
    ack.design_id = std::move(id);
    ack.fingerprint = fp;
    ack.registry = coordinator.registry_fingerprint();
    return ack;
  };
  svc.on_load_design = [&coordinator](aig::Aig design,
                                      std::span<const std::uint8_t> blob) {
    const aig::Fingerprint fp = design.fingerprint();
    if (fp != coordinator.design_fingerprint()) {
      coordinator.load_design(blob, fp, std::move(design.name));
    }
    return fp;
  };
  svc.on_load_registry =
      [&coordinator](std::shared_ptr<const opt::TransformRegistry> registry,
                     std::span<const std::uint8_t> blob) {
        const opt::RegistryFingerprint fp = registry->fingerprint();
        if (fp != coordinator.registry_fingerprint()) {
          coordinator.load_registry(std::move(registry), blob);
        }
        return fp;
      };
  svc.on_eval =
      [&coordinator](const aig::Fingerprint& fp,
                     const opt::RegistryFingerprint& registry,
                     std::vector<core::Flow> flows,
                     const std::function<bool(std::uint32_t, const map::QoR&)>&
                         emit,
                     const std::function<bool()>& flush) {
        // The fingerprint check and the batch submission are atomic inside
        // the coordinator — a plain check-then-evaluate would race a
        // concurrent client's load_design/load_registry. Fleets compose
        // under streaming: results land on the coordinator's loop thread as
        // its workers stream them. That thread serves every worker and
        // every client's batch, so it must never wait on this client's
        // socket: it only queues each result, and this connection's own
        // thread forwards the queue while a helper thread runs the batch.
        ResultQueue queue(1);
        std::jthread batch([&] {
          queue.run([&] {
            coordinator.evaluate_many_for(
                fp, registry, flows,
                [&queue](std::size_t index, const map::QoR& q) {
                  queue.push(static_cast<std::uint32_t>(index), q);
                });
          });
        });
        const std::exception_ptr error = queue.drain(emit, flush);
        batch.join();
        if (error) std::rethrow_exception(error);
      };
  return svc;
}

}  // namespace flowgen::service
