#include "service/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <iomanip>
#include <numeric>
#include <sstream>

#include <unistd.h>

#include "aig/serialize.hpp"
#include "service/admin.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace flowgen::service {

namespace {

struct CoordMetrics {
  telemetry::Counter& dispatches;
  telemetry::Counter& shards_done;
  telemetry::Counter& requeued_shards;
  telemetry::Counter& requeued_flows;
  telemetry::Counter& rescued_flows;
  telemetry::Counter& workers_lost;
  telemetry::Counter& loop_iterations;
  telemetry::Histogram& shard_ms;
};

CoordMetrics& coord_metrics() {
  static CoordMetrics m{
      telemetry::counter("flowgen_coordinator_dispatches_total",
                         "Shard requests dispatched (including reruns)"),
      telemetry::counter("flowgen_coordinator_shards_done_total",
                         "Shards retired (ShardDone)"),
      telemetry::counter("flowgen_coordinator_requeued_shards_total",
                         "Requeue shards formed at worker losses"),
      telemetry::counter("flowgen_coordinator_requeued_flows_total",
                         "Flows sent back to the queue at worker losses"),
      telemetry::counter("flowgen_coordinator_rescued_flows_total",
                         "Flows already received when their worker was lost"),
      telemetry::counter("flowgen_coordinator_workers_lost_total",
                         "Worker loss declarations"),
      telemetry::counter("flowgen_coordinator_loop_iterations_total",
                         "Coordinator event-loop iterations"),
      telemetry::histogram("flowgen_coordinator_shard_ms",
                           "Shard round-trip latency (ms)",
                           telemetry::default_ms_buckets()),
  };
  return m;
}

/// Poller tag of the wake pipe; workers use their table index.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
/// Bound on the retained shard-latency sample window.
constexpr std::size_t kMaxLatencySamples = 4096;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string netlist_label(const aig::Aig& design) {
  if (!design.name.empty()) return design.name;
  return "netlist:" + aig::fingerprint_hex(design.fingerprint()).substr(0, 16);
}

bool name_is_address(const std::string& name) {
  try {
    (void)Address::parse(name);
    return true;
  } catch (const TransportError&) {
    return false;
  }
}

const char* breaker_name(int b) {
  switch (b) {
    case 1:
      return "open";
    case 2:
      return "half-open";
    default:
      return "closed";
  }
}

/// Bound on the stale-request ring (request ids closed by a typed worker
/// error whose late frames must not cost the sender its slot).
constexpr std::size_t kMaxRememberedFailures = 128;

}  // namespace

EvalCoordinator::EvalCoordinator(std::vector<Worker> workers,
                                 std::string design_id,
                                 CoordinatorConfig config)
    : EvalCoordinator(std::move(workers), std::move(design_id), nullptr,
                      std::move(config)) {}

EvalCoordinator::EvalCoordinator(std::vector<Worker> workers,
                                 const aig::Aig& design,
                                 CoordinatorConfig config)
    : EvalCoordinator(std::move(workers), netlist_label(design), &design,
                      std::move(config)) {}

EvalCoordinator::EvalCoordinator(std::vector<Worker> workers,
                                 std::string design_id,
                                 const aig::Aig* netlist,
                                 CoordinatorConfig config)
    : design_id_(std::move(design_id)),
      registry_(config.registry ? config.registry
                                : opt::TransformRegistry::paper()),
      config_(std::move(config)) {
  config_.max_inflight_per_worker =
      std::max<std::size_t>(1, config_.max_inflight_per_worker);
  config_.shards_per_worker =
      std::max<std::size_t>(1, config_.shards_per_worker);
  if (config_.quarantine_after > 0) {
    // Isolation must come before conviction: a flow is only convicted
    // alone, so it needs at least one singleton run-through first.
    config_.isolate_after = std::clamp<std::size_t>(
        config_.isolate_after, 1, config_.quarantine_after);
  }
  quarantine_ = std::make_shared<core::QuarantineList>();
  // Jitter only — results never touch this stream, so a wall-clock/pid
  // seed costs no reproducibility where it matters.
  reconnect_rng_.reseed(static_cast<std::uint64_t>(::getpid()) * 0x9E3779B9ull ^
                        static_cast<std::uint64_t>(now_ms()));
  if (netlist) {
    // Netlist mode: serialize once; qualify() ships the blob to every
    // worker (and admit_worker re-ships it to returning ones).
    design_blob_ = aig::encode_binary(*netlist);
    design_fp_ = netlist->fingerprint();
  }
  registry_blob_ = registry_->encode();

  poller_.add(wake_.read_fd(), /*want_read=*/true, /*want_write=*/false,
              kWakeTag);
  for (Worker& w : workers) {
    WorkerState state;
    state.name = std::move(w.name);
    state.addressable = name_is_address(state.name);
    WorkerSnapshot snap;
    snap.name = state.name;
    if (qualify(state, w.sock, config_.request_timeout_ms)) {
      state.conn = std::make_unique<FrameConn>(std::move(w.sock));
      state.alive = true;
      snap.alive = true;
      poller_.add(state.conn->fd(), /*want_read=*/true, /*want_write=*/false,
                  workers_.size());
    }
    workers_.push_back(std::move(state));
    snapshots_.push_back(std::move(snap));
    if (!workers_.back().alive) schedule_retry(workers_.size() - 1, now_ms());
  }
  if (num_alive_loop() == 0) {
    throw ServiceError("no worker completed the handshake for design '" +
                       design_id_ + "'");
  }
  if (!config_.admin_addr.empty()) {
    admin_ = std::make_unique<AdminServer>(
        Address::parse(config_.admin_addr), [this](const std::string& cmd) {
          // `metrics` needs the loop thread (it broadcasts a scrape) and
          // `compact` mutates the store, so neither shares the const
          // read-only admin_text path.
          if (cmd == "metrics") return fleet_metrics_text();
          if (cmd == "compact") return compact_store_text();
          return admin_text(cmd);
        });
  }
  loop_thread_ = std::thread([this] { loop(); });
}

EvalCoordinator::~EvalCoordinator() {
  admin_.reset();  // stop answering probes before the state goes away
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  wake_.notify();
  if (loop_thread_.joinable()) loop_thread_.join();
}

// ---------------------------------------------------------------- handshake --

bool EvalCoordinator::qualify(WorkerState& state, Socket& sock,
                              int timeout_ms) {
  // Snapshot identity under the lock, handshake without it: qualify runs
  // blocking I/O (constructor thread before the loop exists, or the loop
  // thread itself for admit/reconnect) and mu_ is never held across I/O.
  std::string design_id;
  aig::Fingerprint design_fp;
  std::vector<std::uint8_t> design_blob;
  std::vector<std::uint8_t> registry_blob;
  opt::RegistryFingerprint registry_fp;
  {
    std::lock_guard lock(mu_);
    design_id = design_id_;
    design_fp = design_fp_;
    design_blob = design_blob_;
    registry_blob = registry_blob_;
    registry_fp = registry_->fingerprint();
  }
  HelloMsg hello;
  // A shipped-blob design is re-shipped below, so the Hello names no
  // registry design; a registry-id fleet asks the worker to elaborate it.
  hello.design_id = design_blob.empty() ? design_id : "";
  hello.registry = registry_fp;
  try {
    send_frame(sock, MsgType::kHello, encode_hello(hello), timeout_ms);
    const auto ack = recv_frame(sock, timeout_ms);
    if (ack && ack->type == MsgType::kHelloAck) {
      const HelloAckMsg acked = decode_hello_ack(ack->payload);
      if (acked.version != kProtocolVersion) {
        util::log_warn("coordinator: worker ", state.name,
                       " speaks protocol v", static_cast<int>(acked.version),
                       ", want v", static_cast<int>(kProtocolVersion),
                       " — dropped");
        return false;
      }
      // Alphabet first — before any design lands — so a shipped netlist is
      // instantiated under the registry requests will actually name, not
      // the worker's default.
      if (acked.registry != registry_fp &&
          !ship_registry(sock, state.name, registry_blob, registry_fp,
                         timeout_ms)) {
        return false;
      }
      if (!design_blob.empty()) {
        return ship_design(sock, state.name, design_blob, design_fp,
                           timeout_ms);
      }
      if (design_id.empty()) return true;  // deferred fleet: design later
      if (acked.design_id != design_id) {
        // The ack names the design the worker actually serves; a mismatch
        // would mean silently labeling the wrong circuit.
        util::log_warn("coordinator: worker ", state.name,
                       " serves design '", acked.design_id, "', want '",
                       design_id, "' — dropped");
        return false;
      }
      if (design_fp != kNoDesign && acked.fingerprint != design_fp) {
        // Same id, different content: a stale registry on that machine.
        // Fingerprint consensus keeps "bit-identical across the fleet"
        // true by construction.
        util::log_warn("coordinator: worker ", state.name,
                       " disagrees on the fingerprint of '", design_id,
                       "' — dropped");
        return false;
      }
      if (design_fp == kNoDesign) {
        // First worker to answer elects the consensus fingerprint.
        std::lock_guard lock(mu_);
        if (design_fp_ == kNoDesign) {
          design_fp_ = acked.fingerprint;
        } else if (design_fp_ != acked.fingerprint) {
          util::log_warn("coordinator: worker ", state.name,
                         " disagrees on the fingerprint of '", design_id,
                         "' — dropped");
          return false;
        }
      }
      return true;
    }
    if (ack && ack->type == MsgType::kError) {
      const ErrorMsg err = decode_error(ack->payload);
      util::log_warn("coordinator: worker ", state.name,
                     " rejected handshake: ", err.message);
    } else {
      util::log_warn("coordinator: worker ", state.name, " failed handshake");
    }
  } catch (const std::exception& e) {
    util::log_warn("coordinator: worker ", state.name,
                   " unreachable: ", e.what());
  }
  return false;
}

bool EvalCoordinator::ship_registry(Socket& sock, const std::string& name,
                                    std::span<const std::uint8_t> blob,
                                    const opt::RegistryFingerprint& fp,
                                    int timeout_ms) {
  try {
    send_frame(sock, MsgType::kLoadRegistry, blob, timeout_ms);
    const auto ack = recv_frame(sock, timeout_ms);
    if (ack && ack->type == MsgType::kLoadRegistryAck) {
      if (decode_load_registry_ack(ack->payload) == fp) return true;
      util::log_warn("coordinator: worker ", name,
                     " acked the wrong registry fingerprint");
    } else if (ack && ack->type == MsgType::kError) {
      const ErrorMsg err = decode_error(ack->payload);
      util::log_warn("coordinator: worker ", name,
                     " rejected registry: ", err.message);
    } else {
      util::log_warn("coordinator: worker ", name,
                     " failed the registry load");
    }
  } catch (const std::exception& e) {
    util::log_warn("coordinator: worker ", name,
                   " lost during registry load: ", e.what());
  }
  return false;
}

bool EvalCoordinator::ship_design(Socket& sock, const std::string& name,
                                  std::span<const std::uint8_t> blob,
                                  const aig::Fingerprint& fp,
                                  int timeout_ms) {
  try {
    send_frame(sock, MsgType::kLoadDesign, blob, timeout_ms);
    const auto ack = recv_frame(sock, timeout_ms);
    if (ack && ack->type == MsgType::kLoadDesignAck) {
      if (decode_load_design_ack(ack->payload) == fp) return true;
      util::log_warn("coordinator: worker ", name,
                     " acked the wrong design fingerprint");
    } else if (ack && ack->type == MsgType::kError) {
      const ErrorMsg err = decode_error(ack->payload);
      util::log_warn("coordinator: worker ", name,
                     " rejected design: ", err.message);
    } else {
      util::log_warn("coordinator: worker ", name, " failed the design load");
    }
  } catch (const std::exception& e) {
    util::log_warn("coordinator: worker ", name,
                   " lost during design load: ", e.what());
  }
  return false;
}

void EvalCoordinator::activate_worker(std::size_t w, Socket sock) {
  WorkerState& worker = workers_[w];
  worker.conn = std::make_unique<FrameConn>(std::move(sock));
  worker.alive = true;
  worker.deadline_ms = 0;
  worker.retry_at_ms = 0;
  worker.backoff_ms = 0;  // a successful handshake resets the backoff
  if (worker.breaker == Breaker::kOpen) {
    // Full re-admission has to be earned: the returning worker gets one
    // probe shard (half-open) and only its completion closes the breaker.
    worker.breaker = Breaker::kHalfOpen;
  }
  poller_.add(worker.conn->fd(), /*want_read=*/true, /*want_write=*/false, w);
  {
    std::lock_guard lock(mu_);
    snapshots_[w].alive = true;
    snapshots_[w].breaker = breaker_name(static_cast<int>(worker.breaker));
    snapshots_[w].backoff_ms = worker.backoff_ms;
    ++stats_.workers_readmitted;
  }
  util::log_info("coordinator: worker ", worker.name, " (re)admitted",
                 worker.breaker == Breaker::kHalfOpen
                     ? " (breaker half-open: single probe shard)"
                     : "");
}

bool EvalCoordinator::admit_worker(Worker worker) {
  bool admitted = false;
  run_command(
      [&] {
        std::size_t w = workers_.size();
        for (std::size_t i = 0; i < workers_.size(); ++i) {
          if (workers_[i].name != worker.name) continue;
          if (workers_[i].alive) {
            util::log_warn("coordinator: worker ", worker.name,
                           " is already in rotation — candidate rejected");
            return;
          }
          w = i;  // revive the dead slot in place
          break;
        }
        if (w == workers_.size()) {
          WorkerState state;
          state.name = worker.name;
          state.addressable = name_is_address(state.name);
          WorkerSnapshot snap;
          snap.name = state.name;
          workers_.push_back(std::move(state));
          std::lock_guard lock(mu_);
          snapshots_.push_back(std::move(snap));
        }
        const int timeout = std::min(config_.request_timeout_ms, 5000);
        if (!qualify(workers_[w], worker.sock, timeout)) {
          schedule_retry(w, now_ms());
          return;
        }
        activate_worker(w, std::move(worker.sock));
        admitted = true;
      },
      /*requires_idle=*/false);
  return admitted;
}

// ------------------------------------------------------------ caller thread --

void EvalCoordinator::run_command(std::function<void()> fn,
                                  bool requires_idle) {
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  {
    std::lock_guard lock(mu_);
    if (stopping_) throw ServiceError("coordinator is shutting down");
    commands_.push_back(Command{
        [fn = std::move(fn), done] {
          try {
            fn();
            done->set_value();
          } catch (...) {
            done->set_exception(std::current_exception());
          }
        },
        requires_idle});
  }
  wake_.notify();
  fut.get();
}

std::vector<map::QoR> EvalCoordinator::evaluate_many(
    std::span<const core::Flow> flows, ResultCallback on_result,
    BatchReport* report) {
  return evaluate_many_impl(flows, std::move(on_result), nullptr, nullptr,
                            report);
}

std::vector<map::QoR> EvalCoordinator::evaluate_many_for(
    const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry,
    std::span<const core::Flow> flows, ResultCallback on_result,
    BatchReport* report) {
  return evaluate_many_impl(flows, std::move(on_result), &fp, &registry,
                            report);
}

std::vector<map::QoR> EvalCoordinator::evaluate_many_impl(
    std::span<const core::Flow> flows, ResultCallback on_result,
    const aig::Fingerprint* want_fp,
    const opt::RegistryFingerprint* want_registry, BatchReport* report) {
  std::vector<map::QoR> out(flows.size());
  auto batch = std::make_shared<Batch>();
  std::shared_ptr<const opt::TransformRegistry> registry;
  std::shared_ptr<const core::QuarantineList> quarantine;
  {
    std::lock_guard lock(mu_);
    ++stats_.batches;
    if (stopping_) throw ServiceError("coordinator is shutting down");
    // The atomic identity check for server connections: verified under the
    // same lock the batch later pins its fingerprints from.
    if (want_fp && *want_fp != design_fp_) {
      throw ServiceError("design " + aig::fingerprint_hex(*want_fp) +
                         " is not the fleet's current design");
    }
    if (want_registry && *want_registry != registry_->fingerprint()) {
      throw ServiceError("registry " +
                         opt::registry_fingerprint_hex(*want_registry) +
                         " is not the fleet's current alphabet");
    }
    if (flows.empty()) return out;
    if (design_fp_ == kNoDesign) {
      throw ServiceError(
          "evaluate_many on a deferred fleet: load a design first");
    }
    if (store_ && store_->registry_fingerprint() != registry_->fingerprint()) {
      // load_registry switched alphabets after the store was attached; its
      // labels no longer describe these step bytes.
      throw opt::RegistryError(
          "evaluate_many: attached QorStore is keyed by registry " +
          opt::registry_fingerprint_hex(store_->registry_fingerprint()) +
          " but the fleet now serves " +
          opt::registry_fingerprint_hex(registry_->fingerprint()));
    }
    registry = registry_;
    quarantine = quarantine_;
    batch->design_fp = design_fp_;
    batch->registry_fp = registry_->fingerprint();
    batch->store = store_;
  }
  // Alphabet guard mirroring SynthesisEvaluator::evaluate — a stray id
  // fails here, typed, before any frame or store write.
  for (const core::Flow& f : flows) registry->validate_steps(f.steps);

  batch->flows = flows;
  batch->out = &out;
  batch->on_result = std::move(on_result);
  batch->flow_done.assign(flows.size(), false);

  // Labels already in the store never cross the wire: answer them locally
  // (callback included — a store hit *is* a completed flow) and dispatch
  // only the remainder. Flows already convicted as poisoned never cross
  // the wire either — they are surfaced in the batch report, not rerun,
  // and never answered from the store. Flows are checked in
  // prefix-affinity order, the in-process engine's batch schedule: for one
  // design it is the store's own order, so one merge per segment answers
  // the batch under one store lock, and the remainder comes out in the
  // order its shards need — runs of sibling flows that one worker trail
  // resumes along.
  std::vector<std::size_t> order = core::lexicographic_order(flows);
  if (quarantine) {
    for (const std::size_t i : order) {
      if (quarantine->contains(batch->design_fp, flows[i].steps)) {
        batch->flow_done[i] = true;
        batch->quarantined.push_back(i);
      }
    }
  }
  const std::size_t hits =
      batch->store ? batch->store->lookup_sorted(batch->design_fp, flows,
                                                 order, out, batch->flow_done)
                   : 0;
  // Callbacks run after the store lock is released. `quarantined` lists
  // its flows in `order`'s sequence, so one cursor tells them from hits.
  std::size_t kept = 0;
  std::size_t q = 0;
  for (const std::size_t i : order) {
    if (!batch->flow_done[i]) {
      order[kept++] = i;
    } else if (q < batch->quarantined.size() && batch->quarantined[q] == i) {
      ++q;
    } else if (batch->on_result) {
      batch->on_result(i, out[i]);
    }
  }
  order.resize(kept);
  batch->flows_remaining = order.size();
  if (hits) {
    std::lock_guard lock(mu_);
    stats_.store_hits += hits;
  }
  if (order.empty()) {
    surface_quarantined(*batch, report);
    return out;
  }

  const std::size_t alive = std::max<std::size_t>(1, num_workers_alive());
  const std::size_t num_shards =
      std::min(order.size(), alive * config_.shards_per_worker);
  batch->shards.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t begin = s * order.size() / num_shards;
    const std::size_t end = (s + 1) * order.size() / num_shards;
    batch->shards[s].indices.assign(
        order.begin() + static_cast<std::ptrdiff_t>(begin),
        order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  batch->pending.resize(num_shards);
  std::iota(batch->pending.begin(), batch->pending.end(), 0);

  {
    std::unique_lock lock(mu_);
    if (stopping_) throw ServiceError("coordinator is shutting down");
    if (batch->design_fp != design_fp_ ||
        batch->registry_fp != registry_->fingerprint()) {
      // A load_design/load_registry slipped in while we were doing store
      // lookups; the hits above are keyed by the old identity.
      throw ServiceError("fleet identity changed during batch preparation");
    }
    stats_.shards += num_shards;
    submissions_.push_back(batch);
    wake_.notify();
    cv_.wait(lock, [&] { return batch->finished; });
  }
  if (batch->failed) throw ServiceError(batch->error);
  surface_quarantined(*batch, report);
  return out;
}

// Quarantined flows must never be silently dropped: either the caller
// asked for a report (indices land there, the returned QoRs stay
// default) or the batch throws typed so the caller can react.
void EvalCoordinator::surface_quarantined(Batch& b, BatchReport* report) {
  if (b.quarantined.empty()) return;
  std::sort(b.quarantined.begin(), b.quarantined.end());
  if (report) {
    report->quarantined.insert(report->quarantined.end(),
                               b.quarantined.begin(), b.quarantined.end());
    return;
  }
  throw FlowQuarantined(
      std::to_string(b.quarantined.size()) +
          " flow(s) quarantined as poisoned (first index " +
          std::to_string(b.quarantined.front()) +
          "); pass a BatchReport to receive partial results",
      b.quarantined);
}

// ----------------------------------------------------------- identity ops --

void EvalCoordinator::load_design(std::span<const std::uint8_t> blob,
                                  const aig::Fingerprint& fp,
                                  std::string label) {
  run_command([&] { load_design_on_loop(blob, fp, std::move(label)); },
              /*requires_idle=*/true);
}

void EvalCoordinator::load_design(const aig::Aig& design) {
  const auto blob = aig::encode_binary(design);
  load_design(blob, design.fingerprint(), netlist_label(design));
}

void EvalCoordinator::load_design_on_loop(std::span<const std::uint8_t> blob,
                                          const aig::Fingerprint& fp,
                                          std::string label) {
  if (label.empty()) {
    // An unnamed shipped netlist must still be identifiable in logs and
    // acks — same fallback the netlist constructor path uses.
    label = "netlist:" + aig::fingerprint_hex(fp).substr(0, 16);
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    if (!ship_design(workers_[w].conn->socket(), workers_[w].name, blob, fp,
                     config_.request_timeout_ms)) {
      lose_worker(w, "design load failed");
    }
  }
  if (num_alive_loop() == 0) {
    throw ServiceError("no worker accepted design '" + label + "'");
  }
  std::lock_guard lock(mu_);
  design_fp_ = fp;
  design_id_ = std::move(label);
  design_blob_.assign(blob.begin(), blob.end());
}

void EvalCoordinator::load_registry(
    std::shared_ptr<const opt::TransformRegistry> registry,
    std::span<const std::uint8_t> blob) {
  run_command([&] { load_registry_on_loop(std::move(registry), blob); },
              /*requires_idle=*/true);
}

void EvalCoordinator::load_registry_on_loop(
    std::shared_ptr<const opt::TransformRegistry> registry,
    std::span<const std::uint8_t> blob) {
  const opt::RegistryFingerprint fp = registry->fingerprint();
  {
    std::lock_guard lock(mu_);
    if (fp == registry_->fingerprint()) return;
  }
  std::vector<std::uint8_t> encoded;
  if (blob.empty()) {
    encoded = registry->encode();
  } else {
    encoded.assign(blob.begin(), blob.end());
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    if (!ship_registry(workers_[w].conn->socket(), workers_[w].name, encoded,
                       fp, config_.request_timeout_ms)) {
      lose_worker(w, "registry load failed");
    }
  }
  if (num_alive_loop() == 0) {
    throw ServiceError("no worker accepted registry " +
                       opt::registry_fingerprint_hex(fp));
  }
  {
    std::lock_guard lock(mu_);
    registry_ = std::move(registry);
    registry_blob_ = std::move(encoded);
    // Directory-rooted stores follow the alphabet (paper labels in the
    // root, others in reg-<fp16>/); an explicitly attached store stays put
    // and the evaluate-time guard turns any mismatch into a typed error.
    open_store_for_registry_locked();
  }
}

void EvalCoordinator::shutdown_workers() {
  run_command(
      [&] {
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          WorkerState& worker = workers_[w];
          if (!worker.alive) continue;
          worker.conn->enqueue(MsgType::kShutdown, {});
          // Best-effort flush: the frame is 12 bytes, so one POLLOUT wait
          // is plenty; a worker that cannot take it is already gone.
          while (worker.conn->want_write()) {
            pollfd pfd{worker.conn->fd(), POLLOUT, 0};
            if (::poll(&pfd, 1, 1000) <= 0) break;
            if (worker.conn->on_writable() != FrameConn::Io::kOk) break;
          }
          poller_.del(worker.conn->fd());
          worker.conn.reset();
          worker.alive = false;
          worker.retry_at_ms = 0;  // deliberate: do not re-dial
          std::lock_guard lock(mu_);
          snapshots_[w].alive = false;
        }
      },
      /*requires_idle=*/true);
}

void EvalCoordinator::attach_store(std::shared_ptr<core::QorStore> store) {
  std::lock_guard lock(mu_);
  if (store && store->registry_fingerprint() != registry_->fingerprint()) {
    // Store records are (design fp, packed steps) — under a different
    // alphabet the same bytes mean different flows. Loud and typed.
    throw opt::RegistryError(
        "attach_store: QorStore registry fingerprint " +
        opt::registry_fingerprint_hex(store->registry_fingerprint()) +
        " does not match the fleet's " +
        opt::registry_fingerprint_hex(registry_->fingerprint()));
  }
  store_root_.clear();  // explicit store wins over directory mode
  store_ = std::move(store);
  // Quarantine verdicts live next to the labels they gate: file-backed
  // when a store directory exists, memory-only otherwise.
  quarantine_ = store_ ? std::make_shared<core::QuarantineList>(store_->dir())
                       : std::make_shared<core::QuarantineList>();
}

void EvalCoordinator::attach_store_dir(std::string root) {
  std::lock_guard lock(mu_);
  store_root_ = std::move(root);
  open_store_for_registry_locked();
}

void EvalCoordinator::open_store_for_registry_locked() {
  if (store_root_.empty()) return;
  core::QorStoreConfig config;
  config.dir = registry_->is_paper()
                   ? store_root_
                   : store_root_ + "/reg-" +
                         opt::registry_fingerprint_hex(registry_->fingerprint())
                             .substr(0, 16);
  config.registry = registry_;
  store_ = std::make_shared<core::QorStore>(std::move(config));
  quarantine_ = std::make_shared<core::QuarantineList>(store_->dir());
}

// ----------------------------------------------------------------- getters --

std::size_t EvalCoordinator::num_workers_alive() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const WorkerSnapshot& s : snapshots_) n += s.alive ? 1 : 0;
  return n;
}

std::size_t EvalCoordinator::num_alive_loop() const {
  std::size_t n = 0;
  for (const WorkerState& w : workers_) n += w.alive ? 1 : 0;
  return n;
}

CoordinatorStats EvalCoordinator::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::vector<WorkerSnapshot> EvalCoordinator::worker_snapshots() const {
  std::lock_guard lock(mu_);
  return snapshots_;
}

std::shared_ptr<const core::QuarantineList> EvalCoordinator::quarantine()
    const {
  std::lock_guard lock(mu_);
  return quarantine_;
}

const Address& EvalCoordinator::admin_address() const {
  if (!admin_) throw ServiceError("coordinator has no admin socket");
  return admin_->address();
}

void EvalCoordinator::set_response_observer(
    std::function<void(std::size_t)> observer) {
  std::lock_guard lock(mu_);
  response_observer_ = std::make_shared<const std::function<void(std::size_t)>>(
      std::move(observer));
}

void EvalCoordinator::set_progress_observer(
    std::function<void(std::size_t)> observer) {
  std::lock_guard lock(mu_);
  progress_observer_ = std::make_shared<const std::function<void(std::size_t)>>(
      std::move(observer));
}

std::string EvalCoordinator::admin_text(const std::string& command) const {
  std::ostringstream os;
  if (command == "stats") {
    CoordinatorStats s;
    std::string id;
    std::string rfp;
    std::size_t alive = 0;
    std::size_t total = 0;
    {
      std::lock_guard lock(mu_);
      s = stats_;
      id = design_id_;
      rfp = opt::registry_fingerprint_hex(registry_->fingerprint());
      total = snapshots_.size();
      for (const WorkerSnapshot& w : snapshots_) alive += w.alive ? 1 : 0;
    }
    os << "design " << (id.empty() ? "-" : id) << '\n';
    os << "registry " << rfp << '\n';
    os << "workers_alive " << alive << '\n';
    os << "workers_total " << total << '\n';
    os << "batches " << s.batches << '\n';
    os << "active_batches " << s.active_batches << '\n';
    os << "queue_depth " << s.queue_depth << '\n';
    os << "shards " << s.shards << '\n';
    os << "shards_done " << s.shards_done << '\n';
    os << "requests_sent " << s.requests_sent << '\n';
    os << "flows_dispatched " << s.flows_dispatched << '\n';
    os << "flows_streamed " << s.flows_streamed << '\n';
    os << "requeues " << s.requeues << '\n';
    os << "flows_requeued " << s.flows_requeued << '\n';
    os << "flows_rescued " << s.flows_rescued << '\n';
    os << "workers_lost " << s.workers_lost << '\n';
    os << "workers_readmitted " << s.workers_readmitted << '\n';
    os << "store_hits " << s.store_hits << '\n';
    os << "store_appends " << s.store_appends << '\n';
    os << "store_errors " << s.store_errors << '\n';
    os << "eval_errors " << s.eval_errors << '\n';
    os << "flows_quarantined " << s.flows_quarantined << '\n';
    os << "breaker_trips " << s.breaker_trips << '\n';
    return os.str();
  }
  if (command == "store") {
    std::shared_ptr<core::QorStore> store;
    {
      std::lock_guard lock(mu_);
      store = store_;
    }
    if (!store) return "no store attached";
    const core::QorStoreStats st = store->stats();
    os << "registry "
       << opt::registry_fingerprint_hex(store->registry_fingerprint()) << '\n';
    os << "records " << store->size() << '\n';
    os << "epoch " << store->epoch() << '\n';
    os << "segments_loaded " << st.segments_loaded << '\n';
    os << "segment_records_loaded " << st.segment_records_loaded << '\n';
    os << "logs_loaded " << st.files_loaded << '\n';
    os << "log_records_loaded " << st.records_loaded << '\n';
    os << "log_truncations " << st.log_truncations << '\n';
    os << "appends " << st.appends << '\n';
    os << "compactions " << st.compactions << '\n';
    return os.str();
  }
  if (command == "workers") {
    std::vector<WorkerSnapshot> snaps = worker_snapshots();
    if (snaps.empty()) return "no workers";
    os << std::fixed << std::setprecision(1);
    for (const WorkerSnapshot& w : snaps) {
      os << w.name << ' ' << (w.alive ? "alive" : "lost")
         << " inflight_shards=" << w.inflight_shards
         << " inflight_flows=" << w.inflight_flows
         << " shards_done=" << w.shards_done << " flows_done=" << w.flows_done
         << " losses=" << w.losses << " breaker=" << w.breaker
         << " recent_failures=" << w.recent_failures
         << " backoff_ms=" << w.backoff_ms
         << " last_shard_ms=" << w.last_shard_ms
         << " mean_shard_ms=" << w.mean_shard_ms << '\n';
    }
    return os.str();
  }
  if (command == "quarantine") {
    std::shared_ptr<const core::QuarantineList> q;
    {
      std::lock_guard lock(mu_);
      q = quarantine_;
    }
    const std::vector<core::QuarantineEntry> entries = q->entries();
    os << "quarantined " << entries.size() << '\n';
    if (!q->path().empty()) os << "file " << q->path() << '\n';
    for (const core::QuarantineEntry& e : entries) {
      os << aig::fingerprint_hex(e.design).substr(0, 16) << ' '
         << e.steps.size() << "-step losses=" << e.losses << ' ' << e.reason
         << '\n';
    }
    return os.str();
  }
  if (command == "failpoints") return util::failpoint::describe();
  if (command.rfind("failpoint ", 0) == 0) {
    // "failpoint <name> <spec>" — arm; "failpoint <name> off" — disarm.
    const std::string rest = command.substr(10);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) {
      return "err usage: failpoint <name> <spec>";
    }
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
    return "commands: stats workers store quarantine failpoints "
           "failpoint compact metrics help quit";
  }
  return "err unknown command '" + command + "' (try help)";
}

std::string EvalCoordinator::compact_store_text() {
  std::shared_ptr<core::QorStore> store;
  {
    std::lock_guard lock(mu_);
    store = store_;
  }
  if (!store) return "no store attached";
  try {
    const core::QorStore::CompactionResult r = store->compact();
    if (!r.performed) return "skipped (lock busy or store empty)";
    std::ostringstream os;
    os << "compacted epoch=" << r.epoch << " records=" << r.records
       << " logs_folded=" << r.logs_folded;
    return os.str();
  } catch (const std::exception& e) {
    return std::string("err ") + e.what();
  }
}

// --------------------------------------------------------------- event loop --

void EvalCoordinator::loop() {
  for (;;) {
    coord_metrics().loop_iterations.inc();
    {
      std::lock_guard lock(mu_);
      if (stopping_) break;
    }
    drain_submissions_and_commands();
    update_breakers(now_ms());
    pump_dispatch();
    update_queue_gauges();
    const auto& events = poller_.wait(loop_wait_ms());
    for (const Poller::Event& ev : events) {
      if (ev.tag == kWakeTag) {
        wake_.drain();
        continue;
      }
      const std::size_t w = static_cast<std::size_t>(ev.tag);
      if (w >= workers_.size() || !workers_[w].alive) continue;
      if (ev.error) {
        lose_worker(w, "socket error");
        continue;
      }
      if (ev.readable) on_worker_readable(w);
      if (!workers_[w].alive) continue;
      if (ev.writable) {
        if (workers_[w].conn->on_writable() == FrameConn::Io::kError) {
          lose_worker(w, "write failed");
          continue;
        }
        poller_.mod(workers_[w].conn->fd(), /*want_read=*/true,
                    workers_[w].conn->want_write(), w);
      }
    }
    const std::int64_t now = now_ms();
    check_deadlines(now);
    try_reconnects(now);
  }
  // Shutting down: everything still queued or open fails loudly, and
  // leftover commands run so their callers unblock (their fns observe
  // whatever worker state remains and throw through their promises).
  fail_active_batches("coordinator shutting down");
  for (;;) {
    Command cmd;
    {
      std::lock_guard lock(mu_);
      if (commands_.empty()) break;
      cmd = std::move(commands_.front());
      commands_.pop_front();
    }
    cmd.fn();
  }
}

void EvalCoordinator::drain_submissions_and_commands() {
  for (;;) {
    std::vector<std::shared_ptr<Batch>> newly;
    std::vector<Command> cmds;
    {
      std::lock_guard lock(mu_);
      // An idle-requiring command at the front gates new activations, so a
      // steady stream of batches cannot starve load_design forever; the
      // queued batches activate right after it (and fail the identity
      // check if the command changed the fleet under them).
      const bool gate = !commands_.empty() && commands_.front().requires_idle;
      if (!gate) newly.swap(submissions_);
      while (!commands_.empty()) {
        if (commands_.front().requires_idle &&
            !(active_.empty() && newly.empty())) {
          break;
        }
        cmds.push_back(std::move(commands_.front()));
        commands_.pop_front();
      }
    }
    for (const std::shared_ptr<Batch>& b : newly) activate_batch(b);
    for (Command& c : cmds) c.fn();
    if (newly.empty() && cmds.empty()) return;
  }
}

void EvalCoordinator::activate_batch(const std::shared_ptr<Batch>& batch) {
  {
    std::lock_guard lock(mu_);
    if (batch->design_fp != design_fp_ ||
        batch->registry_fp != registry_->fingerprint()) {
      // An identity op ran between submit and activation; the batch's
      // store hits and pinned fingerprints describe the old fleet.
      batch->finished = true;
      batch->failed = true;
      batch->error = "fleet identity changed while the batch was queued";
      cv_.notify_all();
      return;
    }
  }
  active_.push_back(batch);
  if (num_alive_loop() == 0 && !reconnect_possible()) {
    fail_active_batches("no live workers and no reconnect configured");
  }
}

bool EvalCoordinator::reconnect_possible() const {
  if (config_.reconnect_ms <= 0) return false;
  for (const WorkerState& w : workers_) {
    if (!w.alive && w.retry_at_ms > 0) return true;
  }
  return false;
}

int EvalCoordinator::loop_wait_ms() const {
  std::int64_t earliest = -1;
  for (const WorkerState& w : workers_) {
    if (w.alive && !w.inflight.empty() && w.deadline_ms > 0) {
      if (earliest < 0 || w.deadline_ms < earliest) earliest = w.deadline_ms;
    }
    if (!w.alive && w.retry_at_ms > 0) {
      if (earliest < 0 || w.retry_at_ms < earliest) earliest = w.retry_at_ms;
    }
    if (w.alive && w.breaker == Breaker::kOpen &&
        w.breaker_open_until_ms > 0) {
      // Wake for the open -> half-open transition, else a quiet loop could
      // sit on the 60 s heartbeat with a probe-ready worker idle.
      if (earliest < 0 || w.breaker_open_until_ms < earliest) {
        earliest = w.breaker_open_until_ms;
      }
    }
  }
  if (earliest < 0) return 60 * 1000;  // safety heartbeat
  return static_cast<int>(
      std::clamp<std::int64_t>(earliest - now_ms(), 0, 60 * 1000));
}

void EvalCoordinator::update_queue_gauges() {
  std::size_t depth = 0;
  for (const std::shared_ptr<Batch>& b : active_) depth += b->pending.size();
  std::lock_guard lock(mu_);
  stats_.queue_depth = depth;
  stats_.active_batches = active_.size();
}

void EvalCoordinator::update_worker_snapshot(std::size_t w) {
  std::size_t shards = workers_[w].inflight.size();
  std::size_t flows = 0;
  for (const Inflight& fl : workers_[w].inflight) {
    flows += fl.received.size() - fl.received_count;
  }
  std::lock_guard lock(mu_);
  snapshots_[w].alive = workers_[w].alive;
  snapshots_[w].inflight_shards = shards;
  snapshots_[w].inflight_flows = flows;
  snapshots_[w].breaker = breaker_name(static_cast<int>(workers_[w].breaker));
  snapshots_[w].recent_failures = workers_[w].failure_times.size();
  snapshots_[w].backoff_ms = workers_[w].backoff_ms;
}

// ---------------------------------------------------------------- dispatch --

std::size_t EvalCoordinator::pick_worker(bool probe) const {
  std::size_t best = workers_.size();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerState& worker = workers_[w];
    if (!worker.alive) continue;
    // Circuit breaker: an open breaker takes no work at all; a half-open
    // one gets exactly one probe shard (nothing else inflight).
    if (worker.breaker == Breaker::kOpen) continue;
    if (worker.breaker == Breaker::kHalfOpen && !worker.inflight.empty()) {
      continue;
    }
    if (worker.inflight.size() >= config_.max_inflight_per_worker) continue;
    // Probe exclusivity, both directions: a probe shard boards an idle
    // worker only, and a worker already carrying a probe takes nothing
    // else. A crash mid-probe then has exactly one undelivered suspect —
    // the attribution quarantine convictions rest on.
    if (probe && !worker.inflight.empty()) continue;
    bool probing = false;
    for (const Inflight& fl : worker.inflight) {
      if (fl.batch->shards[fl.shard_idx].probe) {
        probing = true;
        break;
      }
    }
    if (probing) continue;
    // Backpressure: a worker whose socket is not draining takes no new
    // work — its queue would only grow in our memory instead of its.
    if (worker.conn->want_write()) continue;
    if (best == workers_.size() ||
        worker.inflight.size() < workers_[best].inflight.size()) {
      best = w;
    }
  }
  return best;
}

void EvalCoordinator::pump_dispatch() {
  // Fairness: rotating dispatch across open batches, one shard at a time.
  // The cursor advances on every *dispatch* (not per sweep): however
  // little capacity the fleet has — even a single slot — consecutive
  // slots go to consecutive batches. Advancing only after a full sweep
  // would park the cursor on one batch whenever capacity ran out
  // mid-sweep, which on a one-slot fleet degenerates to FIFO.
  while (!active_.empty()) {
    const std::size_t nb = active_.size();
    fair_cursor_ %= nb;
    bool dispatched = false;
    for (std::size_t t = 0; t < nb; ++t) {
      const std::size_t bi = (fair_cursor_ + t) % nb;
      const std::shared_ptr<Batch> batch = active_[bi];
      if (batch->pending.empty()) continue;
      // Eligibility is shard-shaped (a probe needs an idle worker), so a
      // batch whose head shard cannot board yet must not stall the other
      // batches — skip it, not the whole sweep.
      const std::size_t shard_idx = batch->pending.front();
      const std::size_t w = pick_worker(batch->shards[shard_idx].probe);
      if (w == workers_.size()) continue;
      batch->pending.pop_front();
      fair_cursor_ = (bi + 1) % nb;
      if (!dispatch_to(w, batch, shard_idx)) {
        batch->pending.push_front(shard_idx);
        // lose_worker may retire/fail batches and reshuffle active_;
        // the restarted sweep below runs against the fresh table.
        lose_worker(w, "send failed");
      }
      dispatched = true;
      break;
    }
    if (!dispatched) return;  // no batch has pending work
  }
}

bool EvalCoordinator::dispatch_to(std::size_t w,
                                  const std::shared_ptr<Batch>& batch,
                                  std::size_t shard_idx) {
  try {
    FLOWGEN_FAILPOINT("coordinator.dispatch");
  } catch (const util::FailpointError&) {
    return false;  // chaos: injected dispatch failure == send failed
  }
  WorkerState& worker = workers_[w];
  const Shard& shard = batch->shards[shard_idx];
  EvalRequestMsg req;
  req.request_id = next_request_id_++;
  req.design = batch->design_fp;
  req.registry = batch->registry_fp;
  req.flows.reserve(shard.indices.size());
  for (const std::size_t i : shard.indices) {
    req.flows.push_back(batch->flows[i].steps);
  }
  if (worker.conn->enqueue(MsgType::kEvalRequest, encode_eval_request(req)) ==
      FrameConn::Io::kError) {
    return false;
  }
  poller_.mod(worker.conn->fd(), /*want_read=*/true, worker.conn->want_write(),
              w);
  Inflight fl;
  fl.request_id = req.request_id;
  fl.batch = batch;
  fl.shard_idx = shard_idx;
  fl.received.assign(shard.indices.size(), false);
  fl.sent_ms = now_ms();
  worker.inflight.push_back(std::move(fl));
  if (worker.inflight.size() == 1) {
    worker.deadline_ms = now_ms() + config_.request_timeout_ms;
  }
  ++batch->shards_inflight;
  coord_metrics().dispatches.inc();
  {
    std::lock_guard lock(mu_);
    ++stats_.requests_sent;
    stats_.flows_dispatched += shard.indices.size();
  }
  update_worker_snapshot(w);
  return true;
}

// ------------------------------------------------------------------ intake --

void EvalCoordinator::on_worker_readable(std::size_t w) {
  std::vector<Frame> frames;
  const FrameConn::Io io = workers_[w].conn->on_readable(frames);
  if (!frames.empty()) {
    // Any frame is proof of life: the deadline bounds *silence*, so a
    // slow worker streaming a huge shard is never declared dead while it
    // keeps making progress.
    workers_[w].deadline_ms = now_ms() + config_.request_timeout_ms;
    for (Frame& frame : frames) {
      if (!workers_[w].alive) break;  // a bad frame dropped it mid-batch
      handle_frame(w, frame);
    }
  }
  if (!workers_[w].alive) return;
  if (io == FrameConn::Io::kEof) {
    lose_worker(w, workers_[w].inflight.empty() ? "peer closed"
                                                : "peer closed mid-shard");
  } else if (io == FrameConn::Io::kError) {
    lose_worker(w, "read failed");
  }
}

void EvalCoordinator::handle_frame(std::size_t w, Frame& frame) {
  WorkerState& worker = workers_[w];
  const auto find_inflight = [&](std::uint64_t id) {
    for (std::size_t i = 0; i < worker.inflight.size(); ++i) {
      if (worker.inflight[i].request_id == id) return i;
    }
    return worker.inflight.size();
  };
  // Frames for a request the coordinator already closed with a typed error
  // are stale stragglers (the worker streamed them before noticing the
  // failure), not protocol violations.
  const auto is_stale = [&](std::uint64_t id) {
    return std::find(recently_failed_requests_.begin(),
                     recently_failed_requests_.end(),
                     id) != recently_failed_requests_.end();
  };

  switch (frame.type) {
    case MsgType::kEvalResult: {
      EvalResultMsg msg;
      try {
        msg = decode_eval_result(frame.payload);
      } catch (const std::exception&) {
        lose_worker(w, "undecodable streamed result");
        return;
      }
      const std::size_t pos = find_inflight(msg.request_id);
      if (pos == worker.inflight.size()) {
        if (is_stale(msg.request_id)) return;
        lose_worker(w, "streamed result for unknown request");
        return;
      }
      Inflight& fl = worker.inflight[pos];
      if (msg.index >= fl.received.size() || fl.received[msg.index]) {
        lose_worker(w, "duplicate or out-of-range streamed index");
        return;
      }
      fl.received[msg.index] = true;
      ++fl.received_count;
      const auto record = qor_record_bytes(msg.result);
      fl.crc = util::crc32(record, fl.crc);
      apply_result(w, fl, msg.index, msg.result);
      std::shared_ptr<const std::function<void(std::size_t)>> obs;
      {
        std::lock_guard lock(mu_);
        ++stats_.flows_streamed;
        obs = progress_observer_;
      }
      if (obs && *obs) (*obs)(w);
      return;
    }
    case MsgType::kShardDone: {
      ShardDoneMsg msg;
      try {
        msg = decode_shard_done(frame.payload);
      } catch (const std::exception&) {
        lose_worker(w, "undecodable shard terminator");
        return;
      }
      const std::size_t pos = find_inflight(msg.request_id);
      if (pos == worker.inflight.size()) {
        if (is_stale(msg.request_id)) return;
        lose_worker(w, "shard terminator for unknown request");
        return;
      }
      const Inflight& fl = worker.inflight[pos];
      if (msg.count != fl.received.size() ||
          fl.received_count != fl.received.size() || msg.crc32 != fl.crc) {
        // Frames lost or corrupted in flight. Individually-applied results
        // stand (each decoded cleanly and evaluation is pure, so a rerun
        // reproduces them bit-for-bit); the missing remainder requeues via
        // the loss path.
        lose_worker(w, "torn stream (count/CRC mismatch)");
        return;
      }
      retire_shard(w, pos, now_ms());
      return;
    }
    case MsgType::kError: {
      ErrorMsg err;
      bool decoded = false;
      try {
        err = decode_error(frame.payload);
        decoded = true;
        util::log_warn("coordinator: worker ", worker.name,
                       " reported: ", err.message);
      } catch (const std::exception&) {
      }
      // A typed error naming an inflight request is a *surviving* worker
      // telling us one shard failed (hung transform killed by its budget,
      // eval threw): requeue just that shard, charge the breaker, keep the
      // connection. Anything else is a protocol-level failure and the
      // worker is dropped.
      if (decoded && err.request_id != 0 && is_stale(err.request_id)) return;
      if (decoded && err.request_id != 0) {
        const std::size_t pos = find_inflight(err.request_id);
        if (pos != worker.inflight.size()) {
          Inflight fl = std::move(worker.inflight[pos]);
          worker.inflight.erase(worker.inflight.begin() +
                                static_cast<std::ptrdiff_t>(pos));
          // Remember the id: results the worker already streamed for this
          // shard may still arrive behind the error and must be dropped as
          // stale, not treated as protocol violations.
          recently_failed_requests_.push_back(err.request_id);
          while (recently_failed_requests_.size() > kMaxRememberedFailures) {
            recently_failed_requests_.pop_front();
          }
          std::vector<std::shared_ptr<Batch>> touched;
          requeue_inflight(fl, "worker eval error", touched);
          const std::int64_t now = now_ms();
          record_worker_failure(w, now);
          worker.deadline_ms =
              worker.inflight.empty() ? 0 : now + config_.request_timeout_ms;
          {
            std::lock_guard lock(mu_);
            ++stats_.eval_errors;
          }
          update_worker_snapshot(w);
          for (const auto& b : touched) maybe_finish(b);
          return;
        }
      }
      // An erroring worker is dropped rather than retried in place: its
      // unacked flows rerun elsewhere, and if every worker errors the
      // batch fails loudly.
      lose_worker(w, "worker error");
      return;
    }
    case MsgType::kMetricsText: {
      MetricsTextMsg msg;
      try {
        msg = decode_metrics_text(frame.payload);
      } catch (const std::exception&) {
        lose_worker(w, "undecodable metrics page");
        return;
      }
      const auto it = metrics_scrapes_.find(msg.nonce);
      if (it != metrics_scrapes_.end()) {
        const std::shared_ptr<MetricsScrape> scrape = it->second.scrape;
        bool complete;
        {
          std::lock_guard lock(scrape->mu);
          scrape->texts.push_back(std::move(msg.text));
          complete = scrape->texts.size() >= scrape->expected;
        }
        scrape->cv.notify_all();
        if (complete) metrics_scrapes_.erase(it);
      }
      // Scrapes abandoned by their admin thread (worker died mid-scrape)
      // purge lazily here and at the next broadcast.
      const std::int64_t now = now_ms();
      std::erase_if(metrics_scrapes_, [now](const auto& kv) {
        return now >= kv.second.expires_ms;
      });
      return;
    }
    case MsgType::kPong:
      return;  // stray liveness echo; harmless
    default:
      lose_worker(w, "unexpected frame");
      return;
  }
}

// ------------------------------------------------------------ fleet metrics --

std::string EvalCoordinator::fleet_metrics_text() {
  auto scrape = std::make_shared<MetricsScrape>();
  run_command(
      [this, scrape] {
        const std::uint64_t nonce = next_metrics_nonce_++;
        const std::int64_t now = now_ms();
        std::erase_if(metrics_scrapes_, [now](const auto& kv) {
          return now >= kv.second.expires_ms;
        });
        std::size_t sent = 0;
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          WorkerState& worker = workers_[w];
          if (!worker.alive) continue;
          if (worker.conn->enqueue(MsgType::kGetMetrics,
                                   encode_u64(nonce)) ==
              FrameConn::Io::kError) {
            lose_worker(w, "send failed");
            continue;
          }
          poller_.mod(worker.conn->fd(), /*want_read=*/true,
                      worker.conn->want_write(), w);
          ++sent;
        }
        {
          std::lock_guard lock(scrape->mu);
          scrape->expected = sent;
        }
        if (sent > 0) {
          metrics_scrapes_.emplace(nonce,
                                   PendingScrape{scrape, now + 30 * 1000});
        }
      },
      /*requires_idle=*/false);
  std::vector<std::string> texts;
  {
    std::unique_lock lock(scrape->mu);
    // An idle worker answers a scrape at once; one evaluating a shard
    // answers only after it, and one lost mid-scrape never. 2s of grace
    // bounds the wait, and a late or lost worker just misses the page.
    scrape->cv.wait_for(lock, std::chrono::milliseconds(2000), [&] {
      return scrape->texts.size() >= scrape->expected;
    });
    texts = scrape->texts;
  }
  texts.push_back(telemetry::render_prometheus());
  return telemetry::merge_prometheus(texts);
}

void EvalCoordinator::apply_result(std::size_t w, Inflight& fl,
                                   std::uint32_t index, const map::QoR& qor) {
  Batch& b = *fl.batch;
  const std::size_t idx = b.shards[fl.shard_idx].indices[index];
  if (b.flow_done[idx]) return;  // a full-shard rerun overlapping old work
  b.flow_done[idx] = true;
  --b.flows_remaining;
  (*b.out)[idx] = qor;
  // A delivered result exonerates the flow: earlier losses were the
  // worker's fault (or bad luck), not a poisoned flow.
  if (!flow_losses_.empty()) {
    flow_losses_.erase({b.design_fp, core::StepsKey(b.flows[idx].steps.begin(),
                                                    b.flows[idx].steps.end())});
  }
  // Persist as results land, not at batch end: a coordinator crash
  // mid-batch loses only un-arrived labels. A failing store (disk full,
  // torn segment) must not take the batch down with it — the label is
  // already in `out`, only durability is lost.
  bool appended = false;
  bool store_error = false;
  if (b.store) {
    try {
      appended = b.store->append(b.design_fp, b.flows[idx].steps, qor);
    } catch (const std::exception& e) {
      store_error = true;
      util::log_warn("coordinator: QoR store append failed (label "
                     "returned, not kept): ", e.what());
    }
  }
  {
    std::lock_guard lock(mu_);
    if (appended) ++stats_.store_appends;
    if (store_error) ++stats_.store_errors;
    ++snapshots_[w].flows_done;
  }
  if (b.on_result) b.on_result(idx, qor);
}

void EvalCoordinator::retire_shard(std::size_t w, std::size_t inflight_pos,
                                   std::int64_t now) {
  WorkerState& worker = workers_[w];
  Inflight fl = std::move(worker.inflight[inflight_pos]);
  worker.inflight.erase(worker.inflight.begin() +
                        static_cast<std::ptrdiff_t>(inflight_pos));
  if (worker.inflight.empty()) {
    worker.deadline_ms = 0;
  } else {
    worker.deadline_ms = now + config_.request_timeout_ms;
  }
  if (worker.breaker != Breaker::kClosed) {
    // A completed shard is the probe succeeding: close the breaker and
    // forget the old failure window.
    worker.breaker = Breaker::kClosed;
    worker.failure_times.clear();
    worker.breaker_open_until_ms = 0;
    util::log_info("coordinator: worker ", worker.name,
                   " breaker closed (probe shard completed)");
  }
  const double ms = static_cast<double>(now - fl.sent_ms);
  if (telemetry::enabled()) coord_metrics().shard_ms.observe(ms);
  if (telemetry::tracing()) {
    // now_ms/sent_ms are steady_clock, which is CLOCK_MONOTONIC on Linux —
    // the same clock Span timestamps use, so shard bars line up with the
    // workers' evaluate_flow spans on one Perfetto timeline.
    std::string args;
    telemetry::detail::append_arg(args, "worker", workers_[w].name);
    telemetry::detail::append_arg(
        args, "flows", static_cast<std::int64_t>(fl.received.size()));
    telemetry::emit_trace_event(
        "coordinator", "shard", static_cast<std::uint64_t>(fl.sent_ms) * 1000,
        static_cast<std::uint64_t>(now - fl.sent_ms) * 1000, args);
  }
  --fl.batch->shards_inflight;
  std::shared_ptr<const std::function<void(std::size_t)>> obs;
  coord_metrics().shards_done.inc();
  {
    std::lock_guard lock(mu_);
    ++stats_.shards_done;
    if (stats_.shard_ms.size() >= kMaxLatencySamples) {
      stats_.shard_ms.erase(stats_.shard_ms.begin());
    }
    stats_.shard_ms.push_back(ms);
    WorkerSnapshot& snap = snapshots_[w];
    ++snap.shards_done;
    snap.last_shard_ms = ms;
    snap.mean_shard_ms += (ms - snap.mean_shard_ms) /
                          static_cast<double>(snap.shards_done);
    obs = response_observer_;
  }
  update_worker_snapshot(w);
  if (obs && *obs) (*obs)(w);
  maybe_finish(fl.batch);
}

// ------------------------------------------------------------------- faults --

void EvalCoordinator::requeue_inflight(
    Inflight& fl, const char* why,
    std::vector<std::shared_ptr<Batch>>& touched) {
  Batch& b = *fl.batch;
  --b.shards_inflight;
  const std::size_t rescued = fl.received_count;
  const std::vector<std::size_t>& indices = b.shards[fl.shard_idx].indices;
  std::vector<std::size_t> missing;
  missing.reserve(indices.size() - fl.received_count);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    if (!fl.received[k]) missing.push_back(indices[k]);
  }
  touched.push_back(fl.batch);
  std::size_t requeued_flows = 0;
  std::size_t requeued_shards = 0;
  // Loss attribution. Every undelivered flow of the lost shard is charged
  // one loss; partition the survivors into
  //   - convicted: lost `quarantine_after` times with the last loss alone
  //     on a *probe* shard (probes ride exclusively, so the attribution is
  //     definitive) — quarantined, never rerun;
  //   - suspects: repeat offenders — each comes back as a singleton probe
  //     shard, so the next loss (if any) is unambiguous (bisection);
  //   - the rest: one group shard at the *front* of the queue (lost work
  //     gates batch completion, so it reruns before new shards).
  const bool was_alone = b.shards[fl.shard_idx].probe && missing.size() == 1;
  std::vector<std::size_t> group;
  group.reserve(missing.size());
  for (const std::size_t idx : missing) {
    std::uint32_t losses = 1;
    if (config_.quarantine_after > 0) {
      core::StepsKey key(b.flows[idx].steps.begin(), b.flows[idx].steps.end());
      losses = ++flow_losses_[{b.design_fp, std::move(key)}];
    }
    if (config_.quarantine_after > 0 && was_alone &&
        losses >= config_.quarantine_after) {
      quarantine_flow(b, idx, losses, why);
      continue;
    }
    if (config_.quarantine_after > 0 && losses >= config_.isolate_after) {
      b.shards.push_back(Shard{{idx}, /*probe=*/true});
      b.pending.push_front(b.shards.size() - 1);
      ++requeued_shards;
      ++requeued_flows;
      continue;
    }
    group.push_back(idx);
  }
  if (!group.empty()) {
    requeued_flows += group.size();
    ++requeued_shards;
    b.shards.push_back(Shard{std::move(group)});
    b.pending.push_front(b.shards.size() - 1);
  }
  {
    CoordMetrics& m = coord_metrics();
    m.requeued_shards.inc(requeued_shards);
    m.requeued_flows.inc(requeued_flows);
    m.rescued_flows.inc(rescued);
  }
  std::lock_guard lock(mu_);
  stats_.requeues += requeued_shards;
  stats_.shards += requeued_shards;
  stats_.flows_requeued += requeued_flows;
  stats_.flows_rescued += rescued;
}

void EvalCoordinator::quarantine_flow(Batch& b, std::size_t idx,
                                      std::uint32_t losses, const char* why) {
  b.flow_done[idx] = true;
  --b.flows_remaining;
  b.quarantined.push_back(idx);
  std::shared_ptr<core::QuarantineList> q;
  {
    std::lock_guard lock(mu_);
    ++stats_.flows_quarantined;
    q = quarantine_;
  }
  const std::string reason =
      std::string(why) + " x" + std::to_string(losses);
  q->add(b.design_fp, b.flows[idx].steps, losses, reason);
  flow_losses_.erase({b.design_fp, core::StepsKey(b.flows[idx].steps.begin(),
                                                  b.flows[idx].steps.end())});
  util::log_warn("coordinator: flow quarantined as poisoned (design ",
                 aig::fingerprint_hex(b.design_fp).substr(0, 16), ", ",
                 b.flows[idx].steps.size(), " steps, ", reason, ")");
}

void EvalCoordinator::record_worker_failure(std::size_t w, std::int64_t now) {
  WorkerState& worker = workers_[w];
  if (config_.breaker_failures == 0) return;
  worker.failure_times.push_back(now);
  const std::int64_t horizon = now - config_.breaker_window_ms;
  while (!worker.failure_times.empty() &&
         worker.failure_times.front() < horizon) {
    worker.failure_times.pop_front();
  }
  const bool probe_failed = worker.breaker == Breaker::kHalfOpen;
  if (probe_failed ||
      (worker.breaker == Breaker::kClosed &&
       worker.failure_times.size() >= config_.breaker_failures)) {
    worker.breaker = Breaker::kOpen;
    worker.breaker_open_until_ms = now + config_.breaker_cooldown_ms;
    {
      std::lock_guard lock(mu_);
      ++stats_.breaker_trips;
    }
    util::log_warn("coordinator: worker ", worker.name, " breaker tripped (",
                   probe_failed ? "half-open probe failed"
                                : "failure threshold reached",
                   "), cooling down ", config_.breaker_cooldown_ms, " ms");
  }
  update_worker_snapshot(w);
}

void EvalCoordinator::update_breakers(std::int64_t now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (worker.breaker == Breaker::kOpen &&
        now >= worker.breaker_open_until_ms) {
      worker.breaker = Breaker::kHalfOpen;
      update_worker_snapshot(w);
      util::log_info("coordinator: worker ", worker.name,
                     " breaker half-open (probe allowed)");
    }
  }
}

void EvalCoordinator::schedule_retry(std::size_t w, std::int64_t now) {
  WorkerState& worker = workers_[w];
  if (config_.reconnect_ms <= 0 || !worker.addressable) return;
  // Exponential backoff with jitter: doubles from reconnect_ms up to
  // reconnect_max_ms, each delay drawn uniform from [d/2, d] so a rack of
  // coordinators dialing one recovered worker doesn't stampede in phase.
  const int base = std::max(1, config_.reconnect_ms);
  int next = worker.backoff_ms <= 0
                 ? base
                 : std::min(config_.reconnect_max_ms,
                            worker.backoff_ms > config_.reconnect_max_ms / 2
                                ? config_.reconnect_max_ms
                                : worker.backoff_ms * 2);
  next = std::max(next, base);
  worker.backoff_ms = next;
  const int jittered =
      next / 2 + static_cast<int>(reconnect_rng_.below(
                     static_cast<std::uint64_t>(next / 2 + 1)));
  worker.retry_at_ms = now + jittered;
  update_worker_snapshot(w);
}

void EvalCoordinator::lose_worker(std::size_t w, const char* why) {
  WorkerState& worker = workers_[w];
  if (!worker.alive) return;
  worker.alive = false;
  if (worker.conn) {
    poller_.del(worker.conn->fd());
    worker.conn.reset();
  }
  worker.deadline_ms = 0;

  // Partial-progress requeue: only the flows this worker never delivered
  // go back on the queue (with loss attribution — see requeue_inflight).
  // Received flows are already applied and persisted — they are rescued,
  // not rerun.
  std::size_t rescued = 0;
  std::vector<std::shared_ptr<Batch>> touched;
  for (Inflight& fl : worker.inflight) {
    rescued += fl.received_count;
    requeue_inflight(fl, why, touched);
  }
  worker.inflight.clear();
  const std::int64_t now = now_ms();
  record_worker_failure(w, now);
  schedule_retry(w, now);
  coord_metrics().workers_lost.inc();
  {
    std::lock_guard lock(mu_);
    ++stats_.workers_lost;
    snapshots_[w].alive = false;
    ++snapshots_[w].losses;
  }
  update_worker_snapshot(w);
  util::log_warn("coordinator: lost worker ", worker.name, " (", why, "), ",
                 rescued, " flow(s) rescued");
  for (const std::shared_ptr<Batch>& b : touched) maybe_finish(b);
  if (num_alive_loop() == 0 && !reconnect_possible() && !active_.empty()) {
    fail_active_batches("all workers lost with work outstanding");
  }
}

void EvalCoordinator::check_deadlines(std::int64_t now) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerState& worker = workers_[w];
    if (worker.alive && !worker.inflight.empty() && worker.deadline_ms > 0 &&
        now >= worker.deadline_ms) {
      lose_worker(w, "request timeout");
    }
  }
}

void EvalCoordinator::try_reconnects(std::int64_t now) {
  if (config_.reconnect_ms <= 0) return;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    WorkerState& worker = workers_[w];
    if (worker.alive || worker.retry_at_ms == 0 || now < worker.retry_at_ms) {
      continue;
    }
    schedule_retry(w, now);  // assume failure: arm the next (backed-off) try
    try {
      Socket sock = connect_to(Address::parse(worker.name),
                               std::clamp(config_.reconnect_ms, 100, 2000));
      const int timeout = std::min(config_.request_timeout_ms, 5000);
      if (qualify(worker, sock, timeout)) activate_worker(w, std::move(sock));
    } catch (const std::exception&) {
      // Still down; the retry clock is already re-armed.
    }
  }
}

// ------------------------------------------------------------- completion --

void EvalCoordinator::maybe_finish(const std::shared_ptr<Batch>& batch) {
  if (batch->flows_remaining == 0 && batch->shards_inflight == 0 &&
      batch->pending.empty()) {
    finish_batch(batch, /*failed=*/false, {});
  }
}

void EvalCoordinator::finish_batch(const std::shared_ptr<Batch>& batch,
                                   bool failed, std::string error) {
  active_.erase(std::remove(active_.begin(), active_.end(), batch),
                active_.end());
  {
    std::lock_guard lock(mu_);
    if (batch->finished) return;
    batch->finished = true;
    batch->failed = failed;
    batch->error = std::move(error);
  }
  cv_.notify_all();
}

void EvalCoordinator::fail_active_batches(const std::string& why) {
  std::vector<std::shared_ptr<Batch>> doomed;
  {
    std::lock_guard lock(mu_);
    doomed = std::move(submissions_);
    submissions_.clear();
  }
  doomed.insert(doomed.end(), active_.begin(), active_.end());
  active_.clear();
  for (const std::shared_ptr<Batch>& b : doomed) {
    finish_batch(b, /*failed=*/true, why);
  }
}

// --------------------------------------------------------------- assembly --

std::vector<EvalCoordinator::Worker> connect_workers(
    const std::vector<std::string>& specs, int timeout_ms) {
  std::vector<EvalCoordinator::Worker> workers;
  workers.reserve(specs.size());
  for (const std::string& spec : specs) {
    try {
      workers.push_back(EvalCoordinator::Worker{
          connect_to(Address::parse(spec), timeout_ms), spec});
    } catch (const TransportError& e) {
      util::log_warn("connect_workers: skipping ", spec, ": ", e.what());
    }
  }
  return workers;
}

}  // namespace flowgen::service
