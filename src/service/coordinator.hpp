#pragma once
// Component (1) at fleet scale: shard flow batches across N eval workers.
// Since protocol v4 the coordinator is an *event loop*: one reactor thread
// owns every worker connection (non-blocking, buffered via FrameConn) and
// multiplexes any number of concurrent client batches over the fleet:
//
//  * shards are contiguous ranges of the lexicographically sorted batch,
//    so each worker sees neighbouring flows and resumes each from the
//    graphs its predecessor left on the request's trail (the same affinity
//    trick SynthesisEvaluator::evaluate_many plays with thread-pool groups),
//  * backpressure: at most max_inflight_per_worker outstanding shards per
//    worker — a slow worker never accumulates an unbounded queue, fast
//    workers steal the remaining shards,
//  * fairness: when several clients have batches open, shard dispatch
//    round-robins across their queues — a small batch submitted behind a
//    huge one completes early instead of waiting FIFO,
//  * streaming: workers answer with one EvalResult frame per completed
//    flow plus a terminal ShardDone (count + CRC). Results are applied and
//    persisted as they land, every frame refreshes the worker's liveness
//    deadline (a slow-but-alive worker on a huge shard is never declared
//    dead), and when a worker is lost only the flows it never delivered
//    are requeued — partial progress survives,
//  * fault tolerance: a worker that EOFs, errors, or misses its deadline
//    is declared lost and its unacked work reruns elsewhere. Evaluation is
//    a pure function of (design, registry, steps), so reruns are
//    bit-identical and requeueing can never corrupt a batch. Lost workers
//    can return: admit_worker() re-qualifies a fresh connection via the
//    ordinary handshake mid-run, and reconnect_ms re-dials address-named
//    workers automatically.
//
// Protocol v2 additions: the fleet's design can be an off-registry netlist
// (shipped once per worker connection via LoadDesign), every request is
// tagged with the design's content fingerprint, and an attached QorStore
// short-circuits already-labeled flows before any frame is sent — and
// persists every fresh result as it arrives.
//
// Protocol v3 additions: the fleet's transform alphabet is a
// TransformRegistry (CoordinatorConfig::registry; paper by default).
// Workers that do not already serve its fingerprint get the specs via
// LoadRegistry at handshake, every request carries the registry
// fingerprint next to the design's, and load_registry switches a live
// fleet to a new alphabet the way load_design switches designs.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "core/qor_store.hpp"
#include "core/quarantine.hpp"
#include "map/qor.hpp"
#include "service/reactor.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"

namespace flowgen::service {

class AdminServer;

/// Raised when a batch cannot complete (every worker lost), a worker
/// fleet cannot be assembled at all, or evaluation is requested before
/// any design is configured.
class ServiceError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Raised by evaluate_many when flows of the batch were quarantined (they
/// kept killing workers and were convicted by singleton-shard isolation)
/// and the caller gave no BatchReport to receive them — the FlowEvaluator
/// contract has no "partial result" shape, so the batch surfaces a typed
/// error instead of silently dropping or forever re-looping the flows.
/// `indices()` are positions in the submitted batch; every *other* flow
/// completed (and was persisted to an attached store) before the throw.
class FlowQuarantined : public ServiceError {
public:
  FlowQuarantined(const std::string& what, std::vector<std::size_t> indices)
      : ServiceError(what), indices_(std::move(indices)) {}
  const std::vector<std::size_t>& indices() const { return indices_; }

private:
  std::vector<std::size_t> indices_;
};

/// Per-batch outcome detail for callers that can handle partial success:
/// pass one to evaluate_many and quarantined flows are reported here (their
/// result slots stay default-initialised) instead of thrown.
struct BatchReport {
  std::vector<std::size_t> quarantined;  ///< indices into the batch
};

struct CoordinatorConfig {
  /// The transform alphabet this fleet evaluates under; null = the paper
  /// registry. Workers that do not ack its fingerprint at handshake are
  /// sent the specs via LoadRegistry (and dropped if they still disagree);
  /// every EvalRequest carries the fingerprint.
  std::shared_ptr<const opt::TransformRegistry> registry;
  /// Liveness deadline: a worker with outstanding work that has not sent a
  /// single frame for this long is declared lost. Streamed progress
  /// counts — the deadline bounds silence, not shard duration, so it can
  /// be much tighter than a whole-shard round-trip.
  int request_timeout_ms = 10 * 60 * 1000;
  /// Outstanding shards per worker (>= 1). One keeps workers strictly
  /// serial; two hides the request/response gap.
  std::size_t max_inflight_per_worker = 2;
  /// Shard granularity: aim for this many shards per worker so requeues
  /// lose little work and stragglers can be load-balanced around.
  std::size_t shards_per_worker = 4;
  /// > 0: a lost worker whose name parses as an address ("unix:/path",
  /// "tcp:host:port") is re-dialed and re-admitted through the normal
  /// handshake once it answers. This is the *initial* retry delay: each
  /// failed attempt doubles it (capped at reconnect_max_ms) and every
  /// delay is jittered (uniform in [d/2, d]), so a restarted fleet's
  /// workers never re-dial in lockstep.
  int reconnect_ms = 0;
  /// Exponential-backoff ceiling for the re-dial delay.
  int reconnect_max_ms = 30 * 1000;
  /// Circuit breaker: a worker with this many failures (losses or eval
  /// errors) inside breaker_window_ms trips open — no dispatch — for
  /// breaker_cooldown_ms, then half-opens for a single probe shard whose
  /// success closes it (and whose failure re-opens it). 0 disables.
  std::size_t breaker_failures = 5;
  int breaker_window_ms = 60 * 1000;
  int breaker_cooldown_ms = 5 * 1000;
  /// Poisoned-flow conviction thresholds. A flow undelivered when its
  /// worker is lost (or its shard comes back as a typed eval error) is
  /// charged one loss. At isolate_after losses it is requeued alone — a
  /// singleton probe shard, the bisection step that separates victims from
  /// culprits. Probe shards ride a worker *exclusively* (nothing else
  /// inflight beside them), so a loss while probing is definitively the
  /// flow's own doing; at quarantine_after losses with the last one on a
  /// probe it is quarantined: answered as FlowQuarantined, recorded
  /// in the QUARANTINE file next to the attached store, never dispatched
  /// again. quarantine_after = 0 disables tracking (a crash requeues
  /// unconditionally, the pre-survivability behaviour).
  std::size_t quarantine_after = 3;
  std::size_t isolate_after = 2;
  /// Non-empty: serve the line-oriented admin protocol (service/admin.hpp)
  /// on this address — live queue depth, per-worker inflight/latency,
  /// requeue and store counters while batches run.
  std::string admin_addr;
};

/// Monotonic scheduling/fault counters plus a live view of the loop.
/// Readable at any time via EvalCoordinator::stats() — including from
/// another thread mid-batch; the admin socket is exactly that.
struct CoordinatorStats {
  std::size_t batches = 0;          ///< evaluate_many calls
  std::size_t active_batches = 0;   ///< batches open right now
  std::size_t queue_depth = 0;      ///< pending shards across open batches
  std::size_t shards = 0;           ///< shards formed across all batches
  std::size_t shards_done = 0;      ///< shards retired (ShardDone)
  std::size_t requests_sent = 0;    ///< dispatches, including reruns
  std::size_t requeues = 0;         ///< shards re-queued after a loss
  std::size_t workers_lost = 0;     ///< crash/EOF/timeout/error declarations
  std::size_t workers_readmitted = 0; ///< lost workers back via handshake
  std::size_t flows_dispatched = 0; ///< flows inside sent requests (w/ reruns)
  std::size_t flows_streamed = 0;   ///< EvalResult frames applied
  std::size_t flows_rescued = 0;    ///< received flows NOT rerun at a loss
  std::size_t flows_requeued = 0;   ///< flows a loss did send back
  std::size_t store_hits = 0;       ///< flows answered from the QorStore
  std::size_t store_appends = 0;    ///< fresh labels persisted to the store
  std::size_t store_errors = 0;     ///< appends that failed (label kept)
  std::size_t eval_errors = 0;      ///< typed worker errors (shard requeued)
  std::size_t flows_quarantined = 0; ///< flows convicted and quarantined
  std::size_t breaker_trips = 0;    ///< circuit breakers opened
  /// Completed-shard round-trip latencies in ms, most recent last (bounded
  /// — older samples roll off). bench_service reports the distribution.
  std::vector<double> shard_ms;
};

/// Per-worker live view for the admin surface and the re-admit tests.
struct WorkerSnapshot {
  std::string name;
  bool alive = false;
  std::size_t inflight_shards = 0;
  std::size_t inflight_flows = 0;
  std::size_t shards_done = 0;
  std::size_t flows_done = 0;
  std::size_t losses = 0;          ///< times this worker was declared lost
  double last_shard_ms = 0.0;
  double mean_shard_ms = 0.0;
  std::string breaker = "closed";  ///< closed | open | half-open
  std::size_t recent_failures = 0; ///< failures inside the breaker window
  int backoff_ms = 0;              ///< current re-dial delay (0 = base)
};

/// Thread-safe: any number of client threads may call evaluate_many
/// concurrently — their batches share the fleet, interleaved fairly by
/// the event loop. Identity changes (load_design/load_registry/
/// shutdown_workers) wait for open batches to finish, preserving the old
/// serialised semantics where they matter. All methods throw ServiceError
/// as documented; transport/wire failures on individual workers are
/// absorbed into "worker lost" accounting instead of escaping.
class EvalCoordinator {
public:
  struct Worker {
    Socket sock;
    std::string name;  ///< for logs/stats; loopback uses "loopback-<i>"
  };

  /// Called once per completed flow with (index into the batch, its QoR),
  /// from the event-loop thread, before evaluate_many returns. The evald
  /// server mode streams results upstream through this.
  using ResultCallback = std::function<void(std::size_t, const map::QoR&)>;

  /// Registry mode: handshakes (Hello/HelloAck for `design_id`) with every
  /// worker; workers that fail the handshake, ack a different design, or
  /// disagree on the design's fingerprint are dropped. An empty design_id
  /// assembles the fleet *deferred* — no design yet; call load_design (or
  /// let an evald server client ship one) before evaluating. Throws
  /// ServiceError when no worker survives.
  EvalCoordinator(std::vector<Worker> workers, std::string design_id,
                  CoordinatorConfig config = {});

  /// Netlist mode: same handshake, then ships `design` to every worker via
  /// LoadDesign — the fleet serves a circuit no registry knows. Workers
  /// whose LoadDesignAck fingerprint mismatches are dropped. Throws
  /// ServiceError when no worker survives.
  EvalCoordinator(std::vector<Worker> workers, const aig::Aig& design,
                  CoordinatorConfig config = {});

  ~EvalCoordinator();

  /// Evaluate a batch across the fleet; results in caller order. Flows
  /// found in the attached QorStore are answered locally; the rest are
  /// sharded, dispatched, and persisted to the store as their results
  /// stream in. `on_result` (optional) sees every flow as it completes.
  /// Throws ServiceError if no design is loaded or the remaining batch
  /// cannot complete on any worker. Quarantined flows (already-listed or
  /// convicted during this batch) are reported via `report` when given,
  /// otherwise surfaced as a FlowQuarantined throw — never silently
  /// dropped, never re-dispatched.
  std::vector<map::QoR> evaluate_many(std::span<const core::Flow> flows,
                                      ResultCallback on_result = nullptr,
                                      BatchReport* report = nullptr);

  /// evaluate_many that first verifies — atomically with the batch
  /// submission — that the fleet still serves design `fp` under alphabet
  /// `registry`: the check a concurrent server connection needs (a plain
  /// fingerprint test followed by evaluate_many races with another
  /// client's load_design/load_registry). Throws ServiceError on mismatch.
  std::vector<map::QoR> evaluate_many_for(
      const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry,
      std::span<const core::Flow> flows, ResultCallback on_result = nullptr,
      BatchReport* report = nullptr);

  /// The fleet's quarantine list — file-backed next to the attached store,
  /// memory-only otherwise. Never null.
  std::shared_ptr<const core::QuarantineList> quarantine() const;

  /// Switch the fleet to a new design: broadcast its serialized form to
  /// every live worker and verify each LoadDesignAck against `fp` (which
  /// must be the blob's true fingerprint — callers hold the decoded
  /// graph). Waits for open batches, then runs on the event loop. Workers
  /// that fail are dropped; throws ServiceError when none survive.
  void load_design(std::span<const std::uint8_t> blob,
                   const aig::Fingerprint& fp, std::string label);
  /// Convenience overload: encodes `design` and derives fp/label from it.
  void load_design(const aig::Aig& design);

  /// Switch the fleet to a new transform alphabet: broadcast `blob` (its
  /// TransformRegistry::encode form; pass empty to re-encode here) via
  /// LoadRegistry and verify every ack fingerprint. Workers that fail are
  /// dropped; throws ServiceError when none survive. The evald server mode
  /// re-broadcasts client registries through this, the same way LoadDesign
  /// composes.
  void load_registry(std::shared_ptr<const opt::TransformRegistry> registry,
                     std::span<const std::uint8_t> blob = {});

  /// Qualify a fresh connection through the ordinary handshake (registry
  /// shipped if its HelloAck disagrees, design re-shipped or re-elaborated
  /// to match the fleet's fingerprint) and put it into rotation — legal
  /// mid-run; pending shards start flowing to it immediately. A worker of
  /// the same name that was lost is revived in place. Returns false (with
  /// a log line) when the candidate fails qualification.
  bool admit_worker(Worker worker);

  /// Share labels across runs/coordinators: consult `store` before
  /// dispatching and append fresh results to it. Call between batches.
  /// Throws opt::RegistryError when the store is keyed by a different
  /// alphabet than the fleet currently serves — for a fleet that switches
  /// alphabets (an evald server fielding LoadRegistry), use
  /// attach_store_dir instead.
  void attach_store(std::shared_ptr<core::QorStore> store);

  /// Directory-rooted variant: open a QorStore for the fleet's *current*
  /// alphabet (the root itself for the paper registry, a reg-<fp16>
  /// subdirectory for any other — the same layout evald workers use) and
  /// re-open automatically whenever load_registry switches alphabets.
  /// This is how `evald --mode server --store DIR` serves every alphabet
  /// without ever mixing labels. Throws QorStoreError if the store cannot
  /// be opened.
  void attach_store_dir(std::string root);

  std::size_t num_workers_alive() const;
  /// Live snapshot of the scheduling counters — valid mid-batch.
  CoordinatorStats stats() const;
  /// Live per-worker view (inflight, latency, losses) — valid mid-batch.
  std::vector<WorkerSnapshot> worker_snapshots() const;
  /// Render one admin command ("stats", "workers", "store", "help") as the
  /// line-oriented reply text; what the admin socket serves.
  std::string admin_text(const std::string& command) const;
  /// The `compact` admin command: run QorStore::compact() on the attached
  /// store and report the outcome. Callable from any thread; "no store
  /// attached" / "busy" are answers, not errors.
  std::string compact_store_text();
  /// The fleet-wide `metrics` admin command: broadcast kGetMetrics to every
  /// live worker, wait (bounded) for their Prometheus pages, and merge them
  /// with the coordinator's own scrape. Workers that die or stall mid-
  /// scrape are simply absent from the merge — the page is best-effort by
  /// design, like any Prometheus target. Callable from any thread.
  std::string fleet_metrics_text();
  /// Bound admin address; throws ServiceError when admin_addr was not
  /// configured.
  const Address& admin_address() const;

  /// Human label of the current design: the registry id, the netlist's
  /// name, or "netlist:<fp-prefix>"; empty in a deferred fleet.
  std::string design_id() const {
    std::lock_guard lock(mu_);
    return design_id_;
  }
  /// Content fingerprint of the current design (kNoDesign when deferred).
  aig::Fingerprint design_fingerprint() const {
    std::lock_guard lock(mu_);
    return design_fp_;
  }
  /// Fingerprint of the alphabet the fleet currently evaluates under.
  opt::RegistryFingerprint registry_fingerprint() const {
    std::lock_guard lock(mu_);
    return registry_->fingerprint();
  }
  /// Both identity fields under one lock — a consistent snapshot. Server
  /// connections must ack (id, fingerprint) pairs from here: two separate
  /// reads can interleave with another client's load_design and produce a
  /// torn ack that silently mislabels.
  std::pair<std::string, aig::Fingerprint> design_identity() const {
    std::lock_guard lock(mu_);
    return {design_id_, design_fp_};
  }

  /// Best-effort Shutdown frame to every live worker (evald workers exit;
  /// loopback children reap on destruction either way). Waits for open
  /// batches first.
  void shutdown_workers();

  /// Test hook: invoked after each *shard* completes, with the index of
  /// the worker that served it. Fault-injection tests use it to kill a
  /// sibling worker at a deterministic point mid-batch. Runs on the event
  /// loop thread.
  void set_response_observer(std::function<void(std::size_t)> observer);
  /// Test hook: invoked after each streamed *flow result* is applied, with
  /// the index of the worker that sent it — the deterministic "kill a
  /// worker mid-shard after N flows" trigger. Runs on the event loop
  /// thread.
  void set_progress_observer(std::function<void(std::size_t)> observer);

private:
  struct Shard {
    std::vector<std::size_t> indices;  ///< positions in the caller's batch
    /// Singleton isolation shard for a repeat-offender flow. Probes run
    /// *exclusively*: dispatched only to a worker with nothing inflight,
    /// and that worker gets nothing else until the probe retires — so a
    /// worker that dies probing had exactly one suspect aboard and the
    /// conviction cannot smear an innocent that merely shared the ride.
    bool probe = false;
  };

  /// One open evaluate_many call. The submitting thread owns `flows` and
  /// `out` storage and blocks on `finished`; the loop thread owns the
  /// scheduling fields while the batch is active.
  struct Batch {
    std::span<const core::Flow> flows;
    std::vector<map::QoR>* out = nullptr;
    ResultCallback on_result;
    aig::Fingerprint design_fp = kNoDesign;
    opt::RegistryFingerprint registry_fp{};
    std::shared_ptr<core::QorStore> store;  ///< snapshot at submit
    std::vector<Shard> shards;              ///< grows with partial requeues
    std::deque<std::size_t> pending;        ///< shard indices not dispatched
    std::vector<bool> flow_done;            ///< per caller index
    std::size_t flows_remaining = 0;
    std::size_t shards_inflight = 0;
    std::vector<std::size_t> quarantined;   ///< caller indices convicted
    // Guarded by the coordinator's mu_:
    bool finished = false;
    bool failed = false;
    std::string error;
  };

  /// One dispatched request: which shard of which batch, and how much of
  /// it the worker has streamed back so far.
  struct Inflight {
    std::uint64_t request_id = 0;
    std::shared_ptr<Batch> batch;
    std::size_t shard_idx = 0;
    std::vector<bool> received;  ///< per position within the shard
    std::size_t received_count = 0;
    std::uint32_t crc = 0;       ///< chained over received QoR records
    std::int64_t sent_ms = 0;
  };

  enum class Breaker { kClosed, kOpen, kHalfOpen };

  struct WorkerState {
    std::unique_ptr<FrameConn> conn;  ///< null once lost
    std::string name;
    bool alive = false;
    std::vector<Inflight> inflight;
    std::int64_t deadline_ms = 0;   ///< refreshed by *any* received frame
    std::int64_t retry_at_ms = 0;   ///< next reconnect attempt (0 = none)
    bool addressable = false;       ///< name parses as an Address
    int backoff_ms = 0;             ///< current re-dial delay; 0 = base
    std::deque<std::int64_t> failure_times;  ///< breaker window samples
    Breaker breaker = Breaker::kClosed;
    std::int64_t breaker_open_until_ms = 0;  ///< open -> half-open instant
  };

  /// One fleet metrics scrape in flight: the admin thread blocks on `cv`
  /// while the loop thread appends worker pages as kMetricsText frames
  /// land. `expected` is fixed (under `mu`) when the broadcast goes out.
  struct MetricsScrape {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t expected = 0;
    std::vector<std::string> texts;
  };
  struct PendingScrape {
    std::shared_ptr<MetricsScrape> scrape;
    std::int64_t expires_ms = 0;  ///< abandoned entries purge past this
  };

  struct Command {
    std::function<void()> fn;
    /// Identity/shutdown ops wait until no batch is open — the historical
    /// "operations serialise" semantics, kept where they matter.
    bool requires_idle = false;
  };

  EvalCoordinator(std::vector<Worker> workers, std::string design_id,
                  const aig::Aig* netlist, CoordinatorConfig config);

  // ---- caller-thread side ----
  std::vector<map::QoR> evaluate_many_impl(
      std::span<const core::Flow> flows, ResultCallback on_result,
      const aig::Fingerprint* want_fp,
      const opt::RegistryFingerprint* want_registry, BatchReport* report);
  /// Run `fn` on the loop thread and wait; rethrows what it threw.
  void run_command(std::function<void()> fn, bool requires_idle);

  // ---- loop-thread side ----
  void loop();
  void drain_submissions_and_commands();
  /// Move a queued submission into active rotation — or fail it if the
  /// fleet's identity changed while it sat in the queue.
  void activate_batch(const std::shared_ptr<Batch>& batch);
  void pump_dispatch();
  /// Least-loaded live worker with a free inflight slot and a drained
  /// outbox; workers_.size() when none is eligible. `probe` asks for a
  /// fully idle worker (a probe shard boards alone); workers currently
  /// serving a probe are skipped for everything.
  std::size_t pick_worker(bool probe) const;
  /// True when a lost address-named worker may yet be re-dialed.
  bool reconnect_possible() const;
  bool dispatch_to(std::size_t w, const std::shared_ptr<Batch>& batch,
                   std::size_t shard_idx);
  void on_worker_readable(std::size_t w);
  void handle_frame(std::size_t w, Frame& frame);
  void apply_result(std::size_t w, Inflight& fl, std::uint32_t index,
                    const map::QoR& qor);
  void retire_shard(std::size_t w, std::size_t inflight_pos,
                    std::int64_t now);
  void lose_worker(std::size_t w, const char* why);
  /// Requeue the undelivered flows of one inflight shard with loss
  /// attribution: each flow is charged a loss; repeat offenders come back
  /// as singleton probe shards (bisection) and flows convicted while alone
  /// are quarantined. Decrements the batch's shards_inflight and appends
  /// it to `touched` (caller runs maybe_finish). Shared by worker loss and
  /// the typed eval-error path.
  void requeue_inflight(Inflight& fl, const char* why,
                        std::vector<std::shared_ptr<Batch>>& touched);
  /// Deliver a finished batch's quarantined indices: into `report` when
  /// the caller provided one, else as a typed FlowQuarantined throw.
  static void surface_quarantined(Batch& b, BatchReport* report);
  /// Convict one flow: mark it done-as-quarantined in its batch, persist
  /// the entry, count it. Loop thread only.
  void quarantine_flow(Batch& b, std::size_t idx, std::uint32_t losses,
                       const char* why);
  /// Charge one failure to the breaker window; trips it (closed -> open,
  /// or a failed half-open probe -> open again) when warranted.
  void record_worker_failure(std::size_t w, std::int64_t now);
  /// open -> half-open transitions whose cooldown has elapsed.
  void update_breakers(std::int64_t now);
  /// Arm the next re-dial: exponential backoff from reconnect_ms, capped
  /// at reconnect_max_ms, jittered uniform in [d/2, d].
  void schedule_retry(std::size_t w, std::int64_t now);
  void check_deadlines(std::int64_t now);
  void try_reconnects(std::int64_t now);
  void maybe_finish(const std::shared_ptr<Batch>& batch);
  void fail_active_batches(const std::string& why);
  void finish_batch(const std::shared_ptr<Batch>& batch, bool failed,
                    std::string error);
  int loop_wait_ms() const;
  void update_queue_gauges();
  void update_worker_snapshot(std::size_t w);

  /// Blocking handshake on `sock` qualifying it as worker `state` —
  /// registry shipped when needed, design shipped/elaborated and
  /// fingerprint-checked. Used by the constructor (caller thread, before
  /// the loop starts) and admit_worker/reconnect (loop thread).
  bool qualify(WorkerState& state, Socket& sock, int timeout_ms);
  /// LoadDesign/LoadDesignAck round-trip with one worker; false = failed.
  bool ship_design(Socket& sock, const std::string& name,
                   std::span<const std::uint8_t> blob,
                   const aig::Fingerprint& fp, int timeout_ms);
  /// LoadRegistry/LoadRegistryAck round-trip; false = failed.
  bool ship_registry(Socket& sock, const std::string& name,
                     std::span<const std::uint8_t> blob,
                     const opt::RegistryFingerprint& fp, int timeout_ms);
  /// Put a qualified socket into rotation as worker slot `w`.
  void activate_worker(std::size_t w, Socket sock);
  void load_design_on_loop(std::span<const std::uint8_t> blob,
                           const aig::Fingerprint& fp, std::string label);
  void load_registry_on_loop(
      std::shared_ptr<const opt::TransformRegistry> registry,
      std::span<const std::uint8_t> blob);

  std::size_t num_alive_loop() const;
  void open_store_for_registry_locked();

  /// Guards: identity (design/registry/store), stats_, snapshots_,
  /// submissions_/commands_, batch finished/failed flags, observers,
  /// stopping_. The loop takes it briefly around updates; it is never held
  /// across I/O.
  mutable std::mutex mu_;
  std::condition_variable cv_;

  // Identity — written by the constructor and by loop commands (under
  // mu_); read by any thread under mu_.
  std::string design_id_;
  aig::Fingerprint design_fp_ = kNoDesign;
  /// Serialized current design when it was shipped (netlist mode or
  /// load_design) — what admit_worker re-ships to returning workers.
  /// Empty for registry-id designs (returning workers re-elaborate).
  std::vector<std::uint8_t> design_blob_;
  std::shared_ptr<const opt::TransformRegistry> registry_;
  std::vector<std::uint8_t> registry_blob_;
  CoordinatorConfig config_;
  CoordinatorStats stats_;
  std::vector<WorkerSnapshot> snapshots_;
  std::shared_ptr<core::QorStore> store_;
  std::string store_root_;  ///< non-empty = attach_store_dir mode
  /// Never null: file-backed (QUARANTINE next to the store) when a store
  /// is attached, memory-only otherwise. Swapped under mu_ alongside
  /// store_ so a batch snapshots both consistently.
  std::shared_ptr<core::QuarantineList> quarantine_;
  std::shared_ptr<const std::function<void(std::size_t)>> response_observer_;
  std::shared_ptr<const std::function<void(std::size_t)>> progress_observer_;
  bool stopping_ = false;
  std::vector<std::shared_ptr<Batch>> submissions_;
  std::deque<Command> commands_;

  // Loop-thread-owned state (no lock: only loop() touches these once the
  // thread starts).
  std::vector<WorkerState> workers_;
  std::vector<std::shared_ptr<Batch>> active_;
  std::size_t fair_cursor_ = 0;  ///< round-robin position across active_
  std::uint64_t next_request_id_ = 1;
  /// Loss ledger: losses charged per (design, flow) across batches. Loop
  /// thread only. Entries are erased on successful delivery, so a flow
  /// that merely sat next to a culprit is exonerated by its next clean
  /// run-through instead of accumulating charges forever.
  std::map<std::pair<aig::Fingerprint, core::StepsKey>, std::uint32_t>
      flow_losses_;
  /// Request ids recently closed by a typed worker error: frames still in
  /// flight for them (a result racing the error) are stale, not protocol
  /// violations, and must not cost the worker its slot. Bounded ring.
  std::deque<std::uint64_t> recently_failed_requests_;
  /// Jitter source for re-dial scheduling (never for results).
  util::Rng reconnect_rng_;
  std::unordered_map<std::uint64_t, PendingScrape> metrics_scrapes_;
  std::uint64_t next_metrics_nonce_ = 1;
  Poller poller_;
  WakePipe wake_;

  std::unique_ptr<AdminServer> admin_;
  std::thread loop_thread_;
};

/// Connect to evald workers by address spec ("unix:/path", "tcp:host:p").
/// Unreachable addresses are logged and skipped — fleet assembly has the
/// same partial-failure semantics as the coordinator itself, which throws
/// only when *no* worker survives.
std::vector<EvalCoordinator::Worker> connect_workers(
    const std::vector<std::string>& specs, int timeout_ms = 5000);

}  // namespace flowgen::service
