#pragma once
// One evaluation worker: SynthesisEvaluators wrapped in the wire protocol.
// A worker is a process that serves EvalRequests on a connected socket —
// spawned by evald --mode worker on its own machine, or forked locally by
// LoopbackCluster. Evaluators (and with them the QoR memo) live as long as
// the worker, so consecutive requests — and consecutive connections — never
// synthesize a flow twice. Within a request, synthesis resumes from a trail
// of the previous flow's graphs: coordinator shards are contiguous runs of
// the lexicographically sorted batch, so neighbouring flows share prefixes.
//
// Since protocol v2 a worker is design-agnostic: it keeps a small LRU of
// instantiated designs keyed by content fingerprint, populated either from
// the registry (Hello naming a design id) or over the wire (LoadDesign
// shipping a serialized netlist), and every EvalRequest names its design
// by fingerprint — one fleet multiplexes many designs.
//
// Since protocol v3 it is also alphabet-agnostic: transform registries
// (opt/registry.hpp) arrive over the wire via LoadRegistry, evaluators are
// keyed by (design fp, registry fp), and every EvalRequest names the
// alphabet its step bytes are ids into — one fleet multiplexes many
// alphabets the same way. Every worker is born with the paper registry.

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/registry.hpp"

#include "core/evaluator.hpp"
#include "core/qor_store.hpp"
#include "service/coordinator.hpp"
#include "service/transport.hpp"
#include "service/wire.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::service {

/// The server side of the wire protocol, factored out of any particular
/// evaluator: EvalWorker (one process, an LRU of SynthesisEvaluators) and
/// evald's server mode (a coordinator fronting a fleet) both serve
/// connections through this, so the frame dispatch — version checks, error
/// framing, ping, shutdown — exists exactly once. Handlers may throw; the
/// loop answers with an Error frame and keeps the connection alive.
struct EvalService {
  /// Handle Hello; `hello.design_id` may be empty (= keep/none). Return
  /// the ack describing the design now served; throw to answer with an
  /// Error frame instead.
  std::function<HelloAckMsg(const HelloMsg& hello)> on_hello;
  /// Handle LoadDesign. `design` is the decoded, validated netlist and
  /// `blob` its raw serialized bytes (for forwarding without re-encoding).
  /// Return the fingerprint to ack; throw to answer with an Error frame.
  std::function<aig::Fingerprint(aig::Aig design,
                                 std::span<const std::uint8_t> blob)>
      on_load_design;
  /// Handle LoadRegistry. `registry` is the decoded, re-validated alphabet
  /// and `blob` its raw encoded bytes (for forwarding without
  /// re-encoding). Return the fingerprint to ack; throw to answer with an
  /// Error frame.
  std::function<opt::RegistryFingerprint(
      std::shared_ptr<const opt::TransformRegistry> registry,
      std::span<const std::uint8_t> blob)>
      on_load_registry;
  /// Evaluate a batch against the design with fingerprint `design`, whose
  /// step bytes are ids into the alphabet with fingerprint `registry`: call
  /// emit(index, qor) once per flow as results complete (index = the flow's
  /// position in `flows`; order is free). emit queues the flow's
  /// EvalResult frame; the serve loop sends the queue once 64 KiB are
  /// queued, with the ShardDone (count + CRC) that closes the stream, and
  /// whenever the handler calls flush(). The handler must call flush()
  /// before it waits on anything — a synthesis (a flow that lookup()
  /// misses), another thread's result — so no result waits behind one.
  /// emit and flush must be called on the thread that called on_eval,
  /// where a send waits for the client to read like any blocking send. They
  /// never throw and return false once the connection is gone, which is
  /// noticed at the next send (still before the next synthesis starts);
  /// the handler may then stop early. Throwing (e.g. design or registry not
  /// loaded) answers with an Error frame carrying the request id, sent
  /// behind the results already emitted; those stand and the client
  /// requeues only the rest.
  std::function<void(
      const aig::Fingerprint& design, const opt::RegistryFingerprint& registry,
      std::vector<core::Flow> flows,
      const std::function<bool(std::uint32_t, const map::QoR&)>& emit,
      const std::function<bool()>& flush)>
      on_eval;
  /// Per-evaluation wall-clock budget in ms (0 = unlimited). When a shard
  /// evaluation outlives it, a watchdog answers the request with a typed
  /// Error frame *immediately* — the client requeues the shard elsewhere
  /// instead of timing the whole worker out — and every frame the late
  /// evaluation still produces is suppressed. The evaluation itself runs
  /// to completion (transforms are not interruptible midway); the budget
  /// bounds the protocol, not the CPU.
  int eval_budget_ms = 0;
};

/// Live serve counters, shared by every connection of one worker and
/// readable from any thread while they are served — the data behind
/// `evald --admin`.
struct ServeStats {
  std::atomic<std::size_t> connections_total{0};
  std::atomic<std::size_t> connections_open{0};
  std::atomic<std::size_t> requests{0};         ///< EvalRequests accepted
  std::atomic<std::size_t> flows_received{0};   ///< flows across requests
  std::atomic<std::size_t> results_streamed{0}; ///< EvalResult frames queued
  std::atomic<std::size_t> errors{0};           ///< Error frames sent
};

/// Serve frames on `sock` until clean EOF (returns false) or a Shutdown
/// frame (returns true), counting into `stats` when given. Handler
/// exceptions are answered with Error frames and the connection continues;
/// transport failures end it. Requests are handled one at a time, in
/// arrival order, on the calling thread.
bool serve_frames(Socket& sock, const EvalService& service,
                  ServeStats* stats = nullptr);

/// Accept loop: one thread per connection, each running serve_frames over
/// a fresh `make_service()` (handlers shared across connections must be
/// thread-safe — EvalWorker's and make_coordinator_service's are). Returns
/// once a client has sent Shutdown and the connections open then have
/// drained; connections arriving meanwhile are closed at once. A hard
/// accept failure hangs up on every open connection and rethrows.
void serve_connections(Listener& listener,
                       const std::function<EvalService()>& make_service,
                       ServeStats* stats = nullptr);

/// The evald server mode's protocol glue: a service whose Hello(id)
/// elaborates + broadcasts registry designs to the fleet, whose LoadDesign
/// re-broadcasts client netlists, and whose EvalRequests fan out over the
/// coordinator's workers. Safe for concurrent connections (the coordinator
/// serialises batches internally).
EvalService make_coordinator_service(EvalCoordinator& coordinator);

struct WorkerOptions {
  /// designs::make_design name elaborated at startup; empty starts the
  /// worker design-less, waiting for a Hello(design id) or a LoadDesign.
  std::string design_id;
  /// Netlist file (aig/reader BLIF) instantiated at startup — the ingest
  /// path for designs no generator knows. Combines with design_id (both
  /// are loaded; the file is the most recently used). Throws on an
  /// unreadable or malformed file.
  std::string design_file;
  core::EvaluatorConfig evaluator;
  /// Threads evaluating each request inside this worker. Loopback clusters
  /// keep this at 1 (parallelism comes from processes); evald workers
  /// default to 2 and a big remote worker can raise it to use its whole
  /// machine per shard. Either way every result streams back as its own
  /// frame the moment it completes.
  std::size_t threads = 1;
  /// Instantiated (design, registry) evaluators kept warm (>= 1) — the
  /// same design under two alphabets counts twice. Loading entry N+1
  /// evicts the least recently evaluated one together with its memo.
  std::size_t max_designs = 4;
  /// Optional persistent QoR store directory: every instantiated design
  /// answers from the store's labels (looked up per flow, never copied into
  /// the evaluator's memo) and appends new labels to it, so worker restarts
  /// (and sibling workers sharing the directory) never re-evaluate a
  /// (design, flow) pair.
  std::string qor_store_dir;
  /// Per-evaluation wall-clock budget (see EvalService::eval_budget_ms);
  /// 0 disables the watchdog.
  int eval_budget_ms = 0;
  /// RLIMIT_AS ceiling in MiB for this worker process (0 = unlimited).
  /// A runaway transform then dies with a typed allocation failure (or the
  /// process dies and the coordinator requeues) instead of driving the
  /// host into swap/OOM and taking sibling workers with it.
  std::size_t rlimit_as_mb = 0;
  /// RLIMIT_CPU ceiling in seconds (0 = unlimited): SIGXCPU, the hard
  /// backstop behind the wall-clock watchdog.
  int rlimit_cpu_s = 0;
};

/// Apply WorkerOptions' rlimit_* knobs to the calling process (best
/// effort: failures log and continue). Call in the worker process itself —
/// evald --mode worker at startup, or a freshly forked loopback child —
/// never in the coordinator.
void apply_worker_rlimits(const WorkerOptions& options);

class EvalWorker;

/// The worker-mode admin surface (what evald --admin serves and evalctl
/// reads from a single worker): serve-loop counters, per-alphabet store
/// stats/compaction, Prometheus metrics, failpoint introspection/arming.
std::string worker_admin_text(const EvalWorker& worker,
                              const std::string& command);

class EvalWorker {
public:
  /// Elaborates options.design_id (when set) and opens the QoR store
  /// (when configured). Throws on unknown design id / unusable store.
  explicit EvalWorker(WorkerOptions options);

  /// The worker's protocol service (handlers capture this worker; all are
  /// thread-safe, so several connections can share one worker — their
  /// evaluations then share the evaluators' memos).
  EvalService make_service();

  /// serve_frames over this worker's designs. Returns true after
  /// Shutdown, false on EOF.
  bool serve(Socket& sock);

  /// Accept loop for the evald binary: serve_connections over this
  /// worker's service, until a client sends Shutdown.
  void serve_forever(Listener& listener);

  /// Live serve counters of every connection this worker has served (via
  /// serve or serve_forever) — what the worker's admin socket reports.
  const ServeStats& serve_stats() const { return serve_stats_; }

  /// Designs currently instantiated (most recently used first).
  std::size_t num_designs() const {
    std::lock_guard lock(mutex_);
    return designs_.size();
  }
  /// The most recently used evaluator, or nullptr when design-less.
  const core::SynthesisEvaluator* current_evaluator() const {
    std::lock_guard lock(mutex_);
    return designs_.empty() ? nullptr : designs_.front().evaluator.get();
  }
  /// Label stores currently open — one per alphabet this worker has
  /// labeled under; empty when --store is unconfigured. The admin
  /// "store"/"compact" commands report and compact through this.
  std::vector<std::shared_ptr<core::QorStore>> open_stores() const {
    std::lock_guard lock(mutex_);
    std::vector<std::shared_ptr<core::QorStore>> out;
    out.reserve(stores_.size());
    for (const auto& [fp, store] : stores_) out.push_back(store);
    return out;
  }

private:
  struct DesignEntry {
    aig::Fingerprint fp;
    opt::RegistryFingerprint registry;  ///< alphabet the evaluator is bound to
    std::string design_id;  ///< registry name when known, else ""
    /// shared_ptr: a concurrent connection may still be evaluating on an
    /// evaluator the LRU just evicted.
    std::shared_ptr<core::SynthesisEvaluator> evaluator;
  };
  struct FpHash {
    std::size_t operator()(const opt::RegistryFingerprint& fp) const noexcept {
      return static_cast<std::size_t>(fp[0] ^ (fp[1] * 0x9e3779b97f4a7c15ull));
    }
  };

  /// The worker's default alphabet: options.evaluator.registry or paper.
  const std::shared_ptr<const opt::TransformRegistry>& default_registry()
      const;
  /// Known registry for `fp`, or null. Requires mutex_ held.
  std::shared_ptr<const opt::TransformRegistry> find_registry_locked(
      const opt::RegistryFingerprint& fp) const;
  /// Register an alphabet shipped via LoadRegistry; returns its fp.
  opt::RegistryFingerprint load_registry(
      std::shared_ptr<const opt::TransformRegistry> registry);
  /// Evaluator for the (design, registry) pair, moved to the LRU front;
  /// null when that exact pair is not instantiated.
  std::shared_ptr<core::SynthesisEvaluator> find(
      const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry);
  /// Evaluator for an EvalRequest: the exact pair if warm, else a fresh
  /// evaluator for a known design under a known registry. Throws when
  /// either fingerprint is unknown to this worker.
  std::shared_ptr<core::SynthesisEvaluator> evaluator_for(
      const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry);
  /// Instantiate (or touch) a designs::make_design id under `registry`.
  /// Requires mutex_ held.
  DesignEntry& ensure_design_locked(
      const std::string& design_id,
      std::shared_ptr<const opt::TransformRegistry> registry);
  /// Instantiate (or touch) a shipped netlist under `registry` (the
  /// shipping connection's alphabet); returns its fingerprint.
  aig::Fingerprint load_design(
      aig::Aig design, std::shared_ptr<const opt::TransformRegistry> registry);
  /// Insert at LRU front, evicting beyond max_designs. Requires mutex_.
  DesignEntry& adopt_locked(
      aig::Aig design, std::string design_id,
      std::shared_ptr<const opt::TransformRegistry> registry);
  /// Label store for `registry`: the configured directory for the paper
  /// alphabet, a reg-<fp> subdirectory for any other (one directory never
  /// mixes alphabets). Null when no store is configured. Requires mutex_.
  std::shared_ptr<core::QorStore> store_locked(
      const std::shared_ptr<const opt::TransformRegistry>& registry);
  HelloAckMsg ack_front_locked() const;

  WorkerOptions options_;
  mutable std::mutex mutex_;        ///< guards designs_/registries_/stores_
  std::list<DesignEntry> designs_;  ///< front = most recently used
  /// Alphabets this worker can evaluate under, by fingerprint. Seeded with
  /// the default registry; grows via LoadRegistry, never shrinks (a
  /// registry is a few hundred bytes — nothing to evict).
  std::unordered_map<opt::RegistryFingerprint,
                     std::shared_ptr<const opt::TransformRegistry>, FpHash>
      registries_;
  /// One QorStore per alphabet (lazily opened); see store_locked.
  std::unordered_map<opt::RegistryFingerprint,
                     std::shared_ptr<core::QorStore>, FpHash>
      stores_;
  std::unique_ptr<util::ThreadPool> pool_;
  ServeStats serve_stats_;
};

}  // namespace flowgen::service
