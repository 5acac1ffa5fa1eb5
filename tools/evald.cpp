// evald — the flow-evaluation daemon. Three modes:
//
//   worker    Serve synthesis+mapping requests. Designs come from the
//             design registry (Hello naming an id), from a netlist file
//             (--design-file, BLIF via aig/reader) or over the wire
//             (LoadDesign shipping a serialized netlist); transform
//             alphabets arrive via protocol v3 LoadRegistry; a small LRU
//             keeps several instantiated (design, alphabet) pairs warm.
//             Every connection is served on its own thread, one request
//             at a time; a pool of --threads (default 2) evaluates each
//             shard and every result streams back as it completes.
//             --threads is the worker's whole evaluation parallelism:
//               evald --mode worker --listen unix:/tmp/w0.sock
//                     [--design alu16] [--design-file adder.blif]
//                     [--threads 2] [--max-designs 4]
//                     [--store /var/lib/flowgen/qor]
//                     [--admin unix:/tmp/w0.admin]
//                     [--eval-budget-ms 0] [--rlimit-as-mb 0]
//                     [--rlimit-cpu-s 0]
//   server    Front a worker fleet behind a single address. The server
//             speaks the same protocol as a worker — including LoadDesign
//             and LoadRegistry, which it re-broadcasts to its fleet — so
//             clients cannot tell a coordinator from a big worker and
//             fleets compose:
//               evald --mode server --listen tcp:0.0.0.0:9000
//                     --workers unix:/tmp/w0.sock,unix:/tmp/w1.sock
//                     [--design alu16 | --design-file adder.blif]
//                     [--store /var/lib/flowgen/qor]
//                     [--admin unix:/tmp/server.admin]
//                     [--reconnect-ms 2000] [--reconnect-max-ms 30000]
//                     [--breaker-failures 5] [--breaker-window-ms 60000]
//                     [--breaker-cooldown-ms 5000]
//                     [--quarantine-after 3] [--isolate-after 2]
//   loopback  Fork N local workers, push a random batch through them, and
//             print throughput — the zero-setup smoke test:
//               evald --mode loopback --design alu16 --workers 4 --flows 200
//               evald --mode loopback --design-file adder.blif --workers 4
//
// --store points at a persistent labeled-QoR directory (docs/qor-store.md):
// workers look each flow up in it before synthesizing (a stored label is
// answered from the store, not copied into memory) and append fresh
// labels; a server answers stored flows without bothering its fleet. A
// server and workers given the same directory share labels at attach and
// at every compaction (the admin "compact" command).
//
// --admin opens the line-oriented introspection socket (tools/evalctl is
// the matching client): queue depths, per-worker inflight/latency, requeue
// counts, store hit rates — live, while batches run. "metrics" on that
// socket returns Prometheus text: a worker serves its own page, a server
// scrapes and merges the whole fleet's.
//
// --trace FILE appends Chrome trace events (load in Perfetto). The file is
// opened O_APPEND, so a server and its workers may share one path; in
// loopback mode the forked workers inherit the fd and do exactly that.
//
// --failpoints "name=spec;name=spec" arms fault-injection points at
// startup (equivalent to the FLOWGEN_FAILPOINTS env var; see
// docs/fault-model.md); the admin socket's "failpoint"/"failpoints"
// commands arm and list them live.
//
// Flags are util/cli style (--flag value / --flag=value, FLOWGEN_* env).

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aig/reader.hpp"
#include "aig/serialize.hpp"
#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "service/admin.hpp"
#include "service/loopback.hpp"
#include "service/remote_evaluator.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/cli.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace flowgen;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > start) out.push_back(csv.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Shared --trace handling: all three modes append Chrome trace events to
/// the given file (O_APPEND — a coordinator and its forked workers can
/// safely share one file; see docs/observability.md).
void maybe_start_tracing(const util::Cli& cli) {
  if (const std::string path = cli.get("trace", ""); !path.empty()) {
    telemetry::start_tracing(path);
  }
}

int run_worker(const util::Cli& cli) {
  maybe_start_tracing(cli);
  service::WorkerOptions options;
  options.design_id = cli.get("design", "");
  options.design_file = cli.get("design-file", "");
  options.threads = static_cast<std::size_t>(cli.get_int("threads", 2));
  options.max_designs =
      static_cast<std::size_t>(cli.get_int("max-designs", 4));
  options.qor_store_dir = cli.get("store", "");
  options.eval_budget_ms =
      static_cast<int>(cli.get_int("eval-budget-ms", 0));
  options.rlimit_as_mb =
      static_cast<std::size_t>(cli.get_int("rlimit-as-mb", 0));
  options.rlimit_cpu_s = static_cast<int>(cli.get_int("rlimit-cpu-s", 0));
  // Self-protection first, before any evaluator state is built.
  service::apply_worker_rlimits(options);
  const auto addr = service::Address::parse(
      cli.get("listen", "unix:/tmp/evald.sock"));
  service::EvalWorker worker(options);
  service::Listener listener = service::Listener::bind(addr);
  std::unique_ptr<service::AdminServer> admin;
  if (const std::string spec = cli.get("admin", ""); !spec.empty()) {
    admin = std::make_unique<service::AdminServer>(
        service::Address::parse(spec), [&worker](const std::string& cmd) {
          return service::worker_admin_text(worker, cmd);
        });
  }
  util::log_info("evald worker: design=",
                 !options.design_file.empty() ? options.design_file
                 : options.design_id.empty() ? "<none — awaiting LoadDesign>"
                                             : options.design_id,
                 " listening on ", listener.address().to_string());
  worker.serve_forever(listener);
  return 0;
}

int run_server(const util::Cli& cli) {
  maybe_start_tracing(cli);
  const std::string design = cli.get("design", "");
  const std::string design_file = cli.get("design-file", "");
  const auto worker_specs = split_list(cli.get("workers", ""));
  if (worker_specs.empty()) {
    std::fprintf(stderr, "evald server: --workers is required\n");
    return 2;
  }
  service::CoordinatorConfig config;
  config.admin_addr = cli.get("admin", "");
  config.reconnect_ms = static_cast<int>(cli.get_int("reconnect-ms", 0));
  config.reconnect_max_ms = static_cast<int>(
      cli.get_int("reconnect-max-ms", config.reconnect_max_ms));
  config.breaker_failures = static_cast<std::size_t>(cli.get_int(
      "breaker-failures", static_cast<long>(config.breaker_failures)));
  config.breaker_window_ms = static_cast<int>(
      cli.get_int("breaker-window-ms", config.breaker_window_ms));
  config.breaker_cooldown_ms = static_cast<int>(
      cli.get_int("breaker-cooldown-ms", config.breaker_cooldown_ms));
  config.quarantine_after = static_cast<std::size_t>(cli.get_int(
      "quarantine-after", static_cast<long>(config.quarantine_after)));
  config.isolate_after = static_cast<std::size_t>(
      cli.get_int("isolate-after", static_cast<long>(config.isolate_after)));
  // No --design/--design-file starts the fleet deferred: the first client
  // Hello(id), LoadDesign or LoadRegistry decides what it serves. A
  // --design-file fleet ships the loaded netlist to every worker.
  std::unique_ptr<service::EvalCoordinator> coordinator;
  if (design_file.empty()) {
    coordinator = std::make_unique<service::EvalCoordinator>(
        service::connect_workers(worker_specs), design, config);
  } else {
    coordinator = std::make_unique<service::EvalCoordinator>(
        service::connect_workers(worker_specs),
        aig::read_blif_file(design_file), config);
  }
  if (const std::string dir = cli.get("store", ""); !dir.empty()) {
    // Directory-rooted so the store follows LoadRegistry alphabet
    // switches (paper labels in DIR, others in DIR/reg-<fp16>).
    coordinator->attach_store_dir(dir);
  }
  const auto addr =
      service::Address::parse(cli.get("listen", "unix:/tmp/evald.sock"));
  service::Listener listener = service::Listener::bind(addr);
  util::log_info("evald server: design=",
                 !design_file.empty() ? design_file
                 : design.empty()     ? "<deferred>"
                                      : design,
                 " fleet=", coordinator->num_workers_alive(),
                 " listening on ", listener.address().to_string());
  // Concurrent clients: one thread per connection (the
  // Hello(id)-elaborates-and-broadcasts glue lives in
  // make_coordinator_service); the coordinator interleaves their batches
  // fairly across the fleet.
  service::serve_connections(listener, [&] {
    return service::make_coordinator_service(*coordinator);
  });
  coordinator->shutdown_workers();
  return 0;
}

int run_loopback(const util::Cli& cli) {
  // Before the forks: loopback workers inherit the O_APPEND trace fd and
  // their spans land in the same file as the coordinator's.
  maybe_start_tracing(cli);
  const std::string design = cli.get("design", "alu16");
  const std::string design_file = cli.get("design-file", "");
  const auto num_workers =
      static_cast<std::size_t>(cli.get_int("workers", 4));
  const auto num_flows = static_cast<std::size_t>(cli.get_int("flows", 200));
  const auto m = static_cast<unsigned>(cli.get_int("m", 2));

  auto remote =
      design_file.empty()
          ? service::RemoteEvaluator::loopback(design, num_workers)
          : service::RemoteEvaluator::loopback_netlist(
                aig::read_blif_file(design_file), num_workers);
  const core::FlowSpace space(m);
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  const std::vector<core::Flow> flows = space.sample_unique(num_flows, rng);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<map::QoR> qor = remote->evaluate_many(flows);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto stats = remote->stats();
  std::printf("evald loopback: design=%s workers=%zu flows=%zu\n",
              design_file.empty() ? design.c_str() : design_file.c_str(),
              num_workers, num_flows);
  std::printf("  %.2fs  %.1f flows/s  shards=%zu requeues=%zu\n", seconds,
              seconds > 0 ? static_cast<double>(num_flows) / seconds : 0.0,
              stats.shards, stats.requeues);
  std::printf("  first QoR: %s\n", qor.empty() ? "-" : qor[0].to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (const std::string spec = cli.get("failpoints", ""); !spec.empty()) {
    util::failpoint::configure_from_spec(spec);
  }
  const std::string mode = cli.get("mode", "loopback");
  if (mode == "worker") return run_worker(cli);
  if (mode == "server") return run_server(cli);
  if (mode == "loopback") return run_loopback(cli);
  std::fprintf(stderr, "evald: unknown --mode %s (worker|server|loopback)\n",
               mode.c_str());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "evald: %s\n", e.what());
  return 1;
}
