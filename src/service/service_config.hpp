#pragma once
// Deliberately include-light config describing where flow evaluation runs
// and where its labels persist, embeddable in PipelineConfig without
// dragging sockets into core headers. Resolution order: worker_addresses
// (remote fleet) > loopback_workers (forked local processes) > in-process
// SynthesisEvaluator.

#include <cstddef>
#include <string>
#include <vector>

namespace flowgen::service {

struct EvalServiceConfig {
  /// Fork this many local worker processes (0 = stay in-process).
  std::size_t loopback_workers = 0;
  /// Or connect to running evald workers: "unix:/path", "tcp:host:port".
  std::vector<std::string> worker_addresses;
  /// designs::make_design name workers elaborate themselves (the registry
  /// is deterministic, so an id fully determines the graph and requests
  /// stay tiny). Empty in a distributed mode = the design passed to the
  /// pipeline is *shipped* to every worker as a serialized netlist
  /// (protocol v2 LoadDesign) — required for off-registry circuits.
  std::string design_id;
  /// Persistent labeled-QoR store directory (see core/qor_store.hpp and
  /// docs/qor-store.md). Empty = labels die with the process. Set, every
  /// (design, flow) QoR survives restarts: in-process runs look each flow
  /// up in it before synthesizing (stored labels are not copied into the
  /// evaluator's memo), distributed runs answer stored flows without
  /// touching the fleet, and several coordinators may share the directory.
  std::string qor_store_dir;

  bool distributed() const {
    return loopback_workers > 0 || !worker_addresses.empty();
  }
};

}  // namespace flowgen::service
