#pragma once
// The evaluation seam of the framework: everything downstream of component
// (1) — labeling, selection probes, the pipeline — consumes flow QoRs
// through this interface and never cares *where* synthesis ran. Two
// implementations exist:
//
//  * core::SynthesisEvaluator — in-process, resuming each flow of a sorted
//    batch from its predecessor's graphs,
//  * service::RemoteEvaluator — a client that shards batches across
//    evald worker processes over unix/tcp sockets.
//
// Both are exact (synthesis and mapping are pure functions of the design
// and the step sequence), so callers may switch between them freely and
// expect bit-identical QoR.

#include <span>
#include <vector>

#include "core/flow.hpp"
#include "map/qor.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::core {

/// Abstract producer of flow QoRs. Contract for every implementation:
/// evaluation is deterministic and *pure* — the result depends only on
/// (design, steps) — so repeated calls, any batch decomposition, and any
/// implementation swap yield bit-identical QoR. Implementations are
/// thread-safe for concurrent calls through this interface, and report
/// failure by throwing (std::exception subtypes; e.g. ServiceError when a
/// remote fleet cannot complete a batch) — never by returning partial or
/// default results.
class FlowEvaluator {
public:
  virtual ~FlowEvaluator() = default;

  /// Synthesize + map one flow and report its QoR. Deterministic; throws
  /// on evaluation failure.
  virtual map::QoR evaluate(const Flow& flow) const = 0;

  /// Evaluate a batch; results keep caller order (result[i] belongs to
  /// flows[i] regardless of internal scheduling). `pool` is advisory — the
  /// in-process engine fans out across it, a remote evaluator (whose
  /// parallelism is its worker processes) may ignore it. Throws if any
  /// flow cannot be evaluated; never returns a partially-filled batch.
  virtual std::vector<map::QoR> evaluate_many(
      std::span<const Flow> flows, util::ThreadPool* pool = nullptr) const = 0;

  /// QoR of the unsynthesized design (= the empty flow, by definition).
  virtual map::QoR baseline() const { return evaluate(Flow{}); }
};

}  // namespace flowgen::core
