#pragma once
// Component (1) of the framework (Figure 2): apply a synthesis flow to the
// design and collect its QoR after technology mapping. This is by far the
// dominant runtime of the whole pipeline (as in the paper, where dataset
// collection is ~95% of wall-clock), so evaluation reuses work twice:
//
//  * every label lives in one QorStore: a memory-only one of the
//    evaluator's own until attach_store replaces it with a persistent one.
//    Every path asks the store first (a batch in one pass over its sorted
//    records), only the store's misses are synthesized, and each fresh
//    label is appended to the store once,
//  * synthesis resumes from a Trail: the graphs of the flow last
//    synthesized through it. Every batch is evaluated in lexicographic
//    order, where the longest prefix a flow shares with any earlier flow is
//    the one it shares with the flow just before it, so one trail per
//    sorted run skips every pass a cache of all prefixes would; a flow
//    equal to the trail's own is answered with the trail's label.
//
// Both are exact: a trail graph *is* the AIG of that prefix and mapping is
// a pure function of the graph, so resumed, serial and parallel evaluation
// return bit-identical QoR.

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "core/flow_evaluator.hpp"
#include "map/cell_library.hpp"
#include "map/mapper.hpp"
#include "map/qor.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::telemetry {
class Counter;
class Histogram;
}  // namespace flowgen::telemetry

namespace flowgen::core {

class QorStore;

struct EvaluatorConfig {
  /// The transform alphabet this evaluator dispatches step ids through;
  /// null = the paper registry. Every flow handed to evaluate() is
  /// validated against it (out-of-range ids are a typed
  /// opt::RegistryError), and an attached QorStore must carry the same
  /// registry fingerprint.
  std::shared_ptr<const opt::TransformRegistry> registry;
};

/// Counters for benchmarking and regression tracking; all monotonic.
/// The store is check-then-act without holding a lock across synthesis, so
/// two threads racing on the same flow may both do the work (results are
/// identical either way). Only the synthesis whose append the store takes
/// counts as an evaluation, so `evaluations` counts such a flow once, but
/// transforms and mappings count both: exact invariants like mappings ==
/// evaluations hold for serial batches only.
struct EvaluatorStats {
  std::size_t evaluations = 0;        ///< store misses synthesized
  std::size_t transforms_applied = 0; ///< transform passes actually run
  std::size_t transforms_skipped = 0; ///< passes saved by trail resume
  std::size_t mappings = 0;           ///< technology mappings actually run
};

class SynthesisEvaluator : public FlowEvaluator {
public:
  /// The steps of the flow last synthesized through this trail, the graph
  /// after each of them and the flow's label, under the (design, registry)
  /// it was filled by. evaluate(flow, trail) answers a flow equal to the
  /// trail's with its label (no pass, no mapping), else resumes from the
  /// longest step prefix `flow` shares with it and leaves the trail holding
  /// `flow`; a trail filled by another design or alphabet starts over.
  /// Hand one trail the flows of a lexicographically sorted run. A trail
  /// belongs to one thread at a time.
  class Trail {
  private:
    friend class SynthesisEvaluator;
    StepsKey steps_;
    std::vector<aig::Aig> graphs_;  ///< graphs_[i]: after steps_[0..i]
    std::optional<map::QoR> qor_;   ///< label of steps_, once mapped
    aig::Fingerprint design_{};
    opt::RegistryFingerprint registry_{};
  };

  explicit SynthesisEvaluator(
      aig::Aig design,
      const map::CellLibrary& lib = map::CellLibrary::builtin(),
      map::MapperParams mapper_params = {}, EvaluatorConfig config = {});

  const aig::Aig& design() const { return design_; }
  /// Content identity of the evaluated design (cached at construction);
  /// keys this evaluator's records in a QorStore and on the wire.
  const aig::Fingerprint& design_fingerprint() const { return design_fp_; }
  /// The alphabet step ids dispatch through (paper registry by default).
  const opt::TransformRegistry& registry() const { return *registry_; }
  const std::shared_ptr<const opt::TransformRegistry>& registry_ptr() const {
    return registry_;
  }

  /// Replace the evaluator's store with a persistent one: its records
  /// answer every lookup straight from the store (attach is O(1) even at
  /// 10^6+ records, and nothing is copied out of it), and every fresh
  /// label is appended to it as it completes. Labels the evaluator held
  /// before are dropped with its previous store. A null store gives the
  /// evaluator a fresh memory-only one. Throws opt::RegistryError when the
  /// store's registry fingerprint differs from this evaluator's — labels
  /// keyed by another alphabet must never answer for this one. Call
  /// before evaluation starts; not thread-safe against concurrent
  /// evaluate().
  void attach_store(std::shared_ptr<QorStore> store);

  /// The label `flow` already has in the store, without synthesizing;
  /// nullopt when it has none. Validates the flow like evaluate().
  /// Thread-safe.
  std::optional<map::QoR> lookup(const Flow& flow) const;

  /// lookup(), and on a miss synthesize (transform sequence) + map +
  /// report QoR, appended to the store. Thread-safe.
  map::QoR evaluate(const Flow& flow) const override;
  /// A label synthesized from the longest prefix `flow` shares with
  /// `trail`'s flow (see Trail), appended to the store. It does not ask
  /// the store: a batch asks it once for all its flows (lookup_many) and
  /// hands the misses here. Validates the flow like evaluate().
  /// Thread-safe for distinct trails.
  ///
  /// A label whose append fails (disk full, I/O error) is still returned
  /// and counted as an evaluation, but the store holds only what it wrote:
  /// that flow is synthesized again the next time it is asked for.
  map::QoR evaluate(const Flow& flow, Trail& trail) const;

  /// lookup() for a batch: the labels its flows already have, in one
  /// QorStore::lookup_sorted pass under one lock (see there for `order`,
  /// `out` and `answered`; an empty `order` means `flows` is already in
  /// lexicographic order). Validates every flow like evaluate(), in caller
  /// order, first. Returns the number of flows answered. Thread-safe.
  std::size_t lookup_many(std::span<const Flow> flows,
                          std::span<const std::size_t> order,
                          std::span<map::QoR> out,
                          std::vector<bool>& answered) const;

  /// Evaluate a batch, optionally across a thread pool. lookup_many answers
  /// what the store holds, in lexicographic step order, and
  /// evaluate(flow, trail) synthesizes the rest in that order (results keep
  /// caller order), one trail per contiguous run of it, so flows sharing a
  /// prefix run back to back and each resumes from its predecessor's
  /// graphs.
  std::vector<map::QoR> evaluate_many(
      std::span<const Flow> flows,
      util::ThreadPool* pool = nullptr) const override;

  /// QoR of the unsynthesized design (empty flow).
  map::QoR baseline() const override;

  /// Total number of flows synthesized (store misses).
  std::size_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  EvaluatorStats stats() const;

private:
  /// synthesize(), then append the result to the store.
  map::QoR synthesize_and_keep(StepsView steps, Trail& trail) const;
  /// Miss path: synthesis resumed from `trail`, then mapping.
  map::QoR synthesize(StepsView steps, Trail& trail) const;
  map::QoR map_graph(const aig::Aig& g) const;

  aig::Aig design_;
  aig::Fingerprint design_fp_{};
  std::shared_ptr<const opt::TransformRegistry> registry_;
  const map::CellLibrary& lib_;
  map::MapperParams mapper_params_;
  std::shared_ptr<QorStore> store_;  ///< never null

  /// Telemetry handles, resolved once at construction so the hot path
  /// never touches the registry map. Per-spec latency histograms are
  /// indexed by StepId.
  telemetry::Counter* tm_evaluations_ = nullptr;
  telemetry::Counter* tm_transforms_applied_ = nullptr;
  telemetry::Counter* tm_transforms_skipped_ = nullptr;
  telemetry::Counter* tm_mappings_ = nullptr;
  telemetry::Histogram* tm_mapping_ms_ = nullptr;
  std::vector<telemetry::Histogram*> tm_spec_ms_;

  mutable std::atomic<std::size_t> evaluations_{0};
  mutable std::atomic<std::size_t> transforms_applied_{0};
  mutable std::atomic<std::size_t> transforms_skipped_{0};
  mutable std::atomic<std::size_t> mappings_{0};
};

}  // namespace flowgen::core
