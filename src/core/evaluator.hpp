#pragma once
// Component (1) of the framework (Figure 2): apply a synthesis flow to the
// design and collect its QoR after technology mapping. This is by far the
// dominant runtime of the whole pipeline (as in the paper, where dataset
// collection is ~95% of wall-clock), so evaluation reuses work twice:
//
//  * QoR results are memoised in a sharded map keyed by the packed step
//    sequence (no string keys, no global lock on the hot path), and an
//    attached QorStore answers what earlier runs labeled: a batch asks the
//    store first, in one pass over its sorted records, and only the
//    store's misses go on to the memo and to synthesis,
//  * synthesis resumes from a Trail: the graphs of the flow last
//    synthesized through it. Every batch is evaluated in lexicographic
//    order, where the longest prefix a flow shares with any earlier flow is
//    the one it shares with the flow just before it, so one trail per
//    sorted run skips every pass a cache of all prefixes would.
//
// Both are exact: a trail graph *is* the AIG of that prefix and mapping is
// a pure function of the graph, so resumed, serial and parallel evaluation
// return bit-identical QoR.

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
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
/// The memo is check-then-act without holding a lock across synthesis, so
/// two threads racing on the same flow may both do the work (first result
/// wins, results are identical either way). Exact invariants like
/// mappings == evaluations therefore hold for serial batches only; under
/// concurrency the counters can overshoot by the number of such races.
struct EvaluatorStats {
  std::size_t evaluations = 0;        ///< flow-level memo misses synthesized
  std::size_t transforms_applied = 0; ///< transform passes actually run
  std::size_t transforms_skipped = 0; ///< passes saved by trail resume
  std::size_t mappings = 0;           ///< technology mappings actually run
};

class SynthesisEvaluator : public FlowEvaluator {
public:
  /// The steps of the flow last synthesized through this trail and the
  /// graph after each of them, under the (design, registry) it was filled
  /// by. evaluate(flow, trail) resumes from the longest step prefix `flow`
  /// shares with it and leaves the trail holding `flow`; a trail filled by
  /// another design or alphabet starts over. Hand one trail the flows of a
  /// lexicographically sorted run. A trail belongs to one thread at a time.
  class Trail {
  private:
    friend class SynthesisEvaluator;
    StepsKey steps_;
    std::vector<aig::Aig> graphs_;  ///< graphs_[i]: after steps_[0..i]
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

  /// Attach a persistent label store: stored records answer lookup(),
  /// evaluate(flow) and lookup_many() straight from the store (attach is
  /// O(1) even at 10^6+ records, and a hit is not copied into the memo, so
  /// the store stays the only copy of its labels), and every genuinely
  /// fresh result is appended to the store as it completes. lookup() asks
  /// the memo first and the store for the memo's misses; a batch
  /// (evaluate_many, lookup_many) asks the store first and the memo only
  /// for the store's misses. Both hold labels of one pure evaluation, so
  /// the order changes no bit. Throws opt::RegistryError when the store's
  /// registry fingerprint differs from this evaluator's — labels keyed by
  /// another alphabet must never answer for this one. Call before
  /// evaluation starts; not thread-safe against concurrent evaluate().
  void attach_store(std::shared_ptr<QorStore> store);

  /// The label `flow` already has, without synthesizing: the memo of
  /// results this evaluator computed, then the attached store; nullopt when
  /// neither holds one. Validates the flow like evaluate(). Thread-safe.
  std::optional<map::QoR> lookup(const Flow& flow) const;

  /// lookup(), and on a miss synthesize (transform sequence) + map +
  /// report QoR, memoised by packed flow key and appended to the store.
  /// Thread-safe.
  map::QoR evaluate(const Flow& flow) const override;
  /// The memo's label for `flow`, else a fresh one synthesized from the
  /// longest prefix `flow` shares with `trail`'s flow (see Trail), memoised
  /// and appended to the store. It does not ask the store: a batch asks it
  /// once for all its flows (lookup_many) and hands the misses here.
  /// Validates the flow like evaluate(). Thread-safe for distinct trails.
  map::QoR evaluate(const Flow& flow, Trail& trail) const;

  /// lookup() for a batch: the labels its flows already have. The attached
  /// store answers first, in one QorStore::lookup_sorted pass under one
  /// lock (see there for `order`, `out` and `answered`; an empty `order`
  /// means `flows` is already in lexicographic order), and the memo then
  /// answers the store's misses. Validates every flow like evaluate(), in
  /// caller order, before either. Returns the number of flows answered.
  /// Thread-safe.
  std::size_t lookup_many(std::span<const Flow> flows,
                          std::span<const std::size_t> order,
                          std::span<map::QoR> out,
                          std::vector<bool>& answered) const;

  /// Evaluate a batch, optionally across a thread pool. lookup_many answers
  /// what the store and the memo hold, in lexicographic step order, and
  /// evaluate(flow, trail) synthesizes the rest in that order (results keep
  /// caller order), one trail per contiguous run of it, so flows sharing a
  /// prefix run back to back and each resumes from its predecessor's
  /// graphs.
  std::vector<map::QoR> evaluate_many(
      std::span<const Flow> flows,
      util::ThreadPool* pool = nullptr) const override;

  /// QoR of the unsynthesized design (empty flow).
  map::QoR baseline() const override;

  /// Results memoised by evaluate() (store hits are not among them).
  std::size_t cache_size() const;
  /// Total number of flows synthesized (memo and store misses).
  std::size_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  EvaluatorStats stats() const;

private:
  /// Independently locked shards of the memo (a power of two).
  static constexpr std::size_t kQorShards = 16;
  struct QorShard {
    mutable std::mutex mutex;
    std::unordered_map<StepsKey, map::QoR, StepsHash, StepsEqual> by_flow;
  };

  QorShard& shard_for_flow(StepsView steps) const {
    return shards_[StepsHash{}(steps) & (kQorShards - 1)];
  }

  /// The memo's label for validated `steps`, or nullopt.
  std::optional<map::QoR> memo_find(StepsView steps) const;
  /// synthesize(), then memoise the result and append it to the store.
  map::QoR synthesize_and_keep(StepsView steps, Trail& trail) const;
  /// Miss path: synthesis resumed from `trail`, then mapping.
  map::QoR synthesize(StepsView steps, Trail& trail) const;
  map::QoR map_graph(const aig::Aig& g) const;

  aig::Aig design_;
  aig::Fingerprint design_fp_{};
  std::shared_ptr<const opt::TransformRegistry> registry_;
  const map::CellLibrary& lib_;
  map::MapperParams mapper_params_;
  std::shared_ptr<QorStore> store_;

  mutable std::array<QorShard, kQorShards> shards_;

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
