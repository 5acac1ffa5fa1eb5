#pragma once
// Component (1) of the framework (Figure 2): apply a synthesis flow to the
// design and collect its QoR after technology mapping. This is by far the
// dominant runtime of the whole pipeline (as in the paper, where dataset
// collection is ~95% of wall-clock), so evaluation is a real engine here:
//
//  * QoR results are memoised in a sharded map keyed by the packed step
//    sequence (no string keys, no global lock on the hot path),
//  * synthesis resumes from the deepest prefix snapshot in a byte-budgeted
//    PrefixFlowCache instead of re-running the whole flow,
//  * technology mapping is deduplicated by structural fingerprint — flows
//    that converge to the same graph map once,
//  * evaluate_many sorts the batch lexicographically so sibling flows hit
//    warm prefixes, and schedules contiguous groups across the thread pool.
//
// All three layers are exact: a prefix snapshot *is* the AIG of that prefix
// and mapping is a pure function of the graph, so cached, serial and
// parallel evaluation return bit-identical QoR.

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "core/flow_cache.hpp"
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
  /// Resume synthesis from cached prefix snapshots. Off = every cache-missing
  /// flow is synthesized from scratch (the pre-engine behaviour).
  bool use_prefix_cache = true;
  /// Dedup technology mapping by the final graph's structural fingerprint.
  bool dedup_mappings = true;
  /// Shards of the QoR/fingerprint caches (rounded up to a power of two).
  std::size_t qor_shards = 16;
  FlowCacheConfig prefix_cache;
};

/// Counters for benchmarking and regression tracking; all monotonic.
/// Caches are check-then-act without holding locks across synthesis or
/// mapping, so two threads racing on the same flow/graph may both do the
/// work (first result wins, results are identical either way). Exact
/// invariants like mappings + mappings_deduped == evaluations therefore
/// hold for serial batches only; under concurrency the counters can
/// overshoot by the number of such races.
struct EvaluatorStats {
  std::size_t evaluations = 0;        ///< flow-level cache misses
  std::size_t transforms_applied = 0; ///< transform passes actually run
  std::size_t transforms_skipped = 0; ///< passes saved by prefix snapshots
  std::size_t mappings = 0;           ///< technology mappings actually run
  std::size_t mappings_deduped = 0;   ///< served by fingerprint dedup
  FlowCacheStats prefix;              ///< prefix-cache internals
};

class SynthesisEvaluator : public FlowEvaluator {
public:
  explicit SynthesisEvaluator(
      aig::Aig design,
      const map::CellLibrary& lib = map::CellLibrary::builtin(),
      map::MapperParams mapper_params = {}, EvaluatorConfig config = {});

  const aig::Aig& design() const { return design_; }
  const EvaluatorConfig& config() const { return config_; }
  /// Content identity of the evaluated design (cached at construction);
  /// keys this evaluator's records in a QorStore and on the wire.
  const aig::Fingerprint& design_fingerprint() const { return design_fp_; }
  /// The alphabet step ids dispatch through (paper registry by default).
  const opt::TransformRegistry& registry() const { return *registry_; }
  const std::shared_ptr<const opt::TransformRegistry>& registry_ptr() const {
    return registry_;
  }

  /// Seed the QoR cache with a known-correct result for `steps` (e.g. a
  /// QorStore record). Does not count as an evaluation; a later evaluate()
  /// of the same flow is a pure cache hit. First result wins on duplicate
  /// keys. Thread-safe.
  void warm_qor(StepsView steps, const map::QoR& qor) const;

  /// Attach a persistent label store: stored records answer evaluate()
  /// lazily (a cache miss consults the store before synthesizing — attach
  /// is O(1) even at 10^6+ records, and only the flows actually requested
  /// warm the cache), and every genuinely fresh result is appended to the
  /// store as it completes. Throws opt::RegistryError when the store's
  /// registry fingerprint differs from this evaluator's — labels keyed by
  /// another alphabet must never warm these caches. Call before evaluation
  /// starts; not thread-safe against concurrent evaluate().
  void attach_store(std::shared_ptr<QorStore> store);

  /// Synthesize (transform sequence) + map + report QoR. Thread-safe;
  /// results are cached by packed flow key.
  map::QoR evaluate(const Flow& flow) const override;

  /// Evaluate a batch, optionally across a thread pool. The batch is
  /// processed in lexicographic step order (results keep caller order) so
  /// flows sharing a prefix run back to back against a warm cache.
  std::vector<map::QoR> evaluate_many(
      std::span<const Flow> flows,
      util::ThreadPool* pool = nullptr) const override;

  /// QoR of the unsynthesized design (empty flow).
  map::QoR baseline() const override;

  std::size_t cache_size() const;
  /// Total number of flow evaluations that missed the QoR cache.
  std::size_t evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  EvaluatorStats stats() const;

private:
  using Fingerprint = aig::Fingerprint;
  struct FingerprintHash {
    std::size_t operator()(const Fingerprint& fp) const noexcept {
      return static_cast<std::size_t>(fp[0] ^ (fp[1] * 0x9e3779b97f4a7c15ull));
    }
  };
  struct QorShard {
    mutable std::mutex mutex;
    std::unordered_map<StepsKey, map::QoR, StepsHash, StepsEqual> by_flow;
    std::unordered_map<Fingerprint, map::QoR, FingerprintHash> by_fingerprint;
  };

  QorShard& shard_for_flow(StepsView steps) const {
    return shards_[StepsHash{}(steps) & shard_mask_];
  }
  QorShard& shard_for_fp(const Fingerprint& fp) const {
    return shards_[fp[0] & shard_mask_];
  }

  /// Full miss path: prefix-resume synthesis + (deduped) mapping.
  map::QoR evaluate_uncached(StepsView steps) const;
  map::QoR map_deduped(const aig::Aig& g) const;

  aig::Aig design_;
  aig::Fingerprint design_fp_{};
  std::shared_ptr<const opt::TransformRegistry> registry_;
  const map::CellLibrary& lib_;
  map::MapperParams mapper_params_;
  EvaluatorConfig config_;
  std::shared_ptr<QorStore> store_;

  std::size_t shard_mask_ = 0;
  mutable std::vector<QorShard> shards_;
  mutable std::unique_ptr<PrefixFlowCache> prefix_cache_;

  /// Telemetry handles, resolved once at construction so the hot path
  /// never touches the registry map. Per-spec latency histograms are
  /// indexed by StepId.
  telemetry::Counter* tm_evaluations_ = nullptr;
  telemetry::Counter* tm_transforms_applied_ = nullptr;
  telemetry::Counter* tm_transforms_skipped_ = nullptr;
  telemetry::Counter* tm_mappings_ = nullptr;
  telemetry::Counter* tm_mappings_deduped_ = nullptr;
  telemetry::Histogram* tm_mapping_ms_ = nullptr;
  std::vector<telemetry::Histogram*> tm_spec_ms_;

  mutable std::atomic<std::size_t> evaluations_{0};
  mutable std::atomic<std::size_t> transforms_applied_{0};
  mutable std::atomic<std::size_t> transforms_skipped_{0};
  mutable std::atomic<std::size_t> mappings_{0};
  mutable std::atomic<std::size_t> mappings_deduped_{0};
};

}  // namespace flowgen::core
