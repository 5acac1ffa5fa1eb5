#include "core/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <numeric>

#include "core/qor_store.hpp"
#include "opt/transform.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/log.hpp"

namespace flowgen::core {

SynthesisEvaluator::SynthesisEvaluator(aig::Aig design,
                                       const map::CellLibrary& lib,
                                       map::MapperParams mapper_params,
                                       EvaluatorConfig config)
    : design_(std::move(design)),
      design_fp_(design_.fingerprint()),
      registry_(config.registry ? config.registry
                                : opt::TransformRegistry::paper()),
      lib_(lib),
      mapper_params_(mapper_params),
      config_(config) {
  const std::size_t n = round_up_shards(config_.qor_shards);
  shard_mask_ = n - 1;
  shards_ = std::vector<QorShard>(n);
  if (config_.use_prefix_cache) {
    prefix_cache_ = std::make_unique<PrefixFlowCache>(config_.prefix_cache);
  }

  tm_evaluations_ = &telemetry::counter(
      "flowgen_evaluations_total", "Flow-level QoR cache misses evaluated");
  tm_transforms_applied_ = &telemetry::counter(
      "flowgen_transforms_applied_total", "Transform passes actually run");
  tm_transforms_skipped_ = &telemetry::counter(
      "flowgen_transforms_skipped_total",
      "Transform passes saved by prefix snapshots");
  tm_mappings_ = &telemetry::counter("flowgen_mappings_total",
                                     "Technology mappings actually run");
  tm_mappings_deduped_ = &telemetry::counter(
      "flowgen_mappings_deduped_total",
      "Mappings served by structural-fingerprint dedup");
  // Transforms and mapping sit well under a second on bench designs, so
  // their histograms use a finer grid than the serve-path default.
  const std::vector<double> fine_ms = telemetry::exp_buckets(0.005, 2.0, 18);
  tm_mapping_ms_ = &telemetry::histogram(
      "flowgen_mapping_ms", "Technology mapping latency (ms)", fine_ms);
  // Every pass computes its own analysis, so each spec has one series; it
  // keeps the analysis="cold" label, which bench/e2e reads.
  tm_spec_ms_.resize(registry_->size());
  for (std::size_t i = 0; i < registry_->size(); ++i) {
    const std::string& spec = registry_->name(static_cast<opt::StepId>(i));
    tm_spec_ms_[i] = &telemetry::histogram(
        "flowgen_transform_ms", "Transform pass latency (ms) by spec",
        fine_ms, {{"spec", spec}, {"analysis", "cold"}});
  }
}

map::QoR SynthesisEvaluator::evaluate(const Flow& flow) const {
  const StepsView steps(flow.steps);
  // Alphabet guard before any cache or dispatch sees the bytes: a stray id
  // (hand-built flow, hostile wire peer) is a typed RegistryError here, not
  // undefined dispatch three layers down.
  registry_->validate_steps(steps);
  QorShard& shard = shard_for_flow(steps);
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.by_flow.find(steps);
        it != shard.by_flow.end()) {
      return it->second;
    }
  }
  // Labels load lazily: the store answers a cache miss before any
  // synthesis runs, so attaching a 10^6-record store costs nothing up
  // front and a rerun of a fully labeled batch performs zero evaluations.
  if (store_) {
    if (const auto stored = store_->lookup(design_fp_, steps)) {
      warm_qor(steps, *stored);
      return *stored;
    }
  }
  const map::QoR qor = evaluate_uncached(steps);
  bool first = false;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.by_flow.emplace(StepsKey(steps.begin(), steps.end()), qor)
            .second) {
      evaluations_.fetch_add(1, std::memory_order_relaxed);
      tm_evaluations_->inc();
      first = true;
    }
  }
  // Persist outside the shard lock; QorStore::append dedups, so the rare
  // two-threads-race-one-flow case writes the record once either way.
  // A failed append (disk full, I/O error) degrades to "not persisted":
  // the label itself is correct and already cached, so returning it beats
  // failing the evaluation — the record is simply re-earned next run.
  if (first && store_) {
    try {
      store_->append(design_fp_, steps, qor);
    } catch (const std::exception& e) {
      util::log_warn("evaluator: QoR store append failed (label kept "
                     "in-memory): ",
                     e.what());
    }
  }
  return qor;
}

void SynthesisEvaluator::warm_qor(StepsView steps, const map::QoR& qor) const {
  QorShard& shard = shard_for_flow(steps);
  std::lock_guard lock(shard.mutex);
  shard.by_flow.emplace(StepsKey(steps.begin(), steps.end()), qor);
}

void SynthesisEvaluator::attach_store(std::shared_ptr<QorStore> store) {
  if (store && store->registry_fingerprint() != registry_->fingerprint()) {
    // A store keyed by a different alphabet would warm this evaluator with
    // labels whose step bytes mean different transforms — silently wrong
    // QoR. Typed error instead.
    throw opt::RegistryError(
        "attach_store: QorStore registry fingerprint " +
        opt::registry_fingerprint_hex(store->registry_fingerprint()) +
        " does not match the evaluator's " +
        opt::registry_fingerprint_hex(registry_->fingerprint()));
  }
  store_ = std::move(store);
  // No eager pre-warm: evaluate() consults the store on each cache miss,
  // so attach stays O(1) no matter how many records the store holds.
}

map::QoR SynthesisEvaluator::evaluate_uncached(StepsView steps) const {
  if (steps.empty()) return map_deduped(design_);
  telemetry::Span span("eval", "evaluate_flow");
  // Resume from the deepest cached prefix (design_ itself when nothing is
  // cached), then share every intermediate graph with the cache as
  // evaluation produces it. Snapshots are the evaluation's own results
  // moved into shared_ptrs — caching costs no graph copies, only retention.
  std::size_t depth = 0;
  std::shared_ptr<const aig::Aig> cur;  // null = still at design_
  if (prefix_cache_) {
    if (const auto hit = prefix_cache_->longest_prefix(steps); hit.aig) {
      depth = hit.depth;
      cur = hit.aig;
      transforms_skipped_.fetch_add(depth, std::memory_order_relaxed);
      tm_transforms_skipped_->inc(depth);
    }
  }
  span.arg("steps", static_cast<std::uint64_t>(steps.size()));
  span.arg("resumed_at", static_cast<std::uint64_t>(depth));
  const bool timed = telemetry::enabled();
  for (std::size_t i = depth; i < steps.size(); ++i) {
    const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
    aig::Aig next = registry_->apply(cur ? *cur : design_, steps[i]);
    if (timed) {
      tm_spec_ms_[steps[i]]->observe(
          static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
    }
    cur = std::make_shared<const aig::Aig>(std::move(next));
    transforms_applied_.fetch_add(1, std::memory_order_relaxed);
    tm_transforms_applied_->inc();
    // The full flow's graph is not a prefix of anything: skip the last step.
    if (prefix_cache_ && i + 1 < steps.size()) {
      prefix_cache_->insert(steps.subspan(0, i + 1), cur);
    }
  }
  return map_deduped(*cur);
}

map::QoR SynthesisEvaluator::map_deduped(const aig::Aig& g) const {
  const bool timed = telemetry::enabled();
  if (!config_.dedup_mappings) {
    mappings_.fetch_add(1, std::memory_order_relaxed);
    tm_mappings_->inc();
    telemetry::Span span("eval", "map");
    const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
    const map::QoR qor = map::evaluate_qor(g, lib_, mapper_params_);
    if (timed) {
      tm_mapping_ms_->observe(
          static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
    }
    return qor;
  }
  const Fingerprint fp = g.fingerprint();
  QorShard& shard = shard_for_fp(fp);
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.by_fingerprint.find(fp);
        it != shard.by_fingerprint.end()) {
      mappings_deduped_.fetch_add(1, std::memory_order_relaxed);
      tm_mappings_deduped_->inc();
      return it->second;
    }
  }
  telemetry::Span span("eval", "map");
  const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
  const map::QoR qor = map::evaluate_qor(g, lib_, mapper_params_);
  if (timed) {
    tm_mapping_ms_->observe(
        static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
  }
  mappings_.fetch_add(1, std::memory_order_relaxed);
  tm_mappings_->inc();
  {
    std::lock_guard lock(shard.mutex);
    shard.by_fingerprint.emplace(fp, qor);
  }
  return qor;
}

std::vector<map::QoR> SynthesisEvaluator::evaluate_many(
    std::span<const Flow> flows, util::ThreadPool* pool) const {
  std::vector<map::QoR> out(flows.size());
  // Lexicographic step order puts flows sharing a prefix back to back, so
  // each one resumes from the snapshot its predecessor just wrote.
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return flows[a].steps < flows[b].steps;
  });
  if (pool == nullptr || pool->size() <= 1 || flows.size() <= 1) {
    for (const std::size_t idx : order) out[idx] = evaluate(flows[idx]);
    return out;
  }
  // Contiguous groups of the sorted order keep prefix locality within one
  // worker; a few groups per worker give the dynamic scheduler slack for
  // uneven flow runtimes.
  const std::size_t groups =
      std::min(flows.size(), pool->size() * 4);
  pool->parallel_for(groups, [&](std::size_t gi) {
    const std::size_t begin = gi * order.size() / groups;
    const std::size_t end = (gi + 1) * order.size() / groups;
    for (std::size_t i = begin; i < end; ++i) {
      out[order[i]] = evaluate(flows[order[i]]);
    }
  });
  return out;
}

map::QoR SynthesisEvaluator::baseline() const { return evaluate(Flow{}); }

std::size_t SynthesisEvaluator::cache_size() const {
  std::size_t total = 0;
  for (const QorShard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.by_flow.size();
  }
  return total;
}

EvaluatorStats SynthesisEvaluator::stats() const {
  EvaluatorStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.transforms_applied = transforms_applied_.load(std::memory_order_relaxed);
  s.transforms_skipped = transforms_skipped_.load(std::memory_order_relaxed);
  s.mappings = mappings_.load(std::memory_order_relaxed);
  s.mappings_deduped = mappings_deduped_.load(std::memory_order_relaxed);
  if (prefix_cache_) s.prefix = prefix_cache_->stats();
  return s;
}

}  // namespace flowgen::core
