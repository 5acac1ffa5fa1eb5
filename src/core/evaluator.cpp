#include "core/evaluator.hpp"

#include <algorithm>
#include <mutex>

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
      mapper_params_(mapper_params) {
  tm_evaluations_ = &telemetry::counter(
      "flowgen_evaluations_total", "Flow-level QoR cache misses evaluated");
  tm_transforms_applied_ = &telemetry::counter(
      "flowgen_transforms_applied_total", "Transform passes actually run");
  tm_transforms_skipped_ = &telemetry::counter(
      "flowgen_transforms_skipped_total",
      "Transform passes saved by trail resume");
  tm_mappings_ = &telemetry::counter("flowgen_mappings_total",
                                     "Technology mappings actually run");
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

std::optional<map::QoR> SynthesisEvaluator::memo_find(StepsView steps) const {
  QorShard& shard = shard_for_flow(steps);
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.by_flow.find(steps); it != shard.by_flow.end()) {
    return it->second;
  }
  return std::nullopt;
}

std::optional<map::QoR> SynthesisEvaluator::lookup(const Flow& flow) const {
  const StepsView steps(flow.steps);
  // Alphabet guard before any cache or dispatch sees the bytes: a stray id
  // (hand-built flow, hostile wire peer) is a typed RegistryError here, not
  // undefined dispatch three layers down.
  registry_->validate_steps(steps);
  if (const auto known = memo_find(steps)) return known;
  // Labels load lazily and stay in the store: attaching a 10^6-record
  // store costs nothing up front, a rerun of a fully labeled batch
  // performs zero evaluations, and the memo never holds a second copy.
  if (store_) return store_->lookup(design_fp_, steps);
  return std::nullopt;
}

std::size_t SynthesisEvaluator::lookup_many(
    std::span<const Flow> flows, std::span<const std::size_t> order,
    std::span<map::QoR> out, std::vector<bool>& answered) const {
  // Caller order reads each flow's steps where they were allocated, one
  // after the other; the sorted order would visit them at random.
  for (const Flow& f : flows) registry_->validate_steps(f.steps);
  std::size_t known =
      store_ ? store_->lookup_sorted(design_fp_, flows, order, out, answered)
             : 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (answered[i]) continue;
    if (const auto memo = memo_find(flows[i].steps)) {
      out[i] = *memo;
      answered[i] = true;
      ++known;
    }
  }
  return known;
}

map::QoR SynthesisEvaluator::evaluate(const Flow& flow) const {
  if (const auto known = lookup(flow)) return *known;
  Trail trail;
  return synthesize_and_keep(flow.steps, trail);
}

map::QoR SynthesisEvaluator::evaluate(const Flow& flow, Trail& trail) const {
  const StepsView steps(flow.steps);
  registry_->validate_steps(steps);
  if (const auto known = memo_find(steps)) return *known;
  return synthesize_and_keep(steps, trail);
}

map::QoR SynthesisEvaluator::synthesize_and_keep(StepsView steps,
                                                 Trail& trail) const {
  const map::QoR qor = synthesize(steps, trail);
  bool first = false;
  {
    QorShard& shard = shard_for_flow(steps);
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

void SynthesisEvaluator::attach_store(std::shared_ptr<QorStore> store) {
  if (store && store->registry_fingerprint() != registry_->fingerprint()) {
    // A store keyed by a different alphabet would answer this evaluator
    // with labels whose step bytes mean different transforms — silently
    // wrong QoR. Typed error instead.
    throw opt::RegistryError(
        "attach_store: QorStore registry fingerprint " +
        opt::registry_fingerprint_hex(store->registry_fingerprint()) +
        " does not match the evaluator's " +
        opt::registry_fingerprint_hex(registry_->fingerprint()));
  }
  store_ = std::move(store);
}

map::QoR SynthesisEvaluator::synthesize(StepsView steps, Trail& trail) const {
  if (steps.empty()) return map_graph(design_);
  if (trail.design_ != design_fp_ ||
      trail.registry_ != registry_->fingerprint()) {
    // The same step bytes mean other graphs here: never resume from them.
    trail.steps_.clear();
    trail.graphs_.clear();
    trail.design_ = design_fp_;
    trail.registry_ = registry_->fingerprint();
  }
  telemetry::Span span("eval", "evaluate_flow");
  // Resume after the longest prefix shared with the trail's flow (possibly
  // all of `steps`), drop the trail's diverging suffix, and record every
  // graph this flow adds, so the next flow of a sorted run resumes here.
  const std::size_t depth = static_cast<std::size_t>(
      std::mismatch(steps.begin(), steps.end(), trail.steps_.begin(),
                    trail.steps_.end())
          .first -
      steps.begin());
  trail.steps_.resize(depth);
  trail.graphs_.resize(depth);
  if (depth > 0) {
    transforms_skipped_.fetch_add(depth, std::memory_order_relaxed);
    tm_transforms_skipped_->inc(depth);
  }
  span.arg("steps", static_cast<std::uint64_t>(steps.size()));
  span.arg("resumed_at", static_cast<std::uint64_t>(depth));
  const bool timed = telemetry::enabled();
  for (std::size_t i = depth; i < steps.size(); ++i) {
    const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
    aig::Aig next =
        registry_->apply(i == 0 ? design_ : trail.graphs_.back(), steps[i]);
    if (timed) {
      tm_spec_ms_[steps[i]]->observe(
          static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
    }
    trail.steps_.push_back(steps[i]);
    trail.graphs_.push_back(std::move(next));
    transforms_applied_.fetch_add(1, std::memory_order_relaxed);
    tm_transforms_applied_->inc();
  }
  return map_graph(trail.graphs_.back());
}

map::QoR SynthesisEvaluator::map_graph(const aig::Aig& g) const {
  mappings_.fetch_add(1, std::memory_order_relaxed);
  tm_mappings_->inc();
  telemetry::Span span("eval", "map");
  const bool timed = telemetry::enabled();
  const std::uint64_t t0 = timed ? telemetry::trace_now_us() : 0;
  const map::QoR qor = map::evaluate_qor(g, lib_, mapper_params_);
  if (timed) {
    tm_mapping_ms_->observe(
        static_cast<double>(telemetry::trace_now_us() - t0) / 1000.0);
  }
  return qor;
}

std::vector<map::QoR> SynthesisEvaluator::evaluate_many(
    std::span<const Flow> flows, util::ThreadPool* pool) const {
  std::vector<map::QoR> out(flows.size());
  // Lexicographic step order is the store's own order for one design, so
  // the store answers the whole batch in one merge; and it puts flows
  // sharing a prefix back to back, so each flow synthesized resumes from
  // the graphs its predecessor left on the trail. The memo is asked again
  // right before each synthesis: a flow may repeat within the batch.
  std::vector<std::size_t> order = lexicographic_order(flows);
  std::vector<bool> known(flows.size());
  if (lookup_many(flows, order, out, known) > 0) {
    std::erase_if(order, [&](std::size_t i) { return known[i]; });
  }
  if (pool == nullptr || pool->size() <= 1 || order.size() <= 1) {
    Trail trail;
    for (const std::size_t idx : order) out[idx] = evaluate(flows[idx], trail);
    return out;
  }
  // Contiguous groups of the sorted misses, one trail each, keep prefix
  // locality within one thread; a few groups per thread give the dynamic
  // scheduler slack for uneven flow runtimes.
  const std::size_t groups = std::min(order.size(), pool->size() * 4);
  pool->parallel_for(groups, [&](std::size_t gi) {
    const std::size_t begin = gi * order.size() / groups;
    const std::size_t end = (gi + 1) * order.size() / groups;
    Trail trail;
    for (std::size_t i = begin; i < end; ++i) {
      out[order[i]] = evaluate(flows[order[i]], trail);
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
  return s;
}

}  // namespace flowgen::core
