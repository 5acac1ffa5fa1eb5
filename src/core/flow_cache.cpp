#include "core/flow_cache.hpp"

#include "telemetry/metrics.hpp"

namespace flowgen::core {

namespace {

/// Process-wide flow-cache telemetry; several evaluators (several caches)
/// sum into the same series, which matches the fleet view. The byte gauge
/// tracks deltas, so it mirrors live occupancy across all instances.
struct CacheMetrics {
  telemetry::Counter& lookups;
  telemetry::Counter& hits;
  telemetry::Counter& steps_saved;
  telemetry::Counter& insertions;
  telemetry::Counter& evictions;
  telemetry::Gauge& bytes;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m{
      telemetry::counter("flowgen_flow_cache_lookups_total",
                         "Prefix-cache longest_prefix probes"),
      telemetry::counter("flowgen_flow_cache_hits_total",
                         "Probes that resumed from a snapshot"),
      telemetry::counter("flowgen_flow_cache_steps_saved_total",
                         "Transform passes skipped via snapshots"),
      telemetry::counter("flowgen_flow_cache_insertions_total",
                         "Snapshots inserted"),
      telemetry::counter("flowgen_flow_cache_evictions_total",
                         "Snapshots evicted by the byte budget"),
      telemetry::gauge("flowgen_flow_cache_bytes",
                       "Live prefix-cache bytes (snapshots)"),
  };
  return m;
}

}  // namespace

PrefixFlowCache::PrefixFlowCache(FlowCacheConfig config)
    : config_(config) {
  const std::size_t n = round_up_shards(config_.shards);
  shard_mask_ = n - 1;
  budget_per_shard_ = config_.byte_budget / n;
  shards_ = std::vector<Shard>(n);
}

void PrefixFlowCache::Shard::enforce_budget(std::size_t budget) {
  CacheMetrics& m = cache_metrics();
  while (bytes > budget && !lru.empty()) {
    const Entry& victim = lru.back();
    bytes -= victim.bytes;
    m.bytes.sub(static_cast<double>(victim.bytes));
    m.evictions.inc();
    index.erase(victim.key);
    lru.pop_back();
    ++evictions;
  }
}

PrefixFlowCache::Hit PrefixFlowCache::longest_prefix(StepsView steps) const {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  CacheMetrics& m = cache_metrics();
  m.lookups.inc();
  const std::size_t start =
      std::min(steps.size(), config_.max_snapshot_depth);
  for (std::size_t len = start; len > 0; --len) {
    const StepsView prefix = steps.subspan(0, len);
    Shard& shard = shard_for(prefix);
    std::lock_guard lock(shard.mutex);
    const auto it = shard.index.find(prefix);
    if (it == shard.index.end()) continue;
    // Touch: move to the front of the LRU list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    steps_saved_.fetch_add(len, std::memory_order_relaxed);
    m.hits.inc();
    m.steps_saved.inc(len);
    return Hit{len, it->second->aig};
  }
  return {};
}

void PrefixFlowCache::insert(StepsView steps,
                             std::shared_ptr<const aig::Aig> aig) {
  if (!aig || steps.empty() || steps.size() > config_.max_snapshot_depth) {
    return;
  }
  const std::size_t bytes = aig->memory_bytes() +
                            steps.size() * sizeof(opt::StepId) +
                            sizeof(Entry);
  if (bytes > budget_per_shard_) return;  // would evict the whole shard
  Shard& shard = shard_for(steps);
  std::lock_guard lock(shard.mutex);
  if (shard.index.contains(steps)) return;  // first snapshot wins
  shard.lru.push_front(
      Entry{StepsKey(steps.begin(), steps.end()), std::move(aig), bytes});
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  shard.bytes += bytes;
  CacheMetrics& m = cache_metrics();
  m.insertions.inc();
  m.bytes.add(static_cast<double>(bytes));
  ++shard.insertions;
  shard.enforce_budget(budget_per_shard_);
}

FlowCacheStats PrefixFlowCache::stats() const {
  FlowCacheStats s;
  s.lookups = lookups_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.steps_saved = steps_saved_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    s.entries += shard.index.size();
    s.bytes += shard.bytes;
    s.evictions += shard.evictions;
    s.insertions += shard.insertions;
  }
  return s;
}

void PrefixFlowCache::clear() {
  CacheMetrics& m = cache_metrics();
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    m.bytes.sub(static_cast<double>(shard.bytes));
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

}  // namespace flowgen::core
