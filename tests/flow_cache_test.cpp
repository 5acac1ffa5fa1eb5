#include "core/flow_cache.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "designs/registry.hpp"
#include "opt/transform.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::core {
namespace {

StepsKey key(std::initializer_list<int> steps) {
  StepsKey k;
  for (int s : steps) k.push_back(static_cast<opt::StepId>(s));
  return k;
}

std::shared_ptr<const aig::Aig> snapshot(const std::string& design) {
  return std::make_shared<const aig::Aig>(designs::make_design(design));
}

TEST(FlowCacheTest, EmptyCacheMisses) {
  PrefixFlowCache cache;
  const StepsKey k = key({0, 1, 2});
  const auto hit = cache.longest_prefix(k);
  EXPECT_EQ(hit.depth, 0u);
  EXPECT_EQ(hit.aig, nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().lookups, 1u);
}

TEST(FlowCacheTest, LongestPrefixWins) {
  PrefixFlowCache cache;
  const auto g1 = snapshot("alu:4");
  const auto g3 = snapshot("alu:6");
  cache.insert(key({0}), g1);
  cache.insert(key({0, 1, 2}), g3);

  const StepsKey probe = key({0, 1, 2, 3, 4});
  const auto hit = cache.longest_prefix(probe);
  EXPECT_EQ(hit.depth, 3u);
  EXPECT_EQ(hit.aig.get(), g3.get());

  // A flow sharing only the first step resumes from depth 1.
  const auto hit1 = cache.longest_prefix(key({0, 4, 5}));
  EXPECT_EQ(hit1.depth, 1u);
  EXPECT_EQ(hit1.aig.get(), g1.get());
}

TEST(FlowCacheTest, ExactPrefixLookup) {
  PrefixFlowCache cache;
  const auto g = snapshot("alu:4");
  cache.insert(key({2, 3}), g);
  const auto hit = cache.longest_prefix(key({2, 3}));
  EXPECT_EQ(hit.depth, 2u);
  EXPECT_EQ(hit.aig.get(), g.get());
}

TEST(FlowCacheTest, FirstSnapshotWinsOnDuplicateInsert) {
  PrefixFlowCache cache;
  const auto a = snapshot("alu:4");
  const auto b = snapshot("alu:6");
  cache.insert(key({1, 2}), a);
  cache.insert(key({1, 2}), b);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.longest_prefix(key({1, 2})).aig.get(), a.get());
}

TEST(FlowCacheTest, MaxSnapshotDepthIsRespected) {
  FlowCacheConfig cfg;
  cfg.max_snapshot_depth = 2;
  PrefixFlowCache cache(cfg);
  cache.insert(key({0, 1, 2}), snapshot("alu:4"));  // too deep: dropped
  EXPECT_EQ(cache.stats().entries, 0u);
  cache.insert(key({0, 1}), snapshot("alu:4"));
  EXPECT_EQ(cache.stats().entries, 1u);
  // Lookups only consider prefixes up to the depth cap.
  EXPECT_EQ(cache.longest_prefix(key({0, 1, 2, 3})).depth, 2u);
}

TEST(FlowCacheTest, ByteBudgetTriggersLruEviction) {
  // Probe the per-entry cost first, then build a cache that fits two.
  const auto g = snapshot("alu:4");
  std::size_t per_entry = 0;
  {
    PrefixFlowCache probe;
    probe.insert(key({0}), g);
    per_entry = probe.stats().bytes;
  }
  ASSERT_GT(per_entry, 0u);

  FlowCacheConfig cfg;
  cfg.shards = 1;
  cfg.byte_budget = 2 * per_entry + per_entry / 2;
  PrefixFlowCache cache(cfg);
  cache.insert(key({0}), g);
  cache.insert(key({1}), g);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Touch {0} so {1} is the LRU victim when {2} arrives.
  EXPECT_EQ(cache.longest_prefix(key({0})).depth, 1u);
  cache.insert(key({2}), g);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.longest_prefix(key({0})).depth, 1u);
  EXPECT_EQ(cache.longest_prefix(key({2})).depth, 1u);
  EXPECT_EQ(cache.longest_prefix(key({1})).depth, 0u);  // evicted
}

TEST(FlowCacheTest, OversizedSnapshotIsRejected) {
  FlowCacheConfig cfg;
  cfg.shards = 1;
  cfg.byte_budget = 64;  // smaller than any AIG snapshot
  PrefixFlowCache cache(cfg);
  cache.insert(key({0}), snapshot("alu:4"));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(FlowCacheTest, ClearEmptiesEveryShard) {
  PrefixFlowCache cache;
  cache.insert(key({0}), snapshot("alu:4"));
  cache.insert(key({1, 2}), snapshot("alu:4"));
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.longest_prefix(key({0})).depth, 0u);
}

TEST(FlowCacheTest, EvictionKeepsOutstandingSnapshotsAlive) {
  const auto g = snapshot("alu:4");
  std::size_t per_entry = 0;
  {
    PrefixFlowCache probe;
    probe.insert(key({0}), g);
    per_entry = probe.stats().bytes;
  }
  FlowCacheConfig cfg;
  cfg.shards = 1;
  cfg.byte_budget = per_entry + per_entry / 2;  // fits exactly one entry
  PrefixFlowCache cache(cfg);
  cache.insert(key({0}), snapshot("alu:4"));
  const auto held = cache.longest_prefix(key({0})).aig;
  ASSERT_NE(held, nullptr);
  cache.insert(key({1}), snapshot("alu:4"));  // evicts {0}
  EXPECT_EQ(cache.longest_prefix(key({0})).depth, 0u);
  // The snapshot we borrowed before the eviction is still valid.
  EXPECT_GT(held->num_nodes(), 0u);
}

TEST(FlowCacheTest, ZeroBudgetRejectsEverythingButStaysUsable) {
  FlowCacheConfig cfg;
  cfg.shards = 1;
  cfg.byte_budget = 0;
  PrefixFlowCache cache(cfg);
  const auto g = snapshot("alu:4");
  for (int i = 0; i < 4; ++i) cache.insert(key({i}), g);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.evictions, 0u);
  // Lookups still answer (with misses) instead of crashing.
  EXPECT_EQ(cache.longest_prefix(key({0})).depth, 0u);
  EXPECT_EQ(cache.stats().lookups, 1u);
}

TEST(FlowCacheTest, TinyBudgetChurnNeverExceedsBudget) {
  // A budget that fits exactly one snapshot per shard, hammered with many
  // distinct keys: the byte invariant must hold after every insert, and
  // every insert beyond the first must evict (LRU churn, not growth).
  const auto g = snapshot("alu:4");
  std::size_t per_entry = 0;
  {
    PrefixFlowCache probe;
    probe.insert(key({0}), g);
    per_entry = probe.stats().bytes;
  }
  ASSERT_GT(per_entry, 0u);

  FlowCacheConfig cfg;
  cfg.shards = 1;
  cfg.byte_budget = per_entry + per_entry / 4;
  PrefixFlowCache cache(cfg);
  for (int a = 0; a < 6; ++a) {
    for (int b = 0; b < 6; ++b) {
      cache.insert(key({a, b}), g);
      const auto s = cache.stats();
      EXPECT_LE(s.bytes, cfg.byte_budget);
      EXPECT_EQ(s.entries, 1u);  // never more than one fits
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.insertions, 36u);
  EXPECT_EQ(s.evictions, 35u);  // every insert after the first evicted one
  // The final insert is resident; everything older is gone.
  EXPECT_EQ(cache.longest_prefix(key({5, 5})).depth, 2u);
  EXPECT_EQ(cache.longest_prefix(key({0, 0})).depth, 0u);
}

TEST(FlowCacheTest, BudgetIsPerShardSlice) {
  // The total budget divides across shards: an entry that fits the whole
  // budget but not budget/shards is rejected, exactly as documented.
  const auto g = snapshot("alu:4");
  std::size_t per_entry = 0;
  {
    PrefixFlowCache probe;
    probe.insert(key({0}), g);
    per_entry = probe.stats().bytes;
  }
  FlowCacheConfig cfg;
  cfg.shards = 4;
  cfg.byte_budget = 2 * per_entry;  // per-shard slice: per_entry / 2
  PrefixFlowCache cache(cfg);
  for (int i = 0; i < 6; ++i) cache.insert(key({i}), g);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(FlowCacheTest, ConcurrentInsertsAndLookupsAreSafe) {
  PrefixFlowCache cache;
  const auto g = snapshot("alu:4");
  util::ThreadPool pool(4);
  pool.parallel_for(256, [&](std::size_t i) {
    const StepsKey k = key({static_cast<int>(i % 6),
                            static_cast<int>((i / 6) % 6)});
    cache.insert(k, g);
    const auto hit = cache.longest_prefix(k);
    EXPECT_GE(hit.depth, 1u);
    EXPECT_NE(hit.aig, nullptr);
  });
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, 36u);
  EXPECT_EQ(s.lookups, 256u);
}

}  // namespace
}  // namespace flowgen::core
