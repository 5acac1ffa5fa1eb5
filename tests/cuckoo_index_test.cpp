// Property tests for core::CuckooIndex against a std::unordered_map oracle:
// randomized insert/duplicate/lookup/absent-key churn at 10^6 keys, plus
// deliberately tiny tables that force the kick, stash-overflow and
// grow-rebuild paths which production sizes almost never reach.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cuckoo_index.hpp"

namespace flowgen {
namespace {

using core::CuckooIndex;
using core::CuckooIndexConfig;

struct TestKey {
  aig::Fingerprint design;
  core::StepsKey steps;
};

std::string oracle_key(const TestKey& k) {
  std::string s;
  s.reserve(16 + k.steps.size());
  for (int i = 0; i < 2; ++i) {
    for (int b = 0; b < 8; ++b) {
      s.push_back(static_cast<char>(k.design[i] >> (8 * b)));
    }
  }
  s.append(k.steps.begin(), k.steps.end());
  return s;
}

TestKey random_key(std::mt19937_64& rng) {
  TestKey k;
  k.design = {rng(), rng()};
  const std::size_t n = rng() % 17;  // 0..16 steps, empty flows included
  k.steps.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    k.steps[i] = static_cast<opt::StepId>(rng());
  }
  return k;
}

map::QoR random_qor(std::mt19937_64& rng) {
  map::QoR q;
  q.area_um2 = static_cast<double>(rng() % 1000000) / 100.0;
  q.delay_ps = static_cast<double>(rng() % 1000000) / 10.0;
  q.num_cells = static_cast<std::size_t>(rng() % 100000);
  q.num_inverters = static_cast<std::size_t>(rng() % 10000);
  return q;
}

TEST(CuckooIndexTest, MillionKeyChurnMatchesUnorderedMapOracle) {
  std::mt19937_64 rng(0xC0FFEE);
  CuckooIndex index;
  std::unordered_map<std::string, map::QoR> oracle;
  std::vector<TestKey> keys;

  constexpr std::size_t kKeys = 1000000;
  keys.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    TestKey k = random_key(rng);
    const map::QoR q = random_qor(rng);
    const bool fresh = oracle.emplace(oracle_key(k), q).second;
    ASSERT_EQ(index.insert(k.design, core::StepsView(k.steps), q), fresh)
        << "insert #" << i;
    keys.push_back(std::move(k));
  }
  ASSERT_EQ(index.size(), oracle.size());

  // Interleaved churn: present lookups, absent lookups, duplicate inserts
  // (which must neither store nor clobber — first record wins).
  for (std::size_t i = 0; i < 200000; ++i) {
    const TestKey& k = keys[rng() % keys.size()];
    const auto got = index.find(k.design, core::StepsView(k.steps));
    ASSERT_TRUE(got.has_value()) << "churn #" << i;
    ASSERT_EQ(*got, oracle.at(oracle_key(k)));

    TestKey absent = random_key(rng);
    absent.design[0] ^= 0x1234567800000000ull;  // new fp, never inserted
    if (!oracle.contains(oracle_key(absent))) {
      ASSERT_FALSE(
          index.find(absent.design, core::StepsView(absent.steps)).has_value());
    }

    map::QoR clobber = random_qor(rng);
    ASSERT_FALSE(index.insert(k.design, core::StepsView(k.steps), clobber));
    ASSERT_EQ(*index.find(k.design, core::StepsView(k.steps)),
              oracle.at(oracle_key(k)));
  }

  // Full sweep: every key the oracle holds must come back bit-identically.
  for (const TestKey& k : keys) {
    const auto got = index.find(k.design, core::StepsView(k.steps));
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, oracle.at(oracle_key(k)));
  }
  // A million random keys must have grown the table well past its seed.
  EXPECT_GT(index.stats().rehashes, 0u);
}

TEST(CuckooIndexTest, TinyTableForcesKicksStashAndRehash) {
  CuckooIndexConfig config;
  config.initial_buckets = 1;  // 4 slots total
  config.max_kicks = 2;
  config.stash_capacity = 1;
  CuckooIndex index(config);
  std::mt19937_64 rng(7);
  std::unordered_map<std::string, map::QoR> oracle;
  std::vector<TestKey> keys;

  for (std::size_t i = 0; i < 20000; ++i) {
    TestKey k = random_key(rng);
    const map::QoR q = random_qor(rng);
    const bool fresh = oracle.emplace(oracle_key(k), q).second;
    ASSERT_EQ(index.insert(k.design, core::StepsView(k.steps), q), fresh);
    keys.push_back(std::move(k));
  }
  for (const TestKey& k : keys) {
    const auto got = index.find(k.design, core::StepsView(k.steps));
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(*got, oracle.at(oracle_key(k)));
  }
  const auto st = index.stats();
  EXPECT_GT(st.rehashes, 0u);   // 4 slots cannot hold 20k keys
  EXPECT_GT(st.kicks, 0u);      // displacement path exercised
  EXPECT_EQ(st.entries, oracle.size());
}

TEST(CuckooIndexTest, StashOverflowTriggersGrowNotLoss) {
  // Zero stash tolerance + one kick: any bucket conflict immediately
  // rebuilds. Every key must still be found afterwards.
  CuckooIndexConfig config;
  config.initial_buckets = 1;
  config.max_kicks = 1;
  config.stash_capacity = 0;
  CuckooIndex index(config);
  std::mt19937_64 rng(99);
  std::vector<TestKey> keys;
  for (std::size_t i = 0; i < 3000; ++i) {
    TestKey k = random_key(rng);
    if (index.insert(k.design, core::StepsView(k.steps), random_qor(rng))) {
      keys.push_back(std::move(k));
    }
  }
  for (const TestKey& k : keys) {
    EXPECT_TRUE(index.find(k.design, core::StepsView(k.steps)).has_value());
  }
  EXPECT_EQ(index.stats().entries, keys.size());
}

}  // namespace
}  // namespace flowgen
