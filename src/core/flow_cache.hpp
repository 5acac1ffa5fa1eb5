#pragma once
// Prefix-sharing cache of intermediate synthesis results. The m-repetition
// flow space produces batches whose members share long common prefixes;
// synthesizing each flow from scratch redoes that shared work. This cache
// stores AIG snapshots keyed by flow *prefix* (the packed step sequence) so
// the evaluator can resume from the deepest cached prefix and apply only the
// suffix transforms.
//
// Concurrency: the key space is sharded by hash; every shard has its own
// mutex, LRU list and byte budget, so parallel evaluation of a sorted batch
// does not serialise on one lock. Memory: snapshots are whole AIG copies,
// so each shard enforces `byte_budget / shards` with least-recently-used
// eviction (Aig::memory_bytes accounting). Readers receive shared_ptr
// snapshots, so eviction never invalidates a graph in use.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"

namespace flowgen::core {

/// Round a requested shard count up to a power of two (>= 1) so shard
/// selection is a mask of the key hash. Shared by every sharded cache.
inline std::size_t round_up_shards(std::size_t requested) {
  return std::bit_ceil(std::max<std::size_t>(1, requested));
}

/// Tuning knobs for PrefixFlowCache; plain data, safe to copy around.
struct FlowCacheConfig {
  /// Total snapshot budget across all shards.
  std::size_t byte_budget = std::size_t{256} << 20;  // 256 MiB
  /// Number of independently locked shards (rounded up to a power of two).
  std::size_t shards = 16;
  /// Snapshots are only stored for prefixes up to this depth. Sharing decays
  /// geometrically with depth (a batch of B flows shares prefixes to depth
  /// ~log_n B), so deep snapshots cost copies but almost never hit.
  std::size_t max_snapshot_depth = 64;
};

/// Monotonic counters plus a point-in-time size snapshot, aggregated
/// across shards by stats(). Values from a concurrently-mutated cache are
/// per-shard consistent but not a global atomic snapshot.
struct FlowCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;        ///< lookups that found a non-empty prefix
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  /// Total transform applications saved (sum of hit depths).
  std::size_t steps_saved = 0;

  /// hits / lookups; 0 when nothing was looked up yet.
  double hit_rate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                   : 0.0;
  }
};

/// Sharded byte-budgeted LRU of AIG snapshots keyed by flow prefix. All
/// public methods are thread-safe (per-shard mutexes; no lock is held
/// across graph work) and non-throwing in normal operation — a full shard
/// evicts, an oversized or over-deep insert is dropped, a miss returns an
/// empty Hit. Snapshots are immutable and handed out as shared_ptr, so a
/// reader can keep using one after it is evicted.
class PrefixFlowCache {
public:
  explicit PrefixFlowCache(FlowCacheConfig config = {});

  /// Result of longest_prefix: the snapshot of the deepest cached prefix
  /// and how many steps it covers. `aig` is null and `depth` 0 on a miss.
  struct Hit {
    std::size_t depth = 0;
    std::shared_ptr<const aig::Aig> aig;
  };
  /// Deepest cached prefix of `steps` (possibly all of it). Refreshes the
  /// hit entry's LRU position. Thread-safe; never throws.
  Hit longest_prefix(StepsView steps) const;

  /// Store `aig` as the snapshot for the exact prefix `steps`. No-op when
  /// the prefix is deeper than max_snapshot_depth or the snapshot is wider
  /// than a shard's whole budget. Keeps the first snapshot on duplicate
  /// insert (all inserts for one key are value-identical by construction).
  /// May evict LRU entries to honour the shard budget. Thread-safe.
  void insert(StepsView steps, std::shared_ptr<const aig::Aig> aig);

  /// Aggregate counters + current entries/bytes across shards. Thread-safe.
  FlowCacheStats stats() const;
  /// Drop every snapshot (budgets/config unchanged). Thread-safe, but the
  /// caller owns the question of who is still evaluating.
  void clear();

  const FlowCacheConfig& config() const { return config_; }

private:
  struct Entry {
    StepsKey key;
    std::shared_ptr<const aig::Aig> aig;
    std::size_t bytes = 0;  ///< snapshot + key
  };
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<StepsKey, std::list<Entry>::iterator, StepsHash,
                       StepsEqual>
        index;
    std::size_t bytes = 0;
    std::size_t evictions = 0;
    std::size_t insertions = 0;

    /// Evict LRU entries until `budget` holds. Caller holds the shard mutex.
    void enforce_budget(std::size_t budget);
  };

  Shard& shard_for(StepsView key) const {
    return shards_[StepsHash{}(key) & shard_mask_];
  }

  FlowCacheConfig config_;
  std::size_t shard_mask_ = 0;
  std::size_t budget_per_shard_ = 0;
  mutable std::vector<Shard> shards_;
  mutable std::atomic<std::size_t> lookups_{0};
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> steps_saved_{0};
};

}  // namespace flowgen::core
