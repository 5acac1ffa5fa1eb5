#pragma once
// Cuckoo-hashed in-memory index over (design fingerprint, packed flow key)
// -> QoR: core::QorStore keeps the records a process appends after attach
// in it (attach itself sorts log tails into runs and hashes nothing).
// Compared to the unordered_map it replaces, every entry lives in one
// contiguous byte arena (exactly the on-disk record payload layout, with
// zero per-record allocations) and the hash table itself is two-choice
// bucketed cuckoo: each key has two candidate buckets of four slots, a
// slot is a 16-bit tag plus an arena offset, and inserts displace
// residents along a bounded kick path. Displacements that exceed
// the kick budget land in a small stash; a stash overflow (or load factor
// past the watermark) doubles the table and rebuilds it from the arena.
// Lookups therefore probe at most 8 slots plus the stash — no chains, no
// rehash-in-place pauses proportional to a bucket chain.
//
// Not thread-safe: QorStore serialises access under its own mutex, exactly
// as it did for the map this replaces.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "map/qor.hpp"

namespace flowgen::core {

struct CuckooIndexConfig {
  /// Initial bucket count; rounded up to a power of two. The defaults are
  /// production values; tests shrink them to force the rehash and
  /// stash-overflow paths at tiny sizes.
  std::size_t initial_buckets = 1024;
  /// Displacements attempted before an insert gives up and stashes.
  std::size_t max_kicks = 256;
  /// Stash entries tolerated before the table grows.
  std::size_t stash_capacity = 8;
};

struct CuckooIndexStats {
  std::size_t entries = 0;        ///< keys stored (arena records)
  std::size_t buckets = 0;        ///< current bucket count (4 slots each)
  std::size_t stash_entries = 0;  ///< keys currently living in the stash
  std::size_t rehashes = 0;       ///< table rebuilds (growth events)
  std::size_t kicks = 0;          ///< total displacements performed
  std::size_t stash_spills = 0;   ///< inserts that exhausted their kicks
  std::size_t arena_bytes = 0;    ///< bytes of key+QoR payload stored
};

class CuckooIndex {
public:
  explicit CuckooIndex(CuckooIndexConfig config = {});

  /// Insert (design, steps) -> qor. Returns false (and stores nothing)
  /// when the key is already present — first record wins, matching the
  /// store's duplicate policy.
  bool insert(const aig::Fingerprint& design, StepsView steps,
              const map::QoR& qor);

  /// QoR for (design, steps), or nullopt.
  std::optional<map::QoR> find(const aig::Fingerprint& design,
                               StepsView steps) const;

  /// Invoke `fn` for every entry, in arena (insertion) order.
  void for_each(const std::function<void(const aig::Fingerprint&, StepsView,
                                         const map::QoR&)>& fn) const;

  std::size_t size() const { return stats_.entries; }
  CuckooIndexStats stats() const;

private:
  /// 16-bit tag in the top bits, arena offset + 1 in the low 48 (0 means
  /// empty). Offsets stay under 2^48 until the arena passes 256 TiB.
  using Slot = std::uint64_t;
  static constexpr std::size_t kSlotsPerBucket = 4;

  struct StashEntry {
    std::uint64_t hash = 0;
    std::uint64_t offset = 0;
  };

  static std::uint64_t mix64(std::uint64_t x);
  static std::uint64_t hash_key(const aig::Fingerprint& design,
                                const std::uint8_t* steps, std::size_t n);
  std::uint64_t hash_entry(std::uint64_t offset) const;

  std::size_t bucket_of(std::uint64_t hash) const;
  std::size_t alt_bucket(std::size_t bucket, std::uint16_t tag) const;
  static std::uint16_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint16_t>(hash >> 48);
  }

  bool entry_matches(std::uint64_t offset, const aig::Fingerprint& design,
                     const std::uint8_t* steps, std::size_t n) const;
  const std::uint8_t* entry(std::uint64_t offset) const {
    return arena_.data() + offset;
  }

  /// Place (hash, offset) into the table, kicking as needed; returns false
  /// when the kick budget is exhausted (caller stashes or rebuilds).
  bool place(std::uint64_t hash, std::uint64_t offset);
  /// Grow the table (×2) and rebuild it from the arena until everything
  /// (stash included) fits.
  void grow_and_rebuild();

  CuckooIndexConfig config_;
  std::vector<Slot> slots_;  ///< buckets_ * kSlotsPerBucket slots
  std::size_t buckets_ = 0;  ///< power of two
  std::vector<StashEntry> stash_;
  std::vector<std::uint8_t> arena_;
  CuckooIndexStats stats_;
};

}  // namespace flowgen::core
