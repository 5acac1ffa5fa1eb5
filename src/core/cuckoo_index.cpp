#include "core/cuckoo_index.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace flowgen::core {

namespace {

// Arena entry layout — byte-identical to a .qorlog record payload and to a
// segment entry (docs/qor-store.md):
//   u64 design[0], u64 design[1], u16 num_steps, steps bytes,
//   u64 bits(area_um2), u64 bits(delay_ps), u64 num_cells, u64 num_inverters
constexpr std::size_t kEntryFixedBytes = 50;
constexpr std::size_t kStepsOffset = 18;

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void store_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

map::QoR qor_at(const std::uint8_t* entry_bytes) {
  const std::uint16_t n = load_u16(entry_bytes + 16);
  const std::uint8_t* q = entry_bytes + kStepsOffset + n;
  map::QoR qor;
  qor.area_um2 = std::bit_cast<double>(load_u64(q));
  qor.delay_ps = std::bit_cast<double>(load_u64(q + 8));
  qor.num_cells = static_cast<std::size_t>(load_u64(q + 16));
  qor.num_inverters = static_cast<std::size_t>(load_u64(q + 24));
  return qor;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

CuckooIndex::CuckooIndex(CuckooIndexConfig config) : config_(config) {
  buckets_ = round_up_pow2(std::max<std::size_t>(1, config_.initial_buckets));
  slots_.assign(buckets_ * kSlotsPerBucket, 0);
  stats_.buckets = buckets_;
}

std::uint64_t CuckooIndex::mix64(std::uint64_t x) {
  // splitmix64 finalizer: full avalanche, so bucket bits and tag bits of
  // one hash are effectively independent.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

std::uint64_t CuckooIndex::hash_key(const aig::Fingerprint& design,
                                    const std::uint8_t* steps,
                                    std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ (n * 0xff51afd7ed558ccdull);
  h = mix64(h ^ design[0]);
  h = mix64(h ^ design[1]);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) h = mix64(h ^ load_u64(steps + i));
  std::uint64_t tail = 0;
  for (; i < n; ++i) tail = (tail << 8) | steps[i];
  return mix64(h ^ tail);
}

std::uint64_t CuckooIndex::hash_entry(std::uint64_t offset) const {
  const std::uint8_t* e = entry(offset);
  aig::Fingerprint design{load_u64(e), load_u64(e + 8)};
  const std::uint16_t n = load_u16(e + 16);
  return hash_key(design, e + kStepsOffset, n);
}

std::size_t CuckooIndex::bucket_of(std::uint64_t hash) const {
  return static_cast<std::size_t>(hash) & (buckets_ - 1);
}

std::size_t CuckooIndex::alt_bucket(std::size_t bucket,
                                    std::uint16_t tag) const {
  // Partial-key cuckoo: the alternate bucket is derivable from (bucket,
  // tag) alone, so kicking a resident never needs to re-hash its key. The
  // XOR makes the mapping an involution: alt(alt(b)) == b.
  const std::uint64_t scrambled = mix64(static_cast<std::uint64_t>(tag) +
                                        0x5bd1e9955bd1e995ull);
  return (bucket ^ static_cast<std::size_t>(scrambled)) & (buckets_ - 1);
}

bool CuckooIndex::entry_matches(std::uint64_t offset,
                                const aig::Fingerprint& design,
                                const std::uint8_t* steps,
                                std::size_t n) const {
  const std::uint8_t* e = entry(offset);
  if (load_u64(e) != design[0] || load_u64(e + 8) != design[1]) return false;
  if (load_u16(e + 16) != n) return false;
  return n == 0 || std::memcmp(e + kStepsOffset, steps, n) == 0;
}

bool CuckooIndex::place(std::uint64_t hash, std::uint64_t offset) {
  std::uint16_t tag = tag_of(hash);
  std::uint64_t slot_val = (static_cast<std::uint64_t>(tag) << 48) |
                           (offset + 1);
  std::size_t b = bucket_of(hash);
  // Free slot in either candidate bucket first — the common case.
  for (const std::size_t cand : {b, alt_bucket(b, tag)}) {
    for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
      if (slots_[cand * kSlotsPerBucket + s] == 0) {
        slots_[cand * kSlotsPerBucket + s] = slot_val;
        return true;
      }
    }
  }
  // Both full: displace residents along a bounded path, always moving the
  // displaced item to *its* alternate bucket.
  for (std::size_t kick = 0; kick < config_.max_kicks; ++kick) {
    const std::size_t victim = (kick + static_cast<std::size_t>(offset)) %
                               kSlotsPerBucket;
    std::swap(slot_val, slots_[b * kSlotsPerBucket + victim]);
    ++stats_.kicks;
    const std::uint16_t vtag = static_cast<std::uint16_t>(slot_val >> 48);
    b = alt_bucket(b, vtag);
    for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
      if (slots_[b * kSlotsPerBucket + s] == 0) {
        slots_[b * kSlotsPerBucket + s] = slot_val;
        return true;
      }
    }
    tag = vtag;
    offset = (slot_val & 0xFFFFFFFFFFFFull) - 1;
  }
  // Kick budget exhausted: the still-homeless item goes to the stash.
  stash_.push_back(StashEntry{hash_entry(offset), offset});
  ++stats_.stash_spills;
  return false;
}

void CuckooIndex::grow_and_rebuild() {
  bool done = false;
  while (!done) {
    buckets_ *= 2;
    ++stats_.rehashes;
    slots_.assign(buckets_ * kSlotsPerBucket, 0);
    stash_.clear();
    done = true;
    std::size_t pos = 0;
    while (pos < arena_.size()) {
      const std::uint16_t n = load_u16(arena_.data() + pos + 16);
      if (!place(hash_entry(pos), pos) &&
          stash_.size() > config_.stash_capacity) {
        done = false;  // still too tight — double again
        break;
      }
      pos += kEntryFixedBytes + n;
    }
  }
  stats_.buckets = buckets_;
  stats_.stash_entries = stash_.size();
}

bool CuckooIndex::insert(const aig::Fingerprint& design, StepsView steps,
                         const map::QoR& qor) {
  if (steps.size() > 0xFFFF) {
    throw std::length_error("CuckooIndex: flow too long for an entry");
  }
  if (find(design, steps)) return false;  // first record wins

  // Grow ahead of the feasibility cliff: 2-choice 4-slot cuckoo sustains
  // ~95%+ occupancy, but kick paths lengthen sharply past ~90%.
  if ((stats_.entries + 1) * 10 > buckets_ * kSlotsPerBucket * 9) {
    grow_and_rebuild();
  }

  const std::uint64_t offset = arena_.size();
  store_u64(arena_, design[0]);
  store_u64(arena_, design[1]);
  arena_.push_back(static_cast<std::uint8_t>(steps.size()));
  arena_.push_back(static_cast<std::uint8_t>(steps.size() >> 8));
  arena_.insert(arena_.end(), steps.begin(), steps.end());
  store_u64(arena_, std::bit_cast<std::uint64_t>(qor.area_um2));
  store_u64(arena_, std::bit_cast<std::uint64_t>(qor.delay_ps));
  store_u64(arena_, static_cast<std::uint64_t>(qor.num_cells));
  store_u64(arena_, static_cast<std::uint64_t>(qor.num_inverters));

  if (!place(hash_key(design, steps.data(), steps.size()), offset) &&
      stash_.size() > config_.stash_capacity) {
    grow_and_rebuild();
  }
  ++stats_.entries;
  stats_.arena_bytes = arena_.size();
  stats_.stash_entries = stash_.size();
  return true;
}

std::optional<map::QoR> CuckooIndex::find(const aig::Fingerprint& design,
                                          StepsView steps) const {
  const std::uint64_t hash = hash_key(design, steps.data(), steps.size());
  const std::uint16_t tag = tag_of(hash);
  const std::uint64_t want_tag = static_cast<std::uint64_t>(tag) << 48;
  const std::size_t b1 = bucket_of(hash);
  for (const std::size_t b : {b1, alt_bucket(b1, tag)}) {
    for (std::size_t s = 0; s < kSlotsPerBucket; ++s) {
      const std::uint64_t v = slots_[b * kSlotsPerBucket + s];
      if (v == 0 || (v & 0xFFFF000000000000ull) != want_tag) continue;
      const std::uint64_t offset = (v & 0xFFFFFFFFFFFFull) - 1;
      if (entry_matches(offset, design, steps.data(), steps.size())) {
        return qor_at(entry(offset));
      }
    }
  }
  for (const StashEntry& se : stash_) {
    if (se.hash == hash &&
        entry_matches(se.offset, design, steps.data(), steps.size())) {
      return qor_at(entry(se.offset));
    }
  }
  return std::nullopt;
}

void CuckooIndex::for_each(
    const std::function<void(const aig::Fingerprint&, StepsView,
                             const map::QoR&)>& fn) const {
  std::size_t pos = 0;
  while (pos < arena_.size()) {
    const std::uint8_t* e = arena_.data() + pos;
    const std::uint16_t n = load_u16(e + 16);
    const aig::Fingerprint design{load_u64(e), load_u64(e + 8)};
    fn(design, StepsView(e + kStepsOffset, n), qor_at(e));
    pos += kEntryFixedBytes + n;
  }
}

CuckooIndexStats CuckooIndex::stats() const {
  CuckooIndexStats s = stats_;
  s.buckets = buckets_;
  s.stash_entries = stash_.size();
  s.arena_bytes = arena_.size();
  return s;
}

}  // namespace flowgen::core
