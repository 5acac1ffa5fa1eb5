#include "aig/cuts.hpp"

#include <algorithm>
#include <bit>

namespace flowgen::aig {

void Cut::compute_signature() {
  signature = 0;
  for (std::uint32_t id : leaves) signature |= leaf_bit(id);
}

bool Cut::subset_of(const Cut& other) const {
  if ((signature & ~other.signature) != 0) return false;
  if (leaves.size() > other.leaves.size()) return false;
  return std::includes(other.leaves.begin(), other.leaves.end(),
                       leaves.begin(), leaves.end());
}

bool merge_cuts(const Cut& a, const Cut& b, unsigned k, Cut& out) {
  // Quick reject: every set bit of sig_a | sig_b is contributed by at least
  // one distinct leaf id, so popcount(sig_a | sig_b) is a *lower bound* on
  // the union's leaf count whatever the ids are — aliasing modulo 64 can
  // only drop bits, never add them. The exact merge below still handles the
  // aliased cases the signature cannot see.
  if (static_cast<unsigned>(std::popcount(a.signature | b.signature)) > k) {
    return false;
  }
  out.leaves.clear();
  out.leaves.reserve(a.leaves.size() + b.leaves.size());
  std::size_t i = 0, j = 0;
  while (i < a.leaves.size() && j < b.leaves.size()) {
    if (out.leaves.size() > k) return false;
    if (a.leaves[i] == b.leaves[j]) {
      out.leaves.push_back(a.leaves[i]);
      ++i;
      ++j;
    } else if (a.leaves[i] < b.leaves[j]) {
      out.leaves.push_back(a.leaves[i++]);
    } else {
      out.leaves.push_back(b.leaves[j++]);
    }
  }
  while (i < a.leaves.size()) out.leaves.push_back(a.leaves[i++]);
  while (j < b.leaves.size()) out.leaves.push_back(b.leaves[j++]);
  if (out.leaves.size() > k) return false;
  out.compute_signature();
  return true;
}

void CutManager::enumerate_node(const Aig& aig, std::uint32_t id,
                                std::vector<Cut>& merged, Cut& candidate) {
  std::vector<Cut>& set = cuts_[id];
  if (!aig.is_and(id)) {
    Cut trivial;
    trivial.leaves = {id};
    trivial.compute_signature();
    set.push_back(std::move(trivial));
    return;
  }
  const auto& n = aig.node(id);
  const auto& set_a = cuts_[lit_node(n.fanin0)];
  const auto& set_b = cuts_[lit_node(n.fanin1)];

  merged.clear();
  for (const Cut& ca : set_a) {
    for (const Cut& cb : set_b) {
      if (!merge_cuts(ca, cb, params_.cut_size, candidate)) continue;
      // Drop candidates dominated by an existing cut, and existing cuts
      // dominated by the candidate.
      bool dominated = false;
      for (const Cut& c : merged) {
        if (c.subset_of(candidate)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(merged,
                    [&](const Cut& c) { return candidate.subset_of(c); });
      merged.push_back(candidate);
    }
  }
  // Priority: fewer leaves first (cheaper to match / rewrite), stable
  // beyond that. Keep a bounded number.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Cut& a, const Cut& b) {
                     return a.leaves.size() < b.leaves.size();
                   });
  if (merged.size() > params_.max_cuts) merged.resize(params_.max_cuts);
  set.reserve(merged.size() + (params_.keep_trivial ? 1 : 0));
  for (Cut& c : merged) set.push_back(std::move(c));
  if (params_.keep_trivial) {
    Cut trivial;
    trivial.leaves = {id};
    trivial.compute_signature();
    set.push_back(std::move(trivial));
  }
}

CutManager::CutManager(const Aig& aig, const CutParams& params)
    : params_(params), cuts_(aig.num_nodes()) {
  // Scratch buffers live across the node loop: `merged`'s spine and the
  // candidate's leaf array are reused instead of reallocated per node.
  std::vector<Cut> merged;
  merged.reserve(params_.max_cuts * 4);
  Cut candidate;
  candidate.leaves.reserve(2 * params_.cut_size);
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    enumerate_node(aig, id, merged, candidate);
  }
}

}  // namespace flowgen::aig
