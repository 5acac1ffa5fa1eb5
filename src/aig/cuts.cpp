#include "aig/cuts.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

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
  // Sorted union, refused as soon as it would exceed k leaves.
  out.leaves.clear();
  const auto& la = a.leaves;
  const auto& lb = b.leaves;
  std::size_t i = 0, j = 0;
  while (i < la.size() || j < lb.size()) {
    std::uint32_t next;
    if (j == lb.size() || (i < la.size() && la[i] < lb[j])) {
      next = la[i++];
    } else if (i == la.size() || lb[j] < la[i]) {
      next = lb[j++];
    } else {
      next = la[i];
      ++i;
      ++j;
    }
    if (out.leaves.size() == k) return false;
    out.leaves.push_back(next);
  }
  out.compute_signature();
  return true;
}

void CutManager::enumerate_node(const Aig& aig, std::uint32_t id,
                                std::vector<Cut>& merged, Cut& candidate) {
  Cut trivial;
  trivial.leaves.push_back(id);
  trivial.compute_signature();
  if (!aig.is_and(id)) {
    cuts_.push_back(trivial);
    return;
  }
  // The fanin sets are read while `merged` fills; cuts_ grows only after.
  const auto& n = aig.node(id);
  const std::span<const Cut> set_a = cuts(lit_node(n.fanin0));
  const std::span<const Cut> set_b = cuts(lit_node(n.fanin1));

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
  // beyond that. Keep a bounded number. An insertion sort: the set is
  // small, and std::stable_sort would allocate a buffer per node.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const Cut c = merged[i];
    std::size_t j = i;
    for (; j > 0 && merged[j - 1].leaves.size() > c.leaves.size(); --j) {
      merged[j] = merged[j - 1];
    }
    merged[j] = c;
  }
  if (merged.size() > params_.max_cuts) merged.resize(params_.max_cuts);
  cuts_.insert(cuts_.end(), merged.begin(), merged.end());
  if (params_.keep_trivial) cuts_.push_back(trivial);
}

CutManager::CutManager(const Aig& aig, const CutParams& params)
    : params_(params) {
  if (params_.cut_size > Cut::kMaxLeaves) {
    throw std::invalid_argument("CutManager: cut_size " +
                                std::to_string(params_.cut_size) +
                                " exceeds " +
                                std::to_string(Cut::kMaxLeaves));
  }
  // Scratch buffers live across the node loop: `merged` is reused instead
  // of reallocated per node.
  std::vector<Cut> merged;
  merged.reserve(params_.max_cuts * 4);
  Cut candidate;
  offsets_.reserve(aig.num_nodes() + 1);
  offsets_.push_back(0);
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    enumerate_node(aig, id, merged, candidate);
    offsets_.push_back(static_cast<std::uint32_t>(cuts_.size()));
  }
}

}  // namespace flowgen::aig
