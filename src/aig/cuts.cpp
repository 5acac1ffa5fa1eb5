#include "aig/cuts.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "aig/simulate.hpp"

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
  // one distinct leaf id, so its bit count is a *lower bound* on the
  // union's leaf count whatever the ids are — aliasing modulo 64 can only
  // drop bits, never add them. The exact merge below still handles the
  // aliased cases the signature cannot see. Clearing the k lowest set bits
  // tests "more than k" without a popcount, a library call on baseline
  // x86-64.
  std::uint64_t sig = a.signature | b.signature;
  for (unsigned n = 0; n < k; ++n) sig &= sig - 1;  // 0 stays 0
  if (sig != 0) return false;
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
  // The union's leaves set exactly the bits either signature sets.
  out.signature = a.signature | b.signature;
  return true;
}

namespace {

/// Widest cut function: Cut::kMaxLeaves variables.
constexpr std::size_t kMaxFunctionWords =
    std::size_t{1} << (Cut::kMaxLeaves - 6);
using FunctionWords = std::array<std::uint64_t, kMaxFunctionWords>;

/// True when a leaf of `cut` outside `side` may be an AND node that
/// cone_truth expands over `side` (signature `cone`, root `side_root`).
/// cone_truth over `cut` would stop at such a leaf, so `side`'s function
/// stretched to `cut` could differ from it. Node ids are topological, so
/// a node of the cone is at most its root; the constant node is refused
/// outright, as cone_truth reads it as a constant when it is no leaf.
bool may_stop_inside(const Cut& cut, const Cut& side, std::uint32_t side_root,
                     std::uint64_t cone) {
  if (cone == 0) return false;  // a trivial cut: its root is a leaf of `cut`
  std::size_t k = 0;
  for (std::uint32_t leaf : cut.leaves) {
    while (k < side.leaves.size() && side.leaves[k] < leaf) ++k;
    if (k < side.leaves.size() && side.leaves[k] == leaf) continue;
    if (leaf == 0 || (leaf <= side_root && ((cone >> (leaf & 63u)) & 1))) {
      return true;
    }
  }
  return false;
}

/// `side`'s function (variables in `side`'s leaf order, independent of the
/// rest) over `cut`'s leaves, a superset: variable j moves to the position
/// of side.leaves[j] in cut.leaves, top down, so every swap trades a real
/// variable with one the function does not read.
void stretch(const Cut& side, const Cut& cut, std::span<std::uint64_t> f) {
  std::size_t pos = cut.leaves.size();
  for (std::size_t j = side.leaves.size(); j-- > 0;) {
    while (cut.leaves[--pos] != side.leaves[j]) {
    }
    if (pos != j) {
      swap_vars(f, static_cast<unsigned>(j), static_cast<unsigned>(pos));
    }
  }
}

}  // namespace

TruthTable CutManager::function(std::uint32_t node, std::size_t i) const {
  return TruthTable::from_words(
      static_cast<unsigned>(cuts_[offsets_[node] + i].leaves.size()),
      function_words(node, i));
}

void CutManager::append_function(const Aig& aig, std::uint32_t id,
                                 std::uint32_t a, std::uint32_t b) {
  const std::uint32_t nw = function_words_;
  if (a == kTrivial) {
    functions_.insert(functions_.end(), nw, kVarMask[0]);  // x_0
    cones_.push_back(0);
    return;
  }
  const Cut& cut = cuts_.back();
  const Cut& ca = cuts_[a];
  const Cut& cb = cuts_[b];
  const auto& n = aig.node(id);
  const std::uint32_t root_a = lit_node(n.fanin0);
  const std::uint32_t root_b = lit_node(n.fanin1);
  FunctionWords f{};
  if (may_stop_inside(cut, ca, root_a, cones_[a]) ||
      may_stop_inside(cut, cb, root_b, cones_[b])) {
    // Rare: evaluate the cone itself, then repeat the table across the
    // variables past the cut's leaves.
    const TruthTable tt = cone_truth(aig, make_lit(id, false), cut.leaves);
    const std::span<const std::uint64_t> t = tt.words();
    const std::uint64_t w0 = repeat_in_word(t[0], tt.num_vars());
    for (std::uint32_t w = 0; w < nw; ++w) {
      f[w] = t.size() == 1 ? w0 : t[w % t.size()];
    }
  } else {
    FunctionWords fa{};
    std::copy_n(functions_.begin() + std::size_t{a} * nw, nw, fa.begin());
    std::copy_n(functions_.begin() + std::size_t{b} * nw, nw, f.begin());
    stretch(ca, cut, {fa.data(), nw});
    stretch(cb, cut, {f.data(), nw});
    const std::uint64_t ma = lit_is_compl(n.fanin0) ? ~0ull : 0ull;
    const std::uint64_t mb = lit_is_compl(n.fanin1) ? ~0ull : 0ull;
    for (std::uint32_t w = 0; w < nw; ++w) f[w] = (fa[w] ^ ma) & (f[w] ^ mb);
  }
  const std::uint64_t cone = Cut::leaf_bit(id) | cones_[a] | cones_[b];
  functions_.insert(functions_.end(), f.begin(), f.begin() + nw);
  cones_.push_back(cone);
}

void CutManager::enumerate_node(const Aig& aig, std::uint32_t id,
                                std::vector<Merged>& merged, Cut& candidate) {
  Cut trivial;
  trivial.leaves.push_back(id);
  trivial.compute_signature();
  if (!aig.is_and(id)) {
    cuts_.push_back(trivial);
    append_function(aig, id, kTrivial, kTrivial);
    return;
  }
  // The fanin sets are read while `merged` fills; cuts_ grows only after.
  const auto& n = aig.node(id);
  const std::span<const Cut> set_a = cuts(lit_node(n.fanin0));
  const std::span<const Cut> set_b = cuts(lit_node(n.fanin1));

  merged.clear();
  for (std::uint32_t a = 0; a < set_a.size(); ++a) {
    for (std::uint32_t b = 0; b < set_b.size(); ++b) {
      if (!merge_cuts(set_a[a], set_b[b], params_.cut_size, candidate)) {
        continue;
      }
      // Drop candidates dominated by an existing cut, and existing cuts
      // dominated by the candidate.
      bool dominated = false;
      for (const Merged& m : merged) {
        if (m.cut.subset_of(candidate)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(merged, [&](const Merged& m) {
        return candidate.subset_of(m.cut);
      });
      merged.push_back({candidate, a, b});
    }
  }
  // Priority: fewer leaves first (cheaper to match / rewrite), stable
  // beyond that. Keep a bounded number. An insertion sort: the set is
  // small, and std::stable_sort would allocate a buffer per node.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    const Merged m = merged[i];
    std::size_t j = i;
    for (; j > 0 && merged[j - 1].cut.leaves.size() > m.cut.leaves.size();
         --j) {
      merged[j] = merged[j - 1];
    }
    merged[j] = m;
  }
  if (merged.size() > params_.max_cuts) merged.resize(params_.max_cuts);
  const std::uint32_t first_a = offsets_[lit_node(n.fanin0)];
  const std::uint32_t first_b = offsets_[lit_node(n.fanin1)];
  for (const Merged& m : merged) {
    cuts_.push_back(m.cut);
    append_function(aig, id, first_a + m.a, first_b + m.b);
  }
  if (params_.keep_trivial) {
    cuts_.push_back(trivial);
    append_function(aig, id, kTrivial, kTrivial);
  }
}

CutManager::CutManager(const Aig& aig, const CutParams& params)
    : params_(params) {
  if (params_.cut_size > Cut::kMaxLeaves) {
    throw std::invalid_argument("CutManager: cut_size " +
                                std::to_string(params_.cut_size) +
                                " exceeds " +
                                std::to_string(Cut::kMaxLeaves));
  }
  function_words_ =
      params_.cut_size <= 6 ? 1u : 1u << (params_.cut_size - 6);
  // Scratch buffers live across the node loop: `merged` is reused instead
  // of reallocated per node.
  std::vector<Merged> merged;
  merged.reserve(params_.max_cuts * 4);
  Cut candidate;
  // Sized once for the most cuts the graph can keep: one per PI and the
  // constant, max_cuts plus the trivial one per AND node.
  const std::size_t num_ands = aig.num_ands();
  const std::size_t max_cuts =
      aig.num_nodes() - num_ands + num_ands * (params_.max_cuts + 1);
  cuts_.reserve(max_cuts);
  functions_.reserve(max_cuts * function_words_);
  cones_.reserve(max_cuts);
  offsets_.reserve(aig.num_nodes() + 1);
  offsets_.push_back(0);
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    enumerate_node(aig, id, merged, candidate);
    offsets_.push_back(static_cast<std::uint32_t>(cuts_.size()));
  }
}

}  // namespace flowgen::aig
