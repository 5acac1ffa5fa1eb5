#include "aig/reconv_cut.hpp"

#include <algorithm>
#include <stdexcept>

#include "aig/stamped_slots.hpp"

namespace flowgen::aig {

namespace {

constexpr std::uint32_t kNoFanin = ~0u;

/// One leaf of the growing cut with what the cost function reads of it, so
/// an expansion step reads no node record of the graph.
struct Leaf {
  std::uint32_t id;
  std::uint32_t fanin0;  ///< kNoFanin for a PI or the constant
  std::uint32_t fanin1;
  std::uint32_t level;
};

Leaf make_leaf(const Aig& aig, std::uint32_t id) {
  const Aig::Node& n = aig.node(id);
  if (n.fanin0 == kLitInvalid) return {id, kNoFanin, kNoFanin, n.level};
  return {id, lit_node(n.fanin0), lit_node(n.fanin1), n.level};
}

}  // namespace

WindowLeaves reconv_cut(const Aig& aig, std::uint32_t root,
                        unsigned max_leaves) {
  if (max_leaves > kMaxWindowLeaves) {
    throw std::invalid_argument("reconv_cut: max_leaves above 16");
  }
  // An expansion that adds a leaf runs only while the list stays within
  // max_leaves, so the list fits inline. Membership is a per-thread
  // stamped mark, set and erased as leaves come and go: an expanded node
  // may return as a leaf later.
  thread_local StampedSlots<std::uint8_t> is_leaf;
  is_leaf.reset(aig.num_nodes());
  InlineVec<Leaf, kMaxWindowLeaves> leaves{make_leaf(aig, root)};
  is_leaf.at(root);

  for (;;) {
    // Pick the expandable leaf with the lowest expansion cost (= number of
    // fanins not already leaves, minus the leaf it replaces); ties go to
    // the higher level, then to the first index.
    int best_cost = 3;
    std::size_t best_idx = leaves.size();
    std::uint32_t best_level = 0;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const Leaf& leaf = leaves[i];
      if (leaf.fanin0 == kNoFanin) continue;
      const int cost = -1 + !is_leaf.has(leaf.fanin0) +
                       (leaf.fanin1 != leaf.fanin0 &&
                        !is_leaf.has(leaf.fanin1));
      if (cost < best_cost || (cost == best_cost && leaf.level > best_level)) {
        best_cost = cost;
        best_idx = i;
        best_level = leaf.level;
      }
    }
    if (best_idx == leaves.size()) break;  // nothing expandable
    const auto projected = static_cast<long>(leaves.size()) + best_cost;
    if (projected > static_cast<long>(max_leaves) && best_cost > 0) break;

    const Leaf expanded = leaves[best_idx];
    leaves.erase_at(best_idx);
    is_leaf.erase(expanded.id);
    for (std::uint32_t f : {expanded.fanin0, expanded.fanin1}) {
      if (is_leaf.has(f)) continue;
      is_leaf.at(f);
      leaves.push_back(make_leaf(aig, f));
    }
  }
  WindowLeaves out;
  for (const Leaf& leaf : leaves) out.push_back(leaf.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace flowgen::aig
