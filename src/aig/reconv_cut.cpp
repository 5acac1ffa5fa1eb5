#include "aig/reconv_cut.hpp"

#include <algorithm>
#include <stdexcept>

namespace flowgen::aig {

WindowLeaves reconv_cut(const Aig& aig, std::uint32_t root,
                        unsigned max_leaves) {
  if (max_leaves > kMaxWindowLeaves) {
    throw std::invalid_argument("reconv_cut: max_leaves above 16");
  }
  // An expansion that adds a leaf runs only while the list stays within
  // max_leaves, so the list fits inline and membership is a linear scan
  // rather than a hash set.
  WindowLeaves leaves{root};
  auto is_leaf = [&](std::uint32_t id) {
    return std::find(leaves.begin(), leaves.end(), id) != leaves.end();
  };

  for (;;) {
    // Pick the expandable leaf with the lowest expansion cost (= number of
    // fanins not already leaves, minus the leaf it replaces).
    int best_cost = 3;
    std::size_t best_idx = leaves.size();
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t id = leaves[i];
      if (!aig.is_and(id)) continue;
      const std::uint32_t f0 = lit_node(aig.node(id).fanin0);
      const std::uint32_t f1 = lit_node(aig.node(id).fanin1);
      int cost = -1;  // the leaf itself disappears
      if (!is_leaf(f0)) ++cost;
      if (f1 != f0 && !is_leaf(f1)) ++cost;
      if (cost < best_cost ||
          (cost == best_cost && best_idx < leaves.size() &&
           aig.level(id) > aig.level(leaves[best_idx]))) {
        best_cost = cost;
        best_idx = i;
      }
    }
    if (best_idx == leaves.size()) break;  // nothing expandable
    const auto projected =
        static_cast<long>(leaves.size()) + best_cost;
    if (projected > static_cast<long>(max_leaves) && best_cost > 0) break;

    const std::uint32_t id = leaves[best_idx];
    leaves.erase_at(best_idx);
    for (Lit fanin : {aig.node(id).fanin0, aig.node(id).fanin1}) {
      const std::uint32_t f = lit_node(fanin);
      if (!is_leaf(f)) leaves.push_back(f);
    }
  }
  std::sort(leaves.begin(), leaves.end());
  return leaves;
}

}  // namespace flowgen::aig
