#pragma once
// k-feasible priority-cut enumeration, the workhorse of both 4-cut rewriting
// and the technology mapper (same algorithm ABC uses: bottom-up merge of
// fanin cut sets, keeping a bounded number of cuts per node).

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace flowgen::aig {

/// One cut: sorted leaf node ids + 64-bit Bloom-style signature for fast
/// dominance checks.
struct Cut {
  std::vector<std::uint32_t> leaves;
  std::uint64_t signature = 0;

  static std::uint64_t leaf_bit(std::uint32_t id) {
    return std::uint64_t{1} << (id & 63u);
  }
  void compute_signature();
  /// True if this cut's leaves are a subset of `other`'s (dominance).
  bool subset_of(const Cut& other) const;
};

struct CutParams {
  unsigned cut_size = 4;    ///< max leaves (k)
  unsigned max_cuts = 8;    ///< priority cuts kept per node (excl. trivial)
  bool keep_trivial = true; ///< always include the {node} cut
};

/// Cut sets for every node of the graph, indexed by node id.
class CutManager {
public:
  CutManager(const Aig& aig, const CutParams& params);

  const std::vector<Cut>& cuts(std::uint32_t node) const {
    return cuts_[node];
  }

  const CutParams& params() const { return params_; }

private:
  void enumerate_node(const Aig& aig, std::uint32_t id, std::vector<Cut>& merged,
                      Cut& candidate);

  CutParams params_;
  std::vector<std::vector<Cut>> cuts_;
};

/// Merge two cuts if the union has at most k leaves; returns false otherwise.
bool merge_cuts(const Cut& a, const Cut& b, unsigned k, Cut& out);

}  // namespace flowgen::aig
