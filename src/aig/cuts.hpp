#pragma once
// k-feasible priority-cut enumeration, the workhorse of both 4-cut rewriting
// and the technology mapper (same algorithm ABC uses: bottom-up merge of
// fanin cut sets, keeping a bounded number of cuts per node).

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/inline_vec.hpp"

namespace flowgen::aig {

/// One cut: sorted leaf node ids + 64-bit Bloom-style signature for fast
/// dominance checks. The leaves live inline: a cut is a plain value.
struct Cut {
  /// Widest cut the inline storage holds. CutManager refuses a larger
  /// cut_size; the transform registry caps rewrite's at 8 too.
  static constexpr unsigned kMaxLeaves = 8;

  InlineVec<std::uint32_t, kMaxLeaves> leaves;
  std::uint64_t signature = 0;

  static std::uint64_t leaf_bit(std::uint32_t id) {
    return std::uint64_t{1} << (id & 63u);
  }
  void compute_signature();
  /// True if this cut's leaves are a subset of `other`'s (dominance).
  bool subset_of(const Cut& other) const;
};

struct CutParams {
  unsigned cut_size = 4;    ///< max leaves (k), at most Cut::kMaxLeaves
  unsigned max_cuts = 8;    ///< priority cuts kept per node (excl. trivial)
  bool keep_trivial = true; ///< always include the {node} cut
};

/// Cut sets for every node of the graph, indexed by node id. All sets share
/// one array (node id order), so enumeration allocates per graph, not per
/// node.
class CutManager {
public:
  /// Throws std::invalid_argument when params.cut_size > Cut::kMaxLeaves.
  CutManager(const Aig& aig, const CutParams& params);

  std::span<const Cut> cuts(std::uint32_t node) const {
    return {cuts_.data() + offsets_[node], cuts_.data() + offsets_[node + 1]};
  }

  const CutParams& params() const { return params_; }

private:
  void enumerate_node(const Aig& aig, std::uint32_t id, std::vector<Cut>& merged,
                      Cut& candidate);

  CutParams params_;
  std::vector<Cut> cuts_;  ///< every node's set, in node id order
  /// Node id's set is cuts_[offsets_[id], offsets_[id + 1]).
  std::vector<std::uint32_t> offsets_;
};

/// Merge two cuts if the union has at most k <= Cut::kMaxLeaves leaves;
/// returns false otherwise.
bool merge_cuts(const Cut& a, const Cut& b, unsigned k, Cut& out);

}  // namespace flowgen::aig
