#pragma once
// k-feasible priority-cut enumeration, the workhorse of both 4-cut rewriting
// and the technology mapper (same algorithm ABC uses: bottom-up merge of
// fanin cut sets, keeping a bounded number of cuts per node), with the
// function of every kept cut computed during the merge.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/inline_vec.hpp"
#include "aig/truth.hpp"

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

/// Cut sets for every node of the graph, indexed by node id, with the
/// function of every cut. All sets share one array (node id order), so
/// enumeration allocates per graph, not per node.
///
/// A cut's function is carried out of the enumeration (as ABC's mapper
/// computes cut truth tables while it merges priority cuts): the AND of
/// its two fanin cuts' functions, each stretched to the merged leaf set.
/// That equals cone_truth over the cut unless one of the merged cut's
/// leaves lies inside a fanin cut's cone, where cone_truth would stop at
/// it; a per-cut signature of the cone's nodes rules that out, and the few
/// cuts it cannot clear are evaluated with cone_truth itself. Either way
/// function() is cone_truth's table bit for bit.
class CutManager {
public:
  /// Throws std::invalid_argument when params.cut_size > Cut::kMaxLeaves.
  CutManager(const Aig& aig, const CutParams& params);

  std::span<const Cut> cuts(std::uint32_t node) const {
    return {cuts_.data() + offsets_[node], cuts_.data() + offsets_[node + 1]};
  }
  /// Number of cuts over all nodes.
  std::size_t num_cuts() const { return cuts_.size(); }

  /// Function of cuts(node)[i] over its leaves (leaf j drives variable j):
  /// cone_truth(aig, make_lit(node, false), leaves), tail mask included.
  TruthTable function(std::uint32_t node, std::size_t i) const;
  /// The same function as stored: one word up to 6 leaves and
  /// 2^(cut_size - 6) above, in TruthTable's layout, repeated past the
  /// cut's leaves instead of masked.
  std::span<const std::uint64_t> function_words(std::uint32_t node,
                                                std::size_t i) const {
    return {functions_.data() + (offsets_[node] + i) * function_words_,
            function_words_};
  }

  const CutParams& params() const { return params_; }

private:
  /// A merged candidate and the fanin cuts it came from (indices into the
  /// two fanin sets).
  struct Merged {
    Cut cut;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
  };

  void enumerate_node(const Aig& aig, std::uint32_t id,
                      std::vector<Merged>& merged, Cut& candidate);
  /// Appends the function and cone signature of the cut just appended to
  /// cuts_ for node `id`, merged from fanin cuts `a` and `b` (indices into
  /// cuts_), or of the trivial cut when `a` is kTrivial.
  void append_function(const Aig& aig, std::uint32_t id, std::uint32_t a,
                       std::uint32_t b);
  static constexpr std::uint32_t kTrivial = ~0u;

  CutParams params_;
  std::vector<Cut> cuts_;  ///< every node's set, in node id order
  /// Node id's set is cuts_[offsets_[id], offsets_[id + 1]).
  std::vector<std::uint32_t> offsets_;
  /// Words per cut function: one up to 6 leaves, 2^(cut_size - 6) above.
  std::uint32_t function_words_ = 1;
  /// function_words_ words per cut, in cuts_ order; every function is
  /// kept independent of the variables past its cut's leaves, so a
  /// stretch only moves variables.
  std::vector<std::uint64_t> functions_;
  /// Per cut, in cuts_ order: a 64-bit signature (bit id % 64) of the AND
  /// nodes cone_truth expands over the cut, root included; 0 for a
  /// trivial cut. A superset when the cut was evaluated from scratch.
  std::vector<std::uint64_t> cones_;
};

/// Merge two cuts if the union has at most k <= Cut::kMaxLeaves leaves;
/// returns false otherwise.
bool merge_cuts(const Cut& a, const Cut& b, unsigned k, Cut& out);

}  // namespace flowgen::aig
