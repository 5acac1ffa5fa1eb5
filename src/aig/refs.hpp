#pragma once
// Fanout reference counting and MFFC (maximum fanout-free cone) measurement.
// The MFFC of a node is exactly the logic that disappears if the node is
// replaced, so `mffc_size` is the "gain budget" used by rewrite/refactor/
// restructure to decide whether a candidate replacement is worthwhile.

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"

namespace flowgen::aig {

class RefCounts {
public:
  /// Counts fanout references of every node: one per AND-node fanin edge
  /// plus one per PO. Nodes with zero references are dead.
  explicit RefCounts(const Aig& aig);

  /// Same counts, skipping the PO-reachability walk when possible: graphs
  /// rebuilt by a transform (apply_replacements / balance) contain only
  /// live AND nodes, so counting every AND's fanin edges already equals the
  /// live-only count. The fast path verifies its own premise (every AND
  /// referenced at least once) and falls back to the exact constructor
  /// otherwise, so the result is always identical to RefCounts(aig).
  static RefCounts pristine(const Aig& aig);

  std::uint32_t refs(std::uint32_t node) const { return refs_[node]; }
  bool dead(std::uint32_t node) const { return refs_[node] == 0; }

  /// Ensure the arrays cover nodes appended after construction (new nodes
  /// start with zero references).
  void grow(const Aig& aig);

  /// Mark a node as a traversal terminal: MFFC walks treat it like a PI
  /// (no recursion into its fanins). Used after a node has been replaced and
  /// its fanin references removed, so later walks keep counts balanced.
  void set_terminal(std::uint32_t node) { terminal_[node] = 1; }
  bool terminal(std::uint32_t node) const { return terminal_[node] != 0; }

  /// Dereference the MFFC of `node`: recursively removes the references its
  /// cone contributes, returning the number of AND nodes that died (the MFFC
  /// size). Optionally records the dying node ids (including `node`). Must
  /// be paired with `ref_mffc` unless the caller commits to the removal.
  std::uint32_t deref_mffc(const Aig& aig, std::uint32_t node,
                           std::vector<std::uint32_t>* dying = nullptr);

  /// Inverse of `deref_mffc`; returns the number of AND nodes revived.
  std::uint32_t ref_mffc(const Aig& aig, std::uint32_t node);

  /// Reference the cone of `l` as if a new fanout edge to it was added:
  /// increments refs along previously dead paths recursively (revives newly
  /// used nodes). Used when committing a replacement subgraph.
  void ref_cone(const Aig& aig, Lit l);

  /// MFFC size without lasting mutation (deref + reref).
  std::uint32_t mffc_size(const Aig& aig, std::uint32_t node);

  /// Replace `out` with the node ids inside the MFFC of `node` (including
  /// `node`); no lasting mutation. `out` is the caller's reused buffer.
  void mffc_nodes(const Aig& aig, std::uint32_t node,
                  std::vector<std::uint32_t>& out);

private:
  RefCounts() = default;  ///< for pristine()'s fast path

  bool walkable(const Aig& aig, std::uint32_t node) const {
    return aig.is_and(node) && !terminal_[node];
  }

  std::vector<std::uint32_t> refs_;
  std::vector<char> terminal_;
};

}  // namespace flowgen::aig
