#pragma once
// And-Inverter Graph: the logic-network representation every synthesis
// transform in this repo operates on, mirroring the data structure at the
// heart of ABC. Nodes are 2-input ANDs; inversion lives on edges
// (complemented literals); structural hashing keeps the graph canonical
// (no duplicate ANDs, no trivial ANDs).
//
// The structural hash is a flat open-addressing table of node ids, so a
// graph is a few plain arrays (nodes, PIs, POs, table) and a copy
// allocates nothing per node. Its invariants:
//   * slot value 0 means empty; node 0 is the constant, never a key;
//   * every AND node's id sits in exactly one slot; the key (fanin0,
//     fanin1) is read back from the node array, not stored twice;
//   * the capacity is a power of two and the load is at most 1/2, so a
//     probe always meets an empty slot;
//   * probing is linear, and rollback deletes by backward shift, so every
//     remaining entry stays reachable from its home slot without
//     tombstones.
// The table never decides a node id: ids, creation order and every land()
// result are those of any other correct structural hash.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace flowgen::aig {

/// Edge literal: 2*node_id + complement bit. Node 0 is the constant-FALSE
/// node, so literal 0 = constant 0 and literal 1 = constant 1.
using Lit = std::uint32_t;

/// 128-bit structural content fingerprint (see Aig::fingerprint). Equal
/// graphs always produce equal fingerprints; distinct graphs collide with
/// probability ~2^-128, so the service, the QoR store and the evaluation
/// caches all use it as the identity of a design.
using Fingerprint = std::array<std::uint64_t, 2>;

constexpr Lit kLitFalse = 0;
constexpr Lit kLitTrue = 1;
constexpr Lit kLitInvalid = 0xFFFFFFFFu;

constexpr Lit make_lit(std::uint32_t node, bool complement) {
  return (node << 1) | static_cast<Lit>(complement);
}
constexpr std::uint32_t lit_node(Lit l) { return l >> 1; }
constexpr bool lit_is_compl(Lit l) { return (l & 1u) != 0; }
constexpr Lit lit_not(Lit l) { return l ^ 1u; }
constexpr Lit lit_regular(Lit l) { return l & ~1u; }

class Aig {
public:
  struct Node {
    Lit fanin0 = kLitInvalid;  ///< kLitInvalid for PIs and the constant node
    Lit fanin1 = kLitInvalid;
    std::uint32_t level = 0;  ///< 0 for PIs/constant, max(fanins)+1 for ANDs
  };

  Aig();

  /// Named construction metadata (optional, used by writers/reports).
  std::string name;

  // -- construction ---------------------------------------------------------

  /// Append a new primary input; returns its (positive) literal.
  Lit add_pi();
  /// Append `n` primary inputs; returns their literals in order.
  std::vector<Lit> add_pis(std::size_t n);

  /// Structurally hashed AND of two literals. Applies the usual
  /// simplifications (const absorption, idempotence, a & ~a = 0) and
  /// normalises operand order, so the graph never contains trivial nodes.
  Lit land(Lit a, Lit b);

  // Derived gates, all expressed over `land`.
  Lit lnot(Lit a) const { return lit_not(a); }
  Lit lor(Lit a, Lit b);
  Lit lxor(Lit a, Lit b);
  Lit lxnor(Lit a, Lit b);
  Lit lnand(Lit a, Lit b);
  Lit lnor(Lit a, Lit b);
  /// Multiplexer: sel ? t : e.
  Lit lmux(Lit sel, Lit t, Lit e);
  /// Majority-of-three (full-adder carry).
  Lit lmaj(Lit a, Lit b, Lit c);
  /// AND / OR / XOR over an operand list, built as a linear chain (empty
  /// list = identity). Chains are the naive-elaboration shape; run the
  /// `balance` transform to minimise their depth.
  Lit land_n(std::span<const Lit> ops);
  Lit lor_n(std::span<const Lit> ops);
  Lit lxor_n(std::span<const Lit> ops);

  /// Register a primary output driven by `l`; returns its index.
  std::size_t add_po(Lit l);

  /// Make room for `n` more AND nodes: adding up to that many grows
  /// neither the node array nor the structural-hash table. The table's
  /// size decides no node id, so the graph built is the same.
  void reserve_ands(std::size_t n);

  // -- inspection -----------------------------------------------------------

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_pis() const { return pis_.size(); }
  std::size_t num_pos() const { return pos_.size(); }
  /// Number of AND gates (the paper's and ABC's "size" metric).
  std::size_t num_ands() const { return nodes_.size() - pis_.size() - 1; }
  /// Logic depth in AND levels (ABC's "lev" metric).
  std::uint32_t depth() const;

  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  bool is_const(std::uint32_t id) const { return id == 0; }
  bool is_pi(std::uint32_t id) const {
    return id != 0 && nodes_[id].fanin0 == kLitInvalid;
  }
  bool is_and(std::uint32_t id) const {
    return nodes_[id].fanin0 != kLitInvalid;
  }
  std::uint32_t level(std::uint32_t id) const { return nodes_[id].level; }

  const std::vector<std::uint32_t>& pis() const { return pis_; }
  const std::vector<Lit>& pos() const { return pos_; }
  Lit po(std::size_t i) const { return pos_[i]; }
  /// Redirect an existing PO (used by rebuild passes).
  void set_po(std::size_t i, Lit l) { pos_[i] = l; }

  /// Node ids in topological order. The graph is append-only, so ids are
  /// already topologically sorted; this returns [0, num_nodes).
  std::vector<std::uint32_t> topo_order() const;

  // -- checkpoint / rollback ------------------------------------------------
  // Transforms tentatively construct candidate subgraphs to count their true
  // cost (structural hashing makes already-present nodes free), then roll
  // back if the candidate loses. Only appended nodes are undone.

  std::size_t checkpoint() const { return nodes_.size(); }
  void rollback(std::size_t checkpoint);

  // -- maintenance ----------------------------------------------------------

  /// Copy only the logic reachable from the POs into a fresh AIG (dead-node
  /// elimination). PIs are preserved in order even if unused.
  Aig cleanup() const;

  /// Structural invariant check (strash consistency, operand order,
  /// no trivial nodes); returns an error string, empty when healthy.
  std::string check() const;

  /// Heap footprint of this graph: the node, PI and PO arrays and the
  /// structural-hash table, by capacity: what keeping this graph costs.
  std::size_t memory_bytes() const;

  /// 128-bit structural fingerprint: equal graphs (same nodes, fanins, PIs
  /// and POs in order) always produce equal fingerprints, and distinct
  /// graphs collide with probability ~2^-128. Lets evaluation caches dedup
  /// work keyed by graph content instead of by the flow that produced it.
  Fingerprint fingerprint() const;

private:
  /// Home slot of the key (a, b) in a table of `mask + 1` slots.
  static std::size_t strash_home(Lit a, Lit b, std::size_t mask) {
    const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           mask;
  }
  /// Slot holding the AND of (a, b), a < b, or the empty slot where it
  /// would go. The table must not be empty.
  std::size_t strash_slot(Lit a, Lit b) const;
  /// Double the table (at least 16 slots) and reinsert every AND node.
  void strash_grow();
  /// Reinsert every AND node into a table of `slots` (a power of two).
  void strash_rehash(std::size_t slots);
  /// Remove AND node `id` from the table (backward-shift deletion).
  void strash_erase(std::uint32_t id);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Lit> pos_;
  std::vector<std::uint32_t> strash_;  ///< node ids; 0 = empty slot
};

}  // namespace flowgen::aig
