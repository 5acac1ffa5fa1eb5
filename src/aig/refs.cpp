#include "aig/refs.hpp"

#include <cassert>

namespace flowgen::aig {

RefCounts::RefCounts(const Aig& aig)
    : refs_(aig.num_nodes(), 0), terminal_(aig.num_nodes(), 0) {
  // Count only references from PO-reachable logic: a dead node's fanin
  // edges must not pin down live nodes, or MFFC sizes would be
  // underestimated and dead cones would never be reclaimed as gain.
  std::vector<char> live(aig.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  for (Lit po : aig.pos()) stack.push_back(lit_node(po));
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (live[id]) continue;
    live[id] = 1;
    if (!aig.is_and(id)) continue;
    stack.push_back(lit_node(aig.node(id).fanin0));
    stack.push_back(lit_node(aig.node(id).fanin1));
  }
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (!live[id] || !aig.is_and(id)) continue;
    ++refs_[lit_node(aig.node(id).fanin0)];
    ++refs_[lit_node(aig.node(id).fanin1)];
  }
  for (Lit po : aig.pos()) ++refs_[lit_node(po)];
}

RefCounts RefCounts::pristine(const Aig& aig) {
  RefCounts rc;
  rc.refs_.assign(aig.num_nodes(), 0);
  rc.terminal_.assign(aig.num_nodes(), 0);
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (!aig.is_and(id)) continue;
    ++rc.refs_[lit_node(aig.node(id).fanin0)];
    ++rc.refs_[lit_node(aig.node(id).fanin1)];
  }
  for (Lit po : aig.pos()) ++rc.refs_[lit_node(po)];
  // Premise check: with every AND referenced, references can only chain
  // upward (ids increase) until they hit a PO, so every AND is live and the
  // all-nodes count equals the live-only count.
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (aig.is_and(id) && rc.refs_[id] == 0) return RefCounts(aig);
  }
  return rc;
}

void RefCounts::grow(const Aig& aig) {
  if (refs_.size() < aig.num_nodes()) {
    refs_.resize(aig.num_nodes(), 0);
    terminal_.resize(aig.num_nodes(), 0);
  }
}

std::uint32_t RefCounts::deref_mffc(const Aig& aig, std::uint32_t node,
                                    std::vector<std::uint32_t>* dying) {
  if (!walkable(aig, node)) return 0;
  if (dying) dying->push_back(node);
  std::uint32_t count = 1;
  for (Lit fanin : {aig.node(node).fanin0, aig.node(node).fanin1}) {
    const std::uint32_t f = lit_node(fanin);
    assert(refs_[f] > 0);
    if (--refs_[f] == 0) count += deref_mffc(aig, f, dying);
  }
  return count;
}

std::uint32_t RefCounts::ref_mffc(const Aig& aig, std::uint32_t node) {
  if (!walkable(aig, node)) return 0;
  std::uint32_t count = 1;
  for (Lit fanin : {aig.node(node).fanin0, aig.node(node).fanin1}) {
    const std::uint32_t f = lit_node(fanin);
    if (refs_[f]++ == 0) count += ref_mffc(aig, f);
  }
  return count;
}

void RefCounts::ref_cone(const Aig& aig, Lit l) {
  const std::uint32_t id = lit_node(l);
  if (refs_[id]++ == 0 && walkable(aig, id)) {
    ref_cone(aig, aig.node(id).fanin0);
    ref_cone(aig, aig.node(id).fanin1);
  }
}

std::uint32_t RefCounts::mffc_size(const Aig& aig, std::uint32_t node) {
  const std::uint32_t size = deref_mffc(aig, node);
  const std::uint32_t restored = ref_mffc(aig, node);
  assert(size == restored);
  (void)restored;
  return size;
}

void RefCounts::mffc_nodes(const Aig& aig, std::uint32_t node,
                           std::vector<std::uint32_t>& out) {
  out.clear();
  deref_mffc(aig, node, &out);
  ref_mffc(aig, node);
}

}  // namespace flowgen::aig
