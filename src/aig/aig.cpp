#include "aig/aig.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>
#include <sstream>

namespace flowgen::aig {

Aig::Aig() {
  nodes_.push_back(Node{});  // node 0: constant false
}

Lit Aig::add_pi() {
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{});
  pis_.push_back(id);
  return make_lit(id, false);
}

std::vector<Lit> Aig::add_pis(std::size_t n) {
  std::vector<Lit> lits;
  lits.reserve(n);
  for (std::size_t i = 0; i < n; ++i) lits.push_back(add_pi());
  return lits;
}

Lit Aig::land(Lit a, Lit b) {
  // Trivial simplifications keep the graph free of degenerate nodes.
  if (a == kLitFalse || b == kLitFalse) return kLitFalse;
  if (a == kLitTrue) return b;
  if (b == kLitTrue) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return kLitFalse;
  if (a > b) std::swap(a, b);

  if (strash_.empty()) strash_grow();
  std::size_t slot = strash_slot(a, b);
  if (strash_[slot] != 0) return make_lit(strash_[slot], false);
  // A miss inserts: keep the load at most 1/2 afterwards.
  if (2 * (num_ands() + 1) > strash_.size()) {
    strash_grow();
    slot = strash_slot(a, b);
  }
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.fanin0 = a;
  n.fanin1 = b;
  n.level = std::max(nodes_[lit_node(a)].level, nodes_[lit_node(b)].level) + 1;
  nodes_.push_back(n);
  strash_[slot] = id;
  return make_lit(id, false);
}

std::size_t Aig::strash_slot(Lit a, Lit b) const {
  const std::size_t mask = strash_.size() - 1;
  for (std::size_t i = strash_home(a, b, mask);; i = (i + 1) & mask) {
    const std::uint32_t id = strash_[i];
    if (id == 0) return i;
    const Node& n = nodes_[id];
    if (n.fanin0 == a && n.fanin1 == b) return i;
  }
}

void Aig::reserve_ands(std::size_t n) {
  if (n == 0) return;
  nodes_.reserve(nodes_.size() + n);
  // land() keeps the load at most 1/2.
  const std::size_t slots =
      std::max<std::size_t>(16, std::bit_ceil(2 * (num_ands() + n)));
  if (slots > strash_.size()) strash_rehash(slots);
}

void Aig::strash_grow() {
  strash_rehash(std::max<std::size_t>(16, 2 * strash_.size()));
}

void Aig::strash_rehash(std::size_t slots) {
  std::vector<std::uint32_t> old;
  old.swap(strash_);
  strash_.assign(slots, 0);
  const std::size_t mask = strash_.size() - 1;
  for (std::uint32_t id : old) {
    if (id == 0) continue;
    const Node& n = nodes_[id];
    std::size_t i = strash_home(n.fanin0, n.fanin1, mask);
    while (strash_[i] != 0) i = (i + 1) & mask;
    strash_[i] = id;
  }
}

void Aig::strash_erase(std::uint32_t id) {
  const Node& n = nodes_[id];
  std::size_t hole = strash_slot(n.fanin0, n.fanin1);
  assert(strash_[hole] == id);
  // Backward shift: walk the run after the hole and pull back every entry
  // whose home slot does not lie cyclically in (hole, j], so no probe
  // chain ever crosses an empty slot.
  const std::size_t mask = strash_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; strash_[j] != 0; j = (j + 1) & mask) {
    const Node& m = nodes_[strash_[j]];
    const std::size_t home = strash_home(m.fanin0, m.fanin1, mask);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      strash_[hole] = strash_[j];
      hole = j;
    }
  }
  strash_[hole] = 0;
}

Lit Aig::lor(Lit a, Lit b) { return lit_not(land(lit_not(a), lit_not(b))); }

Lit Aig::lxor(Lit a, Lit b) {
  // a ^ b = (a | b) & ~(a & b) expressed with two ANDs + inverters:
  // ~( ~(a & ~b) & ~(~a & b) )
  return lor(land(a, lit_not(b)), land(lit_not(a), b));
}

Lit Aig::lxnor(Lit a, Lit b) { return lit_not(lxor(a, b)); }
Lit Aig::lnand(Lit a, Lit b) { return lit_not(land(a, b)); }
Lit Aig::lnor(Lit a, Lit b) { return lit_not(lor(a, b)); }

Lit Aig::lmux(Lit sel, Lit t, Lit e) {
  return lor(land(sel, t), land(lit_not(sel), e));
}

Lit Aig::lmaj(Lit a, Lit b, Lit c) {
  return lor(land(a, b), lor(land(a, c), land(b, c)));
}

namespace {

template <typename Combine>
Lit reduce_chain(std::span<const Lit> ops, Lit identity, Combine&& combine) {
  // Left-fold into a linear chain. This is deliberately NOT balanced: it is
  // how naive elaboration (and classic factored-form construction) builds
  // n-ary gates, leaving depth minimisation to the `balance` transform —
  // the interplay the paper's synthesis flows exploit.
  Lit acc = identity;
  bool first = true;
  for (Lit op : ops) {
    acc = first ? op : combine(acc, op);
    first = false;
  }
  return ops.empty() ? identity : acc;
}

}  // namespace

Lit Aig::land_n(std::span<const Lit> ops) {
  return reduce_chain(ops, kLitTrue,
                      [this](Lit a, Lit b) { return land(a, b); });
}

Lit Aig::lor_n(std::span<const Lit> ops) {
  return reduce_chain(ops, kLitFalse,
                      [this](Lit a, Lit b) { return lor(a, b); });
}

Lit Aig::lxor_n(std::span<const Lit> ops) {
  return reduce_chain(ops, kLitFalse,
                      [this](Lit a, Lit b) { return lxor(a, b); });
}

std::size_t Aig::add_po(Lit l) {
  pos_.push_back(l);
  return pos_.size() - 1;
}

std::uint32_t Aig::depth() const {
  std::uint32_t d = 0;
  for (Lit po : pos_) d = std::max(d, nodes_[lit_node(po)].level);
  return d;
}

std::vector<std::uint32_t> Aig::topo_order() const {
  std::vector<std::uint32_t> order(nodes_.size());
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

void Aig::rollback(std::size_t checkpoint) {
  assert(checkpoint >= pis_.size() + 1);
  // Oldest first: a later node of the same probe run may sit behind each
  // hole, and the backward shift pulls it forward before its own turn.
  for (std::size_t id = checkpoint; id < nodes_.size(); ++id) {
    if (is_and(static_cast<std::uint32_t>(id))) {
      strash_erase(static_cast<std::uint32_t>(id));
    }
  }
  nodes_.resize(checkpoint);
}

Aig Aig::cleanup() const {
  Aig out;
  out.name = name;
  std::vector<Lit> map(nodes_.size(), kLitInvalid);
  map[0] = kLitFalse;
  for (std::uint32_t pi : pis_) map[pi] = out.add_pi();

  // Mark reachable cone from POs.
  std::vector<char> reach(nodes_.size(), 0);
  std::vector<std::uint32_t> stack;
  for (Lit po : pos_) stack.push_back(lit_node(po));
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (reach[id]) continue;
    reach[id] = 1;
    if (is_and(id)) {
      stack.push_back(lit_node(nodes_[id].fanin0));
      stack.push_back(lit_node(nodes_[id].fanin1));
    }
  }

  // Ids are topological, so a single forward sweep rebuilds the cone.
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    if (!reach[id] || !is_and(id)) continue;
    const Node& n = nodes_[id];
    const Lit f0 = map[lit_node(n.fanin0)] ^ (n.fanin0 & 1u);
    const Lit f1 = map[lit_node(n.fanin1)] ^ (n.fanin1 & 1u);
    map[id] = out.land(f0, f1);
  }
  for (Lit po : pos_) {
    out.add_po(map[lit_node(po)] ^ (po & 1u));
  }
  return out;
}

std::string Aig::check() const {
  std::ostringstream err;
  // The table first: it must hold exactly the AND nodes, each once, within
  // its load bound, before per-node lookups may probe it.
  std::size_t entries = 0;
  for (std::uint32_t id : strash_) {
    if (id == 0) continue;
    ++entries;
    if (id >= nodes_.size() || !is_and(id)) {
      err << "strash slot holds non-AND node " << id << "\n";
    }
  }
  if (entries != num_ands()) err << "strash entry count != AND count\n";
  if ((strash_.size() & (strash_.size() - 1)) != 0 ||
      2 * entries > strash_.size()) {
    err << "strash capacity not a power of two or load above 1/2\n";
  }
  if (!err.str().empty()) return err.str();

  for (std::uint32_t id = 0; id < nodes_.size(); ++id) {
    if (!is_and(id)) continue;
    const Node& n = nodes_[id];
    if (lit_node(n.fanin0) >= id || lit_node(n.fanin1) >= id) {
      err << "node " << id << ": fanin id not smaller than node id\n";
    }
    if (n.fanin0 > n.fanin1) {
      err << "node " << id << ": fanins not normalised\n";
    }
    if (n.fanin0 == n.fanin1 || n.fanin0 == lit_not(n.fanin1)) {
      err << "node " << id << ": trivial AND\n";
    }
    if (lit_node(n.fanin0) == 0 || lit_node(n.fanin1) == 0) {
      err << "node " << id << ": constant fanin\n";
    }
    // Reachable from its home slot, so no deletion broke its probe chain.
    if (strash_[strash_slot(n.fanin0, n.fanin1)] != id) {
      err << "node " << id << ": missing/duplicate strash entry\n";
    }
    const std::uint32_t expect =
        std::max(nodes_[lit_node(n.fanin0)].level,
                 nodes_[lit_node(n.fanin1)].level) +
        1;
    if (n.level != expect) err << "node " << id << ": wrong level\n";
  }
  for (Lit po : pos_) {
    if (lit_node(po) >= nodes_.size()) err << "PO points past the graph\n";
  }
  return err.str();
}

std::size_t Aig::memory_bytes() const {
  return sizeof(Aig) + nodes_.capacity() * sizeof(Node) +
         pis_.capacity() * sizeof(std::uint32_t) +
         pos_.capacity() * sizeof(Lit) +
         strash_.capacity() * sizeof(std::uint32_t);
}

Fingerprint Aig::fingerprint() const {
  // Two structurally different hash lanes over the full structure: FNV-1a
  // and a splitmix64-style mixer, so the lanes do not share a multiplier
  // (correlated lanes would weaken the 128-bit collision claim). The graph
  // is append-only and normalised, so the node array is a canonical
  // description: equal sequences <=> equal graphs.
  std::uint64_t h0 = 1469598103934665603ull;
  std::uint64_t h1 = 0x9e3779b97f4a7c15ull;
  auto mix = [&](std::uint64_t v) {
    h0 = (h0 ^ v) * 1099511628211ull;
    h1 += v + 0x9e3779b97f4a7c15ull;
    h1 = (h1 ^ (h1 >> 30)) * 0xbf58476d1ce4e5b9ull;
    h1 = (h1 ^ (h1 >> 27)) * 0x94d049bb133111ebull;
    h1 ^= h1 >> 31;
  };
  mix(nodes_.size());
  mix(pis_.size());
  mix(pos_.size());
  for (const Node& n : nodes_) {
    mix((static_cast<std::uint64_t>(n.fanin0) << 32) | n.fanin1);
  }
  for (Lit po : pos_) mix(po);
  return {h0, h1};
}

}  // namespace flowgen::aig
