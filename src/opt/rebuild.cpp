#include "opt/rebuild.hpp"

#include <cassert>

#include "aig/stamped_slots.hpp"

namespace flowgen::opt {

using aig::Aig;
using aig::Lit;
using aig::lit_node;
using aig::make_lit;

std::vector<Lit> identity_replacements(std::size_t num_nodes) {
  std::vector<Lit> repl(num_nodes);
  for (std::size_t id = 0; id < num_nodes; ++id) {
    repl[id] = make_lit(static_cast<std::uint32_t>(id), false);
  }
  return repl;
}

Lit resolve(const std::vector<Lit>& repl, Lit l) {
  for (;;) {
    const std::uint32_t id = lit_node(l);
    if (id >= repl.size()) return l;  // appended node: identity by definition
    const Lit r = repl[id];
    if (r == make_lit(id, false)) return l;
    l = r ^ (l & 1u);
  }
}

namespace {

// Per-thread scratch of one alias-resolved walk: node marks plus the DFS
// stack, reused across calls (see aig/stamped_slots.hpp).
struct WalkScratch {
  aig::StampedSlots<std::uint8_t> marks;
  std::vector<std::uint32_t> stack;
};

constexpr std::uint8_t kVisited = 1;
constexpr std::uint8_t kInput = 2;
constexpr std::uint8_t kMffc = 4;

}  // namespace

bool cone_contains(const Aig& g, const std::vector<Lit>& repl, Lit root,
                   std::uint32_t target) {
  thread_local WalkScratch s;
  s.marks.reset(g.num_nodes());
  s.stack.assign(1, lit_node(resolve(repl, root)));
  while (!s.stack.empty()) {
    const std::uint32_t id = s.stack.back();
    s.stack.pop_back();
    if (id == target) return true;
    if (s.marks.has(id)) continue;
    s.marks.at(id) = kVisited;
    if (!g.is_and(id)) continue;
    s.stack.push_back(lit_node(resolve(repl, g.node(id).fanin0)));
    s.stack.push_back(lit_node(resolve(repl, g.node(id).fanin1)));
  }
  return false;
}

long reuse_cost(const Aig& g, const std::vector<Lit>& repl, Lit root,
                const std::vector<std::uint32_t>& inputs,
                const std::vector<std::uint32_t>& mffc) {
  thread_local WalkScratch s;
  s.marks.reset(g.num_nodes());
  for (std::uint32_t id : inputs) s.marks.at(id) |= kInput;
  for (std::uint32_t id : mffc) s.marks.at(id) |= kMffc;
  long cost = 0;
  s.stack.assign(1, lit_node(resolve(repl, root)));
  while (!s.stack.empty()) {
    const std::uint32_t id = s.stack.back();
    s.stack.pop_back();
    std::uint8_t& m = s.marks.at(id);
    if (m & kVisited) continue;
    m |= kVisited;
    if ((m & kInput) || !g.is_and(id)) continue;
    if (m & kMffc) ++cost;
    s.stack.push_back(lit_node(resolve(repl, g.node(id).fanin0)));
    s.stack.push_back(lit_node(resolve(repl, g.node(id).fanin1)));
  }
  return cost;
}

Aig apply_replacements(const Aig& g, const std::vector<Lit>& repl) {
  Aig out;
  out.name = g.name;
  std::vector<Lit> map(g.num_nodes(), aig::kLitInvalid);
  map[0] = aig::kLitFalse;
  for (std::uint32_t pi : g.pis()) map[pi] = out.add_pi();

  // Identity DP: a node is identity when it is unreplaced and its whole
  // transitive fanin is unreplaced — its effective cone is exactly its
  // original cone. Ids are topological, so one ascending pass suffices.
  std::vector<char> identity(g.num_nodes(), 0);
  identity[0] = 1;
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (g.is_pi(id)) {
      identity[id] = 1;
    } else if (g.is_and(id)) {
      const bool unreplaced =
          id >= repl.size() || repl[id] == make_lit(id, false);
      const auto& n = g.node(id);
      identity[id] = unreplaced && identity[lit_node(n.fanin0)] &&
                     identity[lit_node(n.fanin1)];
    }
  }

  // Reachability over the effective (alias-resolved) graph, so the sweep
  // below emits no dead logic.
  std::vector<char> needed(g.num_nodes(), 0);
  std::vector<std::uint32_t> stack;
  for (Lit po : g.pos()) stack.push_back(lit_node(resolve(repl, po)));
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    if (needed[id]) continue;
    needed[id] = 1;
    if (!g.is_and(id)) continue;
    stack.push_back(lit_node(resolve(repl, g.node(id).fanin0)));
    stack.push_back(lit_node(resolve(repl, g.node(id).fanin1)));
  }

  // Identity sweep: reachable untouched cones keep their relative order.
  // Their fanins are identity nodes with smaller ids, so the ascending scan
  // is topological; the original graph is strash-canonical, so every land()
  // here creates a fresh node (no hits, no simplifications).
  for (std::uint32_t id = 0; id < g.num_nodes(); ++id) {
    if (!needed[id] || !identity[id] || !g.is_and(id)) continue;
    const auto& n = g.node(id);
    const Lit r0 = map[lit_node(n.fanin0)];
    const Lit r1 = map[lit_node(n.fanin1)];
    assert(r0 != aig::kLitInvalid && r1 != aig::kLitInvalid);
    map[id] = out.land(r0 ^ (n.fanin0 & 1u), r1 ^ (n.fanin1 & 1u));
  }

  // Replacement subgraphs carry higher ids than the nodes that alias to
  // them, so a plain ascending sweep is not topological for the effective
  // (alias-resolved) graph. Build the remaining (damaged) regions with an
  // explicit DFS; the effective graph is acyclic because replacements only
  // reference nodes whose aliases were already final.
  auto build_cone = [&](Lit root) {
    stack.push_back(lit_node(resolve(repl, root)));
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      if (map[id] != aig::kLitInvalid) {
        stack.pop_back();
        continue;
      }
      assert(g.is_and(id));
      const Lit f0 = resolve(repl, g.node(id).fanin0);
      const Lit f1 = resolve(repl, g.node(id).fanin1);
      const Lit r0 = map[lit_node(f0)];
      const Lit r1 = map[lit_node(f1)];
      if (r0 != aig::kLitInvalid && r1 != aig::kLitInvalid) {
        map[id] = out.land(r0 ^ (f0 & 1u), r1 ^ (f1 & 1u));
        stack.pop_back();
      } else {
        if (r0 == aig::kLitInvalid) stack.push_back(lit_node(f0));
        if (r1 == aig::kLitInvalid) stack.push_back(lit_node(f1));
      }
    }
  };

  for (Lit po : g.pos()) build_cone(po);
  for (Lit po : g.pos()) {
    const Lit r = resolve(repl, po);
    assert(map[lit_node(r)] != aig::kLitInvalid);
    out.add_po(map[lit_node(r)] ^ (r & 1u));
  }
  return out;
}

}  // namespace flowgen::opt
