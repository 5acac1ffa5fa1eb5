#include "opt/balance.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace flowgen::opt {

using aig::Aig;
using aig::Lit;
using aig::lit_is_compl;
using aig::lit_node;
using aig::lit_not;

namespace {

/// Two-phase tree balancing, as in ABC: a positive literal of an AND node
/// roots an AND-supergate (expanded through non-complemented, single-fanout
/// AND fanins); a complemented literal roots an OR-supergate (De Morgan:
/// ~(a & b) = ~a | ~b, expanded through complemented single-fanout AND
/// literals). Each supergate is rebuilt pairing the two shallowest operands
/// first, which minimises tree depth.
///
/// Every supergate on the recursion path keeps its operands in one shared
/// stack (`stack_`), innermost last, so no supergate allocates: its region
/// holds the collected old operands, then their built literals, then the
/// min-heap that pairs them.
class Balancer {
public:
  explicit Balancer(const Aig& in) : in_(in) {
    map_and_.assign(in.num_nodes(), aig::kLitInvalid);
    map_or_.assign(in.num_nodes(), aig::kLitInvalid);
  }

  Aig run() {
    out_.name = in_.name;
    pi_lookup_.assign(in_.num_nodes(), aig::kLitInvalid);
    for (std::uint32_t pi : in_.pis()) pi_lookup_[pi] = out_.add_pi();
    for (Lit po : in_.pos()) out_.add_po(build(po));
    return std::move(out_);
  }

private:
  bool expandable(Lit e, bool or_phase) const {
    // Delay-driven balancing expands through shared (multi-fanout) nodes
    // too, duplicating their logic into each supergate: depth drops at the
    // cost of area — the area/delay trade-off that distinguishes
    // balance-heavy flow suffixes from rewrite/refactor-heavy ones.
    const std::uint32_t f = lit_node(e);
    return lit_is_compl(e) == or_phase && in_.is_and(f);
  }

  /// Collect the operand literals of the supergate rooted at literal
  /// `root` in the given phase onto the stack. For the AND phase operands
  /// are AND-ed; for the OR phase (root complemented) the *complements* of
  /// the collected fanins are OR-ed.
  void collect(Lit edge, bool or_phase) {
    if (expandable(edge, or_phase)) {
      const auto& n = in_.node(lit_node(edge));
      collect(or_phase ? lit_not(n.fanin0) : n.fanin0, or_phase);
      collect(or_phase ? lit_not(n.fanin1) : n.fanin1, or_phase);
    } else {
      stack_.push_back(edge);
    }
  }

  /// Heap entry: level in the high half, literal in the low half, so the
  /// integer order is the (level, literal) order.
  std::uint64_t entry(Lit l) const {
    return (std::uint64_t{out_.node(lit_node(l)).level} << 32) | l;
  }

  Lit build(Lit old) {
    const std::uint32_t id = lit_node(old);
    if (!in_.is_and(id)) {
      const Lit base = id == 0 ? aig::kLitFalse : pi_of(id);
      return base ^ (old & 1u);
    }
    const bool or_phase = lit_is_compl(old);
    std::vector<Lit>& memo = or_phase ? map_or_ : map_and_;
    if (memo[id] != aig::kLitInvalid) return memo[id];

    // Operand list in the *old* graph: stack_[base, end).
    const std::size_t base = stack_.size();
    const auto& n = in_.node(id);
    if (or_phase) {
      collect(lit_not(n.fanin0), true);
      collect(lit_not(n.fanin1), true);
    } else {
      collect(n.fanin0, false);
      collect(n.fanin1, false);
    }

    // Simplify the operand multiset.
    std::sort(stack_.begin() + base, stack_.end());
    stack_.erase(std::unique(stack_.begin() + base, stack_.end()),
                 stack_.end());
    bool annihilates = false;
    for (std::size_t i = base; i + 1 < stack_.size(); ++i) {
      if (stack_[i] == lit_not(stack_[i + 1])) {
        annihilates = true;  // x & ~x = 0  /  x | ~x = 1
        break;
      }
    }
    if (annihilates) {
      stack_.resize(base);
      memo[id] = or_phase ? aig::kLitTrue : aig::kLitFalse;
      return memo[id];
    }

    // Build operands recursively in order (each build leaves the stack as
    // it found it), then combine two shallowest first. With distinct
    // (level, literal) entries the pop order is fixed, whatever the heap.
    for (std::size_t i = base; i < stack_.size(); ++i) {
      const Lit built = build(static_cast<Lit>(stack_[i]));
      stack_[i] = entry(built);
    }
    const auto heap_begin = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    std::make_heap(heap_begin, stack_.end(), std::greater<>{});
    while (stack_.size() - base > 1) {
      std::pop_heap(heap_begin, stack_.end(), std::greater<>{});
      const Lit a = static_cast<Lit>(stack_.back());
      stack_.pop_back();
      std::pop_heap(heap_begin, stack_.end(), std::greater<>{});
      const Lit b = static_cast<Lit>(stack_.back());
      stack_.pop_back();
      const Lit c = or_phase ? out_.lor(a, b) : out_.land(a, b);
      stack_.push_back(entry(c));
      std::push_heap(heap_begin, stack_.end(), std::greater<>{});
    }
    memo[id] = static_cast<Lit>(stack_[base]);
    stack_.resize(base);
    return memo[id];
  }

  Lit pi_of(std::uint32_t id) const { return pi_lookup_[id]; }

  const Aig& in_;
  Aig out_;
  std::vector<std::uint64_t> stack_;  ///< operand regions, see class comment
  std::vector<Lit> pi_lookup_;
  std::vector<Lit> map_and_;
  std::vector<Lit> map_or_;
};

}  // namespace

Aig balance(const Aig& in) {
  Balancer b(in);
  return b.run();
}

}  // namespace flowgen::opt
