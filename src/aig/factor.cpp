#include "aig/factor.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <map>

namespace flowgen::aig {

std::size_t FactorExpr::num_literals() const {
  std::size_t n = 0;
  for (const Node& node : nodes) n += node.kind == Kind::kLiteral;
  return n;
}

namespace {

using Node = FactorExpr::Node;
using Kind = FactorExpr::Kind;

Node literal_node(unsigned var, bool negated) {
  return Node{Kind::kLiteral, negated, static_cast<std::uint8_t>(var), 0};
}

Node op_node(Kind kind, std::size_t arity) {
  return Node{kind, false, 0, static_cast<std::uint32_t>(arity)};
}

/// AND-expression for a single cube.
void cube_expr(const Cube& cube, std::vector<Node>& out) {
  std::size_t lits = 0;
  for (unsigned v = 0; v < 32; ++v) {
    if (cube.pos & (1u << v)) {
      out.push_back(literal_node(v, false));
      ++lits;
    }
    if (cube.neg & (1u << v)) {
      out.push_back(literal_node(v, true));
      ++lits;
    }
  }
  if (lits == 0) out.push_back(Node{Kind::kConst1, false, 0, 0});
  if (lits >= 2) out.push_back(op_node(Kind::kAnd, lits));
}

/// Most frequent literal among cubes with >= 2 literals; returns false when
/// no literal occurs in two or more cubes (nothing left to factor).
bool best_literal(std::span<const Cube> sop, unsigned& var, bool& negated) {
  std::array<unsigned, 32> pos_count{};
  std::array<unsigned, 32> neg_count{};
  for (const Cube& c : sop) {
    if (c.num_literals() < 2) continue;  // factoring it out gains nothing
    for (unsigned v = 0; v < 32; ++v) {
      if (c.pos & (1u << v)) ++pos_count[v];
      if (c.neg & (1u << v)) ++neg_count[v];
    }
  }
  unsigned best = 1;
  bool found = false;
  for (unsigned v = 0; v < 32; ++v) {
    if (pos_count[v] > best) {
      best = pos_count[v];
      var = v;
      negated = false;
      found = true;
    }
    if (neg_count[v] > best) {
      best = neg_count[v];
      var = v;
      negated = true;
      found = true;
    }
  }
  return found;
}

/// Quick-factor cubes[begin, end) into `out`. The cube lists of the
/// recursion (quotients and remainders) are pushed onto `cubes` above its
/// current top and popped on return, so the ranges are indices: a push
/// may move the array.
void factor_rec(Sop& cubes, std::size_t begin, std::size_t end,
                std::vector<Node>& out) {
  if (begin == end) {
    out.push_back(Node{Kind::kConst0, false, 0, 0});
    return;
  }
  if (end - begin == 1) {
    cube_expr(cubes[begin], out);
    return;
  }
  // Tautology cube swallows everything.
  for (std::size_t i = begin; i < end; ++i) {
    if (cubes[i].pos == 0 && cubes[i].neg == 0) {
      out.push_back(Node{Kind::kConst1, false, 0, 0});
      return;
    }
  }

  unsigned var = 0;
  bool negated = false;
  if (!best_literal({cubes.data() + begin, end - begin}, var, negated)) {
    // No shared literal: plain OR of cube ANDs.
    for (std::size_t i = begin; i < end; ++i) cube_expr(cubes[i], out);
    out.push_back(op_node(Kind::kOr, end - begin));
    return;
  }

  // Quotient cubes (the literal divided out), then the remainder, each in
  // input order.
  const std::uint32_t bit = 1u << var;
  auto divisible = [&](const Cube& c) {
    return (negated ? (c.neg & bit) : (c.pos & bit)) && c.num_literals() >= 2;
  };
  const std::size_t top = cubes.size();
  for (std::size_t i = begin; i < end; ++i) {
    Cube q = cubes[i];
    if (!divisible(q)) continue;
    (negated ? q.neg : q.pos) &= ~bit;
    cubes.push_back(q);
  }
  const std::size_t quotient_end = cubes.size();
  for (std::size_t i = begin; i < end; ++i) {
    const Cube c = cubes[i];
    if (!divisible(c)) cubes.push_back(c);
  }
  const std::size_t remainder_end = cubes.size();
  assert(quotient_end - top >= 2);

  // F = literal * factor(quotient) + factor(remainder)
  out.push_back(literal_node(var, negated));
  factor_rec(cubes, top, quotient_end, out);
  out.push_back(op_node(Kind::kAnd, 2));
  if (remainder_end > quotient_end) {
    factor_rec(cubes, quotient_end, remainder_end, out);
    out.push_back(op_node(Kind::kOr, 2));
  }
  cubes.resize(top);
}

}  // namespace

FactorExpr factor_sop(const Sop& sop) {
  FactorExpr e;
  // Factoring never adds literals, and every operator has at least two
  // operands, so the expression has at most 2 * literals + 1 nodes.
  e.nodes.reserve(2 * sop_literals(sop) + 1);
  thread_local Sop cubes;  // the recursion's cube stack, reused
  cubes.assign(sop.begin(), sop.end());
  factor_rec(cubes, 0, cubes.size(), e.nodes);
  return e;
}

Lit build_factored(Aig& aig, const FactorExpr& expr,
                   std::span<const Lit> inputs, std::size_t max_new_nodes) {
  if (expr.nodes.empty()) return kLitFalse;
  const std::size_t start = aig.checkpoint();
  // Postfix evaluation: operands are built left to right before the
  // operator folds them, the land() order of a recursive build.
  thread_local std::vector<Lit> stack;  // reused across calls
  stack.clear();
  for (const Node& n : expr.nodes) {
    switch (n.kind) {
      case Kind::kConst0:
        stack.push_back(kLitFalse);
        break;
      case Kind::kConst1:
        stack.push_back(kLitTrue);
        break;
      case Kind::kLiteral:
        assert(n.var < inputs.size());
        stack.push_back(inputs[n.var] ^ static_cast<Lit>(n.negated));
        break;
      case Kind::kAnd:
      case Kind::kOr: {
        const std::size_t first = stack.size() - n.arity;
        const std::span<const Lit> ops(stack.data() + first, n.arity);
        const Lit l =
            n.kind == Kind::kAnd ? aig.land_n(ops) : aig.lor_n(ops);
        if (aig.num_nodes() - start > max_new_nodes) {
          aig.rollback(start);
          return kLitInvalid;
        }
        stack.resize(first);
        stack.push_back(l);
        break;
      }
    }
  }
  assert(stack.size() == 1);
  return stack.back();
}

namespace {

Lit build_shannon_rec(
    Aig& aig, const TruthTable& tt, std::span<const Lit> inputs,
    unsigned top_var,
    std::map<TruthTable, Lit>& memo) {
  if (tt.is_const0()) return kLitFalse;
  if (tt.is_const1()) return kLitTrue;
  if (const auto it = memo.find(tt); it != memo.end()) {
    return it->second;
  }
  // Expand on the highest essential variable.
  unsigned var = 0;
  bool found = false;
  for (unsigned v = top_var; v-- > 0;) {
    if (tt.depends_on(v)) {
      var = v;
      found = true;
      break;
    }
  }
  assert(found);
  (void)found;
  const Lit hi = build_shannon_rec(aig, tt.cofactor1(var), inputs, var, memo);
  const Lit lo = build_shannon_rec(aig, tt.cofactor0(var), inputs, var, memo);
  const Lit result = aig.lmux(inputs[var], hi, lo);
  memo.emplace(tt, result);
  return result;
}

}  // namespace

Lit build_shannon(Aig& aig, const TruthTable& tt,
                  std::span<const Lit> inputs) {
  assert(inputs.size() >= tt.num_vars());
  std::map<TruthTable, Lit> memo;
  return build_shannon_rec(aig, tt, inputs, tt.num_vars(), memo);
}

Lit build_from_truth(Aig& aig, const TruthTable& tt,
                     std::span<const Lit> inputs) {
  assert(inputs.size() >= tt.num_vars());
  if (tt.is_const0()) return kLitFalse;
  if (tt.is_const1()) return kLitTrue;

  const FactorExpr pos = factor_sop(isop(tt));
  const FactorExpr neg = factor_sop(isop(~tt));
  if (pos.num_literals() <= neg.num_literals()) {
    return build_factored(aig, pos, inputs);
  }
  return lit_not(build_factored(aig, neg, inputs));
}

}  // namespace flowgen::aig
