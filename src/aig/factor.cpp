#include "aig/factor.hpp"

#include <algorithm>
#include <bit>
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

/// The literals of a cube as one word: bit v is positive literal v, bit
/// 32 + v negative literal v.
std::uint64_t literal_lanes(const Cube& c) {
  return c.pos | std::uint64_t{c.neg} << 32;
}

/// True when a cube has two or more literals. The build has no popcount
/// instruction, and std::popcount would be a library call.
bool has_two_literals(std::uint64_t lanes) {
  return (lanes & (lanes - 1)) != 0;
}

/// AND-expression for a single cube: its literals by ascending variable.
void cube_expr(const Cube& cube, std::vector<Node>& out) {
  std::size_t lits = 0;
  for (std::uint32_t vars = cube.pos | cube.neg; vars != 0;
       vars &= vars - 1) {
    const auto v = static_cast<unsigned>(std::countr_zero(vars));
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

/// Per-literal occurrence counts of a cube list, bit-sliced: lane v of
/// each slice is positive literal v, lane 32 + v negative literal v, and
/// slice s holds bit s of every lane's count.
struct LiteralCounts {
  std::uint64_t slices[32] = {};
  unsigned num_slices = 0;  ///< slices past it are all zero

  void add(std::uint64_t lanes) {
    for (unsigned s = 0; lanes != 0; ++s) {
      const std::uint64_t carry = slices[s] & lanes;
      slices[s] ^= lanes;
      lanes = carry;
      if (s == num_slices) ++num_slices;
    }
  }
};

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

  // Count each literal over the cubes of two or more literals (dividing a
  // single-literal cube by its literal gains nothing). A tautology cube
  // swallows everything.
  LiteralCounts counts;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t lanes = literal_lanes(cubes[i]);
    if (lanes == 0) {
      out.push_back(Node{Kind::kConst1, false, 0, 0});
      return;
    }
    if (has_two_literals(lanes)) counts.add(lanes);
  }
  // The most frequent literal, first by ascending variable, the positive
  // one first, among those in two or more cubes: narrow the lanes to the
  // largest count slice by slice from the top.
  std::uint64_t best = 0;
  for (unsigned s = 0; s < counts.num_slices; ++s) best |= counts.slices[s];
  bool shared = false;
  for (unsigned s = counts.num_slices; s-- > 0;) {
    const std::uint64_t lanes = best & counts.slices[s];
    if (lanes == 0) continue;
    best = lanes;
    shared |= s > 0;
  }
  if (!shared) {
    // No shared literal: plain OR of cube ANDs.
    for (std::size_t i = begin; i < end; ++i) cube_expr(cubes[i], out);
    out.push_back(op_node(Kind::kOr, end - begin));
    return;
  }
  const auto pos_var =
      static_cast<unsigned>(std::countr_zero(static_cast<std::uint32_t>(best)));
  const auto neg_var = static_cast<unsigned>(
      std::countr_zero(static_cast<std::uint32_t>(best >> 32)));
  const bool negated = neg_var < pos_var;
  const unsigned var = negated ? neg_var : pos_var;
  std::size_t quotient_size = 0;
  for (unsigned s = 0; s < counts.num_slices; ++s) {
    quotient_size |= ((counts.slices[s] >> (var + (negated ? 32 : 0))) & 1)
                     << s;
  }

  // Quotient cubes (the literal divided out), then the remainder, each in
  // input order.
  const std::uint32_t bit = 1u << var;
  const std::size_t top = cubes.size();
  cubes.resize(top + (end - begin));
  std::size_t quotient = top;
  std::size_t remainder = top + quotient_size;
  for (std::size_t i = begin; i < end; ++i) {
    Cube c = cubes[i];
    std::uint32_t& lits = negated ? c.neg : c.pos;
    if ((lits & bit) && has_two_literals(literal_lanes(c))) {
      lits &= ~bit;
      cubes[quotient++] = c;
    } else {
      cubes[remainder++] = c;
    }
  }
  assert(quotient == top + quotient_size && quotient_size >= 2);
  const std::size_t quotient_end = quotient;
  const std::size_t remainder_end = remainder;

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

void append_factored(Sop& cubes, std::vector<FactorExpr::Node>& out) {
  factor_rec(cubes, 0, cubes.size(), out);
}

FactorExpr factor_sop(const Sop& sop) {
  FactorExpr e;
  // Factoring never adds literals, and every operator has at least two
  // operands, so the expression has at most 2 * literals + 1 nodes.
  e.nodes.reserve(2 * sop_literals(sop) + 1);
  thread_local Sop cubes;  // the recursion's cube stack, reused
  cubes.assign(sop.begin(), sop.end());
  append_factored(cubes, e.nodes);
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
