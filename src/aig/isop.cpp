#include "aig/isop.hpp"

#include <bit>
#include <cassert>

namespace flowgen::aig {

unsigned Cube::num_literals() const {
  return static_cast<unsigned>(std::popcount(pos) + std::popcount(neg));
}

namespace {

/// Word-parallel Minato-Morreale over functions of at most 6 live
/// variables, packed into a single uint64 — no TruthTable temporaries, no
/// allocation except the output cubes. `full` is the valid-bit mask
/// (tail_mask of the function width, all-ones for >= 6 vars). Cubes are
/// appended to `out` in exactly the order the generic recursion emits them;
/// the caller patches the split literal into its range (see below), which
/// keeps cube order — and therefore downstream factoring and QoR —
/// bit-identical to the multi-word path. Returns the cover word.
std::uint64_t isop_word_rec(std::uint64_t lower, std::uint64_t upper,
                            std::uint64_t full, unsigned num_top_vars,
                            Sop& out) {
  if (lower == 0) return 0;
  if (upper == full) {
    out.push_back(Cube{});
    return full;
  }

  // Pick the highest variable either bound still depends on.
  unsigned var = 0;
  bool found = false;
  for (unsigned v = num_top_vars; v-- > 0;) {
    const unsigned shift = 1u << v;
    const std::uint64_t off = ~kVarMask[v];
    if ((((lower >> shift) ^ lower) & off) ||
        (((upper >> shift) ^ upper) & off)) {
      var = v;
      found = true;
      break;
    }
  }
  assert(found && "non-constant bounds must depend on some variable");
  (void)found;

  const unsigned shift = 1u << var;
  const std::uint64_t mask = kVarMask[var];
  const auto cof0 = [&](std::uint64_t t) {
    const std::uint64_t low = t & ~mask;
    return low | (low << shift);
  };
  const auto cof1 = [&](std::uint64_t t) {
    const std::uint64_t high = t & mask;
    return high | (high >> shift);
  };
  const std::uint64_t l0 = cof0(lower);
  const std::uint64_t l1 = cof1(lower);
  const std::uint64_t u0 = cof0(upper);
  const std::uint64_t u1 = cof1(upper);

  // Minterms of each cofactor that can only be covered on that side. The
  // recursion appends each side's cubes contiguously; the split literal is
  // OR-ed into exactly that range afterwards.
  const std::size_t neg_begin = out.size();
  const std::uint64_t neg_cover = isop_word_rec(l0 & ~u1, u0, full, var, out);
  const std::size_t pos_begin = out.size();
  const std::uint64_t pos_cover = isop_word_rec(l1 & ~u0, u1, full, var, out);
  const std::size_t both_begin = out.size();
  for (std::size_t i = neg_begin; i < pos_begin; ++i) {
    out[i].neg |= (1u << var);
  }
  for (std::size_t i = pos_begin; i < both_begin; ++i) {
    out[i].pos |= (1u << var);
  }

  // What remains must be covered by cubes independent of `var`.
  const std::uint64_t rest = (l0 & ~neg_cover) | (l1 & ~pos_cover);
  const std::uint64_t both_cover =
      isop_word_rec(rest, u0 & u1, full, var, out);

  return (mask & pos_cover) | (~mask & neg_cover) | both_cover;
}

/// Minato-Morreale: append an irredundant SOP S with L <= S <= U to `out`
/// and return the function S actually covers. `num_top_vars` limits the
/// variables that may still appear in cubes at this recursion depth. Like
/// the word kernel, each side's cubes are appended contiguously and the
/// split literal is OR-ed into its range afterwards, the order in which a
/// concatenation of the sides' results would list them.
TruthTable isop_rec(const TruthTable& lower, const TruthTable& upper,
                    unsigned num_top_vars, Sop& out) {
  const unsigned n = lower.num_vars();
  if (num_top_vars <= 6) {
    // All live variables fit one word: the bounds are independent of x_6..
    // (every word equals word 0), so switch to the allocation-free
    // single-uint64 kernel — even 16-var refactor cones spend the bulk of
    // their recursion tree in there.
    const std::uint64_t full =
        n >= 6 ? ~0ull : (std::uint64_t{1} << (std::size_t{1} << n)) - 1;
    const std::uint64_t cover = isop_word_rec(
        lower.low_word(), upper.low_word(), full, num_top_vars, out);
    return TruthTable::broadcast(n, cover);
  }
  if (lower.is_const0()) return TruthTable::constant(n, false);
  if (upper.is_const1()) {
    out.push_back(Cube{});
    return TruthTable::constant(n, true);
  }

  // Pick the highest variable either bound still depends on.
  unsigned var = 0;
  bool found = false;
  for (unsigned v = num_top_vars; v-- > 0;) {
    if (lower.depends_on(v) || upper.depends_on(v)) {
      var = v;
      found = true;
      break;
    }
  }
  assert(found && "non-constant bounds must depend on some variable");
  (void)found;

  const TruthTable l0 = lower.cofactor0(var);
  const TruthTable l1 = lower.cofactor1(var);
  const TruthTable u0 = upper.cofactor0(var);
  const TruthTable u1 = upper.cofactor1(var);

  // Minterms of each cofactor that can only be covered on that side.
  const std::size_t neg_begin = out.size();
  const TruthTable neg_cover =
      isop_rec(TruthTable::and_compl(l0, u1), u0, var, out);
  const std::size_t pos_begin = out.size();
  const TruthTable pos_cover =
      isop_rec(TruthTable::and_compl(l1, u0), u1, var, out);
  const std::size_t both_begin = out.size();
  for (std::size_t i = neg_begin; i < pos_begin; ++i) {
    out[i].neg |= (1u << var);
  }
  for (std::size_t i = pos_begin; i < both_begin; ++i) {
    out[i].pos |= (1u << var);
  }

  // What remains must be covered by cubes independent of `var`.
  TruthTable rest = TruthTable::and_compl(l0, neg_cover);
  rest |= TruthTable::and_compl(l1, pos_cover);
  const TruthTable both_cover = isop_rec(rest, u0 & u1, var, out);

  TruthTable cover = TruthTable::mux_var(var, pos_cover, neg_cover);
  cover |= both_cover;
  return cover;
}

}  // namespace

Sop isop(const TruthTable& tt) {
  thread_local Sop cubes;  // grown once per thread, copied out exactly
  cubes.clear();
  [[maybe_unused]] const TruthTable cover =
      isop_rec(tt, tt, tt.num_vars(), cubes);
  assert(cover == tt && "ISOP must cover the function exactly");
  return Sop(cubes.begin(), cubes.end());
}

TruthTable sop_to_truth(const Sop& sop, unsigned num_vars) {
  TruthTable out = TruthTable::constant(num_vars, false);
  for (const Cube& c : sop) {
    TruthTable cube_tt = TruthTable::constant(num_vars, true);
    for (unsigned v = 0; v < num_vars; ++v) {
      if (c.pos & (1u << v)) cube_tt = cube_tt & TruthTable::variable(num_vars, v);
      if (c.neg & (1u << v)) cube_tt = cube_tt & ~TruthTable::variable(num_vars, v);
    }
    out = out | cube_tt;
  }
  return out;
}

std::size_t sop_literals(const Sop& sop) {
  std::size_t n = 0;
  for (const Cube& c : sop) n += c.num_literals();
  return n;
}

std::string sop_to_string(const Sop& sop, unsigned num_vars) {
  if (sop.empty()) return "0";
  std::string out;
  for (std::size_t i = 0; i < sop.size(); ++i) {
    if (i) out += " + ";
    const Cube& c = sop[i];
    if (c.pos == 0 && c.neg == 0) {
      out += "1";
      continue;
    }
    for (unsigned v = 0; v < num_vars; ++v) {
      if (c.pos & (1u << v)) out += static_cast<char>('a' + v);
      if (c.neg & (1u << v)) {
        out += static_cast<char>('a' + v);
        out += '\'';
      }
    }
  }
  return out;
}

}  // namespace flowgen::aig
