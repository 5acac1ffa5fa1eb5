#include "aig/isop.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace flowgen::aig {

unsigned Cube::num_literals() const {
  return static_cast<unsigned>(std::popcount(pos) + std::popcount(neg));
}

namespace {

Cube with_literal(Cube cube, unsigned var, bool negated) {
  (negated ? cube.neg : cube.pos) |= 1u << var;
  return cube;
}

/// Word-parallel Minato-Morreale over functions of at most 6 live
/// variables, packed into a single uint64 — no TruthTable temporaries, no
/// allocation except the output cubes. `full` is the valid-bit mask
/// (tail_mask of the function width, all-ones for >= 6 vars). `prefix`
/// holds the split literals of the enclosing calls: every cube this call
/// emits extends it. Cubes are appended to `out` negative side first, then
/// positive side, then the side independent of the split variable — the
/// order that cube lists, factoring and QoR are pinned to. Returns the
/// cover word.
std::uint64_t isop_word_rec(std::uint64_t lower, std::uint64_t upper,
                            std::uint64_t full, unsigned num_top_vars,
                            Cube prefix, Sop& out) {
  if (lower == 0) return 0;
  if (upper == full) {
    out.push_back(prefix);
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

  // Minterms of each cofactor that can only be covered on that side.
  const std::uint64_t neg_cover = isop_word_rec(
      l0 & ~u1, u0, full, var, with_literal(prefix, var, true), out);
  const std::uint64_t pos_cover = isop_word_rec(
      l1 & ~u0, u1, full, var, with_literal(prefix, var, false), out);

  // What remains must be covered by cubes independent of `var`.
  const std::uint64_t rest = (l0 & ~neg_cover) | (l1 & ~pos_cover);
  const std::uint64_t both_cover =
      isop_word_rec(rest, u0 & u1, full, var, prefix, out);

  return (mask & pos_cover) | (~mask & neg_cover) | both_cover;
}

/// Minato-Morreale over bounds of num_top_vars > 6 variables that are
/// independent of x_{num_top_vars}.. (true of every bound the recursion
/// passes down), so each is stored as its first 2^(num_top_vars - 6) words:
/// the cofactors on x_v (v >= 6) of such a table are its two halves of
/// 2^(v - 6) words, and need no copy. Appends the cubes of an irredundant
/// SOP S with L <= S <= U, each extending `prefix`, to `out` in the order
/// of the word kernel, and writes the cover's words to `cover`. The sides'
/// bounds and covers live in `scratch`, which must hold
/// 5 * 2^(num_top_vars - 6) words (each level takes at most half of that
/// and hands the rest down).
void isop_words_rec(const std::uint64_t* lower, const std::uint64_t* upper,
                    unsigned num_top_vars, std::uint64_t* cover,
                    std::uint64_t* scratch, Cube prefix, Sop& out) {
  const std::size_t nw = std::size_t{1} << (num_top_vars - 6);
  bool lower_zero = true;
  bool upper_one = true;
  for (std::size_t i = 0; i < nw; ++i) {
    lower_zero &= lower[i] == 0;
    upper_one &= upper[i] == ~0ull;
  }
  if (lower_zero) {
    std::fill(cover, cover + nw, 0);
    return;
  }
  if (upper_one) {
    out.push_back(prefix);
    std::fill(cover, cover + nw, ~0ull);
    return;
  }

  // The highest variable either bound depends on; when it is below x_6
  // every word is the same and the word kernel takes over, choosing the
  // same variable.
  unsigned var = 0;
  for (unsigned v = num_top_vars; v-- > 6 && var == 0;) {
    const std::size_t half = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < nw; ++i) {
      if ((i & half) == 0 &&
          (lower[i] != lower[i + half] || upper[i] != upper[i + half])) {
        var = v;
        break;
      }
    }
  }
  if (var == 0) {
    const std::uint64_t word =
        isop_word_rec(lower[0], upper[0], ~0ull, 6, prefix, out);
    std::fill(cover, cover + nw, word);
    return;
  }

  // Cofactors: l0 = lower[0, half), l1 = lower[half, 2 half), and so on;
  // both bounds are independent of the variables above `var`.
  const std::size_t half = std::size_t{1} << (var - 6);
  const std::uint64_t* l0 = lower;
  const std::uint64_t* l1 = lower + half;
  const std::uint64_t* u0 = upper;
  const std::uint64_t* u1 = upper + half;
  const Cube neg_prefix = with_literal(prefix, var, true);
  const Cube pos_prefix = with_literal(prefix, var, false);
  if (var == 6) {
    // One word per side: straight into the word kernel.
    const std::uint64_t neg_cover =
        isop_word_rec(l0[0] & ~u1[0], u0[0], ~0ull, 6, neg_prefix, out);
    const std::uint64_t pos_cover =
        isop_word_rec(l1[0] & ~u0[0], u1[0], ~0ull, 6, pos_prefix, out);
    const std::uint64_t both_cover =
        isop_word_rec((l0[0] & ~neg_cover) | (l1[0] & ~pos_cover),
                      u0[0] & u1[0], ~0ull, 6, prefix, out);
    cover[0] = neg_cover | both_cover;
    cover[1] = pos_cover | both_cover;
  } else {
    std::uint64_t* side_lower = scratch;  // then the both-side lower
    std::uint64_t* side_upper = scratch + half;  // the both-side upper
    std::uint64_t* neg_cover = scratch + 2 * half;
    std::uint64_t* pos_cover = scratch + 3 * half;
    std::uint64_t* both_cover = scratch + 4 * half;
    std::uint64_t* below = scratch + 5 * half;
    for (std::size_t i = 0; i < half; ++i) side_lower[i] = l0[i] & ~u1[i];
    isop_words_rec(side_lower, u0, var, neg_cover, below, neg_prefix, out);
    for (std::size_t i = 0; i < half; ++i) side_lower[i] = l1[i] & ~u0[i];
    isop_words_rec(side_lower, u1, var, pos_cover, below, pos_prefix, out);
    for (std::size_t i = 0; i < half; ++i) {
      side_lower[i] = (l0[i] & ~neg_cover[i]) | (l1[i] & ~pos_cover[i]);
      side_upper[i] = u0[i] & u1[i];
    }
    isop_words_rec(side_lower, side_upper, var, both_cover, below, prefix,
                   out);
    for (std::size_t i = 0; i < half; ++i) {
      cover[i] = neg_cover[i] | both_cover[i];
      cover[half + i] = pos_cover[i] | both_cover[i];
    }
  }
  // The cover is independent of the variables above `var`: repeat it.
  for (std::size_t i = 2 * half; i < nw; ++i) cover[i] = cover[i - 2 * half];
}

}  // namespace

void append_isop(const TruthTable& tt, bool complement, Sop& out) {
  const unsigned n = tt.num_vars();
  const std::uint64_t flip = complement ? ~0ull : 0;
  if (n <= 6) {
    const std::uint64_t full =
        n == 6 ? ~0ull : (std::uint64_t{1} << (std::size_t{1} << n)) - 1;
    const std::uint64_t f = (tt.low_word() ^ flip) & full;
    [[maybe_unused]] const std::uint64_t cover =
        isop_word_rec(f, f, full, n, Cube{}, out);
    assert(cover == f && "ISOP must cover the function exactly");
    return;
  }
  // The function, its cover and the recursion's scratch on one per-thread
  // word stack, grown to the widest table seen.
  const std::span<const std::uint64_t> words = tt.words();
  const std::size_t nw = words.size();
  thread_local std::vector<std::uint64_t> stack;
  if (stack.size() < 7 * nw) stack.resize(7 * nw);
  std::uint64_t* f = stack.data();
  std::uint64_t* cover = f + nw;
  for (std::size_t i = 0; i < nw; ++i) f[i] = words[i] ^ flip;
  isop_words_rec(f, f, n, cover, cover + nw, Cube{}, out);
  assert(std::equal(f, f + nw, cover) &&
         "ISOP must cover the function exactly");
}

Sop isop(const TruthTable& tt) {
  thread_local Sop cubes;  // grown once per thread, copied out exactly
  cubes.clear();
  append_isop(tt, false, cubes);
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
