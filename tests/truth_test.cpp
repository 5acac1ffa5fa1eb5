#include "aig/truth.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace flowgen::aig {
namespace {

TruthTable random_tt(unsigned nv, util::Rng& rng) {
  TruthTable t(nv);
  for (std::size_t m = 0; m < t.num_bits(); ++m) t.set_bit(m, rng.chance(0.5));
  return t;
}

TEST(TruthTest, ConstantAndVariable) {
  const TruthTable zero = TruthTable::constant(3, false);
  const TruthTable one = TruthTable::constant(3, true);
  EXPECT_TRUE(zero.is_const0());
  EXPECT_TRUE(one.is_const1());
  EXPECT_EQ(one.count_ones(), 8u);

  const TruthTable x1 = TruthTable::variable(3, 1);
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_EQ(x1.bit(m), ((m >> 1) & 1) != 0);
  }
}

TEST(TruthTest, VariableAboveWordBoundary) {
  // 8-variable table spans 4 words; variable 7 alternates in word blocks.
  const TruthTable x7 = TruthTable::variable(8, 7);
  for (std::size_t m = 0; m < 256; ++m) {
    EXPECT_EQ(x7.bit(m), ((m >> 7) & 1) != 0);
  }
}

TEST(TruthTest, BooleanOps) {
  const TruthTable a = TruthTable::variable(2, 0);
  const TruthTable b = TruthTable::variable(2, 1);
  EXPECT_EQ((a & b).low_word(), 0x8u);
  EXPECT_EQ((a | b).low_word(), 0xEu);
  EXPECT_EQ((a ^ b).low_word(), 0x6u);
  EXPECT_EQ((~a).low_word() & 0xF, 0x5u);
}

TEST(TruthTest, MaskedTailStaysClean) {
  const TruthTable a = TruthTable::variable(2, 0);
  const TruthTable n = ~a;
  EXPECT_EQ(n.low_word() >> 4, 0u);  // bits beyond 2^2 must stay zero
}

TEST(TruthTest, CofactorsSmall) {
  // f = a & b: f|a=1 is b, f|a=0 is 0.
  const TruthTable f = TruthTable::from_bits(2, 0x8);
  EXPECT_EQ(f.cofactor1(0).low_word(), TruthTable::variable(2, 1).low_word());
  EXPECT_TRUE(f.cofactor0(0).is_const0());
}

TEST(TruthTest, CofactorsLargeVariable) {
  util::Rng rng(5);
  const TruthTable f = random_tt(8, rng);
  const TruthTable c0 = f.cofactor0(7);
  const TruthTable c1 = f.cofactor1(7);
  for (std::size_t m = 0; m < 256; ++m) {
    EXPECT_EQ(c0.bit(m), f.bit(m & ~std::size_t{0x80}));
    EXPECT_EQ(c1.bit(m), f.bit(m | 0x80));
  }
}

TEST(TruthTest, ShannonIdentity) {
  util::Rng rng(7);
  for (unsigned nv : {3u, 5u, 7u}) {
    const TruthTable f = random_tt(nv, rng);
    for (unsigned v = 0; v < nv; ++v) {
      const TruthTable xv = TruthTable::variable(nv, v);
      const TruthTable rebuilt =
          (xv & f.cofactor1(v)) | (~xv & f.cofactor0(v));
      EXPECT_EQ(rebuilt, f) << "var " << v << " nv " << nv;
    }
  }
}

TEST(TruthTest, DependsOn) {
  const TruthTable f = TruthTable::from_bits(3, 0x88);  // a & b
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_TRUE(f.depends_on(1));
  EXPECT_FALSE(f.depends_on(2));
}

TEST(TruthTest, PermuteFlipIdentity) {
  util::Rng rng(11);
  const TruthTable f = random_tt(4, rng);
  EXPECT_EQ(f.permute_flip({0, 1, 2, 3}, 0, false), f);
}

TEST(TruthTest, PermuteSwapsVariables) {
  // f = x0; permuting with perm[0]=1 should read x1.
  const TruthTable f = TruthTable::variable(2, 0);
  const TruthTable swapped = f.permute_flip({1, 0}, 0, false);
  EXPECT_EQ(swapped, TruthTable::variable(2, 1));
}

TEST(TruthTest, FlipComplementsInput) {
  const TruthTable f = TruthTable::variable(1, 0);
  const TruthTable flipped = f.permute_flip({0}, 0x1, false);
  EXPECT_EQ(flipped, ~TruthTable::variable(1, 0));
}

TEST(TruthTest, OutFlipComplementsOutput) {
  util::Rng rng(13);
  const TruthTable f = random_tt(3, rng);
  EXPECT_EQ(f.permute_flip({0, 1, 2}, 0, true), ~f);
}

TEST(TruthTest, SwapVarsMatchesPermute) {
  // Every pair of variables, inside a word, across the word boundary and
  // between word-selecting variables, against the minterm-by-minterm
  // permutation.
  util::Rng rng(19);
  for (unsigned nv = 2; nv <= 10; ++nv) {
    const TruthTable f = random_tt(nv, rng);
    for (unsigned i = 0; i < nv; ++i) {
      for (unsigned j = i + 1; j < nv; ++j) {
        std::vector<unsigned> perm(nv);
        for (unsigned v = 0; v < nv; ++v) perm[v] = v;
        std::swap(perm[i], perm[j]);
        TruthTable swapped = f;
        swapped.swap_vars(i, j);
        ASSERT_EQ(swapped, f.permute_flip(perm, 0, false))
            << "nv " << nv << " swap " << i << "," << j;
      }
    }
  }
}

TEST(TruthTest, PermuteFlipIsInvolutionForSelfInverseTransforms) {
  util::Rng rng(17);
  const TruthTable f = random_tt(4, rng);
  // Swapping 0<->1 twice restores the function.
  const TruthTable once = f.permute_flip({1, 0, 2, 3}, 0, false);
  EXPECT_EQ(once.permute_flip({1, 0, 2, 3}, 0, false), f);
  // Flipping all inputs twice restores too.
  const TruthTable fl = f.permute_flip({0, 1, 2, 3}, 0xF, false);
  EXPECT_EQ(fl.permute_flip({0, 1, 2, 3}, 0xF, false), f);
}

TEST(TruthTest, ToHexLength) {
  EXPECT_EQ(TruthTable::constant(6, false).to_hex().size(), 16u);
  EXPECT_EQ(TruthTable::constant(8, false).to_hex().size(), 64u);
}

}  // namespace
}  // namespace flowgen::aig
