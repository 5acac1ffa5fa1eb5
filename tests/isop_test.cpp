#include "aig/isop.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace flowgen::aig {
namespace {

TruthTable random_tt(unsigned nv, util::Rng& rng, double density = 0.5) {
  TruthTable t(nv);
  for (std::size_t m = 0; m < t.num_bits(); ++m) {
    t.set_bit(m, rng.chance(density));
  }
  return t;
}

TEST(IsopTest, Constants) {
  EXPECT_TRUE(isop(TruthTable::constant(3, false)).empty());
  const Sop one = isop(TruthTable::constant(3, true));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].num_literals(), 0u);
}

TEST(IsopTest, SingleVariable) {
  const Sop s = isop(TruthTable::variable(3, 1));
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].pos, 0x2u);
  EXPECT_EQ(s[0].neg, 0x0u);
}

TEST(IsopTest, AndOrXor) {
  // a & b
  const TruthTable f_and = TruthTable::from_bits(2, 0x8);
  const Sop s_and = isop(f_and);
  ASSERT_EQ(s_and.size(), 1u);
  EXPECT_EQ(s_and[0].pos, 0x3u);

  // a | b: two cubes
  const TruthTable f_or = TruthTable::from_bits(2, 0xE);
  EXPECT_EQ(isop(f_or).size(), 2u);

  // a ^ b: exactly two disjoint cubes
  const TruthTable f_xor = TruthTable::from_bits(2, 0x6);
  const Sop s_xor = isop(f_xor);
  EXPECT_EQ(s_xor.size(), 2u);
  EXPECT_EQ(sop_literals(s_xor), 4u);
}

class IsopPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IsopPropertyTest, CoversExactly) {
  const unsigned nv = GetParam();
  util::Rng rng(1000 + nv);
  for (int trial = 0; trial < 30; ++trial) {
    const TruthTable f = random_tt(nv, rng);
    const Sop s = isop(f);
    EXPECT_EQ(sop_to_truth(s, nv), f) << "nv=" << nv << " trial=" << trial;
  }
}

TEST_P(IsopPropertyTest, CubesAreImplicants) {
  const unsigned nv = GetParam();
  util::Rng rng(2000 + nv);
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable f = random_tt(nv, rng, 0.7);
    for (const Cube& c : isop(f)) {
      // Each cube alone must be contained in f.
      const TruthTable ct = sop_to_truth({c}, nv);
      EXPECT_TRUE(((ct & ~f).is_const0()));
    }
  }
}

TEST_P(IsopPropertyTest, IrredundantNoCubeRemovable) {
  const unsigned nv = GetParam();
  util::Rng rng(3000 + nv);
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable f = random_tt(nv, rng);
    const Sop s = isop(f);
    for (std::size_t drop = 0; drop < s.size(); ++drop) {
      Sop reduced;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (i != drop) reduced.push_back(s[i]);
      }
      EXPECT_NE(sop_to_truth(reduced, nv), f)
          << "cube " << drop << " is redundant";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(VariableCounts, IsopPropertyTest,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 8u, 10u));

// Reference implementation: the original all-TruthTable Minato-Morreale
// recursion, kept here to pin down that the word-parallel <=6-var kernel
// in isop() produces the *same cubes in the same order* — downstream
// factoring (and with it refactor QoR) depends on the exact SOP, not just
// on covering the right function.
struct RefIsop {
  Sop cubes;
  TruthTable cover;
};

/// a & ~b.
TruthTable and_compl(const TruthTable& a, const TruthTable& b) {
  return TruthTable::and_phase(a, false, b, true);
}

/// var ? t1 : t0.
TruthTable mux_var(unsigned var, const TruthTable& t1, const TruthTable& t0) {
  const TruthTable x = TruthTable::variable(t1.num_vars(), var);
  return (x & t1) | (~x & t0);
}

RefIsop ref_isop_rec(const TruthTable& lower, const TruthTable& upper,
                     unsigned num_top_vars) {
  if (lower.is_const0()) {
    return {Sop{}, TruthTable::constant(lower.num_vars(), false)};
  }
  if (upper.is_const1()) {
    return {Sop{Cube{}}, TruthTable::constant(lower.num_vars(), true)};
  }
  unsigned var = 0;
  for (unsigned v = num_top_vars; v-- > 0;) {
    if (lower.depends_on(v) || upper.depends_on(v)) {
      var = v;
      break;
    }
  }
  const TruthTable l0 = lower.cofactor0(var);
  const TruthTable l1 = lower.cofactor1(var);
  const TruthTable u0 = upper.cofactor0(var);
  const TruthTable u1 = upper.cofactor1(var);
  RefIsop neg_side = ref_isop_rec(and_compl(l0, u1), u0, var);
  RefIsop pos_side = ref_isop_rec(and_compl(l1, u0), u1, var);
  TruthTable rest = and_compl(l0, neg_side.cover);
  rest |= and_compl(l1, pos_side.cover);
  RefIsop both = ref_isop_rec(rest, u0 & u1, var);
  RefIsop out;
  for (Cube c : neg_side.cubes) {
    c.neg |= (1u << var);
    out.cubes.push_back(c);
  }
  for (Cube c : pos_side.cubes) {
    c.pos |= (1u << var);
    out.cubes.push_back(c);
  }
  for (const Cube& c : both.cubes) out.cubes.push_back(c);
  out.cover = mux_var(var, pos_side.cover, neg_side.cover);
  out.cover |= both.cover;
  return out;
}

TEST(IsopTest, WordKernelMatchesReferenceCubeForCube) {
  // Covers the pure word path (nv <= 6) and the generic->word handoff
  // (nv 7..8, where recursion enters the kernel once <= 6 live vars
  // remain).
  for (unsigned nv = 1; nv <= 8; ++nv) {
    util::Rng rng(7000 + nv);
    for (int trial = 0; trial < 20; ++trial) {
      const TruthTable f = random_tt(nv, rng);
      const Sop got = isop(f);
      const Sop want = ref_isop_rec(f, f, nv).cubes;
      ASSERT_EQ(got.size(), want.size()) << "nv=" << nv;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "nv=" << nv << " cube=" << i;
      }
    }
  }
}

TEST(IsopTest, SparseAndDenseFunctions) {
  util::Rng rng(42);
  for (double density : {0.05, 0.95}) {
    const TruthTable f = random_tt(6, rng, density);
    EXPECT_EQ(sop_to_truth(isop(f), 6), f);
  }
}

TEST(IsopTest, SopToString) {
  const TruthTable f = TruthTable::from_bits(2, 0x8);
  EXPECT_EQ(sop_to_string(isop(f), 2), "ab");
  EXPECT_EQ(sop_to_string({}, 2), "0");
}

}  // namespace
}  // namespace flowgen::aig
