#include "nn/optimizers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

namespace flowgen::nn {
namespace {

/// Minimise f(w) = 0.5 * ||w - target||^2 with each optimizer; all five must
/// converge to the target on this convex problem.
double run_quadratic(Optimizer& opt, int steps) {
  Tensor w({4});
  Tensor target({4});
  target[0] = 1.0;
  target[1] = -2.0;
  target[2] = 0.5;
  target[3] = 3.0;
  Tensor grad({4});
  for (int s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < 4; ++i) grad[i] = w[i] - target[i];
    opt.step({&w}, {&grad});
  }
  double err = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    err += std::abs(w[i] - target[i]);
  }
  return err;
}

TEST(OptimizersTest, SgdConverges) {
  Sgd opt(0.1);
  EXPECT_LT(run_quadratic(opt, 200), 1e-3);
}

TEST(OptimizersTest, MomentumConverges) {
  Momentum opt(0.05, 0.9);
  EXPECT_LT(run_quadratic(opt, 300), 1e-3);
}

TEST(OptimizersTest, AdaGradConverges) {
  AdaGrad opt(0.9);
  EXPECT_LT(run_quadratic(opt, 2000), 1e-2);
}

TEST(OptimizersTest, RmsPropConverges) {
  RmsProp opt(0.05);
  EXPECT_LT(run_quadratic(opt, 2000), 1e-2);
}

TEST(OptimizersTest, FtrlConverges) {
  Ftrl opt(0.5);
  EXPECT_LT(run_quadratic(opt, 3000), 1e-1);
}

TEST(OptimizersTest, SgdExactStep) {
  Sgd opt(0.1);
  Tensor w({1});
  w[0] = 1.0;
  Tensor g({1});
  g[0] = 2.0;
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], 0.8, 1e-12);
}

TEST(OptimizersTest, MomentumAccumulatesVelocity) {
  Momentum opt(0.1, 0.9);
  Tensor w({1});
  Tensor g({1});
  g[0] = 1.0;
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -0.1, 1e-12);  // v = 1
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -0.1 - 0.19, 1e-12);  // v = 1.9
}

TEST(OptimizersTest, AdaGradShrinksEffectiveRate) {
  AdaGrad opt(1.0, 0.0);
  Tensor w({1});
  Tensor g({1});
  g[0] = 2.0;
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -1.0, 1e-9);  // 1.0 * 2 / sqrt(4)
  opt.step({&w}, {&g});
  EXPECT_NEAR(w[0], -1.0 - 2.0 / std::sqrt(8.0), 1e-9);
}

TEST(OptimizersTest, FtrlWithL1ProducesExactZeros) {
  Ftrl opt(0.5, 1.0, /*l1=*/10.0, 0.0);
  Tensor w({1});
  Tensor g({1});
  g[0] = 0.1;  // small gradient: |z| stays below l1, weight pinned at 0
  for (int i = 0; i < 5; ++i) opt.step({&w}, {&g});
  EXPECT_EQ(w[0], 0.0);
}

TEST(OptimizersTest, FactoryNamesMatchPaper) {
  const auto names = optimizer_names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "SGD");
  EXPECT_EQ(names[3], "RMSProp");
  for (const auto& n : names) {
    const auto opt = make_optimizer(n, 1e-4);
    EXPECT_EQ(opt->name(), n);
    EXPECT_DOUBLE_EQ(opt->learning_rate(), 1e-4);
  }
  EXPECT_THROW(make_optimizer("Adam", 1e-4), std::invalid_argument);
}

TEST(OptimizersTest, StateTracksMultipleParams) {
  RmsProp opt(0.01);
  Tensor w1({2}), w2({3}), g1({2}), g2({3});
  g1.fill(1.0);
  g2.fill(-1.0);
  opt.step({&w1, &w2}, {&g1, &g2});
  EXPECT_LT(w1[0], 0.0);
  EXPECT_GT(w2[0], 0.0);
}

TEST(OptimizersTest, RmsPropStepMatchesScalarFormulaBitForBit) {
  // RmsProp::step works two parameters at a time; it must give the bits of
  // the plain per-parameter formula below, on the odd tail element too, on
  // exact-zero gradients of both signs and on gradients so small that
  // their squares underflow.
  const double lr = 1e-3, decay = 0.9, eps = 1e-10;
  RmsProp opt(lr, decay, eps);
  util::Rng rng(7);
  Tensor w1({7}), w2({1}), g1({7}), g2({1});
  for (Tensor* w : {&w1, &w2}) {
    for (std::size_t i = 0; i < w->size(); ++i) (*w)[i] = rng.normal();
  }
  std::vector<double> ref_w(w1.data(), w1.data() + w1.size());
  ref_w.push_back(w2[0]);
  std::vector<double> ref_acc(ref_w.size(), 0.0);
  for (int step = 0; step < 5; ++step) {
    for (Tensor* g : {&g1, &g2}) {
      for (std::size_t i = 0; i < g->size(); ++i) {
        const std::size_t kind = (i + step) % 4;
        (*g)[i] = kind == 0   ? 0.0
                  : kind == 1 ? -0.0
                  : kind == 2 ? 1e-170 * rng.normal()
                              : rng.normal();
      }
    }
    opt.step({&w1, &w2}, {&g1, &g2});
    for (std::size_t i = 0; i < ref_w.size(); ++i) {
      const double g = i < 7 ? g1[i] : g2[0];
      ref_acc[i] = decay * ref_acc[i] + (1.0 - decay) * g * g;
      ref_w[i] -= lr * g / std::sqrt(ref_acc[i] + eps);
    }
    for (std::size_t i = 0; i < ref_w.size(); ++i) {
      const double got = i < 7 ? w1[i] : w2[0];
      EXPECT_EQ(std::memcmp(&got, &ref_w[i], sizeof got), 0)
          << "step " << step << " param " << i << ": " << got << " vs "
          << ref_w[i];
    }
  }
}

}  // namespace
}  // namespace flowgen::nn
