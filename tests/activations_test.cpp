#include "nn/activations.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/layers.hpp"

namespace flowgen::nn {
namespace {

class ActivationParamTest
    : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationParamTest, GradientMatchesFiniteDifference) {
  const ActivationKind kind = GetParam();
  const double eps = 1e-6;
  for (double x : {-3.0, -1.0, -0.1, 0.1, 0.5, 1.0, 2.9, 5.9, 7.0}) {
    const double numeric =
        (activate(kind, x + eps) - activate(kind, x - eps)) / (2 * eps);
    const double analytic = activate_grad(kind, x);
    EXPECT_NEAR(analytic, numeric, 1e-5)
        << activation_name(kind) << " at x=" << x;
  }
}

TEST_P(ActivationParamTest, BackwardMatchesProductBitForBit) {
  // Activation::backward returns an exactly-zero upstream gradient as it is
  // instead of multiplying it by the derivative. That gives the product's
  // bits only because every derivative is finite and >= +0, even where it
  // underflows or its input is infinite.
  const ActivationKind kind = GetParam();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {-inf, -800.0, -40.0, -3.0, -0.0, 0.0,
                                  1e-300, 0.5,  3.0,   6.0,  7.0,  40.0,
                                  800.0,  1e300, inf};
  const std::vector<double> gs = {0.0, -0.0, 1.5, -0.25};
  Tensor x({xs.size() * gs.size()});
  Tensor g(x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = xs[i % xs.size()];
    g[i] = gs[i / xs.size()];
  }
  Activation layer(kind);
  layer.forward(x, true);
  const Tensor grad = layer.backward(g);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = activate_grad(kind, x[i]);
    EXPECT_TRUE(std::isfinite(d) && !std::signbit(d))
        << activation_name(kind) << "'(" << x[i] << ") = " << d;
    const double want = g[i] * d;
    EXPECT_EQ(std::memcmp(grad.data() + i, &want, sizeof want), 0)
        << activation_name(kind) << " at x=" << x[i] << ", g=" << g[i]
        << ": " << grad[i] << " vs " << want;
  }
}

TEST_P(ActivationParamTest, NameRoundTrip) {
  const ActivationKind kind = GetParam();
  EXPECT_EQ(activation_from_name(activation_name(kind)), kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, ActivationParamTest,
    ::testing::Values(ActivationKind::kReLU, ActivationKind::kReLU6,
                      ActivationKind::kELU, ActivationKind::kSELU,
                      ActivationKind::kSoftplus, ActivationKind::kSoftsign,
                      ActivationKind::kSigmoid, ActivationKind::kTanh),
    [](const ::testing::TestParamInfo<ActivationKind>& info) {
      return activation_name(info.param);
    });

TEST(ActivationsTest, SpotValues) {
  EXPECT_EQ(activate(ActivationKind::kReLU, -2.0), 0.0);
  EXPECT_EQ(activate(ActivationKind::kReLU, 2.0), 2.0);
  EXPECT_EQ(activate(ActivationKind::kReLU6, 10.0), 6.0);
  EXPECT_NEAR(activate(ActivationKind::kSigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(activate(ActivationKind::kTanh, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(activate(ActivationKind::kSoftsign, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(activate(ActivationKind::kSoftplus, 0.0), std::log(2.0),
              1e-12);
}

TEST(ActivationsTest, SeluSelfNormalisingFixedPoint) {
  // SELU is designed so that mean-0/var-1 inputs stay near mean-0/var-1.
  // Check its two defining constants via the published values.
  EXPECT_NEAR(activate(ActivationKind::kSELU, 1.0), 1.0507009873554805,
              1e-9);
  EXPECT_NEAR(activate(ActivationKind::kSELU, -1e9),
              -1.0507009873554805 * 1.6732632423543772, 1e-6);
}

TEST(ActivationsTest, SoftplusLargeInputStable) {
  EXPECT_NEAR(activate(ActivationKind::kSoftplus, 100.0), 100.0, 1e-9);
  EXPECT_FALSE(std::isinf(activate(ActivationKind::kSoftplus, 700.0)));
}

TEST(ActivationsTest, UnknownNameThrows) {
  EXPECT_THROW(activation_from_name("GELU"), std::invalid_argument);
  EXPECT_THROW(activation_by_index(8), std::invalid_argument);
}

TEST(ActivationsTest, IndexOrderMatchesFigure7) {
  EXPECT_STREQ(activation_name(activation_by_index(0)), "ReLU");
  EXPECT_STREQ(activation_name(activation_by_index(3)), "SELU");
  EXPECT_STREQ(activation_name(activation_by_index(7)), "Tanh");
}

}  // namespace
}  // namespace flowgen::nn
