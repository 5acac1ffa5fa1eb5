// Finite-difference gradient checks for every trainable layer. The loss is
// L = sum_i c_i * out_i with fixed random coefficients, so dL/dout = c and
// both input gradients and parameter gradients can be verified exactly.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/conv2d.hpp"
#include "nn/layers.hpp"
#include "nn/locally_connected.hpp"
#include "nn/pooling.hpp"

namespace flowgen::nn {
namespace {

Tensor random_tensor(const std::vector<std::size_t>& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal();
  return t;
}

double loss_of(Layer& layer, const Tensor& input, const Tensor& coeffs) {
  const Tensor out = layer.forward(input, /*training=*/false);
  double loss = 0;
  for (std::size_t i = 0; i < out.size(); ++i) loss += coeffs[i] * out[i];
  return loss;
}

/// Checks dL/dinput and dL/dparams against central differences.
void gradcheck(Layer& layer, Tensor input, util::Rng& rng,
               double tol = 1e-6) {
  const Tensor out = layer.forward(input, false);
  const Tensor coeffs = random_tensor(out.shape(), rng);
  const Tensor grad_in = layer.backward(coeffs);
  ASSERT_EQ(grad_in.size(), input.size());

  const double eps = 1e-5;

  // Input gradients.
  for (std::size_t i = 0; i < input.size(); ++i) {
    const double saved = input[i];
    input[i] = saved + eps;
    const double hi = loss_of(layer, input, coeffs);
    input[i] = saved - eps;
    const double lo = loss_of(layer, input, coeffs);
    input[i] = saved;
    const double numeric = (hi - lo) / (2 * eps);
    ASSERT_NEAR(grad_in[i], numeric, tol) << "input grad " << i;
  }

  // Parameter gradients. Re-run forward+backward so cached activations and
  // parameter grads correspond to the unperturbed input.
  layer.forward(input, false);
  layer.backward(coeffs);
  const auto params = layer.params();
  const auto grads = layer.grads();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& w = *params[p];
    const Tensor g = *grads[p];  // copy: next forward calls overwrite
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double saved = w[i];
      w[i] = saved + eps;
      const double hi = loss_of(layer, input, coeffs);
      w[i] = saved - eps;
      const double lo = loss_of(layer, input, coeffs);
      w[i] = saved;
      const double numeric = (hi - lo) / (2 * eps);
      ASSERT_NEAR(g[i], numeric, tol) << "param " << p << " grad " << i;
    }
  }
}

TEST(GradCheckTest, Dense) {
  util::Rng rng(1);
  Dense layer(7, 4, rng);
  gradcheck(layer, random_tensor({3, 7}, rng), rng);
}

TEST(GradCheckTest, Conv2DSquareKernel) {
  util::Rng rng(2);
  Conv2D layer(2, 3, 3, 3, rng);
  gradcheck(layer, random_tensor({2, 5, 5, 2}, rng), rng);
}

TEST(GradCheckTest, Conv2DRectangularKernel) {
  // The paper's n x 2n kernels are rectangular; cover 3x6 on a 6x6 input.
  util::Rng rng(3);
  Conv2D layer(1, 2, 3, 6, rng);
  gradcheck(layer, random_tensor({2, 6, 6, 1}, rng), rng);
}

TEST(GradCheckTest, Conv2DKernelLargerThanHalfInput) {
  util::Rng rng(4);
  Conv2D layer(1, 2, 6, 12, rng);
  gradcheck(layer, random_tensor({1, 12, 12, 1}, rng), rng);
}

TEST(GradCheckTest, Conv2DStride2) {
  // An odd and an even extent: the output rounds 5 up to 3 rows and 6 to
  // 3 columns.
  util::Rng rng(10);
  Conv2D layer(2, 3, 3, 4, rng, /*stride=*/2);
  gradcheck(layer, random_tensor({2, 5, 6, 2}, rng), rng);
}

TEST(GradCheckTest, Conv2DFiveOutputChannels) {
  // Five channels fill no register tile exactly (4 + 1).
  util::Rng rng(11);
  Conv2D layer(3, 5, 3, 4, rng);
  gradcheck(layer, random_tensor({2, 5, 6, 3}, rng), rng);
}

TEST(GradCheckTest, LocallyConnected) {
  util::Rng rng(5);
  LocallyConnected2D layer(5, 5, 2, 3, 3, 3, rng);
  gradcheck(layer, random_tensor({2, 5, 5, 2}, rng), rng);
}

TEST(GradCheckTest, LocallyConnectedFiveOutputChannels) {
  util::Rng rng(12);
  LocallyConnected2D layer(5, 6, 3, 5, 2, 3, rng);
  gradcheck(layer, random_tensor({2, 5, 6, 3}, rng), rng);
}

TEST(GradCheckTest, MaxPoolInputGrad) {
  util::Rng rng(6);
  MaxPool2D layer(2, 2, 1);
  gradcheck(layer, random_tensor({2, 5, 5, 3}, rng), rng, 1e-5);
}

TEST(GradCheckTest, MaxPoolStride2) {
  util::Rng rng(7);
  MaxPool2D layer(2, 2, 2);
  gradcheck(layer, random_tensor({1, 6, 6, 2}, rng), rng, 1e-5);
}

class ActivationGradCheck
    : public ::testing::TestWithParam<ActivationKind> {};

TEST_P(ActivationGradCheck, InputGradient) {
  util::Rng rng(8);
  Activation layer(GetParam());
  gradcheck(layer, random_tensor({4, 9}, rng), rng, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllEight, ActivationGradCheck,
    ::testing::Values(ActivationKind::kReLU, ActivationKind::kReLU6,
                      ActivationKind::kELU, ActivationKind::kSELU,
                      ActivationKind::kSoftplus, ActivationKind::kSoftsign,
                      ActivationKind::kSigmoid, ActivationKind::kTanh),
    [](const ::testing::TestParamInfo<ActivationKind>& info) {
      return activation_name(info.param);
    });

TEST(GradCheckTest, FlattenIsTransparent) {
  util::Rng rng(9);
  Flatten layer;
  gradcheck(layer, random_tensor({2, 3, 4, 1}, rng), rng, 1e-9);
}

}  // namespace
}  // namespace flowgen::nn
