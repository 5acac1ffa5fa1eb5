#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "nn/conv2d.hpp"
#include "nn/locally_connected.hpp"
#include "nn/pooling.hpp"

namespace flowgen::nn {
namespace {

Tensor random_tensor(const std::vector<std::size_t>& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = rng.normal();
  return t;
}

::testing::AssertionResult same_bits(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << "shape " << a.shape_string() << " vs " << b.shape_string();
  }
  if (a.size() != 0 &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Layer's contract: an inference forward keeps nothing, so backward()
/// after forward(x1, true) and then forward(x2, false) gives, bit for bit,
/// the input and parameter gradients of forward(x1, true) alone. `make`
/// returns a new layer, the same on every call.
template <typename Make>
void expect_inference_forward_keeps_nothing(
    const Make& make, const std::vector<std::size_t>& x1_shape,
    const std::vector<std::size_t>& x2_shape) {
  util::Rng rng(99);
  const Tensor x1 = random_tensor(x1_shape, rng);
  const Tensor x2 = random_tensor(x2_shape, rng);
  const std::unique_ptr<Layer> reference = make();
  const Tensor g = random_tensor(reference->forward(x1, true).shape(), rng);
  const Tensor expected = reference->backward(g);

  const std::unique_ptr<Layer> layer = make();
  layer->forward(x1, true);
  layer->forward(x2, false);
  EXPECT_TRUE(same_bits(layer->backward(g), expected)) << "input gradient";
  const std::vector<Tensor*> grads = layer->grads();
  const std::vector<Tensor*> expected_grads = reference->grads();
  ASSERT_EQ(grads.size(), expected_grads.size());
  for (std::size_t i = 0; i < grads.size(); ++i) {
    EXPECT_TRUE(same_bits(*grads[i], *expected_grads[i])) << "grads " << i;
  }
}

TEST(LayersTest, DenseInferenceForwardKeepsNothing) {
  expect_inference_forward_keeps_nothing(
      [] {
        util::Rng init(1);
        return std::make_unique<Dense>(6, 4, init);
      },
      {3, 6}, {3, 6});
}

TEST(LayersTest, Conv2DInferenceForwardKeepsNothing) {
  expect_inference_forward_keeps_nothing(
      [] {
        util::Rng init(2);
        return std::make_unique<Conv2D>(2, 3, 3, 4, init);
      },
      {2, 5, 6, 2}, {2, 5, 6, 2});
}

TEST(LayersTest, LocallyConnectedInferenceForwardKeepsNothing) {
  expect_inference_forward_keeps_nothing(
      [] {
        util::Rng init(3);
        return std::make_unique<LocallyConnected2D>(5, 5, 2, 3, 3, 3, init);
      },
      {2, 5, 5, 2}, {2, 5, 5, 2});
}

TEST(LayersTest, ActivationInferenceForwardKeepsNothing) {
  expect_inference_forward_keeps_nothing(
      [] { return std::make_unique<Activation>(ActivationKind::kSELU); },
      {4, 9}, {4, 9});
}

TEST(LayersTest, MaxPoolInferenceForwardKeepsNothing) {
  expect_inference_forward_keeps_nothing(
      [] { return std::make_unique<MaxPool2D>(2, 2, 1); }, {2, 5, 5, 3},
      {2, 5, 5, 3});
}

TEST(LayersTest, FlattenInferenceForwardKeepsNothing) {
  // The same flattened width from another shape: only the kept shape can
  // restore x1's.
  expect_inference_forward_keeps_nothing(
      [] { return std::make_unique<Flatten>(); }, {2, 3, 4, 5}, {2, 5, 4, 3});
}

TEST(LayersTest, DropoutInferenceForwardKeepsNothing) {
  // Each layer draws its mask from its own copy of one stream.
  util::Rng stream_a(7), stream_b(7);
  util::Rng* streams[] = {&stream_a, &stream_b};
  std::size_t made = 0;
  expect_inference_forward_keeps_nothing(
      [&] { return std::make_unique<Dropout>(0.5, *streams[made++]); },
      {2, 50}, {2, 50});
}

TEST(LayersTest, DenseShapes) {
  util::Rng rng(1);
  Dense layer(6, 4, rng);
  Tensor x({5, 6});
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{5, 4}));
  EXPECT_EQ(layer.params().size(), 2u);
}

TEST(LayersTest, DenseComputesAffineMap) {
  util::Rng rng(2);
  Dense layer(2, 1, rng);
  Tensor x({1, 2});
  x[0] = 3.0;
  x[1] = -1.0;
  const Tensor y = layer.forward(x, false);
  const Tensor& w = layer.weights();
  EXPECT_NEAR(y[0], 3.0 * w.at(0, 0) - 1.0 * w.at(1, 0), 1e-12);
}

TEST(LayersTest, FlattenRoundTrip) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  const Tensor flat = f.forward(x, true);
  EXPECT_EQ(flat.shape(), (std::vector<std::size_t>{2, 60}));
  const Tensor back = f.backward(flat);
  EXPECT_EQ(back.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(LayersTest, Conv2DSamePaddingKeepsSize) {
  util::Rng rng(3);
  Conv2D conv(1, 8, 3, 6, rng);
  Tensor x({2, 12, 12, 1});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12, 12, 8}));
}

TEST(LayersTest, MaxPoolStride1Shrinks) {
  MaxPool2D pool(2, 2, 1);
  Tensor x({1, 12, 12, 3});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 11, 11, 3}));
}

TEST(LayersTest, MaxPoolPicksMaximum) {
  MaxPool2D pool(2, 2, 2);
  Tensor x({1, 2, 2, 1});
  x[0] = 1;
  x[1] = 9;
  x[2] = 3;
  x[3] = -4;
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 9);
  // Gradient routes to the argmax only.
  Tensor g({1, 1, 1, 1});
  g[0] = 5;
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 5);
  EXPECT_EQ(gx[0] + gx[2] + gx[3], 0);
}

TEST(LayersTest, MaxPoolRejectsTooSmallInput) {
  MaxPool2D pool(4, 4, 1);
  Tensor x({1, 2, 2, 1});
  EXPECT_THROW(pool.forward(x, false), std::invalid_argument);
}

TEST(LayersTest, LocallyConnectedHasPerPositionWeights) {
  util::Rng rng(4);
  LocallyConnected2D local(4, 4, 1, 2, 3, 3, rng);
  EXPECT_EQ(local.out_h(), 2u);
  EXPECT_EQ(local.out_w(), 2u);
  // 4 positions x 9 patch x 2 out channels weights + 4 x 2 biases.
  EXPECT_EQ(local.params()[0]->size(), 4u * 9u * 2u);
  EXPECT_EQ(local.params()[1]->size(), 4u * 2u);
}

TEST(LayersTest, DropoutInferenceIsIdentity) {
  util::Rng rng(5);
  Dropout drop(0.4, rng);
  Tensor x({1, 100});
  x.fill(1.0);
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 1.0);
}

TEST(LayersTest, DropoutTrainingDropsAndRescales) {
  util::Rng rng(6);
  Dropout drop(0.4, rng);
  Tensor x({1, 10000});
  x.fill(1.0);
  const Tensor y = drop.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double sum = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 1.0 / 0.6, 1e-12);  // inverted dropout scale
    }
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.4, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // expectation preserved
}

TEST(LayersTest, DropoutBackwardUsesSameMask) {
  util::Rng rng(7);
  Dropout drop(0.5, rng);
  Tensor x({1, 50});
  x.fill(2.0);
  const Tensor y = drop.forward(x, true);
  Tensor g({1, 50});
  g.fill(1.0);
  const Tensor gx = drop.backward(g);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(gx[i] == 0.0, y[i] == 0.0);  // identical mask
  }
}

TEST(LayersTest, LayerNames) {
  util::Rng rng(8);
  EXPECT_EQ(Dense(2, 2, rng).name(), "Dense");
  EXPECT_EQ(Activation(ActivationKind::kSELU).name(), "Activation:SELU");
  EXPECT_EQ(MaxPool2D(2, 2).name(), "MaxPool2D");
}

}  // namespace
}  // namespace flowgen::nn
