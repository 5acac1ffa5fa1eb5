#include "nn/model.hpp"

#include <gtest/gtest.h>

#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"

namespace flowgen::nn {
namespace {

/// Toy dataset: class = (x0 > 0) ^ (x1 > 0) — not linearly separable, so a
/// hidden layer is genuinely needed.
void make_xor_batch(util::Rng& rng, std::size_t n, Tensor& x,
                    std::vector<std::uint32_t>& labels) {
  x = Tensor({n, 2});
  labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    x.at(i, 0) = a;
    x.at(i, 1) = b;
    labels[i] = static_cast<std::uint32_t>((a > 0) != (b > 0));
  }
}

TEST(ModelTest, LearnsXorWithRmsProp) {
  util::Rng rng(1);
  Sequential model;
  model.emplace<Dense>(2, 16, rng);
  model.emplace<Activation>(ActivationKind::kTanh);
  model.emplace<Dense>(16, 2, rng);

  RmsProp opt(0.01);
  util::Rng data_rng(2);
  for (int step = 0; step < 800; ++step) {
    Tensor x;
    std::vector<std::uint32_t> labels;
    make_xor_batch(data_rng, 16, x, labels);
    model.train_batch(x, labels, opt);
  }
  Tensor test_x;
  std::vector<std::uint32_t> test_labels;
  make_xor_batch(data_rng, 500, test_x, test_labels);
  EXPECT_GT(model.evaluate_accuracy(test_x, test_labels), 0.93);
}

TEST(ModelTest, LossDecreasesDuringTraining) {
  util::Rng rng(3);
  Sequential model;
  model.emplace<Dense>(2, 8, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Dense>(8, 2, rng);
  Sgd opt(0.3);
  util::Rng data_rng(4);
  Tensor x;
  std::vector<std::uint32_t> labels;
  make_xor_batch(data_rng, 64, x, labels);
  const double first = model.train_batch(x, labels, opt);
  double last = first;
  for (int i = 0; i < 600; ++i) last = model.train_batch(x, labels, opt);
  EXPECT_LT(last, first * 0.6);
}

TEST(ModelTest, PredictProbaRowsSumToOne) {
  util::Rng rng(5);
  Sequential model;
  model.emplace<Dense>(3, 4, rng);
  Tensor x({6, 3});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  const Tensor p = model.predict_proba(x);
  for (std::size_t i = 0; i < 6; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 4; ++j) sum += p.at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(ModelTest, ParamAndGradCountsMatch) {
  util::Rng rng(6);
  Sequential model;
  model.emplace<Conv2D>(1, 4, 3, 3, rng);
  model.emplace<Activation>(ActivationKind::kReLU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<Flatten>();
  model.emplace<Dense>(5 * 5 * 4, 3, rng);
  // Conv W+b and Dense W+b.
  EXPECT_EQ(model.params().size(), 4u);
  EXPECT_EQ(model.grads().size(), 4u);
  EXPECT_EQ(model.num_parameters(),
            3u * 3 * 1 * 4 + 4 + (5u * 5 * 4) * 3 + 3);
  // End-to-end pass through the stack.
  Tensor x({2, 6, 6, 1});
  Sgd opt(0.01);
  const double loss = model.train_batch(x, {0, 2}, opt);
  EXPECT_GT(loss, 0.0);
}

/// Passes its input through and records which backward entry point
/// train_batch called.
class SpyLayer : public Layer {
public:
  Tensor forward(const Tensor& input, bool /*training*/) override {
    return input;
  }
  Tensor backward(const Tensor& grad_output) override {
    ++input_grads;
    return grad_output;
  }
  void backward_params(const Tensor& /*grad_output*/) override {
    ++param_grads_only;
  }
  std::string name() const override { return "Spy"; }

  int input_grads = 0;
  int param_grads_only = 0;
};

TEST(ModelTest, TrainBatchAsksNoInputGradientOfTheFirstLayer) {
  // Nothing reads the first layer's input gradient, so train_batch asks it
  // for its parameter gradients only, and every later layer for an input
  // gradient (gradcheck_test checks those gradients themselves).
  util::Rng rng(7);
  Sequential model;
  model.emplace<SpyLayer>();
  model.emplace<Dense>(2, 3, rng);
  model.emplace<SpyLayer>();
  model.emplace<SpyLayer>();
  Tensor x({2, 2});
  x.at(0, 0) = 1.0;
  Sgd opt(0.1);
  model.train_batch(x, {0, 2}, opt);
  model.train_batch(x, {1, 0}, opt);
  const auto& layers = model.layers();
  const auto& first = dynamic_cast<const SpyLayer&>(*layers[0]);
  EXPECT_EQ(first.input_grads, 0);
  EXPECT_EQ(first.param_grads_only, 2);
  for (const std::size_t i : {2, 3}) {
    const auto& later = dynamic_cast<const SpyLayer&>(*layers[i]);
    EXPECT_EQ(later.input_grads, 2) << i;
    EXPECT_EQ(later.param_grads_only, 0) << i;
  }
}

TEST(ModelTest, ArgmaxRows) {
  Tensor t({2, 3});
  t.at(0, 1) = 5;
  t.at(1, 2) = 5;
  const auto am = argmax_rows(t);
  EXPECT_EQ(am[0], 1u);
  EXPECT_EQ(am[1], 2u);
}

}  // namespace
}  // namespace flowgen::nn
