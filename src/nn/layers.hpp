#pragma once
// Layer interface plus the simple layers (Dense, Flatten, Activation,
// Dropout). Convolution, pooling and locally-connected layers live in their
// own files. All layers operate on batched tensors: rank-4 (N,H,W,C) for
// spatial layers, rank-2 (N,D) for dense layers.

#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace flowgen::nn {

/// The forward/backward contract: a training forward, forward(x, true),
/// keeps what backward() needs (a copy of x, pooling's argmax, dropout's
/// mask) until the next training forward. An inference forward,
/// forward(x, false), keeps nothing and leaves that state alone, so its
/// memory is the input and output alone, and an inference forward between
/// a training forward and its backward() changes no gradient. backward()
/// needs a training forward before it (asserted).
class Layer {
public:
  virtual ~Layer() = default;

  /// Forward pass; `training` keeps backward's state and draws dropout
  /// noise.
  virtual Tensor forward(const Tensor& input, bool training) = 0;
  /// Backward pass: gradient w.r.t. this layer's input, given gradient
  /// w.r.t. the output of the last training forward.
  virtual Tensor backward(const Tensor& grad_output) = 0;
  /// The parameter gradients of backward() without the input gradient,
  /// for a first layer, whose input gradient nothing reads. The default
  /// runs backward() and drops its result.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Trainable parameters and their gradients (parallel vectors).
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  virtual std::string name() const = 0;
};

/// Fully connected layer: y = x W + b, x is (N, in), W is (in, out).
class Dense : public Layer {
public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weights_, &grad_bias_}; }
  std::string name() const override { return "Dense"; }

  const Tensor& weights() const { return weights_; }

private:
  std::size_t in_, out_;
  Tensor weights_, bias_, grad_weights_, grad_bias_;
  Tensor cached_input_;
};

/// Collapse (N, ...) to (N, D).
class Flatten : public Layer {
public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

private:
  std::vector<std::size_t> cached_shape_;
};

/// Elementwise activation (one of the paper's eight).
class Activation : public Layer {
public:
  explicit Activation(ActivationKind kind) : kind_(kind) {}

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override {
    return std::string("Activation:") + activation_name(kind_);
  }

private:
  ActivationKind kind_;
  Tensor cached_input_;
};

/// Inverted dropout with the paper's rate (0.4 in the dropout layer).
class Dropout : public Layer {
public:
  Dropout(double rate, util::Rng& rng) : rate_(rate), rng_(&rng) {}

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Dropout"; }

private:
  double rate_;
  util::Rng* rng_;
  Tensor mask_;
};

}  // namespace flowgen::nn
