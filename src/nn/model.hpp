#pragma once
// Sequential model container: owns layers, wires forward/backward, exposes
// a mini-batch training step (the paper trains with batch size 5).

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/optimizers.hpp"

namespace flowgen::nn {

class Sequential {
public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Layer> layer);

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, bool training);

  /// One mini-batch SGD step: forward, loss, backward, optimizer update.
  /// The first layer computes only its parameter gradients
  /// (Layer::backward_params). Returns the batch loss.
  double train_batch(const Tensor& input,
                     const std::vector<std::uint32_t>& labels,
                     Optimizer& optimizer);

  /// Inference: class probabilities (N, C).
  Tensor predict_proba(const Tensor& input);

  /// Fraction of rows whose argmax matches the label.
  double evaluate_accuracy(const Tensor& input,
                           const std::vector<std::uint32_t>& labels);

  std::vector<Tensor*> params();
  std::vector<Tensor*> grads();
  std::size_t num_parameters();

  const std::vector<std::unique_ptr<Layer>>& layers() const {
    return layers_;
  }

private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Argmax of each row of a (N, C) tensor.
std::vector<std::uint32_t> argmax_rows(const Tensor& t);

}  // namespace flowgen::nn
