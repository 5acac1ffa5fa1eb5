#pragma once
// Component (2) of the framework: the CNN flow classifier of Figure 3.
// Architecture: one-hot (L x n) reshaped to (H x W) -> Conv(kh x kw, F) ->
// MaxPool(2x2, stride 1) -> Conv -> MaxPool -> LocallyConnected ->
// Dense -> Dropout(0.4) -> Dense(num_classes) -> softmax (in the loss).
// Kernel shape, activation, filter count and optimizer are configurable —
// they are exactly the axes the paper ablates in Figures 4-7.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/one_hot.hpp"
#include "nn/conv2d.hpp"
#include "nn/locally_connected.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "util/rng.hpp"

namespace flowgen::core {

struct ClassifierConfig {
  std::size_t flow_length = 24;     ///< L = n * m
  std::size_t num_transforms = 6;   ///< n
  std::size_t num_classes = 7;

  // Paper settings: 200 filters, kernel n x 2n (6x12 best), SELU, batch 5.
  std::size_t conv_filters = 200;
  std::size_t kernel_h = 6;
  std::size_t kernel_w = 12;
  std::size_t local_filters = 32;
  std::size_t local_kernel = 3;
  std::size_t dense_units = 64;
  double dropout_rate = 0.4;
  nn::ActivationKind activation = nn::ActivationKind::kSELU;

  std::uint64_t seed = 1;
};

class CnnFlowClassifier {
public:
  /// Flows per inference forward in predict_proba() and accuracy(): one
  /// layer's input plus output stays near 1 MiB at 16 filters, and a large
  /// pool is never one-hot encoded at once. Every layer computes each row
  /// on its own, so the chunk changes no bit of any result.
  static constexpr std::size_t kPredictChunk = 32;

  explicit CnnFlowClassifier(const ClassifierConfig& config);

  const ClassifierConfig& config() const { return config_; }
  std::size_t num_parameters() { return model_.num_parameters(); }

  /// One mini-batch training step on already-encoded labels.
  double train_batch(std::span<const Flow> flows,
                     std::span<const std::uint32_t> labels,
                     nn::Optimizer& optimizer);

  /// Class probabilities, one row per flow (softmax output).
  nn::Tensor predict_proba(std::span<const Flow> flows);

  /// Argmax classes.
  std::vector<std::uint32_t> predict(std::span<const Flow> flows);

  /// Fraction of flows classified into their true class.
  double accuracy(std::span<const Flow> flows,
                  std::span<const std::uint32_t> labels);

private:
  nn::Tensor encode(std::span<const Flow> flows) const;

  ClassifierConfig config_;
  std::size_t input_h_ = 0, input_w_ = 0;
  util::Rng rng_;
  nn::Sequential model_;
};

}  // namespace flowgen::core
