#include "core/classifier.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace flowgen::core {

namespace {

/// Calls f(begin, chunk) for consecutive chunks of at most kPredictChunk
/// flows, chunk starting at flows[begin].
template <typename F>
void for_each_chunk(std::span<const Flow> flows, const F& f) {
  constexpr std::size_t kChunk = CnnFlowClassifier::kPredictChunk;
  for (std::size_t begin = 0; begin < flows.size(); begin += kChunk) {
    f(begin, flows.subspan(begin, std::min(kChunk, flows.size() - begin)));
  }
}

}  // namespace

CnnFlowClassifier::CnnFlowClassifier(const ClassifierConfig& config)
    : config_(config), rng_(config.seed) {
  default_reshape(config_.flow_length, config_.num_transforms, input_h_,
                  input_w_);

  const auto act = config_.activation;
  model_.emplace<nn::Conv2D>(1, config_.conv_filters, config_.kernel_h,
                             config_.kernel_w, rng_);
  model_.emplace<nn::Activation>(act);
  model_.emplace<nn::MaxPool2D>(2, 2, 1);
  model_.emplace<nn::Conv2D>(config_.conv_filters, config_.conv_filters,
                             config_.kernel_h, config_.kernel_w, rng_);
  model_.emplace<nn::Activation>(act);
  model_.emplace<nn::MaxPool2D>(2, 2, 1);

  // Spatial size after two stride-1 'same' convs and two 2x2 pools.
  const std::size_t h = input_h_ - 2;
  const std::size_t w = input_w_ - 2;
  if (h < config_.local_kernel || w < config_.local_kernel) {
    throw std::invalid_argument(
        "CnnFlowClassifier: input too small for the local layer");
  }
  model_.emplace<nn::LocallyConnected2D>(h, w, config_.conv_filters,
                                         config_.local_filters,
                                         config_.local_kernel,
                                         config_.local_kernel, rng_);
  model_.emplace<nn::Activation>(act);
  model_.emplace<nn::Flatten>();
  const std::size_t flat = (h - config_.local_kernel + 1) *
                           (w - config_.local_kernel + 1) *
                           config_.local_filters;
  model_.emplace<nn::Dense>(flat, config_.dense_units, rng_);
  model_.emplace<nn::Activation>(act);
  model_.emplace<nn::Dropout>(config_.dropout_rate, rng_);
  model_.emplace<nn::Dense>(config_.dense_units, config_.num_classes, rng_);
}

nn::Tensor CnnFlowClassifier::encode(std::span<const Flow> flows) const {
  return one_hot_batch(flows, config_.num_transforms, input_h_, input_w_);
}

double CnnFlowClassifier::train_batch(std::span<const Flow> flows,
                                      std::span<const std::uint32_t> labels,
                                      nn::Optimizer& optimizer) {
  assert(flows.size() == labels.size());
  const nn::Tensor input = encode(flows);
  const std::vector<std::uint32_t> label_vec(labels.begin(), labels.end());
  return model_.train_batch(input, label_vec, optimizer);
}

nn::Tensor CnnFlowClassifier::predict_proba(std::span<const Flow> flows) {
  nn::Tensor probs({flows.size(), config_.num_classes});
  for_each_chunk(flows, [&](std::size_t begin, std::span<const Flow> chunk) {
    const nn::Tensor part = model_.predict_proba(encode(chunk));
    std::copy_n(part.data(), part.size(),
                probs.data() + begin * config_.num_classes);
  });
  return probs;
}

std::vector<std::uint32_t> CnnFlowClassifier::predict(
    std::span<const Flow> flows) {
  return nn::argmax_rows(predict_proba(flows));
}

double CnnFlowClassifier::accuracy(std::span<const Flow> flows,
                                   std::span<const std::uint32_t> labels) {
  assert(flows.size() == labels.size());
  std::size_t hits = 0;
  for_each_chunk(flows, [&](std::size_t begin, std::span<const Flow> chunk) {
    const std::vector<std::uint32_t> pred = nn::argmax_rows(
        model_.forward(encode(chunk), /*training=*/false));
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == labels[begin + i]) ++hits;
    }
  });
  return flows.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(flows.size());
}

}  // namespace flowgen::core
