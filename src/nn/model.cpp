#include "nn/model.hpp"

#include <cassert>

namespace flowgen::nn {

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

double Sequential::train_batch(const Tensor& input,
                               const std::vector<std::uint32_t>& labels,
                               Optimizer& optimizer) {
  const Tensor logits = forward(input, /*training=*/true);
  LossResult loss = sparse_softmax_cross_entropy(logits, labels);
  Tensor grad = std::move(loss.grad_logits);
  for (std::size_t i = layers_.size(); i-- > 1;) {
    grad = layers_[i]->backward(grad);
  }
  if (!layers_.empty()) layers_.front()->backward_params(grad);
  optimizer.step(params(), grads());
  return loss.loss;
}

Tensor Sequential::predict_proba(const Tensor& input) {
  return softmax(forward(input, /*training=*/false));
}

double Sequential::evaluate_accuracy(const Tensor& input,
                                     const std::vector<std::uint32_t>& labels) {
  const Tensor logits = forward(input, /*training=*/false);
  const std::vector<std::uint32_t> pred = argmax_rows(logits);
  assert(pred.size() == labels.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(labels.size());
}

std::vector<Tensor*> Sequential::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Sequential::num_parameters() {
  std::size_t n = 0;
  for (Tensor* p : params()) n += p->size();
  return n;
}

std::vector<std::uint32_t> argmax_rows(const Tensor& t) {
  assert(t.rank() == 2);
  std::vector<std::uint32_t> out(t.dim(0), 0);
  for (std::size_t i = 0; i < t.dim(0); ++i) {
    double best = t.at(i, 0);
    for (std::size_t j = 1; j < t.dim(1); ++j) {
      if (t.at(i, j) > best) {
        best = t.at(i, j);
        out[i] = static_cast<std::uint32_t>(j);
      }
    }
  }
  return out;
}

}  // namespace flowgen::nn
