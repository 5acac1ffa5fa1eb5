#include "nn/layers.hpp"

#include <cassert>

namespace flowgen::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features,
             util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weights_({in_features, out_features}),
      bias_({out_features}),
      grad_weights_({in_features, out_features}),
      grad_bias_({out_features}) {
  weights_.glorot_init(rng, in_features, out_features);
}

Tensor Dense::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 2 && input.dim(1) == in_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  Tensor out({n, out_});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < in_; ++k) {
      const double x = input.at(i, k);
      if (x == 0.0) continue;  // one-hot inputs are mostly zero
      for (std::size_t j = 0; j < out_; ++j) {
        out.at(i, j) += x * weights_.at(k, j);
      }
    }
    for (std::size_t j = 0; j < out_; ++j) out.at(i, j) += bias_[j];
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  const std::size_t n = cached_input_.dim(0);
  assert(grad_output.rank() == 2 && grad_output.dim(0) == n &&
         grad_output.dim(1) == out_);
  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input({n, in_});
  const double* __restrict x = cached_input_.data();
  const double* __restrict w = weights_.data();
  double* __restrict gw = grad_weights_.data();
  double* __restrict gb = grad_bias_.data();
  double* __restrict gi = grad_input.data();
  constexpr std::size_t kTile = 4;  // weight rows per register tile
  for (std::size_t i = 0; i < n; ++i) {
    const double* __restrict g = grad_output.data() + i * out_;
    // grad_weights and grad_bias collect the rows i in ascending order.
    for (std::size_t j = 0; j < out_; ++j) gb[j] += g[j];
    for (std::size_t k = 0; k < in_; ++k) {
      const double v = x[i * in_ + k];
      for (std::size_t j = 0; j < out_; ++j) gw[k * out_ + j] += v * g[j];
    }
    // grad_input[i][k]: one running sum over j ascending, kTile rows of
    // the weights at a time.
    std::size_t k = 0;
    for (; k + kTile <= in_; k += kTile) {
      double acc[kTile] = {};
      for (std::size_t j = 0; j < out_; ++j) {
        for (std::size_t t = 0; t < kTile; ++t) {
          acc[t] += w[(k + t) * out_ + j] * g[j];
        }
      }
      for (std::size_t t = 0; t < kTile; ++t) gi[i * in_ + k + t] = acc[t];
    }
    for (; k < in_; ++k) {
      double acc = 0.0;
      for (std::size_t j = 0; j < out_; ++j) acc += w[k * out_ + j] * g[j];
      gi[i * in_ + k] = acc;
    }
  }
  return grad_input;
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  cached_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.size() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_shape_);
}

Tensor Activation::forward(const Tensor& input, bool /*training*/) {
  cached_input_ = input;
  Tensor out(input.shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = activate(kind_, input[i]);
  }
  return out;
}

Tensor Activation::backward(const Tensor& grad_output) {
  assert(grad_output.size() == cached_input_.size());
  Tensor grad(cached_input_.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    // Every kind's derivative is finite and >= 0 (+0, never -0) at any
    // input but NaN, so a +-0 upstream gradient times it is that same
    // zero: return it without the derivative (SELU's calls exp).
    const double g = grad_output[i];
    grad[i] = g == 0.0 ? g : g * activate_grad(kind_, cached_input_[i]);
  }
  return grad;
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  last_training_ = training;
  if (!training || rate_ <= 0.0) return input;
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  const double keep = 1.0 - rate_;
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Inverted dropout: scale at train time so inference needs no change.
    mask_[i] = rng_->chance(keep) ? 1.0 / keep : 0.0;
    out[i] = input[i] * mask_[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || rate_ <= 0.0) return grad_output;
  Tensor grad(grad_output.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] = grad_output[i] * mask_[i];
  }
  return grad;
}

}  // namespace flowgen::nn
