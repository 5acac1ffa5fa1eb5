#include "nn/pooling.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

namespace flowgen::nn {

MaxPool2D::MaxPool2D(std::size_t pool_h, std::size_t pool_w,
                     std::size_t stride)
    : ph_(pool_h), pw_(pool_w), stride_(stride) {}

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  assert(input.rank() == 4);
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t c = input.dim(3);
  if (h < ph_ || w < pw_) {
    throw std::invalid_argument("MaxPool2D: window larger than input");
  }
  const std::size_t oh = (h - ph_) / stride_ + 1;
  const std::size_t ow = (w - pw_) / stride_ + 1;

  Tensor out({n, oh, ow, c});
  if (training) {
    input_shape_ = input.shape();
    argmax_.assign(out.size(), 0);
  }

  std::size_t out_idx = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ch = 0; ch < c; ++ch, ++out_idx) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t py = 0; py < ph_; ++py) {
            for (std::size_t px = 0; px < pw_; ++px) {
              const std::size_t iy = oy * stride_ + py;
              const std::size_t ix = ox * stride_ + px;
              const std::size_t idx = ((b * h + iy) * w + ix) * c + ch;
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          out[out_idx] = best;
          if (training) argmax_[out_idx] = best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  assert(!input_shape_.empty() &&  // a training forward came first
         grad_output.size() == argmax_.size());
  Tensor grad_input(input_shape_);
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

}  // namespace flowgen::nn
