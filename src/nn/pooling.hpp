#pragma once
// Max pooling with configurable window and stride. The paper's architecture
// uses 2x2 windows with stride 1x1, so output size shrinks by window-1
// ('valid' semantics).

#include "nn/layers.hpp"

namespace flowgen::nn {

class MaxPool2D : public Layer {
public:
  MaxPool2D(std::size_t pool_h, std::size_t pool_w, std::size_t stride = 1);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

private:
  std::size_t ph_, pw_, stride_;
  // Of the last training forward: the flat input index per output element.
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> input_shape_;
};

}  // namespace flowgen::nn
