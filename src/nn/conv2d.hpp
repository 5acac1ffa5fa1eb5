#pragma once
// 2-D convolution with 'same' zero padding and configurable stride (the
// paper uses stride 1x1 and rectangular n x 2n kernels — see Figure 6's
// kernel-size study). Input layout (N, H, W, C_in); weights
// (KH, KW, C_in, C_out).

#include "nn/layers.hpp"

namespace flowgen::nn {

class Conv2D : public Layer {
public:
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_h, std::size_t kernel_w, util::Rng& rng,
         std::size_t stride = 1);

  Tensor forward(const Tensor& input, bool training) override;
  /// backward_params() plus the input gradient.
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  std::string name() const override { return "Conv2D"; }

  std::size_t kernel_h() const { return kh_; }
  std::size_t kernel_w() const { return kw_; }

private:
  std::size_t in_ch_, out_ch_, kh_, kw_, stride_;
  Tensor weights_, bias_, grad_weights_, grad_bias_;
  Tensor cached_input_;
};

}  // namespace flowgen::nn
