// Bit-for-bit parity of the Conv2D, LocallyConnected2D and Dense kernels
// with the plain loops they replaced. The Ref* layers below are those
// loops, kept verbatim as the oracle: every output element adds its terms
// in the order nn/tensor.hpp documents, and the optimized kernels
// must produce the same bits (memcmp), not merely close values. Inputs and
// upstream gradients carry about 30% exact zeros of both signs, which the
// reference skips and the kernels may add.

#include <gtest/gtest.h>

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/layers.hpp"
#include "nn/locally_connected.hpp"
#include "nn/model.hpp"
#include "nn/optimizers.hpp"
#include "nn/pooling.hpp"
#include "util/crc32.hpp"

namespace flowgen::nn {
namespace {

class RefConv2D : public Layer {
public:
  RefConv2D(std::size_t in_channels, std::size_t out_channels,
            std::size_t kernel_h, std::size_t kernel_w, util::Rng& rng,
            std::size_t stride = 1);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  std::string name() const override { return "RefConv2D"; }

private:
  std::size_t in_ch_, out_ch_, kh_, kw_, stride_;
  Tensor weights_, bias_, grad_weights_, grad_bias_;
  Tensor cached_input_;
};

class RefLocallyConnected2D : public Layer {
public:
  RefLocallyConnected2D(std::size_t in_h, std::size_t in_w,
                        std::size_t in_channels, std::size_t out_channels,
                        std::size_t kernel_h, std::size_t kernel_w,
                        util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  std::string name() const override { return "RefLocallyConnected2D"; }

private:
  std::size_t in_h_, in_w_, in_ch_, out_ch_, kh_, kw_, oh_, ow_;
  Tensor weights_, bias_, grad_weights_, grad_bias_;
  Tensor cached_input_;
};

class RefDense : public Layer {
public:
  RefDense(std::size_t in_features, std::size_t out_features,
           util::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weights_, &bias_}; }
  std::vector<Tensor*> grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  std::string name() const override { return "RefDense"; }

private:
  std::size_t in_, out_;
  Tensor weights_, bias_, grad_weights_, grad_bias_;
  Tensor cached_input_;
};

RefConv2D::RefConv2D(std::size_t in_channels, std::size_t out_channels,
                     std::size_t kernel_h, std::size_t kernel_w,
                     util::Rng& rng, std::size_t stride)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      stride_(stride),
      weights_({kernel_h, kernel_w, in_channels, out_channels}),
      bias_({out_channels}),
      grad_weights_({kernel_h, kernel_w, in_channels, out_channels}),
      grad_bias_({out_channels}) {
  weights_.glorot_init(rng, kernel_h * kernel_w * in_channels,
                       kernel_h * kernel_w * out_channels);
}

Tensor RefConv2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(3) == in_ch_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = (h + stride_ - 1) / stride_;
  const std::size_t ow = (w + stride_ - 1) / stride_;
  // 'same' padding: centre the kernel; pad_top/left derived from kernel size.
  const std::ptrdiff_t pad_t = static_cast<std::ptrdiff_t>(kh_ - 1) / 2;
  const std::ptrdiff_t pad_l = static_cast<std::ptrdiff_t>(kw_ - 1) / 2;

  Tensor out({n, oh, ow, out_ch_});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * stride_ + ky) - pad_t;
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
          for (std::size_t kx = 0; kx < kw_; ++kx) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * stride_ + kx) - pad_l;
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
            for (std::size_t ci = 0; ci < in_ch_; ++ci) {
              const double x =
                  input.at(b, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix), ci);
              if (x == 0.0) continue;
              for (std::size_t co = 0; co < out_ch_; ++co) {
                out.at(b, oy, ox, co) += x * weights_.at(ky, kx, ci, co);
              }
            }
          }
        }
        for (std::size_t co = 0; co < out_ch_; ++co) {
          out.at(b, oy, ox, co) += bias_[co];
        }
      }
    }
  }
  return out;
}

Tensor RefConv2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = grad_output.dim(1);
  const std::size_t ow = grad_output.dim(2);
  const std::ptrdiff_t pad_t = static_cast<std::ptrdiff_t>(kh_ - 1) / 2;
  const std::ptrdiff_t pad_l = static_cast<std::ptrdiff_t>(kw_ - 1) / 2;

  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input(input.shape());

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        for (std::size_t co = 0; co < out_ch_; ++co) {
          const double go = grad_output.at(b, oy, ox, co);
          if (go == 0.0) continue;
          grad_bias_[co] += go;
          for (std::size_t ky = 0; ky < kh_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) - pad_t;
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < kw_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) - pad_l;
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              for (std::size_t ci = 0; ci < in_ch_; ++ci) {
                const auto uy = static_cast<std::size_t>(iy);
                const auto ux = static_cast<std::size_t>(ix);
                grad_weights_.at(ky, kx, ci, co) +=
                    input.at(b, uy, ux, ci) * go;
                grad_input.at(b, uy, ux, ci) +=
                    weights_.at(ky, kx, ci, co) * go;
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

RefLocallyConnected2D::RefLocallyConnected2D(
    std::size_t in_h, std::size_t in_w, std::size_t in_channels,
    std::size_t out_channels, std::size_t kernel_h, std::size_t kernel_w,
    util::Rng& rng)
    : in_h_(in_h),
      in_w_(in_w),
      in_ch_(in_channels),
      out_ch_(out_channels),
      kh_(kernel_h),
      kw_(kernel_w),
      oh_(in_h - kernel_h + 1),
      ow_(in_w - kernel_w + 1) {
  if (in_h < kernel_h || in_w < kernel_w) {
    throw std::invalid_argument("LocallyConnected2D: kernel exceeds input");
  }
  const std::size_t patch = kh_ * kw_ * in_ch_;
  weights_ = Tensor({oh_ * ow_, patch, out_ch_});
  grad_weights_ = Tensor({oh_ * ow_, patch, out_ch_});
  bias_ = Tensor({oh_ * ow_, out_ch_});
  grad_bias_ = Tensor({oh_ * ow_, out_ch_});
  weights_.glorot_init(rng, patch, out_ch_);
}

Tensor RefLocallyConnected2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(1) == in_h_ &&
         input.dim(2) == in_w_ && input.dim(3) == in_ch_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;

  Tensor out({n, oh_, ow_, out_ch_});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        std::size_t p = 0;
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          for (std::size_t kx = 0; kx < kw_; ++kx) {
            for (std::size_t ci = 0; ci < in_ch_; ++ci, ++p) {
              const double x = input.at(b, oy + ky, ox + kx, ci);
              if (x == 0.0) continue;
              for (std::size_t co = 0; co < out_ch_; ++co) {
                out.at(b, oy, ox, co) +=
                    x * weights_[(pos * patch + p) * out_ch_ + co];
              }
            }
          }
        }
        for (std::size_t co = 0; co < out_ch_; ++co) {
          out.at(b, oy, ox, co) += bias_[pos * out_ch_ + co];
        }
      }
    }
  }
  return out;
}

Tensor RefLocallyConnected2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;

  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input(input.shape());

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        for (std::size_t co = 0; co < out_ch_; ++co) {
          const double go = grad_output.at(b, oy, ox, co);
          if (go == 0.0) continue;
          grad_bias_[pos * out_ch_ + co] += go;
          std::size_t p = 0;
          for (std::size_t ky = 0; ky < kh_; ++ky) {
            for (std::size_t kx = 0; kx < kw_; ++kx) {
              for (std::size_t ci = 0; ci < in_ch_; ++ci, ++p) {
                grad_weights_[(pos * patch + p) * out_ch_ + co] +=
                    input.at(b, oy + ky, ox + kx, ci) * go;
                grad_input.at(b, oy + ky, ox + kx, ci) +=
                    weights_[(pos * patch + p) * out_ch_ + co] * go;
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

RefDense::RefDense(std::size_t in_features, std::size_t out_features,
                   util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weights_({in_features, out_features}),
      bias_({out_features}),
      grad_weights_({in_features, out_features}),
      grad_bias_({out_features}) {
  weights_.glorot_init(rng, in_features, out_features);
}

Tensor RefDense::forward(const Tensor& input, bool /*training*/) {
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

Tensor RefDense::backward(const Tensor& grad_output) {
  const std::size_t n = cached_input_.dim(0);
  assert(grad_output.rank() == 2 && grad_output.dim(0) == n &&
         grad_output.dim(1) == out_);
  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input({n, in_});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < out_; ++j) {
      const double go = grad_output.at(i, j);
      grad_bias_[j] += go;
      for (std::size_t k = 0; k < in_; ++k) {
        grad_weights_.at(k, j) += cached_input_.at(i, k) * go;
        grad_input.at(i, k) += weights_.at(k, j) * go;
      }
    }
  }
  return grad_input;
}


/// Normal values with about `zeros` of the entries exact zeros, half of
/// them -0.0.
Tensor random_tensor(const std::vector<std::size_t>& shape, util::Rng& rng,
                     double zeros) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (rng.chance(zeros)) {
      t[i] = rng.chance(0.5) ? 0.0 : -0.0;
    } else {
      t[i] = rng.normal();
    }
  }
  return t;
}

::testing::AssertionResult same_bits(const char* what, const Tensor& a,
                                     const Tensor& b) {
  if (a.shape() != b.shape()) {
    return ::testing::AssertionFailure()
           << what << ": shape " << a.shape_string() << " vs "
           << b.shape_string();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(a.data() + i, b.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: " << a[i] << " vs reference "
             << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Gives both layers the same random parameters, runs forward and backward
/// on the same input and upstream gradient, and compares every result.
void expect_parity(Layer& layer, Layer& ref, const Tensor& input,
                   util::Rng& rng) {
  const std::vector<Tensor*> params = layer.params();
  const std::vector<Tensor*> ref_params = ref.params();
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    ASSERT_TRUE(same_bits("initial param", *params[p], *ref_params[p]));
    *params[p] = random_tensor(params[p]->shape(), rng, 0.0);
    *ref_params[p] = *params[p];
  }
  const Tensor out = layer.forward(input, true);
  EXPECT_TRUE(same_bits("output", out, ref.forward(input, true)));
  const Tensor grad_output = random_tensor(out.shape(), rng, 0.3);
  EXPECT_TRUE(same_bits("grad_input", layer.backward(grad_output),
                        ref.backward(grad_output)));
  const std::vector<Tensor*> grads = layer.grads();
  const std::vector<Tensor*> ref_grads = ref.grads();
  EXPECT_TRUE(same_bits("grad_weights", *grads[0], *ref_grads[0]));
  EXPECT_TRUE(same_bits("grad_bias", *grads[1], *ref_grads[1]));
}

TEST(NnKernelsTest, Conv2DMatchesReferenceBitForBit) {
  // Spatial sizes cycle through the cases: 11x11 is the classifier's
  // second convolution, 5x7 and 2x3 are smaller than a 6x12 kernel.
  const std::size_t sizes[][2] = {{11, 11}, {5, 7}, {12, 12}, {2, 3}, {7, 5}};
  const std::size_t kernels[][2] = {{1, 1}, {3, 3}, {6, 12}};
  util::Rng rng(11);
  std::size_t cases = 0;
  for (const std::size_t ci : {1, 3, 16}) {
    for (const std::size_t co : {1, 7, 16, 33}) {
      for (const auto& k : kernels) {
        for (const std::size_t stride : {1, 2}) {
          for (const std::size_t batch : {1, 5}) {
            const auto& hw = sizes[cases++ % 5];
            std::ostringstream label;
            label << "ci=" << ci << " co=" << co << " kernel=" << k[0] << "x"
                  << k[1] << " stride=" << stride << " batch=" << batch
                  << " input=" << hw[0] << "x" << hw[1];
            SCOPED_TRACE(label.str());
            util::Rng init(cases), ref_init(cases);
            Conv2D layer(ci, co, k[0], k[1], init, stride);
            RefConv2D ref(ci, co, k[0], k[1], ref_init, stride);
            expect_parity(layer, ref,
                          random_tensor({batch, hw[0], hw[1], ci}, rng, 0.3),
                          rng);
          }
        }
      }
    }
  }
}

TEST(NnKernelsTest, LocallyConnected2DMatchesReferenceBitForBit) {
  const std::size_t kernels[][2] = {{1, 1}, {3, 3}, {6, 12}};
  util::Rng rng(12);
  std::size_t cases = 0;
  for (const std::size_t ci : {1, 3, 16}) {
    for (const std::size_t co : {1, 7, 16, 33}) {
      for (const auto& k : kernels) {
        for (const std::size_t batch : {1, 5}) {
          // Up to 3 extra rows and columns: a 6x12 kernel may cover the
          // whole input or more than half of it.
          const std::size_t h = k[0] + (cases % 4);
          const std::size_t w = k[1] + (cases / 4 % 4);
          ++cases;
          std::ostringstream label;
          label << "ci=" << ci << " co=" << co << " kernel=" << k[0] << "x"
                << k[1] << " batch=" << batch << " input=" << h << "x" << w;
          SCOPED_TRACE(label.str());
          util::Rng init(cases), ref_init(cases);
          LocallyConnected2D layer(h, w, ci, co, k[0], k[1], init);
          RefLocallyConnected2D ref(h, w, ci, co, k[0], k[1], ref_init);
          expect_parity(layer, ref,
                        random_tensor({batch, h, w, ci}, rng, 0.3), rng);
        }
      }
    }
  }
}

TEST(NnKernelsTest, DenseMatchesReferenceBitForBit) {
  util::Rng rng(13);
  std::size_t cases = 0;
  for (const std::size_t in : {1, 3, 17, 512}) {
    for (const std::size_t out : {1, 7, 33}) {
      for (const std::size_t batch : {1, 5}) {
        std::ostringstream label;
        label << "in=" << in << " out=" << out << " batch=" << batch;
        SCOPED_TRACE(label.str());
        ++cases;
        util::Rng init(cases), ref_init(cases);
        Dense layer(in, out, init);
        RefDense ref(in, out, ref_init);
        expect_parity(layer, ref, random_tensor({batch, in}, rng, 0.3), rng);
      }
    }
  }
}

/// The classifier's stack (core/classifier.cpp) on 12x12 inputs.
template <typename Conv, typename Local, typename Fc>
Sequential classifier_shaped(std::size_t filters, util::Rng& rng) {
  Sequential model;
  model.emplace<Conv>(1, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<Conv>(filters, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<Local>(10, 10, filters, 8, 3, 3, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Flatten>();
  model.emplace<Fc>(8 * 8 * 8, 32, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Dropout>(0.4, rng);
  model.emplace<Fc>(32, 7, rng);
  return model;
}

/// A batch of one-hot-like 12x12 inputs.
Tensor sparse_batch(std::size_t n, util::Rng& rng) {
  Tensor x({n, 12, 12, 1});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.chance(1.0 / 6.0);
  return x;
}

TEST(NnKernelsTest, TrainingTrajectoryMatchesReferenceBitForBit) {
  // Both models draw their weights and dropout masks from equal seeds, so
  // every step sees the same numbers unless a kernel rounds differently.
  util::Rng rng(21), ref_rng(21);
  Sequential model = classifier_shaped<Conv2D, LocallyConnected2D, Dense>(
      16, rng);
  Sequential ref = classifier_shaped<RefConv2D, RefLocallyConnected2D,
                                     RefDense>(16, ref_rng);
  RmsProp opt(1e-3), ref_opt(1e-3);
  util::Rng data(22);
  for (std::size_t step = 0; step < 30; ++step) {
    const Tensor x = sparse_batch(5, data);
    std::vector<std::uint32_t> labels(5);
    for (std::uint32_t& l : labels) {
      l = static_cast<std::uint32_t>(data.below(7));
    }
    const double loss = model.train_batch(x, labels, opt);
    const double ref_loss = ref.train_batch(x, labels, ref_opt);
    ASSERT_EQ(std::memcmp(&loss, &ref_loss, sizeof loss), 0)
        << "step " << step << ": loss " << loss << " vs " << ref_loss;
  }
  const std::vector<Tensor*> params = model.params();
  const std::vector<Tensor*> ref_params = ref.params();
  ASSERT_EQ(params.size(), ref_params.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_TRUE(same_bits("param", *params[p], *ref_params[p])) << p;
  }
  const Tensor x = sparse_batch(16, data);
  EXPECT_TRUE(same_bits("predict_proba", model.predict_proba(x),
                        ref.predict_proba(x)));
}

/// A batch of one-hot 12x12 inputs laid out as core::one_hot_batch lays
/// out a flow of length 24 over 6 transforms: every run of 6 values holds
/// one 1 and five +0.
Tensor one_hot_batch(std::size_t n, util::Rng& rng) {
  Tensor x({n, 12, 12, 1});
  for (std::size_t s = 0; s < x.size(); s += 6) x[s + rng.below(6)] = 1.0;
  return x;
}

std::uint32_t crc_of(const Tensor& t, std::uint32_t crc) {
  return util::crc32({reinterpret_cast<const std::uint8_t*>(t.data()),
                      t.size() * sizeof(double)},
                     crc);
}

TEST(NnKernelsTest, ClassifierStackTrainingIsPinned) {
  // The trajectory test above cannot see a change in RmsProp, Activation,
  // MaxPool2D, Dropout or Sequential, which its two models share. These
  // CRCs were recorded from the two-lane SSE2 kernels and cover every bit
  // of the parameters after 30 RMSProp steps and of 64 predictions, so any
  // change in rounding anywhere in the stack (a reordered sum, a fused
  // multiply-add, a vector clone that rounds differently) fails here.
  // SELU also calls libm's exp and expm1, whose last bit is the C
  // library's.
  util::Rng rng(31);
  Sequential model = classifier_shaped<Conv2D, LocallyConnected2D, Dense>(
      16, rng);
  RmsProp opt(1e-3);
  util::Rng data(32);
  for (std::size_t step = 0; step < 30; ++step) {
    const Tensor x = one_hot_batch(5, data);
    std::vector<std::uint32_t> labels(5);
    for (std::uint32_t& l : labels) {
      l = static_cast<std::uint32_t>(data.below(7));
    }
    model.train_batch(x, labels, opt);
  }
  std::uint32_t params = 0;
  for (const Tensor* p : model.params()) params = crc_of(*p, params);
  EXPECT_EQ(params, 0xc1d31ad0u) << std::hex << params;
  const std::uint32_t proba = crc_of(model.predict_proba(
                                         one_hot_batch(64, data)),
                                     0);
  EXPECT_EQ(proba, 0xd390a30eu) << std::hex << proba;
}

}  // namespace
}  // namespace flowgen::nn
