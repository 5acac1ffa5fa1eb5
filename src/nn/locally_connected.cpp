#include "nn/locally_connected.hpp"

#include <cassert>
#include <stdexcept>

namespace flowgen::nn {

namespace {

// Independent accumulators per tile, held in registers.
constexpr std::size_t kChannels = 4;

// y[co0 .. co0+T) = bias + sum over the patch (ky, then kx and ci) of
// x * w, one +0 accumulator per channel, terms in patch order.
template <std::size_t T>
void forward_tile(const double* __restrict x, std::size_t row,
                  std::size_t kh, std::size_t run,
                  const double* __restrict w, std::size_t co_n,
                  const double* __restrict bias, std::size_t co0,
                  double* __restrict y) {
  double acc[T] = {};
  const double* wr = w + co0;
  for (std::size_t ky = 0; ky < kh; ++ky) {
    const double* xr = x + ky * row;
    for (std::size_t q = 0; q < run; ++q, wr += co_n) {
      const double v = xr[q];
      for (std::size_t t = 0; t < T; ++t) acc[t] += v * wr[t];
    }
  }
  for (std::size_t t = 0; t < T; ++t) y[co0 + t] = acc[t] + bias[co0 + t];
}

// gi[t] += w[t][co] * g[co] for co ascending: T running sums, each
// continued from its stored value.
template <std::size_t T>
void input_grad_tile(const double* __restrict w, std::size_t co_n,
                     const double* __restrict g, double* __restrict gi) {
  double acc[T];
  for (std::size_t t = 0; t < T; ++t) acc[t] = gi[t];
  for (std::size_t co = 0; co < co_n; ++co) {
    for (std::size_t t = 0; t < T; ++t) acc[t] += w[t * co_n + co] * g[co];
  }
  for (std::size_t t = 0; t < T; ++t) gi[t] = acc[t];
}

}  // namespace

LocallyConnected2D::LocallyConnected2D(std::size_t in_h, std::size_t in_w,
                                       std::size_t in_channels,
                                       std::size_t out_channels,
                                       std::size_t kernel_h,
                                       std::size_t kernel_w, util::Rng& rng)
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

Tensor LocallyConnected2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(1) == in_h_ &&
         input.dim(2) == in_w_ && input.dim(3) == in_ch_);
  cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;
  // One kernel row (kx, ci) of a patch is contiguous in the input.
  const std::size_t run = kw_ * in_ch_;

  Tensor out({n, oh_, ow_, out_ch_});
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        const double* x =
            input.data() + ((b * in_h_ + oy) * in_w_ + ox) * in_ch_;
        const double* w = weights_.data() + pos * patch * out_ch_;
        double* y = out.data() + ((b * oh_ + oy) * ow_ + ox) * out_ch_;
        std::size_t co = 0;
        for (; co + kChannels <= out_ch_; co += kChannels) {
          forward_tile<kChannels>(x, in_w_ * in_ch_, kh_, run, w, out_ch_,
                                  bias_.data() + pos * out_ch_, co, y);
        }
        for (; co < out_ch_; ++co) {
          forward_tile<1>(x, in_w_ * in_ch_, kh_, run, w, out_ch_,
                          bias_.data() + pos * out_ch_, co, y);
        }
      }
    }
  }
  return out;
}

Tensor LocallyConnected2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t patch = kh_ * kw_ * in_ch_;
  const std::size_t run = kw_ * in_ch_;
  const std::size_t row = in_w_ * in_ch_;

  grad_weights_.zero();
  grad_bias_.zero();
  Tensor grad_input(input.shape());
  double* __restrict gw = grad_weights_.data();
  double* __restrict gb = grad_bias_.data();
  double* __restrict gi = grad_input.data();
  const double* __restrict x = input.data();
  const double* __restrict wt = weights_.data();

  // Every gradient element collects its terms in the order the loops
  // below reach them: batch b ascending for grad_weights and grad_bias,
  // output position then co ascending for grad_input.
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oy = 0; oy < oh_; ++oy) {
      for (std::size_t ox = 0; ox < ow_; ++ox) {
        const std::size_t pos = oy * ow_ + ox;
        const double* __restrict g =
            grad_output.data() + ((b * oh_ + oy) * ow_ + ox) * out_ch_;
        for (std::size_t co = 0; co < out_ch_; ++co) {
          gb[pos * out_ch_ + co] += g[co];
        }
        const std::size_t corner = ((b * in_h_ + oy) * in_w_ + ox) * in_ch_;
        for (std::size_t ky = 0; ky < kh_; ++ky) {
          const std::size_t p0 = pos * patch + ky * run;
          for (std::size_t q = 0; q < run; ++q) {
            const double v = x[corner + ky * row + q];
            double* __restrict gw_row = gw + (p0 + q) * out_ch_;
            for (std::size_t co = 0; co < out_ch_; ++co) {
              gw_row[co] += v * g[co];
            }
          }
          double* __restrict gi_run = gi + corner + ky * row;
          const double* __restrict w_run = wt + p0 * out_ch_;
          std::size_t q = 0;
          for (; q + kChannels <= run; q += kChannels) {
            input_grad_tile<kChannels>(w_run + q * out_ch_, out_ch_, g,
                                       gi_run + q);
          }
          for (; q < run; ++q) {
            input_grad_tile<1>(w_run + q * out_ch_, out_ch_, g, gi_run + q);
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace flowgen::nn
