#include "nn/locally_connected.hpp"

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "nn/tiles.hpp"

namespace flowgen::nn {

namespace {

using tiles::for_each_tile;
using tiles::Pair;
using tiles::Quad;

// A batch through a locally connected layer: image b's output position
// (oy, ox) reads the patch x[b][oy + ky][ox + kx][ci] with weights
// w[oy*ow + ox][(ky*kw + kx)*ci_n + ci][co].
struct Local {
  const double* x;  // (n, in_h, in_w, ci_n)
  const double* w;  // (oh*ow, patch, co_n)
  std::size_t n, in_h, in_w, ci_n, co_n, kh, kw, oh, ow;

  std::size_t run() const { return kw * ci_n; }  // one kernel row (kx, ci)
  std::size_t row() const { return in_w * ci_n; }
  std::size_t patch() const { return kh * run(); }
  std::size_t image() const { return in_h * row(); }
  std::size_t out_image() const { return oh * ow * co_n; }
};

// y[b][pos][co] = bias[pos][co] + the sum over the patch (ky, then kx and
// ci) of x * w, one +0 running sum per output. Positions outermost: one
// position's weights stay in L1 while every image reuses them, and the
// images are the rows of a gather.
template <typename Wide>
[[gnu::always_inline]] inline void local_forward_tiles(const Local& c,
                                                       const double* bias,
                                                       double* y) {
  const tiles::Terms terms{c.kh, c.row(), c.run() * c.co_n,
                           c.run(), 1, c.co_n};
  for (std::size_t oy = 0; oy < c.oh; ++oy) {
    for (std::size_t ox = 0; ox < c.ow; ++ox) {
      const std::size_t pos = oy * c.ow + ox;
      const double* x = c.x + (oy * c.in_w + ox) * c.ci_n;
      const double* w = c.w + pos * c.patch() * c.co_n;
      double* out = y + pos * c.co_n;
      for_each_tile<Wide>(c.co_n, [&]<typename V, std::size_t L>(
                                      std::size_t j0)
                                      __attribute__((always_inline)) {
        tiles::gather<V, L>(c.n, x, c.image(), w + j0, terms, out + j0,
                            c.out_image());
        for (std::size_t b = 0; b < c.n; ++b) {
          tiles::add<V, L>(bias + pos * c.co_n + j0,
                           out + b * c.out_image() + j0);
        }
      });
    }
  }
}

[[gnu::target("default")]] void local_forward(const Local& c,
                                              const double* bias, double* y) {
  local_forward_tiles<Pair>(c, bias, y);
}

[[gnu::target("avx2")]] void local_forward(const Local& c, const double* bias,
                                           double* y) {
  local_forward_tiles<Quad>(c, bias, y);
}

// grad_weights[pos][p][co] sums over the images b ascending, and
// grad_input[b][iy][ix][ci] continues one running sum over the positions
// ascending, co ascending within each. Positions outermost, as in
// local_forward(); `wt` holds one position's weights transposed to
// (co_n, patch), so that the input gradient's tile runs along the patch.
template <typename Wide>
[[gnu::always_inline]] inline void local_backward_tiles(const Local& c,
                                                        const double* g,
                                                        double* gw,
                                                        double* gi,
                                                        double* wt) {
  const std::size_t run = c.run();
  const std::size_t patch = c.patch();
  const tiles::Terms images{1, 0, 0, c.n, c.image(), c.out_image()};
  const tiles::Terms channels{1, 0, 0, c.co_n, 1, patch};
  for (std::size_t oy = 0; oy < c.oh; ++oy) {
    for (std::size_t ox = 0; ox < c.ow; ++ox) {
      const std::size_t pos = oy * c.ow + ox;
      const std::size_t corner = (oy * c.in_w + ox) * c.ci_n;
      const double* gp = g + pos * c.co_n;
      const double* w = c.w + pos * patch * c.co_n;
      for (std::size_t p = 0; p < patch; ++p) {
        for (std::size_t co = 0; co < c.co_n; ++co) {
          wt[co * patch + p] = w[p * c.co_n + co];
        }
      }
      for (std::size_t ky = 0; ky < c.kh; ++ky) {
        const std::size_t p0 = ky * run;
        // Rows: the run's patch elements; terms: the images.
        for_each_tile<Wide>(c.co_n, [&]<typename V, std::size_t L>(
                                        std::size_t j0)
                                        __attribute__((always_inline)) {
          tiles::gather<V, L>(run, c.x + corner + ky * c.row(), 1, gp + j0,
                              images, gw + (pos * patch + p0) * c.co_n + j0,
                              c.co_n);
        });
        // Rows: the images; terms: the output channels.
        for_each_tile<Wide>(run, [&]<typename V, std::size_t L>(
                                     std::size_t q0)
                                     __attribute__((always_inline)) {
          tiles::gather<V, L>(c.n, gp, c.out_image(), wt + p0 + q0, channels,
                              gi + corner + ky * c.row() + q0, c.image());
        });
      }
    }
  }
}

[[gnu::target("default")]] void local_backward(const Local& c, const double* g,
                                               double* gw, double* gi,
                                               double* wt) {
  local_backward_tiles<Pair>(c, g, gw, gi, wt);
}

[[gnu::target("avx2")]] void local_backward(const Local& c, const double* g,
                                            double* gw, double* gi,
                                            double* wt) {
  local_backward_tiles<Quad>(c, g, gw, gi, wt);
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

Tensor LocallyConnected2D::forward(const Tensor& input, bool training) {
  assert(input.rank() == 4 && input.dim(1) == in_h_ &&
         input.dim(2) == in_w_ && input.dim(3) == in_ch_);
  if (training) cached_input_ = input;
  const std::size_t n = input.dim(0);
  Tensor out({n, oh_, ow_, out_ch_});
  local_forward({input.data(), weights_.data(), n, in_h_, in_w_, in_ch_,
                 out_ch_, kh_, kw_, oh_, ow_},
                bias_.data(), out.data());
  return out;
}

Tensor LocallyConnected2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  assert(input.rank() == 4);  // a training forward came first
  const std::size_t n = input.dim(0);
  const double* g = grad_output.data();

  // grad_bias[pos][co]: the images ascending.
  grad_bias_.zero();
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t i = 0; i < grad_bias_.size(); ++i) {
      grad_bias_[i] += g[b * grad_bias_.size() + i];
    }
  }
  grad_weights_.zero();
  Tensor grad_input(input.shape());
  std::vector<double> transposed(kh_ * kw_ * in_ch_ * out_ch_);
  local_backward({input.data(), weights_.data(), n, in_h_, in_w_, in_ch_,
                  out_ch_, kh_, kw_, oh_, ow_},
                 g, grad_weights_.data(), grad_input.data(),
                 transposed.data());
  return grad_input;
}

}  // namespace flowgen::nn
