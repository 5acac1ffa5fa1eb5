#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "nn/tiles.hpp"

namespace flowgen::nn {

namespace {

using tiles::for_each_tile;
using tiles::kLanes;
using tiles::Pair;
using tiles::Quad;

/// Lays a kernel bank out for correlate(): element (tap, i, j) of a
/// (taps, ni, nj) bank is read from k[t * ni * nj + i * i_step + j * j_step]
/// with t = tap, or taps - 1 - tap when `flip`, and each channel tile
/// [j0, j0 + width) becomes one contiguous (taps, ni, width) block at
/// offset j0 * taps * ni, so a tile streams through memory in order.
std::vector<double> pack_kernel(const double* k, std::size_t taps,
                                std::size_t ni, std::size_t nj,
                                std::size_t i_step, std::size_t j_step,
                                bool flip) {
  std::vector<double> packed(taps * ni * nj);
  double* out = packed.data();
  // Pair and Quad tiles have the same widths.
  for_each_tile<Pair>(nj, [&]<typename V, std::size_t L>(std::size_t j0) {
    for (std::size_t tap = 0; tap < taps; ++tap) {
      const double* src = k + (flip ? taps - 1 - tap : tap) * ni * nj;
      for (std::size_t i = 0; i < ni; ++i) {
        for (std::size_t t = 0; t < L * kLanes<V>; ++t) {
          *out++ = src[i * i_step + (j0 + t) * j_step];
        }
      }
    }
  });
  return packed;
}

using Range = std::pair<std::size_t, std::size_t>;

// Where a (kh, kw) kernel meets a (src_h, src_w) source: output (y, x) of
// (dh, dw) reads, through tap (ty, tx), element
//   S[y*stride + ty - pad_t][x*stride + tx - pad_l]
// of S, the source spread out by `dilation` (src[r][q] at S[r*d][q*d]) and
// zero elsewhere. One of stride and dilation is 1.
struct Geometry {
  std::size_t src_h, src_w, kh, kw, dh, dw, stride, dilation, pad_t, pad_l;
};

/// Along one axis: the outputs o in [0, count) at which tap t reads a real
/// source element, o*stride + t - pad = r*dilation with r in [0, size).
/// They run from first below last in steps of `dilation`, and r runs from
/// (first*stride + t - pad) / dilation in steps of `stride`.
Range tap_outputs(std::size_t t, std::size_t stride, std::size_t pad,
                  std::size_t dilation, std::size_t size, std::size_t count) {
  const auto u = static_cast<std::ptrdiff_t>(t) -
                 static_cast<std::ptrdiff_t>(pad);
  const auto s = static_cast<std::ptrdiff_t>(stride);
  const auto d = static_cast<std::ptrdiff_t>(dilation);
  const std::ptrdiff_t first = u >= 0 ? (d - u % d) % d : (-u + s - 1) / s;
  const std::ptrdiff_t reach = static_cast<std::ptrdiff_t>(size - 1) * d - u;
  const std::ptrdiff_t last =
      reach < 0 ? 0
                : std::min(static_cast<std::ptrdiff_t>(count), reach / s + 1);
  return {static_cast<std::size_t>(first),
          static_cast<std::size_t>(std::max(first, last))};
}

/// Along one axis: the outputs o in [0, count) that read source element r
/// through some tap t in [0, k), o*stride + t - pad = r*dilation, as
/// [first, last); output o reads it through tap r*dilation + pad - o*stride.
Range source_outputs(std::size_t r, std::size_t stride, std::size_t pad,
                     std::size_t dilation, std::size_t k, std::size_t count) {
  const std::size_t a = r * dilation + pad;
  const std::size_t first = a + 1 > k ? (a + 1 - k + stride - 1) / stride : 0;
  const std::size_t last = std::min(count, a / stride + 1);
  return {first, std::max(first, last)};
}

/// Calls f(v, tap, out) for each nonzero element v of a one-channel
/// source, in row-major order, and each output out = y*dw + x that reads
/// it, through tap = ty*kw + tx. An output meets its sources in the order
/// of its taps, and a tap meets its outputs in ascending order, so a
/// running sum fed from here takes its terms in the order of a loop over
/// either, less the zero ones.
template <typename F>
[[gnu::always_inline]] inline void for_each_hot_tap(const double* src,
                                                    const Geometry& g,
                                                    const F& f) {
  for (std::size_t r = 0; r < g.src_h; ++r) {
    const Range ys =
        source_outputs(r, g.stride, g.pad_t, g.dilation, g.kh, g.dh);
    for (std::size_t q = 0; q < g.src_w; ++q) {
      const double v = src[r * g.src_w + q];
      if (v == 0.0) continue;
      const Range xs =
          source_outputs(q, g.stride, g.pad_l, g.dilation, g.kw, g.dw);
      for (std::size_t y = ys.first; y < ys.second; ++y) {
        const std::size_t ty = r * g.dilation + g.pad_t - y * g.stride;
        for (std::size_t x = xs.first; x < xs.second; ++x) {
          const std::size_t tx = q * g.dilation + g.pad_l - x * g.stride;
          f(v, ty * g.kw + tx, y * g.dw + x);
        }
      }
    }
  }
}

// A correlation of one image with a kernel bank:
//   dst[y][x][j] = bias[j] + sum over ty, tx, i ascending of
//     S[y*stride + ty - pad_t][x*stride + tx - pad_l][i] * k[ty][tx][i][j]
// Each dst element is one running sum in exactly that order that starts at
// dst's +0 and adds the bias last; taps that land between or outside src's
// elements read S's zeros and are skipped.
struct Correlation {
  const double* src;  // (src_h, src_w, ni)
  std::size_t ni;
  const double* k;  // pack_kernel() of a (kh, kw, ni, nj) bank
  std::size_t nj;
  const double* bias;  // nj values, or nullptr
  double* dst;         // (dh, dw, nj), all +0
  Geometry g;
};

// Channel tiles outermost, then taps: one tap's (ni, tile) slice of the
// kernel stays in L1 while every output position that reads through it
// reuses it, and each running sum waits in dst between taps. A
// one-channel source (the classifier's one-hot input: five values of six
// are +0) is scattered from its nonzero elements instead.
template <typename Wide>
[[gnu::always_inline]] inline void correlate_tiles(const Correlation& c) {
  const Geometry& g = c.g;
  for_each_tile<Wide>(c.nj, [&]<typename V, std::size_t L>(std::size_t j0)
                                __attribute__((always_inline)) {
    constexpr std::size_t W = kLanes<V>;
    const double* tile = c.k + j0 * g.kh * g.kw * c.ni;
    if (c.ni == 1) {
      for_each_hot_tap(c.src, g,
                       [&](double v, std::size_t tap, std::size_t out)
                           __attribute__((always_inline)) {
                             tiles::axpy<V, L>(v, tile + tap * L * W,
                                               c.dst + out * c.nj + j0);
                           });
    } else {
      for (std::size_t ty = 0; ty < g.kh; ++ty) {
        const Range ys =
            tap_outputs(ty, g.stride, g.pad_t, g.dilation, g.src_h, g.dh);
        for (std::size_t tx = 0; tx < g.kw; ++tx) {
          const Range xs =
              tap_outputs(tx, g.stride, g.pad_l, g.dilation, g.src_w, g.dw);
          if (xs.first >= xs.second) continue;
          const double* kt = tile + (ty * g.kw + tx) * c.ni * L * W;
          const std::size_t nx = (xs.second - xs.first + g.dilation - 1) /
                                 g.dilation;
          const std::size_t q0 =
              (xs.first * g.stride + tx - g.pad_l) / g.dilation;
          std::size_t r = (ys.first * g.stride + ty - g.pad_t) / g.dilation;
          const tiles::Terms terms{1, 0, 0, c.ni, 1, L * W};
          for (std::size_t y = ys.first; y < ys.second;
               y += g.dilation, r += g.stride) {
            // The row's outputs, the rows of the gather, read src[r][q0],
            // src[r][q0 + stride], ... through tap (ty, tx); their terms
            // are the input channels.
            tiles::gather<V, L>(nx, c.src + (r * g.src_w + q0) * c.ni,
                                g.stride * c.ni, kt, terms,
                                c.dst + (y * g.dw + xs.first) * c.nj + j0,
                                g.dilation * c.nj);
          }
        }
      }
    }
    if (c.bias) {
      for (std::size_t p = 0; p < g.dh * g.dw; ++p) {
        tiles::add<V, L>(c.bias + j0, c.dst + p * c.nj + j0);
      }
    }
  });
}

[[gnu::target("default")]] void correlate(const Correlation& c) {
  correlate_tiles<Pair>(c);
}

[[gnu::target("avx2")]] void correlate(const Correlation& c) {
  correlate_tiles<Quad>(c);
}

// The weight gradient of one image, continued from the images before it:
//   gw[ty][tx][i][j] += sum over the outputs (y, x) ascending of
//     src[y*stride + ty - pad_t][x*stride + tx - pad_l][i] * go[y][x][j]
// over the outputs whose tap (ty, tx) lands inside src.
struct WeightGradient {
  const double* src;  // (src_h, src_w, ni)
  std::size_t ni;
  const double* go;  // (dh, dw, nj)
  std::size_t nj;
  double* gw;  // (kh, kw, ni, nj)
  Geometry g;  // dilation 1
};

// Taps outermost: each running sum of gw takes one image's terms in
// registers and waits in gw between images, while the image's src and go
// stay in L1. A one-channel source is scattered from its nonzero elements,
// as in correlate().
template <typename Wide>
[[gnu::always_inline]] inline void weight_gradient_tiles(
    const WeightGradient& c) {
  const Geometry& g = c.g;
  if (c.ni == 1) {
    for_each_tile<Wide>(c.nj, [&]<typename V, std::size_t L>(std::size_t j0)
                                  __attribute__((always_inline)) {
      for_each_hot_tap(c.src, g,
                       [&](double v, std::size_t tap, std::size_t out)
                           __attribute__((always_inline)) {
                             tiles::axpy<V, L>(v, c.go + out * c.nj + j0,
                                               c.gw + tap * c.nj + j0);
                           });
    });
    return;
  }
  for (std::size_t ty = 0; ty < g.kh; ++ty) {
    const Range ys = tap_outputs(ty, g.stride, g.pad_t, 1, g.src_h, g.dh);
    for (std::size_t tx = 0; tx < g.kw; ++tx) {
      const Range xs = tap_outputs(tx, g.stride, g.pad_l, 1, g.src_w, g.dw);
      if (xs.first >= xs.second) continue;
      const std::size_t r0 = ys.first * g.stride + ty - g.pad_t;
      const std::size_t q0 = xs.first * g.stride + tx - g.pad_l;
      // The rows of the gather are the input channels of gw[ty][tx]; its
      // terms are the outputs (y, x) that read through the tap.
      const tiles::Terms terms{ys.second - ys.first,
                               g.stride * g.src_w * c.ni,
                               g.dw * c.nj,
                               xs.second - xs.first,
                               g.stride * c.ni,
                               c.nj};
      for_each_tile<Wide>(c.nj, [&]<typename V, std::size_t L>(std::size_t j0)
                                    __attribute__((always_inline)) {
        tiles::gather<V, L>(c.ni, c.src + (r0 * g.src_w + q0) * c.ni, 1,
                            c.go + (ys.first * g.dw + xs.first) * c.nj + j0,
                            terms, c.gw + (ty * g.kw + tx) * c.ni * c.nj + j0,
                            c.nj);
      });
    }
  }
}

[[gnu::target("default")]] void weight_gradient(const WeightGradient& c) {
  weight_gradient_tiles<Pair>(c);
}

[[gnu::target("avx2")]] void weight_gradient(const WeightGradient& c) {
  weight_gradient_tiles<Quad>(c);
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel_h, std::size_t kernel_w, util::Rng& rng,
               std::size_t stride)
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

Tensor Conv2D::forward(const Tensor& input, bool training) {
  assert(input.rank() == 4 && input.dim(3) == in_ch_);
  if (training) cached_input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = (h + stride_ - 1) / stride_;
  const std::size_t ow = (w + stride_ - 1) / stride_;
  // 'same' padding: centre the kernel; pad_top/left derived from kernel size.
  const std::size_t pad_t = (kh_ - 1) / 2;
  const std::size_t pad_l = (kw_ - 1) / 2;

  Tensor out({n, oh, ow, out_ch_});
  const std::vector<double> kernel = pack_kernel(
      weights_.data(), kh_ * kw_, in_ch_, out_ch_, out_ch_, 1, false);
  for (std::size_t b = 0; b < n; ++b) {
    correlate({input.data() + b * h * w * in_ch_, in_ch_, kernel.data(),
               out_ch_, bias_.data(), out.data() + b * oh * ow * out_ch_,
               {h, w, kh_, kw_, oh, ow, stride_, 1, pad_t, pad_l}});
  }
  return out;
}

void Conv2D::backward_params(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  assert(input.rank() == 4);  // a training forward came first
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = grad_output.dim(1);
  const std::size_t ow = grad_output.dim(2);
  const double* go = grad_output.data();

  // grad_bias[co]: output positions ascending.
  grad_bias_.zero();
  for (std::size_t pos = 0; pos < n * oh * ow; ++pos) {
    for (std::size_t co = 0; co < out_ch_; ++co) {
      grad_bias_[co] += go[pos * out_ch_ + co];
    }
  }

  // grad_weights[ky][kx][ci][co]: the output positions (b, oy, ox) whose
  // tap (ky, kx) is in range, ascending, one image at a time.
  grad_weights_.zero();
  for (std::size_t b = 0; b < n; ++b) {
    weight_gradient({input.data() + b * h * w * in_ch_, in_ch_,
                     go + b * oh * ow * out_ch_, out_ch_,
                     grad_weights_.data(),
                     {h, w, kh_, kw_, oh, ow, stride_, 1, (kh_ - 1) / 2,
                      (kw_ - 1) / 2}});
  }
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = grad_output.dim(1);
  const std::size_t ow = grad_output.dim(2);
  const std::size_t pad_t = (kh_ - 1) / 2;
  const std::size_t pad_l = (kw_ - 1) / 2;

  // grad_input[b][iy][ix][ci] collects (oy, ox) ascending, then co
  // ascending: a stride-1 correlation of grad_output spread out by the
  // stride, with the kernel flipped and transposed to (kh, kw, co, ci).
  Tensor grad_input(input.shape());
  const std::vector<double> flipped = pack_kernel(
      weights_.data(), kh_ * kw_, out_ch_, in_ch_, 1, out_ch_, true);
  for (std::size_t b = 0; b < n; ++b) {
    correlate({grad_output.data() + b * oh * ow * out_ch_, out_ch_,
               flipped.data(), in_ch_, nullptr,
               grad_input.data() + b * h * w * in_ch_,
               {oh, ow, kh_, kw_, h, w, 1, stride_, kh_ - 1 - pad_t,
                kw_ - 1 - pad_l}});
  }
  return grad_input;
}

}  // namespace flowgen::nn
