#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

namespace flowgen::nn {

namespace {

// Two doubles in one SSE2 register. Arithmetic on a Pair is lane-wise
// IEEE arithmetic, the same two operations a scalar loop would do, so a
// Pair accumulator keeps each element's rounding. Spelling the lanes out
// keeps the compiler from vectorising the reduction loop instead, which
// it can only do as a slow in-order fold.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

template <typename V>
V load(const double* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
void store(double* p, V v) {
  std::memcpy(p, &v, sizeof v);
}

// Doubles per V.
template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// Calls f.template operator()<V, L>(j0) for each tile of n channels, a
/// register tile of L values of type V starting at channel j0: 16 channels
/// (eight Pairs, eight SSE2 accumulators) while they last, then 8, 4, 2
/// and 1.
template <typename F>
void for_each_tile(std::size_t n, const F& f) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) f.template operator()<Pair, 8>(j);
  if (j + 8 <= n) {
    f.template operator()<Pair, 4>(j);
    j += 8;
  }
  if (j + 4 <= n) {
    f.template operator()<Pair, 2>(j);
    j += 4;
  }
  if (j + 2 <= n) {
    f.template operator()<Pair, 1>(j);
    j += 2;
  }
  if (j < n) f.template operator()<double, 1>(j);
}

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
  for_each_tile(nj, [&]<typename V, std::size_t L>(std::size_t j0) {
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

/// The taps t in [0, k) at which output o reads a real source element:
/// o*stride + t - pad = r*dilation for some r in [0, size). They run from
/// first to last (exclusive) in steps of `dilation`.
Range source_taps(std::size_t o, std::size_t stride, std::size_t pad,
                  std::size_t dilation, std::size_t size, std::size_t k) {
  const auto u = static_cast<std::ptrdiff_t>(o * stride) -
                 static_cast<std::ptrdiff_t>(pad);
  const auto d = static_cast<std::ptrdiff_t>(dilation);
  const std::ptrdiff_t first = u < 0 ? -u : (d - u % d) % d;
  const std::ptrdiff_t last =
      std::min(static_cast<std::ptrdiff_t>(k),
               static_cast<std::ptrdiff_t>(size - 1) * d - u + 1);
  return {static_cast<std::size_t>(first),
          static_cast<std::size_t>(std::max(first, last))};
}

// A correlation of one image with a kernel bank:
//   dst[y][x][j] = bias[j] + sum over ty, tx, i ascending of
//     S[y*stride + ty - pad_t][x*stride + tx - pad_l][i] * k[ty][tx][i][j]
// where S is src spread out by `dilation` (src[r][q] at S[r*d][q*d]) and
// zero elsewhere. Each dst element adds its terms in exactly that order to
// a +0 register and adds the bias last; taps that land between or outside
// src's elements read S's zeros and are skipped.
struct Correlation {
  const double* src;  // (src_h, src_w, ni)
  std::size_t src_h, src_w, ni;
  const double* k;  // pack_kernel() of a (kh, kw, ni, nj) bank
  std::size_t kh, kw, nj;
  const double* bias;  // nj values, or nullptr
  std::size_t stride, dilation, pad_t, pad_l;
  double* dst;  // (dh, dw, nj)
  std::size_t dh, dw;
};

// Channel tiles outermost: one tile's kernel block stays in cache while
// every position of the image reuses it.
void correlate(const Correlation& c) {
  for_each_tile(c.nj, [&]<typename V, std::size_t L>(std::size_t j0) {
    constexpr std::size_t W = kLanes<V>;
    const double* tile = c.k + j0 * c.kh * c.kw * c.ni;
    for (std::size_t y = 0; y < c.dh; ++y) {
      const Range tys =
          source_taps(y, c.stride, c.pad_t, c.dilation, c.src_h, c.kh);
      for (std::size_t x = 0; x < c.dw; ++x) {
        const Range txs =
            source_taps(x, c.stride, c.pad_l, c.dilation, c.src_w, c.kw);
        const std::size_t q0 =
            (x * c.stride + txs.first - c.pad_l) / c.dilation;
        std::size_t r = (y * c.stride + tys.first - c.pad_t) / c.dilation;
        V acc[L] = {};
        for (std::size_t ty = tys.first; ty < tys.second;
             ty += c.dilation, ++r) {
          std::size_t q = q0;
          for (std::size_t tx = txs.first; tx < txs.second;
               tx += c.dilation, ++q) {
            const double* __restrict in = c.src + (r * c.src_w + q) * c.ni;
            const double* __restrict kr =
                tile + (ty * c.kw + tx) * c.ni * L * W;
            for (std::size_t i = 0; i < c.ni; ++i, kr += L * W) {
              for (std::size_t l = 0; l < L; ++l) {
                acc[l] += in[i] * load<V>(kr + l * W);
              }
            }
          }
        }
        double* out = c.dst + (y * c.dw + x) * c.nj + j0;
        for (std::size_t l = 0; l < L; ++l) {
          if (c.bias) acc[l] += load<V>(c.bias + j0 + l * W);
          store<V>(out + l * W, acc[l]);
        }
      }
    }
  });
}

/// The outputs o in [0, count) whose tap t reads source index
/// o*stride + t - pad inside [0, size), as [first, last).
Range tap_outputs(std::size_t t, std::size_t pad, std::size_t size,
                  std::size_t stride, std::size_t count) {
  const std::size_t first = t >= pad ? 0 : (pad - t + stride - 1) / stride;
  const std::size_t end = pad + size;
  const std::size_t last =
      t >= end ? 0 : std::min(count, (end - t + stride - 1) / stride);
  return {first, std::max(first, last)};
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

Tensor Conv2D::forward(const Tensor& input, bool /*training*/) {
  assert(input.rank() == 4 && input.dim(3) == in_ch_);
  cached_input_ = input;
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
    correlate({input.data() + b * h * w * in_ch_, h, w, in_ch_, kernel.data(),
               kh_, kw_, out_ch_, bias_.data(), stride_, 1, pad_t, pad_l,
               out.data() + b * oh * ow * out_ch_, oh, ow});
  }
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_output) {
  const Tensor& input = cached_input_;
  const std::size_t n = input.dim(0);
  const std::size_t h = input.dim(1);
  const std::size_t w = input.dim(2);
  const std::size_t oh = grad_output.dim(1);
  const std::size_t ow = grad_output.dim(2);
  const std::size_t pad_t = (kh_ - 1) / 2;
  const std::size_t pad_l = (kw_ - 1) / 2;
  const double* x = input.data();
  const double* go = grad_output.data();

  // grad_bias[co]: output positions ascending.
  grad_bias_.zero();
  for (std::size_t pos = 0; pos < n * oh * ow; ++pos) {
    for (std::size_t co = 0; co < out_ch_; ++co) {
      grad_bias_[co] += go[pos * out_ch_ + co];
    }
  }

  // grad_weights[ky][kx][ci][co]: the output positions (b, oy, ox) whose
  // tap (ky, kx) is in range, ascending, one register tile of co at a time.
  for (std::size_t ky = 0; ky < kh_; ++ky) {
    const Range oys = tap_outputs(ky, pad_t, h, stride_, oh);
    for (std::size_t kx = 0; kx < kw_; ++kx) {
      const Range oxs = tap_outputs(kx, pad_l, w, stride_, ow);
      for (std::size_t ci = 0; ci < in_ch_; ++ci) {
        double* gw =
            grad_weights_.data() + ((ky * kw_ + kx) * in_ch_ + ci) * out_ch_;
        for_each_tile(out_ch_, [&]<typename V, std::size_t L>(
                                   std::size_t co0) {
          constexpr std::size_t W = kLanes<V>;
          V acc[L] = {};
          for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t oy = oys.first; oy < oys.second; ++oy) {
              const std::size_t iy = oy * stride_ + ky - pad_t;
              for (std::size_t ox = oxs.first; ox < oxs.second; ++ox) {
                const std::size_t ix = ox * stride_ + kx - pad_l;
                const double v = x[((b * h + iy) * w + ix) * in_ch_ + ci];
                const double* __restrict g =
                    go + ((b * oh + oy) * ow + ox) * out_ch_ + co0;
                for (std::size_t l = 0; l < L; ++l) {
                  acc[l] += v * load<V>(g + l * W);
                }
              }
            }
          }
          for (std::size_t l = 0; l < L; ++l) {
            store<V>(gw + co0 + l * W, acc[l]);
          }
        });
      }
    }
  }

  // grad_input[b][iy][ix][ci] collects (oy, ox) ascending, then co
  // ascending: a stride-1 correlation of grad_output spread out by the
  // stride, with the kernel flipped and transposed to (kh, kw, co, ci).
  Tensor grad_input(input.shape());
  const std::vector<double> flipped = pack_kernel(
      weights_.data(), kh_ * kw_, out_ch_, in_ch_, 1, out_ch_, true);
  for (std::size_t b = 0; b < n; ++b) {
    correlate({go + b * oh * ow * out_ch_, oh, ow, out_ch_, flipped.data(),
               kh_, kw_, in_ch_, nullptr, 1, stride_, kh_ - 1 - pad_t,
               kw_ - 1 - pad_l, grad_input.data() + b * h * w * in_ch_, h,
               w});
  }
  return grad_input;
}

}  // namespace flowgen::nn
