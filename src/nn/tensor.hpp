#pragma once
// Dense row-major tensor of doubles, rank <= 4.
//
// The order contract of the layer kernels (nn/conv2d.cpp,
// nn/locally_connected.cpp, nn/layers.cpp): every output element is one
// running sum that starts at +0 and takes its terms in a fixed order. A
// kernel may tile, reorder and vectorise across independent elements but
// never reassociate within one, so its results are bit-identical to plain
// per-element loops (tests/nn_kernels_test.cpp checks them against such
// loops with memcmp). A running sum may wait in memory between its terms,
// say in the output between two taps or in a gradient between two
// images: a double stored and loaded back is the same double.
//   - Conv2D forward: out[b,oy,ox,co] adds x*w over the valid taps
//     (ky, kx, ci) ascending, then bias[co].
//   - Conv2D grad_weights[ky,kx,ci,co] and grad_bias[co]: sums over the
//     output positions (b, oy, ox) ascending.
//   - Conv2D grad_input[b,iy,ix,ci]: one running sum over (oy, ox)
//     ascending, then co ascending. A per-position partial sum added once
//     would round differently.
//   - LocallyConnected2D: the same orders, with weights per position.
//   - Dense: grad_weights[k][j] sums over the rows i ascending;
//     grad_input[i][k] is a running sum over j ascending.
// A term of exact +-0 times a finite value may be skipped or added: under
// round-to-nearest a sum that starts at +0 never becomes -0, so adding +-0
// leaves its bits alone. Out-of-range padding taps count as such zeros.
// No kernel fuses a multiply-add: the library builds for baseline x86-64
// without -march, -ffast-math or -ffp-contract, and the convolution and
// locally connected kernels (nn/tiles.hpp) add an avx2 version
// ([[gnu::target("avx2")]], picked at load time) that adds and multiplies
// four lanes at a time but never names fma or avx512f, whose patterns
// fuse. So both versions, and any two loop shapes, round every term alike.

#include <cassert>
#include <cstddef>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace flowgen::nn {

class Tensor {
public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);

  static Tensor zeros(std::vector<std::size_t> shape) {
    return Tensor(std::move(shape));
  }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const { return shape_[i]; }
  std::size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  double& at(std::size_t i) { return data_[i]; }
  double& at(std::size_t i, std::size_t j) {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  double at(std::size_t i, std::size_t j) const {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  double& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  double at(std::size_t i, std::size_t j, std::size_t k,
            std::size_t l) const {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  void fill(double v);
  void zero() { fill(0.0); }

  /// Glorot/Xavier uniform initialisation given fan-in/fan-out.
  void glorot_init(util::Rng& rng, std::size_t fan_in, std::size_t fan_out);

  /// A copy with a new shape; the total size must match.
  Tensor reshaped(std::vector<std::size_t> shape) const;

  /// Elementwise in-place helpers used by the optimizers.
  Tensor& operator+=(const Tensor& o);
  Tensor& operator*=(double s);

  std::string shape_string() const;

private:
  std::vector<std::size_t> shape_;
  std::vector<double> data_;
};

}  // namespace flowgen::nn
