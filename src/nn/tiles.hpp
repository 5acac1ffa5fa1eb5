#pragma once
// Register tiles for the layer kernels (nn/conv2d.cpp,
// nn/locally_connected.cpp): vectors of two and four doubles and the
// loops over them, all of which keep each element's term order
// (nn/tensor.hpp).
//
// Arithmetic on a Pair or a Quad is lane-wise IEEE arithmetic, the same
// operations a scalar loop would do, so a vector accumulator keeps each
// element's rounding. Spelling the lanes out keeps the compiler from
// vectorising a reduction loop instead, which it can only do as a slow
// in-order fold. Each kernel is one template over its widest vector type,
// built twice by GCC function multiversioning: a [[gnu::target("avx2")]]
// version over Quads (one ymm register each) and a
// [[gnu::target("default")]] one, for baseline x86-64, over SSE2 Pairs.
// One body with Quads in both would leave the default version's
// accumulators on the stack, since a Quad needs AVX to sit in a register.
// Neither version fuses a multiply-add, so both round alike. Every helper
// here is always_inline, so it is compiled for the ISA of the version
// that calls it; vectors travel by reference, never by value, since a
// Quad argument would have no baseline ABI.

#include <cstddef>
#include <cstring>

namespace flowgen::nn::tiles {

typedef double Pair __attribute__((vector_size(2 * sizeof(double))));
typedef double Quad __attribute__((vector_size(4 * sizeof(double))));

// A copy through a local keeps each accumulator's address out of memcpy,
// so the compiler holds accumulator arrays in registers.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  V t;
  std::memcpy(&t, p, sizeof t);
  v = t;
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  const V t = v;
  std::memcpy(p, &t, sizeof t);
}

// Doubles per V.
template <typename V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/// Calls f.template operator()<T, L>(j0) for each tile of n channels, a
/// register tile of L values of type T starting at channel j0: 16
/// channels while they last, then 8 and 4, each as L values of type V
/// (Quad or Pair), then 2 channels as one Pair and 1 as a double.
template <typename V, typename F>
[[gnu::always_inline]] inline void for_each_tile(std::size_t n, const F& f) {
  constexpr std::size_t W = kLanes<V>;
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) f.template operator()<V, 16 / W>(j);
  if (j + 8 <= n) {
    f.template operator()<V, 8 / W>(j);
    j += 8;
  }
  if (j + 4 <= n) {
    f.template operator()<V, 4 / W>(j);
    j += 4;
  }
  if (j + 2 <= n) {
    f.template operator()<Pair, 1>(j);
    j += 2;
  }
  if (j < n) f.template operator()<double, 1>(j);
}

/// a[t] += b[t] over the L*kLanes<V> channels of one tile.
template <typename V, std::size_t L>
[[gnu::always_inline]] inline void add(const double* __restrict b,
                                       double* __restrict a) {
  constexpr std::size_t W = kLanes<V>;
  for (std::size_t l = 0; l < L; ++l) {
    V x, y;
    load(x, a + l * W);
    load(y, b + l * W);
    x += y;
    store(a + l * W, x);
  }
}

/// a[t] += v * b[t] over the L*kLanes<V> channels of one tile.
template <typename V, std::size_t L>
[[gnu::always_inline]] inline void axpy(double v, const double* __restrict b,
                                        double* __restrict a) {
  constexpr std::size_t W = kLanes<V>;
  for (std::size_t l = 0; l < L; ++l) {
    V x, y;
    load(x, a + l * W);
    load(y, b + l * W);
    x += v * y;
    store(a + l * W, x);
  }
}

/// The terms of a gather(), (k, i) in row-major order for k in [0, nk)
/// and i in [0, ni): term (k, i) of row p reads a[p*a_p + k*a_k + i*a_i]
/// and b[k*b_k + i*b_i + t].
struct Terms {
  std::size_t nk, a_k, b_k, ni, a_i, b_i;
};

/// `rows` rows of running sums over one tile, each continued from `out`:
///   out[p*out_p + t] += a[p*a_p + ...] * b[... + t]
/// over `terms` in order, for the L*kLanes<V> channels t of the tile. A
/// row's sums stay in registers across all of its terms.
template <typename V, std::size_t L>
[[gnu::always_inline]] inline void gather(std::size_t rows, const double* a,
                                          std::size_t a_p, const double* b,
                                          const Terms& terms, double* out,
                                          std::size_t out_p) {
  constexpr std::size_t W = kLanes<V>;
  for (std::size_t p = 0; p < rows; ++p, a += a_p, out += out_p) {
    V acc[L];
    for (std::size_t l = 0; l < L; ++l) load(acc[l], out + l * W);
    for (std::size_t k = 0; k < terms.nk; ++k) {
      const double* __restrict ai = a + k * terms.a_k;
      const double* __restrict bi = b + k * terms.b_k;
      for (std::size_t i = 0; i < terms.ni;
           ++i, ai += terms.a_i, bi += terms.b_i) {
        for (std::size_t l = 0; l < L; ++l) {
          V bv;
          load(bv, bi + l * W);
          acc[l] += *ai * bv;
        }
      }
    }
    for (std::size_t l = 0; l < L; ++l) store(out + l * W, acc[l]);
  }
}

}  // namespace flowgen::nn::tiles
