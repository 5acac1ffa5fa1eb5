#include "nn/optimizers.hpp"

#include <cmath>
#include <emmintrin.h>
#include <stdexcept>

namespace flowgen::nn {

namespace {

void ensure_state(std::vector<Tensor>& state,
                  const std::vector<Tensor*>& params) {
  if (state.size() == params.size()) return;
  state.clear();
  state.reserve(params.size());
  for (const Tensor* p : params) state.emplace_back(p->shape());
}

}  // namespace

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads) {
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& w = *params[t];
    const Tensor& g = *grads[t];
    for (std::size_t i = 0; i < w.size(); ++i) w[i] -= lr_ * g[i];
  }
}

void Momentum::step(const std::vector<Tensor*>& params,
                    const std::vector<Tensor*>& grads) {
  ensure_state(velocity_, params);
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& w = *params[t];
    const Tensor& g = *grads[t];
    Tensor& v = velocity_[t];
    for (std::size_t i = 0; i < w.size(); ++i) {
      v[i] = mu_ * v[i] + g[i];
      w[i] -= lr_ * v[i];
    }
  }
}

void AdaGrad::step(const std::vector<Tensor*>& params,
                   const std::vector<Tensor*>& grads) {
  ensure_state(accum_, params);
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& w = *params[t];
    const Tensor& g = *grads[t];
    Tensor& acc = accum_[t];
    for (std::size_t i = 0; i < w.size(); ++i) {
      acc[i] += g[i] * g[i];
      w[i] -= lr_ * g[i] / (std::sqrt(acc[i]) + eps_);
    }
  }
}

void RmsProp::step(const std::vector<Tensor*>& params,
                   const std::vector<Tensor*>& grads) {
  ensure_state(accum_, params);
  // Two parameters per SSE2 operation, in the scalar tail's order of
  // operations: each lane of mulpd, addpd, sqrtpd and divpd rounds as the
  // scalar instruction does, so both give the same bits.
  const __m128d decay = _mm_set1_pd(decay_);
  const __m128d keep = _mm_set1_pd(1.0 - decay_);
  const __m128d lr = _mm_set1_pd(lr_);
  const __m128d eps = _mm_set1_pd(eps_);
  for (std::size_t t = 0; t < params.size(); ++t) {
    double* w = params[t]->data();
    const double* g = grads[t]->data();
    double* acc = accum_[t].data();
    const std::size_t n = params[t]->size();
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d gi = _mm_loadu_pd(g + i);
      const __m128d a = _mm_add_pd(
          _mm_mul_pd(decay, _mm_loadu_pd(acc + i)),
          _mm_mul_pd(_mm_mul_pd(keep, gi), gi));
      _mm_storeu_pd(acc + i, a);
      const __m128d step = _mm_div_pd(_mm_mul_pd(lr, gi),
                                      _mm_sqrt_pd(_mm_add_pd(a, eps)));
      _mm_storeu_pd(w + i, _mm_sub_pd(_mm_loadu_pd(w + i), step));
    }
    for (; i < n; ++i) {
      acc[i] = decay_ * acc[i] + (1.0 - decay_) * g[i] * g[i];
      w[i] -= lr_ * g[i] / std::sqrt(acc[i] + eps_);
    }
  }
}

void Ftrl::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads) {
  ensure_state(z_, params);
  ensure_state(n_, params);
  const double alpha = lr_;
  for (std::size_t t = 0; t < params.size(); ++t) {
    Tensor& w = *params[t];
    const Tensor& g = *grads[t];
    Tensor& z = z_[t];
    Tensor& n = n_[t];
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double g2 = g[i] * g[i];
      const double sigma = (std::sqrt(n[i] + g2) - std::sqrt(n[i])) / alpha;
      z[i] += g[i] - sigma * w[i];
      n[i] += g2;
      if (std::abs(z[i]) <= l1_) {
        w[i] = 0.0;
      } else {
        const double sign_z = z[i] > 0 ? 1.0 : -1.0;
        w[i] = -(z[i] - sign_z * l1_) /
               ((beta_ + std::sqrt(n[i])) / alpha + l2_);
      }
    }
  }
}

std::unique_ptr<Optimizer> make_optimizer(const std::string& name,
                                          double learning_rate) {
  if (name == "SGD") return std::make_unique<Sgd>(learning_rate);
  if (name == "Momentum") return std::make_unique<Momentum>(learning_rate);
  if (name == "AdaGrad") return std::make_unique<AdaGrad>(learning_rate);
  if (name == "RMSProp") return std::make_unique<RmsProp>(learning_rate);
  if (name == "Ftrl") return std::make_unique<Ftrl>(learning_rate);
  throw std::invalid_argument("unknown optimizer: " + name);
}

std::vector<std::string> optimizer_names() {
  return {"SGD", "Momentum", "AdaGrad", "RMSProp", "Ftrl"};
}

}  // namespace flowgen::nn
