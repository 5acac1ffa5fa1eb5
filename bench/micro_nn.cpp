// google-benchmark microbenchmarks for the NN substrate: per-batch training
// and inference cost of the paper's CNN at several filter counts (200 is
// the paper's), and each layer's own forward or backward cost. The
// classifier's second convolution, which holds most of the CNN's
// arithmetic, runs at 16 and 200 filters. The CNN is no small share of
// the loop: on bench/e2e's pipeline_alu8 (16 filters, traced, seed 1,
// 4-core host) training takes 0.34 s and the probe 0.18 s of the 0.82 s
// spent in its label, train and probe phases (README, "CNN kernels").

#include <benchmark/benchmark.h>

#include "nn/conv2d.hpp"
#include "nn/locally_connected.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"

namespace {

using namespace flowgen::nn;
using flowgen::util::Rng;

Sequential paper_cnn(std::size_t filters, Rng& rng) {
  Sequential model;
  model.emplace<Conv2D>(1, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<Conv2D>(filters, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<LocallyConnected2D>(10, 10, filters, 16, 3, 3, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Flatten>();
  model.emplace<Dense>(8 * 8 * 16, 48, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Dropout>(0.4, rng);
  model.emplace<Dense>(48, 7, rng);
  return model;
}

Tensor random_batch(std::size_t n, Rng& rng) {
  Tensor x({n, 12, 12, 1});
  // One-hot-like sparse batch: two 1s per row block.
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.chance(0.08);
  return x;
}

void BM_CnnTrainBatch(benchmark::State& state) {
  Rng rng(1);
  Sequential model = paper_cnn(static_cast<std::size_t>(state.range(0)), rng);
  RmsProp opt(1e-4);
  const Tensor x = random_batch(5, rng);  // the paper's batch size
  const std::vector<std::uint32_t> labels{0, 1, 2, 3, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_batch(x, labels, opt));
  }
  state.counters["params"] = static_cast<double>(model.num_parameters());
}
// 200 filters is the paper's setting.
BENCHMARK(BM_CnnTrainBatch)->Arg(8)->Arg(16)->Arg(32)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_CnnPredict(benchmark::State& state) {
  Rng rng(2);
  Sequential model = paper_cnn(16, rng);
  const Tensor x = random_batch(static_cast<std::size_t>(state.range(0)),
                                rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(x));
  }
}
BENCHMARK(BM_CnnPredict)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

// The classifier's first convolution: one channel of one-hot-like input
// to `filters` channels.
void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(3);
  Conv2D conv(1, static_cast<std::size_t>(state.range(0)), 6, 12, rng);
  const Tensor x = random_batch(5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForward)->Arg(16)->Arg(64)->Arg(200);

// The classifier's second convolution: C_in = C_out filters on the 11x11
// output of the first pool, 6x12 kernel, batch 5. It holds most of the
// CNN's arithmetic.
Tensor conv2_input(std::size_t filters, Rng& rng) {
  Tensor x({5, 11, 11, filters});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  return x;
}

/// A gradient as the 2x2 stride-1 max-pool after `y` hands it back: zero
/// wherever no pooling window picked the element.
Tensor pooled_gradient(const Tensor& y, Rng& rng) {
  MaxPool2D pool(2, 2, 1);
  Tensor g(pool.forward(y, false).shape());
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.normal();
  return pool.backward(g);
}

void BM_Conv2Forward(benchmark::State& state) {
  Rng rng(5);
  const auto filters = static_cast<std::size_t>(state.range(0));
  Conv2D conv(filters, filters, 6, 12, rng);
  const Tensor x = conv2_input(filters, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2Forward)->Arg(16)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_Conv2Backward(benchmark::State& state) {
  Rng rng(6);
  const auto filters = static_cast<std::size_t>(state.range(0));
  Conv2D conv(filters, filters, 6, 12, rng);
  const Tensor grad = pooled_gradient(conv.forward(conv2_input(filters, rng),
                                                   true),
                                      rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(grad));
  }
}
BENCHMARK(BM_Conv2Backward)->Arg(16)->Arg(200)->Unit(benchmark::kMillisecond);

// The locally connected layer of paper_cnn: 10x10 input of `filters`
// channels, 3x3 kernel, 16 outputs per position.
void BM_LocallyConnectedBackward(benchmark::State& state) {
  Rng rng(7);
  const auto filters = static_cast<std::size_t>(state.range(0));
  LocallyConnected2D local(10, 10, filters, 16, 3, 3, rng);
  Tensor x({5, 10, 10, filters});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  Tensor grad(local.forward(x, true).shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(local.backward(grad));
  }
}
BENCHMARK(BM_LocallyConnectedBackward)->Arg(16)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// The first dense layer of paper_cnn: 8*8*16 flattened features to 48.
void BM_DenseBackward(benchmark::State& state) {
  Rng rng(8);
  Dense dense(8 * 8 * 16, 48, rng);
  Tensor x({5, 8 * 8 * 16});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  Tensor grad(dense.forward(x, true).shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.backward(grad));
  }
}
BENCHMARK(BM_DenseBackward);

void BM_OptimizerStep(benchmark::State& state) {
  Rng rng(4);
  Tensor w({100000});
  Tensor g({100000});
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.normal();
  RmsProp opt(1e-4);
  for (auto _ : state) {
    opt.step({&w}, {&g});
    benchmark::DoNotOptimize(w[0]);
  }
}
BENCHMARK(BM_OptimizerStep);

}  // namespace
