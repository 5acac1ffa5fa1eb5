#include "core/classifier.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "core/flow_space.hpp"

namespace flowgen::core {
namespace {

ClassifierConfig small_config() {
  ClassifierConfig cfg;
  cfg.conv_filters = 8;
  cfg.local_filters = 4;
  cfg.dense_units = 16;
  cfg.num_classes = 3;
  cfg.seed = 7;
  return cfg;
}

TEST(ClassifierTest, PaperArchitectureBuilds) {
  // Full paper settings: 24x6 one-hot -> 12x12, two conv layers with 200
  // kernels of 6x12, pooling, local, dense, dropout.
  ClassifierConfig cfg;
  CnnFlowClassifier classifier(cfg);
  EXPECT_GT(classifier.num_parameters(), 100000u);
}

TEST(ClassifierTest, PredictShapes) {
  CnnFlowClassifier classifier(small_config());
  const FlowSpace space(4);
  util::Rng rng(1);
  const auto flows = space.sample_unique(5, rng);
  const nn::Tensor probs = classifier.predict_proba(flows);
  ASSERT_EQ(probs.shape(), (std::vector<std::size_t>{5, 3}));
  for (std::size_t i = 0; i < 5; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 3; ++j) sum += probs.at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_EQ(classifier.predict(flows).size(), 5u);
}

TEST(ClassifierTest, LearnsSyntheticPositionRule) {
  // Synthetic ground truth directly readable from the one-hot matrix: the
  // class is the (paired) identity of the transform in the LAST position.
  // This isolates "can the CNN read the encoding" from the much harder
  // question of whether real QoR is predictable.
  CnnFlowClassifier classifier(small_config());
  const FlowSpace space(4);
  util::Rng rng(2);
  const auto flows = space.sample_unique(300, rng);
  std::vector<std::uint32_t> labels;
  for (const Flow& f : flows) {
    labels.push_back(static_cast<std::uint32_t>(f.steps.back()) / 2);
  }

  auto opt = nn::make_optimizer("RMSProp", 1e-3);
  util::Rng batch_rng(3);
  for (int step = 0; step < 800; ++step) {
    std::vector<Flow> batch;
    std::vector<std::uint32_t> batch_labels;
    for (int b = 0; b < 5; ++b) {  // the paper's batch size
      const auto pick = static_cast<std::size_t>(batch_rng.below(250));
      batch.push_back(flows[pick]);
      batch_labels.push_back(labels[pick]);
    }
    classifier.train_batch(batch, batch_labels, *opt);
  }
  // Evaluate on the held-out tail.
  const std::span<const Flow> holdout(flows.data() + 250, 50);
  const std::span<const std::uint32_t> holdout_labels(labels.data() + 250,
                                                      50);
  EXPECT_GT(classifier.accuracy(holdout, holdout_labels), 0.75);
}

TEST(ClassifierTest, DeterministicForSameSeed) {
  const FlowSpace space(4);
  util::Rng rng(4);
  const auto flows = space.sample_unique(3, rng);
  CnnFlowClassifier c1(small_config());
  CnnFlowClassifier c2(small_config());
  const nn::Tensor p1 = c1.predict_proba(flows);
  const nn::Tensor p2 = c2.predict_proba(flows);
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
}

TEST(ClassifierTest, ChunkedPredictionMatchesOneFlowAtATime) {
  // predict_proba and accuracy run their flows in chunks of kPredictChunk;
  // every layer computes each row on its own, so at counts around a chunk
  // boundary they give the bits of one flow per forward.
  CnnFlowClassifier classifier(small_config());
  const FlowSpace space(4);
  util::Rng rng(6);
  const auto flows = space.sample_unique(200, rng);
  std::vector<std::uint32_t> labels;
  std::vector<double> single_probs;
  std::vector<std::size_t> single_hits;  // hits among the first i flows
  single_hits.push_back(0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    labels.push_back(static_cast<std::uint32_t>(i % 3));
    const std::span<const Flow> one(&flows[i], 1);
    const nn::Tensor p = classifier.predict_proba(one);
    single_probs.insert(single_probs.end(), p.data(), p.data() + p.size());
    const double hit = classifier.accuracy(one, std::span(&labels[i], 1));
    single_hits.push_back(single_hits.back() + (hit == 1.0 ? 1 : 0));
  }
  ASSERT_GT(single_hits.back(), 0u);
  ASSERT_LT(single_hits.back(), flows.size());

  constexpr std::size_t kChunk = CnnFlowClassifier::kPredictChunk;
  for (const std::size_t n : {std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                              flows.size()}) {
    SCOPED_TRACE(n);
    const std::span<const Flow> some(flows.data(), n);
    const nn::Tensor probs = classifier.predict_proba(some);
    ASSERT_EQ(probs.shape(), (std::vector<std::size_t>{n, 3}));
    EXPECT_EQ(std::memcmp(probs.data(), single_probs.data(),
                          probs.size() * sizeof(double)),
              0);
    EXPECT_EQ(classifier.accuracy(some, std::span(labels.data(), n)),
              static_cast<double>(single_hits[n]) / static_cast<double>(n));
  }
}

TEST(ClassifierTest, KernelGeometryConfigurable) {
  // Fig. 6 compares 3x6, 6x6 and 6x12 kernels; all must build and run.
  for (auto [kh, kw] : {std::pair<std::size_t, std::size_t>{3, 6},
                        {6, 6},
                        {6, 12}}) {
    ClassifierConfig cfg = small_config();
    cfg.kernel_h = kh;
    cfg.kernel_w = kw;
    CnnFlowClassifier classifier(cfg);
    const FlowSpace space(4);
    util::Rng rng(5);
    const auto flows = space.sample_unique(2, rng);
    EXPECT_EQ(classifier.predict(flows).size(), 2u) << kh << "x" << kw;
  }
}

}  // namespace
}  // namespace flowgen::core
