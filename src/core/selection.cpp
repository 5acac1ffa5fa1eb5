#include "core/selection.hpp"

#include <algorithm>
#include <cassert>

#include "nn/model.hpp"

namespace flowgen::core {

std::vector<RankedFlow> select_top_flows(const nn::Tensor& probabilities,
                                         std::uint32_t target_class,
                                         std::size_t count) {
  assert(probabilities.rank() == 2);
  const std::size_t n = probabilities.dim(0);
  const std::size_t c = probabilities.dim(1);
  assert(target_class < c);
  (void)c;

  std::vector<RankedFlow> ranked;
  ranked.reserve(n);
  const std::vector<std::uint32_t> argmax = nn::argmax_rows(probabilities);
  for (std::size_t i = 0; i < n; ++i) {
    ranked.push_back(RankedFlow{
        i, probabilities.at(i, target_class), argmax[i]});
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const RankedFlow& a, const RankedFlow& b) {
                     const bool a_in = a.predicted == target_class;
                     const bool b_in = b.predicted == target_class;
                     if (a_in != b_in) return a_in;
                     return a.confidence > b.confidence;
                   });
  if (ranked.size() > count) ranked.resize(count);
  return ranked;
}

SelectionProbe probe_selection_accuracy(CnnFlowClassifier& classifier,
                                        const Labeler& labeler,
                                        const std::vector<Flow>& pool,
                                        const FlowEvaluator& evaluator,
                                        std::size_t per_side,
                                        util::ThreadPool* threads) {
  SelectionProbe probe;
  const std::size_t classes = labeler.num_classes();
  const nn::Tensor probs = classifier.predict_proba(pool);
  assert(probs.dim(1) == classes);
  const auto devil_class = static_cast<std::uint32_t>(classes - 1);
  probe.angel = select_top_flows(probs, 0, per_side);
  probe.devil = select_top_flows(probs, devil_class, per_side);

  std::vector<Flow> chosen;
  chosen.reserve(probe.angel.size() + probe.devil.size());
  for (const RankedFlow& r : probe.angel) chosen.push_back(pool[r.index]);
  for (const RankedFlow& r : probe.devil) chosen.push_back(pool[r.index]);
  const std::vector<map::QoR> truth = evaluator.evaluate_many(chosen, threads);

  std::size_t n_angel = 0, n_devil = 0;
  for (std::size_t i = 0; i < probe.angel.size(); ++i) {
    probe.angel_qor.push_back(truth[i]);
    if (labeler.classify(truth[i]) == 0) ++n_angel;
  }
  for (std::size_t i = 0; i < probe.devil.size(); ++i) {
    const map::QoR& q = truth[probe.angel.size() + i];
    probe.devil_qor.push_back(q);
    if (labeler.classify(q) == devil_class) ++n_devil;
  }
  const std::size_t denom = probe.angel.size() + probe.devil.size();
  probe.accuracy = denom == 0 ? 0.0
                              : static_cast<double>(n_angel + n_devil) /
                                    static_cast<double>(denom);
  return probe;
}

}  // namespace flowgen::core
