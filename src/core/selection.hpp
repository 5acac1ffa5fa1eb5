#pragma once
// Component (3) of the framework: angel/devil flow selection (Section 3.3,
// Table 2). From the classifier's softmax output, flows predicted in the
// target class are ranked by their confidence (probability of that class);
// the top `count` are selected. Flows predicted in other classes are
// eliminated first, exactly as Example 4 eliminates F4.

#include <cstdint>
#include <span>
#include <vector>

#include "core/classifier.hpp"
#include "core/evaluator.hpp"
#include "core/labeler.hpp"
#include "nn/tensor.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::core {

struct RankedFlow {
  std::size_t index = 0;           ///< row in the probability matrix
  double confidence = 0.0;         ///< p(target class)
  std::uint32_t predicted = 0;     ///< argmax class
};

/// Rank flows for `target_class` and return up to `count` selections.
/// Flows whose argmax equals the target always outrank flows whose argmax
/// does not; ties broken by confidence. If fewer than `count` flows are
/// predicted in the target class, the remainder is filled by confidence
/// order (so the caller always gets `count` flows when enough rows exist).
std::vector<RankedFlow> select_top_flows(const nn::Tensor& probabilities,
                                         std::uint32_t target_class,
                                         std::size_t count);

/// Result of one full "predict pool -> select angel/devil -> synthesize the
/// selections -> compare against true classes" round.
struct SelectionProbe {
  std::vector<RankedFlow> angel;
  std::vector<RankedFlow> devil;
  std::vector<map::QoR> angel_qor;
  std::vector<map::QoR> devil_qor;
  /// The paper's accuracy: (N_angel + N_devil) / (|angel| + |devil|).
  double accuracy = 0.0;
};

/// Runs the paper's evaluation protocol.
SelectionProbe probe_selection_accuracy(CnnFlowClassifier& classifier,
                                        const Labeler& labeler,
                                        const std::vector<Flow>& pool,
                                        const FlowEvaluator& evaluator,
                                        std::size_t per_side,
                                        util::ThreadPool* threads = nullptr);

}  // namespace flowgen::core
