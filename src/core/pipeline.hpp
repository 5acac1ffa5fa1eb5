#pragma once
// The fully autonomous framework of Figure 2, end to end:
//   (1) label random flows by synthesizing + mapping them (incremental:
//       first 1000, then every 500 — configurable),
//   (2) (re)train the CNN classifier on the labeled set,
//   (3) predict a large pool of untested flows and emit the angel-flows
//       (class 0, highest confidence) and devil-flows (class n).
//
// The paper's accuracy metric is reproduced exactly:
//   accuracy = (N_angel + N_devil) / (num_angel + num_devil)
// where N_angel counts generated angel-flows whose *true* class is 0 and
// N_devil counts generated devil-flows whose true class is n, with true
// classes obtained by actually synthesizing the selected flows.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/classifier.hpp"
#include "core/evaluator.hpp"
#include "core/flow_evaluator.hpp"
#include "core/flow_space.hpp"
#include "core/labeler.hpp"
#include "core/selection.hpp"
#include "service/service_config.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::core {

struct PipelineConfig {
  // Dataset sizes. Paper scale: 10000 training flows, 100000 sample flows,
  // 200 angel + 200 devil. Defaults here are laptop scale; benches raise
  // them under --full.
  std::size_t training_flows = 600;
  std::size_t sample_flows = 4000;
  std::size_t initial_labeled = 200;   ///< paper: 1000
  std::size_t retrain_every = 100;     ///< paper: 500
  std::size_t num_angel = 50;          ///< paper: 200
  std::size_t num_devil = 50;          ///< paper: 200

  // Training (paper: RMSProp, eta = 1e-4, batch 5, 100000 steps total).
  std::string optimizer = "RMSProp";
  double learning_rate = 1e-4;
  std::size_t batch_size = 5;
  std::size_t steps_per_round = 400;
  double holdout_fraction = 0.1;

  unsigned repetitions = 4;  ///< m; L = n * m
  /// Transform alphabet the whole pipeline runs over: flow space, one-hot
  /// width, classifier input shape, evaluator dispatch, store keys and the
  /// wire all follow it. Null = the paper's 6-transform registry.
  std::shared_ptr<const opt::TransformRegistry> registry;
  LabelerConfig labeler;
  ClassifierConfig classifier;

  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< 0 = hardware concurrency

  /// When true, the paper-accuracy probe (select + synthesize the selected
  /// flows) runs after every retraining round, producing the accuracy-vs-
  /// progress curves of Figures 4-7. A flow selected again in a later round
  /// is answered by the evaluator's label store, not synthesized again.
  bool probe_accuracy_each_round = false;

  /// Where labeling synthesis runs: in-process by default; loopback worker
  /// processes or a remote evald fleet when configured (set `design_id`).
  service::EvalServiceConfig service;

  /// Load the design from a netlist file (aig/reader BLIF) instead of
  /// passing a built graph: the FlowGenPipeline(PipelineConfig) constructor
  /// reads this path, and distributed modes ship the loaded netlist to the
  /// fleet via LoadDesign — off-registry designs end to end from files.
  std::string design_file;

  /// Non-empty enables Chrome-trace-event capture for the run: run() calls
  /// telemetry::start_tracing(trace_file) and every round emits labeling /
  /// training / probe spans alongside the evaluator's per-transform spans.
  /// Load the file in Perfetto (docs/observability.md).
  std::string trace_file;
};

struct RoundStats {
  std::size_t round = 0;
  std::size_t labeled = 0;
  double mean_train_loss = 0.0;
  double holdout_accuracy = 0.0;
  /// Paper metric; only populated when probing is enabled (else -1).
  double paper_accuracy = -1.0;
  double synthesis_seconds = 0.0;
  double train_seconds = 0.0;
  /// Cumulative wall-clock of the run so far ("training time" axis).
  double elapsed_seconds = 0.0;
};

struct PipelineResult {
  std::vector<Flow> angel_flows;
  std::vector<map::QoR> angel_qor;
  std::vector<Flow> devil_flows;
  std::vector<map::QoR> devil_qor;

  std::vector<Flow> labeled_flows;
  std::vector<map::QoR> labeled_qor;

  std::vector<RoundStats> history;
  double paper_accuracy = 0.0;
  map::QoR baseline;
};

class FlowGenPipeline {
public:
  /// `design` feeds the in-process evaluator. When `config.service`
  /// selects distributed evaluation, workers either rebuild the design
  /// from `config.service.design_id` via the registry (`design` is then
  /// only fingerprint-checked against that id — mismatch throws — and
  /// dropped), or, when design_id is empty, receive `design` itself as a
  /// serialized netlist (protocol v2 LoadDesign) — the path for circuits
  /// no registry knows. Throws std::invalid_argument, before any worker
  /// starts, for a schedule run() cannot carry out: retrain_every 0 while
  /// initial_labeled < training_flows (later rounds would label nothing),
  /// a first round of fewer than two flows (one to train on, one to hold
  /// out), or a holdout_fraction outside [0, 1).
  FlowGenPipeline(aig::Aig design, PipelineConfig config);

  /// File-ingest form: loads `config.design_file` via aig::read_blif_file
  /// (throws std::invalid_argument when the path is empty, the reader's
  /// error when it is unreadable) and proceeds as above — the path for
  /// designs that exist only as netlist files.
  explicit FlowGenPipeline(PipelineConfig config);

  /// Observe per-round statistics as they are produced.
  void set_round_callback(std::function<void(const RoundStats&)> cb) {
    round_callback_ = std::move(cb);
  }

  PipelineResult run();

  const FlowEvaluator& evaluator() const { return *evaluator_; }
  const FlowSpace& space() const { return space_; }

private:
  PipelineConfig config_;
  std::unique_ptr<FlowEvaluator> evaluator_;
  FlowSpace space_;
  util::Rng rng_;
  std::function<void(const RoundStats&)> round_callback_;
};

}  // namespace flowgen::core
