#include "core/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

#include "aig/reader.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "service/remote_evaluator.hpp"
#include "telemetry/trace.hpp"
#include "util/log.hpp"

namespace flowgen::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The config switch between in-process and distributed labeling. Loopback
/// workers are forked here, before the pipeline spawns any threads. A
/// configured qor_store_dir attaches the persistent label store to
/// whichever evaluator is built, so labeling runs resume across restarts.
/// The registry reaches every layer from here: evaluator dispatch, store
/// keys (QorStore refuses other alphabets) and the fleet handshake.
std::unique_ptr<FlowEvaluator> make_evaluator(
    aig::Aig design, const service::EvalServiceConfig& svc,
    std::shared_ptr<const opt::TransformRegistry> registry) {
  if (!registry) registry = opt::TransformRegistry::paper();
  std::shared_ptr<QorStore> store;
  if (!svc.qor_store_dir.empty()) {
    QorStoreConfig store_config;
    store_config.dir = svc.qor_store_dir;
    store_config.registry = registry;
    store = std::make_shared<QorStore>(std::move(store_config));
  }
  EvaluatorConfig evaluator_config;
  evaluator_config.registry = registry;
  service::CoordinatorConfig coordinator_config;
  coordinator_config.registry = registry;
  if (!svc.distributed()) {
    auto local = std::make_unique<SynthesisEvaluator>(
        std::move(design), map::CellLibrary::builtin(), map::MapperParams{},
        evaluator_config);
    if (store) local->attach_store(std::move(store));
    return local;
  }
  std::unique_ptr<service::RemoteEvaluator> remote;
  if (svc.design_id.empty()) {
    // Off-registry design: ship the netlist itself to every worker
    // (protocol v2 LoadDesign). The serialization embeds the content
    // fingerprint, so a worker can never silently evaluate a different
    // circuit than the one passed here.
    remote = !svc.worker_addresses.empty()
                 ? service::RemoteEvaluator::connect_netlist(
                       svc.worker_addresses, design, coordinator_config)
                 : service::RemoteEvaluator::loopback_netlist(
                       design, svc.loopback_workers, evaluator_config,
                       coordinator_config);
  } else {
    // Workers elaborate design_id from the registry; labeling the wrong
    // circuit must be a loud failure, not a silent one, so verify the id
    // reproduces the design the caller actually passed.
    if (designs::make_design(svc.design_id).fingerprint() !=
        design.fingerprint()) {
      throw std::invalid_argument(
          "PipelineConfig.service.design_id '" + svc.design_id +
          "' does not elaborate to the design passed to FlowGenPipeline");
    }
    remote = !svc.worker_addresses.empty()
                 ? service::RemoteEvaluator::connect(svc.worker_addresses,
                                                     svc.design_id,
                                                     coordinator_config)
                 : service::RemoteEvaluator::loopback(
                       svc.design_id, svc.loopback_workers, evaluator_config,
                       coordinator_config);
  }
  if (store) remote->attach_store(std::move(store));
  return remote;
}

/// The constructor's refusals, documented on it. Every round after the
/// first labels retrain_every more flows, and a round of `labeled` flows
/// holds out max(1, floor(labeled * holdout_fraction)) of them, which
/// leaves at least one to train on when labeled >= 2 and the fraction is
/// in [0, 1).
PipelineConfig checked(PipelineConfig config) {
  const std::size_t first =
      std::min(config.training_flows, config.initial_labeled);
  if (config.retrain_every == 0 && first < config.training_flows) {
    throw std::invalid_argument(
        "PipelineConfig: retrain_every is 0 while initial_labeled < "
        "training_flows, so later rounds would label no flow");
  }
  if (first < 2) {
    throw std::invalid_argument(
        "PipelineConfig: the first round labels min(training_flows, "
        "initial_labeled) = " +
        std::to_string(first) +
        " flows; it needs 2, one to train on and one to hold out");
  }
  if (!(config.holdout_fraction >= 0.0 && config.holdout_fraction < 1.0)) {
    throw std::invalid_argument(
        "PipelineConfig: holdout_fraction must be in [0, 1)");
  }
  return config;
}

/// Ingest for the file-only constructor; validates before any I/O.
aig::Aig load_design_file(const PipelineConfig& config) {
  if (config.design_file.empty()) {
    throw std::invalid_argument(
        "FlowGenPipeline: PipelineConfig::design_file is empty");
  }
  return aig::read_blif_file(config.design_file);
}

}  // namespace

FlowGenPipeline::FlowGenPipeline(PipelineConfig config)
    : FlowGenPipeline(load_design_file(config), config) {}

FlowGenPipeline::FlowGenPipeline(aig::Aig design, PipelineConfig config)
    : config_(checked(std::move(config))),
      evaluator_(make_evaluator(std::move(design), config_.service,
                                config_.registry)),
      space_(config_.repetitions,
             config_.registry ? config_.registry
                              : opt::TransformRegistry::paper()),
      rng_(config_.seed) {
  // Derive the classifier geometry from the space; callers only choose the
  // architecture knobs (filters, kernel, activation).
  config_.classifier.flow_length = space_.length();
  config_.classifier.num_transforms = space_.num_transforms();
  config_.classifier.num_classes =
      static_cast<std::size_t>(config_.labeler.quantiles.size() + 1);
  config_.classifier.seed = config_.seed ^ 0x5DEECE66Dull;
}

PipelineResult FlowGenPipeline::run() {
  if (!config_.trace_file.empty() && !telemetry::tracing()) {
    telemetry::start_tracing(config_.trace_file);
  }
  const auto t0 = std::chrono::steady_clock::now();
  util::ThreadPool threads(config_.threads);
  PipelineResult result;
  result.baseline = evaluator_->baseline();

  // Sample the training flows and the prediction pool disjointly (the pool
  // stands in for the paper's "large number of untested sample flows").
  const std::vector<Flow> all = space_.sample_unique(
      config_.training_flows + config_.sample_flows, rng_);
  std::vector<Flow> training(all.begin(),
                             all.begin() + static_cast<std::ptrdiff_t>(
                                               config_.training_flows));
  std::vector<Flow> pool(all.begin() + static_cast<std::ptrdiff_t>(
                                           config_.training_flows),
                         all.end());

  Labeler labeler(config_.labeler);
  CnnFlowClassifier classifier(config_.classifier);
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::make_optimizer(config_.optimizer, config_.learning_rate);

  std::size_t labeled = 0;
  std::size_t round = 0;
  while (labeled < training.size()) {
    const std::size_t target =
        labeled == 0
            ? std::min(training.size(), config_.initial_labeled)
            : std::min(training.size(), labeled + config_.retrain_every);

    // (1) Label the next slice of training flows by actual synthesis.
    RoundStats stats;
    telemetry::Span round_span("pipeline", "round");
    round_span.arg("round", static_cast<std::uint64_t>(round + 1));
    const auto t_syn = std::chrono::steady_clock::now();
    const std::span<const Flow> slice(training.data() + labeled,
                                      target - labeled);
    std::vector<map::QoR> qors;
    {
      telemetry::Span span("pipeline", "label");
      span.arg("flows", static_cast<std::uint64_t>(slice.size()));
      qors = evaluator_->evaluate_many(slice, &threads);
    }
    for (std::size_t i = 0; i < slice.size(); ++i) {
      result.labeled_flows.push_back(slice[i]);
      result.labeled_qor.push_back(qors[i]);
    }
    labeled = target;
    stats.synthesis_seconds = seconds_since(t_syn);

    // Class definitions drift as data accumulates (Section 3.1): refit.
    labeler.fit(result.labeled_qor);
    const std::vector<std::uint32_t> labels =
        labeler.classify_all(result.labeled_qor);

    // Hold out a slice for generalisation tracking.
    const std::size_t holdout =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     static_cast<double>(labeled) *
                                     config_.holdout_fraction));
    const std::size_t train_n = labeled - holdout;

    // (2) Re-train on mini-batches of the labeled set (batch size 5).
    const auto t_train = std::chrono::steady_clock::now();
    double loss_sum = 0.0;
    {
      telemetry::Span train_span("pipeline", "train");
      train_span.arg("steps",
                     static_cast<std::uint64_t>(config_.steps_per_round));
      for (std::size_t step = 0; step < config_.steps_per_round; ++step) {
        std::vector<Flow> batch;
        std::vector<std::uint32_t> batch_labels;
        batch.reserve(config_.batch_size);
        for (std::size_t b = 0; b < config_.batch_size; ++b) {
          const std::size_t pick =
              static_cast<std::size_t>(rng_.below(train_n));
          batch.push_back(result.labeled_flows[pick]);
          batch_labels.push_back(labels[pick]);
        }
        loss_sum += classifier.train_batch(batch, batch_labels, *optimizer);
      }
    }
    stats.train_seconds = seconds_since(t_train);

    stats.round = ++round;
    stats.labeled = labeled;
    stats.mean_train_loss =
        config_.steps_per_round
            ? loss_sum / static_cast<double>(config_.steps_per_round)
            : 0.0;
    stats.holdout_accuracy = classifier.accuracy(
        std::span<const Flow>(result.labeled_flows.data() + train_n,
                              holdout),
        std::span<const std::uint32_t>(labels.data() + train_n, holdout));
    if (config_.probe_accuracy_each_round) {
      stats.paper_accuracy =
          probe_selection_accuracy(classifier, labeler, pool, *evaluator_,
                                   config_.num_angel, &threads)
              .accuracy;
    }
    stats.elapsed_seconds = seconds_since(t0);
    util::log_info("pipeline round ", stats.round, ": labeled=", labeled,
                   " loss=", stats.mean_train_loss,
                   " holdout=", stats.holdout_accuracy,
                   " paper_acc=", stats.paper_accuracy);
    if (round_callback_) round_callback_(stats);
    result.history.push_back(stats);
  }

  // (3) Final prediction over the pool + angel/devil selection.
  const SelectionProbe final_probe = probe_selection_accuracy(
      classifier, labeler, pool, *evaluator_, config_.num_angel, &threads);
  result.paper_accuracy = final_probe.accuracy;
  for (std::size_t i = 0; i < final_probe.angel.size(); ++i) {
    result.angel_flows.push_back(pool[final_probe.angel[i].index]);
    result.angel_qor.push_back(final_probe.angel_qor[i]);
  }
  for (std::size_t i = 0; i < final_probe.devil.size(); ++i) {
    result.devil_flows.push_back(pool[final_probe.devil[i].index]);
    result.devil_qor.push_back(final_probe.devil_qor[i]);
  }
  return result;
}

}  // namespace flowgen::core
