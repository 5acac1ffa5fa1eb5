// Autonomous design-specific flow generation -- the paper's headline use
// case. Runs the full FlowGen pipeline (label random flows -> train the CNN
// classifier incrementally -> predict a pool of untested flows -> emit
// angel/devil flows) on a design of your choice.
//
//   ./build/examples/angel_flows --design alu16 --objective delay
//   ./build/examples/angel_flows --design mont:8 --objective area --flows 300

#include <cstdio>
#include <stdexcept>

#include "core/pipeline.hpp"
#include "designs/registry.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace flowgen;
  util::Cli cli(argc, argv);

  const std::string design_name = cli.get("design", "alu16");
  const std::string objective = cli.get("objective", "delay");

  core::PipelineConfig cfg;
  cfg.training_flows =
      static_cast<std::size_t>(cli.get_int("flows", 180));
  cfg.sample_flows = static_cast<std::size_t>(cli.get_int("pool", 600));
  cfg.initial_labeled = cfg.training_flows / 3;
  cfg.retrain_every = cfg.training_flows / 3;
  cfg.num_angel = cfg.num_devil =
      static_cast<std::size_t>(cli.get_int("select", 10));
  cfg.steps_per_round =
      static_cast<std::size_t>(cli.get_int("steps", 250));
  cfg.classifier.conv_filters =
      static_cast<std::size_t>(cli.get_int("filters", 16));
  cfg.classifier.local_filters = 8;
  cfg.classifier.dense_units = 32;
  cfg.labeler.objective = objective == "area" ? core::Objective::kArea
                          : objective == "both"
                              ? core::Objective::kAreaDelay
                              : core::Objective::kDelay;
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  cfg.probe_accuracy_each_round = true;

  std::printf("FlowGen: generating %s-driven flows for %s "
              "(%zu training flows, %zu-flow pool)\n",
              objective.c_str(), design_name.c_str(), cfg.training_flows,
              cfg.sample_flows);

  core::FlowGenPipeline pipeline(designs::make_design(design_name), cfg);
  pipeline.set_round_callback([](const core::RoundStats& s) {
    std::printf("  round %zu: %zu labeled flows, loss %.4f, "
                "selection accuracy %.2f\n",
                s.round, s.labeled, s.mean_train_loss, s.paper_accuracy);
  });
  const core::PipelineResult res = pipeline.run();

  std::printf("\nbaseline QoR : %s\n", res.baseline.to_string().c_str());
  std::printf("final selection accuracy (paper metric): %.2f\n\n",
              res.paper_accuracy);

  std::puts("top-5 ANGEL flows (best predicted QoR, ground truth shown):");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, res.angel_flows.size());
       ++i) {
    std::printf("  %s\n    -> %s\n", res.angel_flows[i].to_string().c_str(),
                res.angel_qor[i].to_string().c_str());
  }
  std::puts("\ntop-5 DEVIL flows (worst predicted QoR):");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, res.devil_flows.size());
       ++i) {
    std::printf("  %s\n    -> %s\n", res.devil_flows[i].to_string().c_str(),
                res.devil_qor[i].to_string().c_str());
  }
  return 0;
} catch (const std::invalid_argument& e) {
  // An unknown design, or a schedule the pipeline refuses (--flows 5).
  std::fprintf(stderr, "angel_flows: %s\n", e.what());
  return 1;
}
