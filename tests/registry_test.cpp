// Tests for the typed transform registry: the paper default reproduces the
// fixed alphabet exactly, specs normalise/validate/round-trip, extended
// (parameterized) alphabets dispatch correctly, and the whole pipeline runs
// over a non-paper registry.

#include "opt/registry.hpp"

#include <gtest/gtest.h>

#include "aig/simulate.hpp"
#include "core/evaluator.hpp"
#include "core/flow_space.hpp"
#include "core/pipeline.hpp"
#include "designs/registry.hpp"
#include "opt/transform.hpp"
#include "util/thread_pool.hpp"

namespace flowgen::opt {
namespace {

/// The paper alphabet plus two parameterized variants — the 8-entry
/// extended registry the acceptance scenario runs end to end.
std::shared_ptr<const TransformRegistry> extended_registry() {
  std::vector<TransformSpec> specs = TransformRegistry::paper()->specs();
  specs.push_back(spec_from_text("rewrite -K 3"));
  specs.push_back(spec_from_text("restructure -D 12"));
  return std::make_shared<const TransformRegistry>(std::move(specs));
}

TEST(RegistryTest, PaperRegistryMatchesTheFixedAlphabet) {
  const TransformRegistry& r = *TransformRegistry::paper();
  ASSERT_EQ(r.size(), kNumTransforms);
  for (StepId id = 0; id < r.size(); ++id) {
    // Names and order are exactly transform_name over the paper set — the
    // contract that keeps every old key, label and doc meaningful.
    EXPECT_EQ(r.name(id), transform_name(static_cast<TransformKind>(id)));
    EXPECT_EQ(r.id_of(r.name(id)), id);
  }
  EXPECT_TRUE(r.is_paper());
  EXPECT_FALSE(extended_registry()->is_paper());
}

TEST(RegistryTest, PaperFingerprintIsPinned) {
  // The fingerprint is persisted in v2 store headers and checked on every
  // wire request; changing how it is computed invalidates every stored
  // artifact, so the value itself is pinned here.
  EXPECT_EQ(registry_fingerprint_hex(TransformRegistry::paper()->fingerprint()),
            "0b4f127cf1cb5ff6b972e9b998dc4539");
}

TEST(RegistryTest, SpecTextRoundTrips) {
  const char* texts[] = {
      "balance",           "restructure",        "rewrite",
      "refactor",          "rewrite -z",         "refactor -z",
      "rewrite -K 3",      "rewrite -z -K 6 -C 16",
      "restructure -K 6 -D 12",                  "refactor -z -K 10 -M 3",
  };
  for (const char* text : texts) {
    EXPECT_EQ(spec_text(spec_from_text(text)), text) << text;
  }
  EXPECT_THROW(spec_from_text("fraig"), RegistryError);
  EXPECT_THROW(spec_from_text("rewrite -Q 3"), RegistryError);
  EXPECT_THROW(spec_from_text("rewrite -K"), RegistryError);
  EXPECT_THROW(spec_from_text("rewrite -K lots"), RegistryError);
  EXPECT_THROW(spec_from_text("rewrite -K 3x"), RegistryError);
  EXPECT_THROW(spec_from_text(""), RegistryError);
  // Flags the base pass never reads are rejected, not silently dropped —
  // "refactor -D 12" would otherwise normalise to plain refactor.
  EXPECT_THROW(spec_from_text("refactor -D 12"), RegistryError);
  EXPECT_THROW(spec_from_text("balance -K 3"), RegistryError);
  EXPECT_THROW(spec_from_text("restructure -z"), RegistryError);
  EXPECT_THROW(spec_from_text("restructure -M 2"), RegistryError);
}

TEST(RegistryTest, NormalizationFoldsAliasesAndIrrelevantParams) {
  TransformSpec z_alias;
  z_alias.base = TransformKind::kRewriteZ;
  TransformSpec explicit_z;
  explicit_z.base = TransformKind::kRewrite;
  explicit_z.zero_cost = true;
  // Both construct to the same spec — and to the same registry fingerprint.
  const TransformRegistry a({z_alias});
  const TransformRegistry b({explicit_z});
  EXPECT_EQ(a.spec(0), b.spec(0));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.name(0), "rewrite -z");

  // balance ignores every parameter: perturbing one must not change the
  // canonical identity.
  TransformSpec balance_odd;
  balance_odd.base = TransformKind::kBalance;
  balance_odd.max_leaves = 12;
  TransformSpec balance_plain;
  EXPECT_EQ(TransformRegistry({balance_odd}).fingerprint(),
            TransformRegistry({balance_plain}).fingerprint());
}

TEST(RegistryTest, ConstructionRejectsInvalidSpecLists) {
  EXPECT_THROW(TransformRegistry(std::vector<TransformSpec>{}),
               RegistryError);
  // Duplicate canonical names.
  TransformSpec rw;
  rw.base = TransformKind::kRewrite;
  EXPECT_THROW(TransformRegistry({rw, rw}), RegistryError);
  // Parameter ranges.
  TransformSpec huge_cut;
  huge_cut.base = TransformKind::kRewrite;
  huge_cut.cut_size = 9;
  EXPECT_THROW(TransformRegistry({huge_cut}), RegistryError);
  TransformSpec wide_window;
  wide_window.base = TransformKind::kRefactor;
  wide_window.max_leaves = 17;
  EXPECT_THROW(TransformRegistry({wide_window}), RegistryError);
  TransformSpec no_divisors;
  no_divisors.base = TransformKind::kRestructure;
  no_divisors.max_divisors = 0;
  EXPECT_THROW(TransformRegistry({no_divisors}), RegistryError);
}

TEST(RegistryTest, EncodeDecodeRoundTripsAndValidates) {
  const auto registry = extended_registry();
  const std::vector<std::uint8_t> bytes = registry->encode();
  const auto decoded = TransformRegistry::decode(bytes);
  EXPECT_EQ(decoded->fingerprint(), registry->fingerprint());
  ASSERT_EQ(decoded->size(), registry->size());
  for (StepId id = 0; id < registry->size(); ++id) {
    EXPECT_EQ(decoded->spec(id), registry->spec(id));
  }
  // Truncation, trailing bytes and a corrupt magic are typed errors.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  EXPECT_THROW(TransformRegistry::decode(truncated), RegistryError);
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(TransformRegistry::decode(trailing), RegistryError);
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(TransformRegistry::decode(bad_magic), RegistryError);
  // A decoded spec with hostile parameters re-validates: patch the cut
  // size field of the 7th spec ("rewrite -K 3") to an out-of-range value
  // and fix nothing else — decode must reject, not instantiate.
  std::vector<std::uint8_t> hostile = bytes;
  bool rejected = false;
  try {
    // Easiest robust corruption: flip every byte that equals 3 in the last
    // 80 bytes (parameter region of the appended specs) to 200.
    for (std::size_t i = hostile.size() - 80; i < hostile.size(); ++i) {
      if (hostile[i] == 3) hostile[i] = 200;
    }
    TransformRegistry::decode(hostile);
  } catch (const RegistryError&) {
    rejected = true;
  }
  EXPECT_TRUE(rejected);
}

TEST(RegistryTest, ValidateStepGuardsDispatch) {
  const TransformRegistry& r = *TransformRegistry::paper();
  EXPECT_NO_THROW(r.validate_step(5));
  EXPECT_THROW(r.validate_step(6), RegistryError);
  EXPECT_THROW(r.spec(6), RegistryError);
  const aig::Aig g = designs::make_design("alu:4");
  EXPECT_THROW(r.apply(g, 17), RegistryError);
  const std::vector<StepId> bad = {0, 1, 6};
  EXPECT_THROW(r.validate_steps(bad), RegistryError);
}

TEST(RegistryTest, PaperSpecsApplyBitIdenticallyToTransformKinds) {
  const aig::Aig g = designs::make_design("alu:6");
  const TransformRegistry& r = *TransformRegistry::paper();
  for (StepId id = 0; id < r.size(); ++id) {
    const aig::Aig via_registry = r.apply(g, id);
    const aig::Aig via_kind =
        apply_transform(g, static_cast<TransformKind>(id));
    EXPECT_EQ(via_registry.fingerprint(), via_kind.fingerprint())
        << r.name(id);
  }
}

TEST(RegistryTest, ParameterizedSpecsPreserveFunctionAndDiffer) {
  const aig::Aig g = designs::make_design("alu:6");
  const auto registry = extended_registry();
  util::Rng rng(11);
  for (StepId id : {StepId{6}, StepId{7}}) {
    const aig::Aig out = registry->apply(g, id);
    EXPECT_TRUE(aig::random_equivalent(g, out, rng)) << registry->name(id);
    EXPECT_EQ(out.check(), "");
  }
  // The -K 3 variant must actually behave differently from stock rewrite —
  // otherwise the parameter is not reaching the pass.
  EXPECT_NE(registry->apply(g, 6).fingerprint(),
            registry->apply(g, 2).fingerprint());
}

TEST(RegistryTest, FlowSpaceOverExtendedRegistry) {
  const auto registry = extended_registry();
  const core::FlowSpace space(1, registry);
  EXPECT_EQ(space.num_transforms(), 8u);
  EXPECT_EQ(space.length(), 8u);
  // 8 distinct transforms, m=1: the space is 8! — bigger than the paper's
  // 6! for the same m, which is the point of growing the alphabet.
  EXPECT_EQ(static_cast<std::uint64_t>(space.size()), 40320u);
  util::Rng rng(3);
  const core::Flow f = space.random_flow(rng);
  EXPECT_TRUE(space.contains(f));
  // Subsets validate against the registry.
  EXPECT_THROW(core::FlowSpace(1, {0, 9}, registry), RegistryError);
}

TEST(RegistryTest, EvaluatorValidatesAndDispatchesExtendedFlows) {
  const auto registry = extended_registry();
  core::EvaluatorConfig config;
  config.registry = registry;
  core::SynthesisEvaluator evaluator(designs::make_design("alu:4"),
                                     map::CellLibrary::builtin(), {}, config);
  core::Flow stray;
  stray.steps = {0, 8};  // id 8 undefined in an 8-spec registry
  EXPECT_THROW(evaluator.evaluate(stray), RegistryError);

  // Serial == parallel == engine-off over the extended alphabet.
  const core::FlowSpace space(1, registry);
  util::Rng rng(5);
  const std::vector<core::Flow> flows = space.sample_unique(40, rng);
  const std::vector<map::QoR> serial = evaluator.evaluate_many(flows);
  util::ThreadPool pool(4);
  core::SynthesisEvaluator parallel(designs::make_design("alu:4"),
                                    map::CellLibrary::builtin(), {}, config);
  const std::vector<map::QoR> par = parallel.evaluate_many(flows, &pool);
  core::EvaluatorConfig naive = config;
  naive.use_prefix_cache = false;
  naive.dedup_mappings = false;
  core::SynthesisEvaluator scratch(designs::make_design("alu:4"),
                                   map::CellLibrary::builtin(), {}, naive);
  const std::vector<map::QoR> raw = scratch.evaluate_many(flows);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(serial[i], par[i]) << flows[i].key();
    EXPECT_EQ(serial[i], raw[i]) << flows[i].key();
  }
}

TEST(RegistryTest, PipelineRunsOverExtendedRegistry) {
  // The acceptance scenario minus the fleet (service_test covers remote):
  // enumeration, one-hot width 8, classifier shape, flow-cache engine, all
  // over the 8-spec alphabet.
  core::PipelineConfig cfg;
  cfg.registry = extended_registry();
  cfg.training_flows = 24;
  cfg.sample_flows = 40;
  cfg.initial_labeled = 12;
  cfg.retrain_every = 12;
  cfg.num_angel = 4;
  cfg.num_devil = 4;
  cfg.steps_per_round = 10;
  cfg.repetitions = 1;  // L = 8 over 8 transforms
  cfg.classifier.conv_filters = 4;
  cfg.classifier.kernel_h = 3;
  cfg.classifier.kernel_w = 3;
  cfg.classifier.local_filters = 2;
  cfg.classifier.dense_units = 8;
  cfg.seed = 7;
  cfg.threads = 1;
  core::FlowGenPipeline pipe(designs::make_design("alu:4"), cfg);
  EXPECT_EQ(pipe.space().num_transforms(), 8u);
  const core::PipelineResult res = pipe.run();
  EXPECT_EQ(res.labeled_flows.size(), 24u);
  EXPECT_EQ(res.angel_flows.size(), 4u);
  for (const core::Flow& f : res.angel_flows) {
    EXPECT_EQ(f.length(), 8u);
  }
}

}  // namespace
}  // namespace flowgen::opt
