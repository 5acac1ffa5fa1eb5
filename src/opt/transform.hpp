#pragma once
// The transform set S of the paper:
//   S = {balance, restructure, rewrite, refactor, rewrite -z, refactor -z}
// as a fixed enum, kept as the convenience API for the paper alphabet. The
// general mechanism is opt/registry.hpp: a TransformRegistry of typed,
// parameterized specs whose default instance reproduces this set
// bit-identically at ids 0..5 — every function here dispatches through the
// paper registry's specs.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace flowgen::opt {

enum class TransformKind : std::uint8_t {
  kBalance = 0,
  kRestructure = 1,
  kRewrite = 2,
  kRefactor = 3,
  kRewriteZ = 4,
  kRefactorZ = 5,
};

/// Number of transforms in the paper's set S (n = 6).
constexpr std::size_t kNumTransforms = 6;

/// The paper's S, in the order it is listed (defines one-hot columns).
const std::vector<TransformKind>& paper_transform_set();

/// ABC-style command name ("balance", "rewrite -z", ...).
std::string transform_name(TransformKind kind);

/// Inverse of transform_name; throws std::invalid_argument for unknown names.
TransformKind transform_from_name(const std::string& name);

/// Run one transform. Always returns a compacted, function-preserving graph.
aig::Aig apply_transform(const aig::Aig& in, TransformKind kind);

/// Run a whole flow (sequence of transforms) left to right.
aig::Aig apply_flow(const aig::Aig& in, std::span<const TransformKind> flow);

/// Flow application on a mutable working graph: skips the upfront copy of
/// the input that `apply_flow` pays; each step rebuilds into a fresh graph
/// and move-assigns it over `g`.
void apply_flow_inplace(aig::Aig& g, std::span<const TransformKind> flow);

}  // namespace flowgen::opt
