#include "opt/transform.hpp"

#include <stdexcept>

#include "opt/registry.hpp"

namespace flowgen::opt {

const std::vector<TransformKind>& paper_transform_set() {
  static const std::vector<TransformKind> set = {
      TransformKind::kBalance,  TransformKind::kRestructure,
      TransformKind::kRewrite,  TransformKind::kRefactor,
      TransformKind::kRewriteZ, TransformKind::kRefactorZ,
  };
  return set;
}

std::string transform_name(TransformKind kind) {
  switch (kind) {
    case TransformKind::kBalance: return "balance";
    case TransformKind::kRestructure: return "restructure";
    case TransformKind::kRewrite: return "rewrite";
    case TransformKind::kRefactor: return "refactor";
    case TransformKind::kRewriteZ: return "rewrite -z";
    case TransformKind::kRefactorZ: return "refactor -z";
  }
  throw std::invalid_argument("unknown transform kind");
}

TransformKind transform_from_name(const std::string& name) {
  for (TransformKind kind : paper_transform_set()) {
    if (transform_name(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown transform name: " + name);
}

aig::Aig apply_transform(const aig::Aig& in, TransformKind kind) {
  // A TransformKind is exactly the paper registry's spec at the same id
  // (the enum values define the paper alphabet order), so the fixed-set API
  // is a thin veneer over spec dispatch.
  const auto id = static_cast<StepId>(kind);
  if (id >= TransformRegistry::paper()->size()) {
    throw std::invalid_argument("unknown transform kind");
  }
  return apply_spec(in, TransformRegistry::paper()->spec(id));
}

aig::Aig apply_flow(const aig::Aig& in, std::span<const TransformKind> flow) {
  aig::Aig g = in;
  apply_flow_inplace(g, flow);
  return g;
}

void apply_flow_inplace(aig::Aig& g, std::span<const TransformKind> flow) {
  for (TransformKind kind : flow) g = apply_transform(g, kind);
}

}  // namespace flowgen::opt
