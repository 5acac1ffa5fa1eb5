#pragma once
// The graphs that random flows pass through, for the kernel oracle tests:
// a kernel that reads one graph at a time (a window, a cut set, a budgeted
// build) is compared with its reference on every graph a pass meets along
// real flows, not only on freshly elaborated designs.

#include <vector>

#include "aig/aig.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "opt/registry.hpp"
#include "util/rng.hpp"

namespace flowgen::fixtures {

/// For each of alu:8, spn16 and mont:6 and each repetition bound m of 2
/// and 4: the design, then every graph produced along two random flows of
/// the paper space, each step applied to its predecessor's output. Built
/// once per test binary.
inline const std::vector<aig::Aig>& oracle_graphs() {
  static const std::vector<aig::Aig> graphs = [] {
    const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
    std::vector<aig::Aig> out;
    for (const char* name : {"alu:8", "spn16", "mont:6"}) {
      const aig::Aig design = designs::make_design(name);
      for (unsigned m : {2u, 4u}) {
        out.push_back(design);
        util::Rng rng(17 + m);
        for (const core::Flow& flow :
             core::FlowSpace(m).sample_unique(2, rng)) {
          aig::Aig g = design;
          for (const opt::StepId step : flow.steps) {
            g = registry.apply(g, step);
            out.push_back(g);
          }
        }
      }
    }
    return out;
  }();
  return graphs;
}

}  // namespace flowgen::fixtures
