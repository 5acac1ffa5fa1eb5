#include "opt/rewrite.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "aig/analysis.hpp"
#include "aig/cuts.hpp"
#include "aig/refs.hpp"
#include "aig/simulate.hpp"
#include "opt/rebuild.hpp"

namespace flowgen::opt {

using aig::Aig;
using aig::Cut;
using aig::Lit;
using aig::lit_node;
using aig::make_lit;
using aig::TruthTable;

Aig rewrite(const Aig& in, const RewriteParams& params) {
  Aig g = in;  // mutable working copy; old node ids stay untouched
  const std::uint32_t num_old = static_cast<std::uint32_t>(g.num_nodes());

  aig::RefCounts refs = aig::RefCounts::pristine(in);  // evolving copy
  aig::CutParams cut_params;
  cut_params.cut_size = params.cut_size;
  cut_params.max_cuts = params.max_cuts_per_node;
  cut_params.keep_trivial = false;
  // Enumerated once on the input graph; the pass never mutates cut sets.
  const aig::CutManager cuts(in, cut_params);

  std::vector<Lit> repl = identity_replacements(g.num_nodes());
  auto grow_repl = [&] {
    for (std::size_t id = repl.size(); id < g.num_nodes(); ++id) {
      repl.push_back(make_lit(static_cast<std::uint32_t>(id), false));
    }
  };

  for (std::uint32_t id = 1 + static_cast<std::uint32_t>(g.num_pis());
       id < num_old; ++id) {
    if (!g.is_and(id) || refs.dead(id) || refs.terminal(id)) continue;

    const std::vector<std::uint32_t> mffc_nodes = refs.mffc_nodes(g, id);
    const std::uint32_t mffc = static_cast<std::uint32_t>(mffc_nodes.size());

    long best_gain = params.zero_cost ? -zero_cost_slack(mffc) - 1 : 0;
    const Cut* best_cut = nullptr;
    std::shared_ptr<const aig::FactoredForm> best_form;

    for (const Cut& cut : cuts.cuts(id)) {
      if (cut.leaves.size() < 2) continue;
      const TruthTable tt =
          aig::cone_truth(g, make_lit(id, false), cut.leaves);
      // The ISOP + factoring of a cut function is pure: serve it from the
      // process-wide memo (4-input functions repeat constantly across
      // nodes, passes and designs).
      const std::shared_ptr<const aig::FactoredForm> form =
          aig::factored_form(tt);
      // Tentatively construct the resynthesized cone to measure its true
      // incremental cost (strash hits are free), then roll back.
      std::vector<Lit> inputs;
      inputs.reserve(cut.leaves.size());
      for (std::uint32_t leaf : cut.leaves) {
        inputs.push_back(resolve(repl, make_lit(leaf, false)));
      }
      const std::size_t cp = g.checkpoint();
      const Lit cand = aig::build_factored_form(g, *form, inputs);
      const long added = static_cast<long>(g.num_nodes() - cp);
      const long reused =
          reuse_cost(g, repl, cand, cut.leaves, mffc_nodes);
      const bool self = (cand == make_lit(id, false));
      g.rollback(cp);

      const long gain = static_cast<long>(mffc) - added - reused;
      if (!self && gain > best_gain) {
        best_gain = gain;
        best_cut = &cut;
        best_form = form;
      }
    }

    const bool accept =
        best_cut != nullptr && (best_gain > 0 || params.zero_cost);
    if (!accept) continue;

    std::vector<Lit> inputs;
    inputs.reserve(best_cut->leaves.size());
    for (std::uint32_t leaf : best_cut->leaves) {
      inputs.push_back(resolve(repl, make_lit(leaf, false)));
    }
    const std::size_t cp = g.checkpoint();
    Lit replacement = aig::build_factored_form(g, *best_form, inputs);
    replacement = resolve(repl, replacement);
    if (lit_node(replacement) == id ||
        cone_contains(g, repl, replacement, id)) {
      g.rollback(cp);  // would create an alias cycle
      continue;
    }

    grow_repl();
    refs.grow(g);
    repl[id] = replacement;
    // Commit: the old cone's internal references disappear, the node becomes
    // a terminal alias, and the replacement cone gains a reference.
    refs.deref_mffc(g, id);
    refs.set_terminal(id);
    refs.ref_cone(g, replacement);
  }

  return apply_replacements(g, repl);
}

}  // namespace flowgen::opt
