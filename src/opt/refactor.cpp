#include "opt/refactor.hpp"

#include "opt/rewrite.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "aig/analysis.hpp"
#include "aig/reconv_cut.hpp"
#include "aig/refs.hpp"
#include "aig/simulate.hpp"
#include "opt/rebuild.hpp"

namespace flowgen::opt {

using aig::Aig;
using aig::Lit;
using aig::lit_node;
using aig::make_lit;

// Pure half (reconvergence window, cone truth table, ISOP + factoring of
// both polarities) is computed on the untouched input graph, with the
// factoring served from the process-wide factored-form memo. This function
// replays the winning factored form against the evolving pass state.
Aig refactor(const Aig& in, const RefactorParams& params) {
  Aig g = in;
  const std::uint32_t num_old = static_cast<std::uint32_t>(g.num_nodes());

  aig::RefCounts refs = aig::RefCounts::pristine(in);  // evolving copy
  std::vector<Lit> repl = identity_replacements(g.num_nodes());
  auto grow_repl = [&] {
    for (std::size_t id = repl.size(); id < g.num_nodes(); ++id) {
      repl.push_back(make_lit(static_cast<std::uint32_t>(id), false));
    }
  };

  const unsigned min_mffc = params.zero_cost ? 1 : params.min_mffc;
  std::vector<std::uint32_t> mffc_nodes;  // reused across roots

  for (std::uint32_t id = 1 + static_cast<std::uint32_t>(g.num_pis());
       id < num_old; ++id) {
    if (!g.is_and(id) || refs.dead(id) || refs.terminal(id)) continue;

    refs.mffc_nodes(g, id, mffc_nodes);
    const std::uint32_t mffc = static_cast<std::uint32_t>(mffc_nodes.size());
    if (mffc < min_mffc) continue;

    // Skip degenerate windows: bad size, the root among its own leaves, or
    // a cone that does not evaluate over them.
    const aig::WindowLeaves leaves =
        aig::reconv_cut(in, id, params.max_leaves);
    if (aig::degenerate_window(leaves)) continue;
    if (std::find(leaves.begin(), leaves.end(), id) != leaves.end()) continue;
    std::shared_ptr<const aig::FactoredForm> form;
    try {
      form = aig::factored_form(
          aig::cone_truth(in, make_lit(id, false), leaves));
    } catch (const std::invalid_argument&) {
      continue;
    }

    aig::InlineVec<Lit, aig::kMaxWindowLeaves> inputs;
    for (std::uint32_t leaf : leaves) {
      inputs.push_back(resolve(repl, make_lit(leaf, false)));
    }

    // gain = mffc - added - reused with reused >= 0, so a build that
    // appends more than mffc - threshold nodes is a certain reject: the
    // budgeted build stops there and rolls itself back.
    const long threshold =
        params.zero_cost ? -zero_cost_slack(mffc) : 1;
    const auto budget = static_cast<std::size_t>(
        std::max(0L, static_cast<long>(mffc) - threshold));
    const std::size_t cp = g.checkpoint();
    Lit cand = aig::build_factored_form(g, *form, inputs, budget);
    if (cand == aig::kLitInvalid) continue;
    const long added = static_cast<long>(g.num_nodes() - cp);
    const long reused = reuse_cost(g, repl, cand, leaves, mffc_nodes);
    const long gain = static_cast<long>(mffc) - added - reused;
    cand = resolve(repl, cand);

    const bool accept = lit_node(cand) != id && gain >= threshold &&
                        !cone_contains(g, repl, cand, id);
    if (!accept) {
      g.rollback(cp);
      continue;
    }

    grow_repl();
    refs.grow(g);
    repl[id] = cand;
    refs.deref_mffc(g, id);
    refs.set_terminal(id);
    refs.ref_cone(g, cand);
  }

  return apply_replacements(g, repl);
}

}  // namespace flowgen::opt
