#include "opt/restructure.hpp"

#include <vector>

#include "aig/analysis.hpp"
#include "aig/reconv_cut.hpp"
#include "aig/refs.hpp"
#include "opt/rebuild.hpp"

namespace flowgen::opt {

using aig::Aig;
using aig::Lit;
using aig::lit_node;
using aig::make_lit;

// The pass is split in two: the *pure* half (reconvergence window, divisor
// truth tables, the scan for every functionally matching 0-/1-resub
// candidate) is computed by aig::compute_resub_plan on the untouched input
// graph; this function replays the recorded candidates against its own
// evolving state (reference counts, alias table, incremental node cost).
Aig restructure(const Aig& in, const RestructureParams& params) {
  Aig g = in;  // mutable working copy; old node ids stay untouched
  const std::uint32_t num_old = static_cast<std::uint32_t>(g.num_nodes());

  // Plans read the pristine input only: its fanouts, and a pristine copy of
  // the reference counts for the MFFC split and dead divisors.
  const aig::Fanouts fanouts = aig::build_fanouts(in);
  aig::RefCounts refs = aig::RefCounts::pristine(in);  // evolving copy
  aig::RefCounts scratch = refs;  // pristine scratch for plan computation
  aig::ResubPlan plan;  // vectors reused across roots

  std::vector<Lit> repl = identity_replacements(g.num_nodes());
  auto grow_repl = [&] {
    for (std::size_t id = repl.size(); id < g.num_nodes(); ++id) {
      repl.push_back(make_lit(static_cast<std::uint32_t>(id), false));
    }
  };

  for (std::uint32_t id = 1 + static_cast<std::uint32_t>(g.num_pis());
       id < num_old; ++id) {
    if (!g.is_and(id) || refs.dead(id) || refs.terminal(id)) continue;

    const std::uint32_t mffc = refs.mffc_size(g, id);
    if (mffc < 1) continue;

    aig::compute_resub_plan(in, id, aig::reconv_cut(in, id, params.max_leaves),
                            params.max_divisors, scratch, fanouts, plan);
    if (plan.zeros.empty() && plan.ones.empty()) continue;

    Lit replacement = aig::kLitInvalid;

    // 0-resub: an existing divisor computes the function. Divisors whose
    // cone died earlier in the pass are skipped — resubstituting onto them
    // would silently revive logic the gain accounting already reclaimed.
    for (const aig::ZeroMatch& z : plan.zeros) {
      if (refs.dead(z.div)) continue;
      replacement = make_lit(z.div, z.compl_ != 0);
      break;
    }

    // 1-resub: one new AND of two divisors. The plan recorded every
    // functional match in scan order; replay charges each candidate its
    // true incremental cost (strash makes shared logic free) and takes the
    // first one that wins.
    if (replacement == aig::kLitInvalid && mffc >= 2) {
      for (const aig::ResubMatch& m : plan.ones) {
        if (refs.dead(m.div0) || refs.dead(m.div1)) continue;
        const Lit la = resolve(repl, make_lit(m.div0, m.compl0 != 0));
        const Lit lb = resolve(repl, make_lit(m.div1, m.compl1 != 0));
        const std::size_t cp = g.checkpoint();
        Lit cand = g.land(la, lb);
        const long cost = static_cast<long>(g.num_nodes() - cp);
        if (m.out_compl) cand = aig::lit_not(cand);
        if (lit_node(cand) == id || static_cast<long>(mffc) - cost <= 0) {
          g.rollback(cp);
          continue;
        }
        replacement = cand;
        break;
      }
    }

    if (replacement == aig::kLitInvalid) continue;
    replacement = resolve(repl, replacement);
    if (lit_node(replacement) == id ||
        cone_contains(g, repl, replacement, id)) {
      continue;  // would create an alias cycle
    }

    grow_repl();
    refs.grow(g);
    repl[id] = replacement;
    refs.deref_mffc(g, id);
    refs.set_terminal(id);
    refs.ref_cone(g, replacement);
  }

  return apply_replacements(g, repl);
}

}  // namespace flowgen::opt
