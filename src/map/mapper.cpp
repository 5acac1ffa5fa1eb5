#include "map/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "aig/refs.hpp"

namespace flowgen::map {

using aig::Aig;
using aig::Cut;
using aig::Lit;
using aig::lit_is_compl;
using aig::lit_node;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A matched cut: the library's match for its function (over the
/// function's `support`, see MatchRef), and the match's input inverters
/// over the cut's leaves.
struct Candidate {
  const Cut* cut = nullptr;
  const Match* match = nullptr;
  std::uint32_t support = 0;
  std::uint32_t leaf_flip_mask = 0;
};

/// Per-node mapping state. A node's candidates are the slice
/// [first, first + count) of one array shared by all nodes.
struct NodeState {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  int choice = -1;  ///< index into the node's candidates
  double arrival = 0.0;
  double area_flow = 0.0;
  double required = kInf;
};

double leaf_arrival(const std::vector<NodeState>& state, std::uint32_t leaf,
                    bool flipped, const CellLibrary& lib) {
  return state[leaf].arrival + (flipped ? lib.inverter_delay() : 0.0);
}

double candidate_arrival(const std::vector<NodeState>& state,
                         const Candidate& cand, const CellLibrary& lib) {
  double arr = 0.0;
  for (std::size_t i = 0; i < cand.cut->leaves.size(); ++i) {
    const bool flip = (cand.leaf_flip_mask >> i) & 1;
    arr = std::max(arr,
                   leaf_arrival(state, cand.cut->leaves[i], flip, lib));
  }
  return arr + cand.match->delay_ps;
}

double candidate_area_flow(const std::vector<NodeState>& state,
                           const Candidate& cand, const aig::RefCounts& refs,
                           std::uint32_t node) {
  double flow = cand.match->area_um2;
  for (std::uint32_t leaf : cand.cut->leaves) flow += state[leaf].area_flow;
  const double fanouts = std::max(1u, refs.refs(node));
  return flow / fanouts;
}

/// Maps `aig` and returns its QoR; fills `cover` when it is not null.
QoR map_cover(const Aig& aig, const CellLibrary& lib,
              const MapperParams& params, std::vector<CoverEntry>* cover) {
  aig::CutParams cut_params;
  cut_params.cut_size = params.cut_size;
  cut_params.max_cuts = params.max_cuts_per_node;
  cut_params.keep_trivial = true;
  const aig::CutManager cuts(aig, cut_params);
  const aig::RefCounts refs = aig::RefCounts::pristine(aig);

  std::vector<NodeState> state(aig.num_nodes());
  // Every candidate is a cut: sized once, never grown.
  std::vector<Candidate> all_candidates;
  all_candidates.reserve(cuts.num_cuts());
  auto candidates = [&](const NodeState& ns) {
    return std::span<const Candidate>(all_candidates.data() + ns.first,
                                      ns.count);
  };
  auto chosen = [&](const NodeState& ns) -> const Candidate& {
    return all_candidates[ns.first + static_cast<std::uint32_t>(ns.choice)];
  };

  // ---- candidate generation + delay-oriented selection (topo order) ------
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (!aig.is_and(id)) {
      state[id].arrival = 0.0;
      state[id].area_flow = 0.0;
      continue;
    }
    NodeState& ns = state[id];
    ns.first = static_cast<std::uint32_t>(all_candidates.size());
    const std::span<const Cut> node_cuts = cuts.cuts(id);
    for (std::size_t i = 0; i < node_cuts.size(); ++i) {
      const Cut& cut = node_cuts[i];
      if (cut.leaves.size() == 1 && cut.leaves[0] == id) continue;  // trivial
      const MatchRef match = lib.best_match(
          cuts.function_words(id, i), static_cast<unsigned>(cut.leaves.size()));
      if (!match) continue;
      all_candidates.push_back(
          Candidate{&cut, match.match, match.support, match.leaf_flip_mask()});
    }
    ns.count = static_cast<std::uint32_t>(all_candidates.size()) - ns.first;
    if (ns.count == 0) {
      throw std::runtime_error("map_aig: unmatchable node " +
                               std::to_string(id));
    }
    double best_arr = kInf;
    double best_flow = kInf;
    const std::span<const Candidate> cands = candidates(ns);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const double arr = candidate_arrival(state, cands[c], lib);
      const double flow = candidate_area_flow(state, cands[c], refs, id);
      if (arr < best_arr - 1e-9 ||
          (std::abs(arr - best_arr) <= 1e-9 && flow < best_flow)) {
        best_arr = arr;
        best_flow = flow;
        ns.choice = static_cast<int>(c);
      }
    }
    ns.arrival = best_arr;
    ns.area_flow = best_flow;
  }

  // ---- cover extraction helper -------------------------------------------
  std::vector<std::uint32_t> stack;
  auto extract_cover = [&](std::vector<char>& visible) {
    std::fill(visible.begin(), visible.end(), 0);
    stack.clear();
    for (Lit po : aig.pos()) {
      if (aig.is_and(lit_node(po))) stack.push_back(lit_node(po));
    }
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      stack.pop_back();
      if (visible[id]) continue;
      visible[id] = 1;
      const Candidate& cand = chosen(state[id]);
      for (std::uint32_t leaf : cand.cut->leaves) {
        if (aig.is_and(leaf) && !visible[leaf]) stack.push_back(leaf);
      }
    }
  };

  std::vector<char> visible(aig.num_nodes(), 0);
  extract_cover(visible);

  // ---- area recovery under required times --------------------------------
  if (params.area_recovery) {
    double target = 0.0;
    for (Lit po : aig.pos()) {
      const double arr = state[lit_node(po)].arrival +
                         (lit_is_compl(po) ? lib.inverter_delay() : 0.0);
      target = std::max(target, arr);
    }
    for (auto& ns : state) ns.required = kInf;
    for (Lit po : aig.pos()) {
      const double slackless =
          target - (lit_is_compl(po) ? lib.inverter_delay() : 0.0);
      state[lit_node(po)].required =
          std::min(state[lit_node(po)].required, slackless);
    }
    // Propagate requireds through the current cover (reverse topo), letting
    // each covered node re-choose the cheapest candidate that still meets
    // its required time.
    for (std::uint32_t id = static_cast<std::uint32_t>(aig.num_nodes());
         id-- > 0;) {
      if (!visible[id] || !aig.is_and(id)) continue;
      NodeState& ns = state[id];
      double best_flow = kInf;
      double best_arr = kInf;
      int best = ns.choice;
      const std::span<const Candidate> cands = candidates(ns);
      for (std::size_t c = 0; c < cands.size(); ++c) {
        const double arr = candidate_arrival(state, cands[c], lib);
        if (arr > ns.required + 1e-9) continue;
        const double flow = candidate_area_flow(state, cands[c], refs, id);
        if (flow < best_flow - 1e-12 ||
            (std::abs(flow - best_flow) <= 1e-12 && arr < best_arr)) {
          best_flow = flow;
          best_arr = arr;
          best = static_cast<int>(c);
        }
      }
      ns.choice = best;
      const Candidate& cand = chosen(ns);
      ns.arrival = candidate_arrival(state, cand, lib);
      for (std::size_t i = 0; i < cand.cut->leaves.size(); ++i) {
        const std::uint32_t leaf = cand.cut->leaves[i];
        if (!aig.is_and(leaf)) continue;
        const bool flip = (cand.leaf_flip_mask >> i) & 1;
        const double leaf_req = ns.required - cand.match->delay_ps -
                                (flip ? lib.inverter_delay() : 0.0);
        state[leaf].required = std::min(state[leaf].required, leaf_req);
      }
    }
    extract_cover(visible);

    // Recovery may have changed choices along non-critical paths; recompute
    // arrivals forward so the reported delay is exact for the final cover.
    for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
      if (!visible[id] || !aig.is_and(id)) continue;
      NodeState& ns = state[id];
      ns.arrival = candidate_arrival(state, chosen(ns), lib);
    }
  }

  // ---- final accounting ----------------------------------------------------
  QoR qor;
  if (cover != nullptr) {
    cover->reserve(static_cast<std::size_t>(
        std::count(visible.begin(), visible.end(), 1)));
  }
  // Signals needing an inverter, each counted once.
  std::vector<char> inverted(aig.num_nodes(), 0);
  std::size_t num_inverted = 0;
  auto invert = [&](std::uint32_t signal) {
    if (!inverted[signal]) {
      inverted[signal] = 1;
      ++num_inverted;
    }
  };
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (!visible[id]) continue;
    const Candidate& cand = chosen(state[id]);
    const Match& match = *cand.match;
    if (cover != nullptr) {
      const MatchRef ref{cand.match, cand.support};
      cover->push_back(
          CoverEntry{id, *cand.cut, ref.at_leaves(), state[id].arrival});
    }

    qor.area_um2 += lib.cell(match.cell_id).area_um2;
    ++qor.num_cells;
    if (match.out_flip) {
      // The output inverter is private to this gate (its positive output is
      // what the rest of the cover consumes).
      qor.area_um2 += lib.inverter_area();
      ++qor.num_inverters;
    }
    for (std::size_t i = 0; i < cand.cut->leaves.size(); ++i) {
      if ((cand.leaf_flip_mask >> i) & 1) invert(cand.cut->leaves[i]);
    }
  }
  double delay = 0.0;
  for (Lit po : aig.pos()) {
    double arr = state[lit_node(po)].arrival;
    if (lit_is_compl(po) && lit_node(po) != 0) {
      invert(lit_node(po));
      arr += lib.inverter_delay();
    }
    delay = std::max(delay, arr);
  }
  // Polarity inverters are shared per signal: one inverter serves all
  // complemented fanouts of a node.
  qor.area_um2 += static_cast<double>(num_inverted) * lib.inverter_area();
  qor.num_inverters += num_inverted;
  qor.delay_ps = delay;
  return qor;
}

}  // namespace

MappingResult map_aig(const Aig& aig, const CellLibrary& lib,
                      const MapperParams& params) {
  MappingResult result;
  result.qor = map_cover(aig, lib, params, &result.cover);
  return result;
}

QoR evaluate_qor(const Aig& aig, const CellLibrary& lib,
                 const MapperParams& params) {
  return map_cover(aig, lib, params, nullptr);
}

}  // namespace flowgen::map
