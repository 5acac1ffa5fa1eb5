#pragma once
// Shared replacement machinery for the rewriting-style passes. A pass works
// on a mutable copy of the graph: it appends candidate subgraphs and records
// accepted replacements in a `repl` alias table (old node -> equivalent
// literal). `apply_replacements` then rebuilds a compact graph from the POs,
// resolving aliases, which drops every node the pass made unreachable.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"

namespace flowgen::opt {

/// Identity alias table for a graph of `num_nodes` nodes.
std::vector<aig::Lit> identity_replacements(std::size_t num_nodes);

/// Resolve an alias chain. Chains always terminate: replacements point
/// either to strictly older nodes or to freshly appended nodes which are
/// never themselves replaced.
aig::Lit resolve(const std::vector<aig::Lit>& repl, aig::Lit l);

/// Rebuild only the PO-reachable logic of `g`, redirecting every edge
/// through `repl`. PIs are preserved in count and order.
///
/// Emission order numbers every output graph, so it is fixed: reachable
/// nodes whose whole transitive fanin is unreplaced (the *identity sweep*)
/// come first, in ascending input-id order, then the replaced regions by
/// DFS from the POs.
aig::Aig apply_replacements(const aig::Aig& g,
                            const std::vector<aig::Lit>& repl);

/// True if the alias-resolved cone of `root` contains node `target`.
/// Passes must reject a replacement whose cone contains the node being
/// replaced (structural hashing can hand back such nodes), or the alias
/// table would become cyclic.
bool cone_contains(const aig::Aig& g, const std::vector<aig::Lit>& repl,
                   aig::Lit root, std::uint32_t target);

/// Number of nodes from `mffc` that the alias-resolved cone of `root`
/// (stopped at `input` nodes) reuses. Structural hashing makes such nodes
/// look free during tentative construction, but they survive the
/// replacement, so they must be charged against the MFFC gain.
long reuse_cost(const aig::Aig& g, const std::vector<aig::Lit>& repl,
                aig::Lit root, std::span<const std::uint32_t> inputs,
                std::span<const std::uint32_t> mffc);

}  // namespace flowgen::opt
