#pragma once
// Per-pass analysis kernels of the window-based transforms.
//
// Restructure and refactor split their per-node work in two. The *pure*
// half is a function of the pass's input graph alone: the reconvergence
// window, window truth tables, the resubstitution match scan, ISOP and
// factoring. The *evolving* half (MFFC gain, alias resolution, incremental
// strash cost, commit) is replayed by the pass against its own state. This
// header holds the pure half. A pass computes it for its own input graph,
// root by root, and drops it when it returns; only the factored-form memo
// outlives a pass, because a truth table always factors the same way.
//
// The window kernels keep per-call node state in per-thread stamped slots
// (aig/stamped_slots.hpp), so that work costs a few milliseconds per pass
// on alu16 (docs/architecture.md has the per-pass numbers). They also skip
// work whose result is already known, without changing any result: a
// resub plan finishes its target from the window tables it built and
// skips the 1-resub scan for a caller that cannot use one, a root whose
// simulation signature no other node shares needs no 0-resub window
// (shared_signatures), and a tentative build stops as soon as it has
// appended more nodes than the caller's gain bound allows.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/factor.hpp"
#include "aig/refs.hpp"

namespace flowgen::aig {

/// Flattened fanout adjacency (CSR); the fanouts of node `id` are
/// targets[offsets[id] .. offsets[id+1]), ascending by fanout id.
struct Fanouts {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;

  std::uint32_t begin(std::uint32_t id) const { return offsets[id]; }
  std::uint32_t end(std::uint32_t id) const { return offsets[id + 1]; }
  std::uint32_t target(std::uint32_t i) const { return targets[i]; }
};

/// CSR fanouts of `g`'s current nodes. A pass builds it before appending
/// candidate nodes, so it describes the input graph only.
Fanouts build_fanouts(const Aig& g);

/// Random-simulation signature classes of `g`'s nodes up to complement:
/// entry `id` is 1 when another node of `g` (the constant node and the PIs
/// included) has the same signature as node `id` or its complement, and 0
/// when none does. Nodes that compute the same function of the PIs, or
/// complementary ones, always share a signature, so a 0 rules out every
/// node of `g` that computes node `id`'s function or its complement; a 1
/// proves nothing. The patterns are fixed, so the result depends on `g`
/// alone. The span is per-thread scratch, valid until the thread's next
/// call.
std::span<const std::uint8_t> shared_signatures(const Aig& g);

/// True when a reconvergence window cannot be analysed: fewer than 2 or
/// more than 16 leaves (window truth tables have at most 16 inputs).
inline bool degenerate_window(std::span<const std::uint32_t> leaves) {
  return leaves.size() < 2 || leaves.size() > 16;
}

/// One functional 1-resub candidate: target == (div0 ^ c0) & (div1 ^ c1),
/// possibly complemented at the output.
struct ResubMatch {
  std::uint32_t div0 = 0;
  std::uint32_t div1 = 0;
  std::uint8_t compl0 = 0;
  std::uint8_t compl1 = 0;
  std::uint8_t out_compl = 0;
};

/// A 0-resub candidate: an existing divisor computing the target function
/// (possibly complemented).
struct ZeroMatch {
  std::uint32_t div = 0;
  std::uint8_t compl_ = 0;
};

/// The pure half of restructure's work for one root: every functionally
/// matching resubstitution candidate over the input-graph window, in scan
/// order (divisor order for 0-resub; divisor pair order, then phase order
/// for 1-resub), capped at 64 candidates of each kind.
struct ResubPlan {
  std::vector<ZeroMatch> zeros;
  std::vector<ResubMatch> ones;
};

/// Fill `plan` for `root` over the window `leaves` (reconv_cut of `root`).
/// Divisors are collected by walking `fanouts` out of the leaves; `refs`
/// must hold the input graph's pristine reference counts, which decide
/// dead divisors and the MFFC split (mffc_nodes mutates and restores it).
/// The plan is left empty when the window is degenerate, the root is dead
/// or the target function cannot be computed over it. `plan`'s vectors
/// are reused.
///
/// With `scan_ones` false the caller will not read 1-resub candidates:
/// the pair scan is skipped and `plan.ones` stays empty, while
/// `plan.zeros` is exactly what the full plan would hold.
void compute_resub_plan(const Aig& g, std::uint32_t root,
                        std::span<const std::uint32_t> leaves,
                        unsigned max_divisors, RefCounts& refs,
                        const Fanouts& fanouts, ResubPlan& plan,
                        bool scan_ones = true);

/// The winning factored form of one window function: ISOP + quick-factor of
/// both polarities, fewer literals wins (ties prefer positive). Shared by
/// value between nodes, passes and designs via the process-wide memo.
struct FactoredForm {
  FactorExpr expr;
  bool output_compl = false;  ///< build the complement polarity, invert root
  std::size_t literals = 0;
};

/// Factored form of `tt`, served from (and inserted into) the process-wide
/// truth-table memo. Pure and thread-safe; bounded (insertions stop at a
/// high-water mark, which never affects values — only recomputation).
std::shared_ptr<const FactoredForm> factored_form(const TruthTable& tt);

/// Build a FactoredForm over `inputs` (inputs[i] drives variable i). A
/// build that would append more than `max_new_nodes` nodes is rolled back
/// and returns kLitInvalid (see build_factored): the passes bound it by the
/// most a candidate may add and still win, so a certain reject stops early.
Lit build_factored_form(Aig& aig, const FactoredForm& form,
                        std::span<const Lit> inputs,
                        std::size_t max_new_nodes = SIZE_MAX);

namespace detail {

/// The 1-resub pair scan of a resub plan (exposed for its property test).
/// Appends to `out`, in scan order (pairs i < j ascending, then phases
/// 0..3, the uncomplemented output first), every match
/// target == ((d[i] ^ c0) & (d[j] ^ c1)) ^ out_compl until `out` holds
/// `cap` entries. div0/div1 of each match are indices into `divisors`.
void scan_one_resub(const TruthTable& target,
                    std::span<const TruthTable* const> divisors,
                    std::size_t cap, std::vector<ResubMatch>& out);

}  // namespace detail

}  // namespace flowgen::aig
