#pragma once
// Incremental analysis engine shared by every synthesis transform.
//
// Each pass used to recompute its static analysis from scratch on every
// invocation: reference counts, fanout adjacency, k-feasible cut sets, and —
// the actual hot part — per-node *pure* resynthesis analysis (reconvergence
// windows, window truth tables, resubstitution match scans, ISOP+factoring).
// The window kernels keep per-call node state in per-thread stamped slots
// (aig/stamped_slots.hpp), so that work costs a few milliseconds per pass
// on alu16 (docs/architecture.md has the per-pass numbers). An
// AnalysisCache memoises it per graph:
//
//  * whole-graph artifacts: pristine RefCounts, CSR fanout adjacency and
//    CutManager instances, computed lazily and shared read-only,
//  * per-node plans: reconvergence windows (leaves), resub plans (every
//    functionally matching 0-/1-resub candidate, in scan order) and factor
//    plans (the winning factored form of the window function). Plans are
//    pure functions of the graph, so cold and warm passes that replay them
//    against their own evolving pass state make bit-identical decisions.
//
// Damage regions: a pass reports its edit through the RebuildInfo produced
// by opt::apply_replacements, and `derive` carries every plan whose
// dependency cone is untouched over to the output graph's cache — per-pass
// analysis cost then scales with the size of the edit, not with |AIG|.
// Carried artifacts are bitwise equal to what a fresh computation on the new
// graph would produce (pinned by tests); anything that cannot be proven
// clean is simply dropped and recomputed lazily.
//
// Thread-safety: one AnalysisCache may be shared by concurrent evaluations
// resuming from the same cached snapshot (trie branch points). Whole-graph
// slots fill under a mutex; per-node plan slots publish through per-slot
// atomic states (acquire/release), so readers never block writers of other
// nodes. Mutable pass state (evolving reference counts) is copy-on-write:
// passes copy the pristine RefCounts and mutate their own copy.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cuts.hpp"
#include "aig/factor.hpp"
#include "aig/refs.hpp"

namespace flowgen::aig {

/// Damage report of a replacement-style pass: how the rebuilt graph relates
/// to the pass's input. Produced by opt::apply_replacements, consumed by
/// AnalysisCache::derive.
struct RebuildInfo {
  /// Per input-graph node: the literal it became in the output graph, or
  /// kLitInvalid when it was dropped (unreachable after replacements).
  std::vector<Lit> old_to_new;
  /// Per input-graph node: true when the node was emitted by the identity
  /// sweep — it was not replaced, its whole transitive fanin is unreplaced,
  /// and it kept its structure. Sweep nodes are emitted in ascending input
  /// id order, so the old->new map restricted to them (plus PIs and the
  /// constant, which keep their positions) is strictly order-preserving —
  /// the property that lets sorted leaf lists be carried without re-sorting.
  std::vector<char> identity;
};

/// Flattened fanout adjacency (CSR). Immutable once built; fanouts of node
/// `id` are targets[offsets[id] .. offsets[id+1]), ascending by fanout id.
struct FanoutView {
  const std::uint32_t* offsets = nullptr;
  const std::uint32_t* targets = nullptr;

  std::uint32_t begin(std::uint32_t id) const { return offsets[id]; }
  std::uint32_t end(std::uint32_t id) const { return offsets[id + 1]; }
  std::uint32_t target(std::uint32_t i) const { return targets[i]; }
};

/// A reconvergence-driven window root'ed at one node: the sorted cut leaves
/// (reconv_cut) every window-based pass agrees on. `skip` marks roots whose
/// cut degenerated (fewer than 2 or more than 16 leaves).
struct ReconvWindow {
  bool skip = false;
  std::vector<std::uint32_t> leaves;
};

/// One functional 1-resub candidate: target == (div0 ^ c0) & (div1 ^ c1),
/// possibly complemented at the output. Stored in scan order (divisor pair
/// order, then phase order) so replay visits candidates exactly as a fresh
/// scan would.
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
/// matching resubstitution candidate over the pristine-graph window, plus
/// the window closure (every node whose pristine state the plan depends on)
/// for damage checks. The evolving half — MFFC gain, alias resolution,
/// incremental cost, commit — is replayed by the pass against its own state.
struct ResubPlan {
  bool skip = false;  ///< degenerate window or target unavailable
  std::vector<ZeroMatch> zeros;
  std::vector<ResubMatch> ones;
  /// Window members in BFS insertion order (leaves first). The plan is
  /// carried across a rebuild only when every member survives untouched
  /// (structure, pristine refs and fanout lists).
  std::vector<std::uint32_t> closure;
};

/// The winning factored form of one window function: ISOP + quick-factor of
/// both polarities, fewer literals wins (ties prefer positive). Shared by
/// value between nodes, graphs and designs via the process-wide memo — the
/// same truth table always factors the same way.
struct FactoredForm {
  FactorExpr expr;
  bool output_compl = false;  ///< build the complement polarity, invert root
  std::size_t literals = 0;
  std::size_t bytes = 0;  ///< approximate heap footprint of `expr`
};

/// Factored form of `tt`, served from (and inserted into) the process-wide
/// truth-table memo. Pure and thread-safe; bounded (insertions stop at a
/// high-water mark, which never affects values — only recomputation).
std::shared_ptr<const FactoredForm> factored_form(const TruthTable& tt);

/// Build a FactoredForm over `inputs` (inputs[i] drives variable i).
Lit build_factored_form(Aig& aig, const FactoredForm& form,
                        const std::vector<Lit>& inputs);

/// The pure half of refactor's work for one root: window skip/degeneracy
/// plus the factored form of the window function.
struct FactorPlan {
  bool skip = false;  ///< degenerate window (size, or root among leaves)
  std::shared_ptr<const FactoredForm> form;
};

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

/// Monotonic process-wide counters for benchmarking the engine. Reads are
/// racy-but-monotonic; reset() is for bench harnesses only.
struct AnalysisCounters {
  std::size_t windows_computed = 0;
  std::size_t resub_plans_computed = 0;
  std::size_t resub_plans_carried = 0;
  std::size_t factor_plans_computed = 0;
  std::size_t factor_plans_carried = 0;
  std::size_t factor_memo_hits = 0;
  std::size_t cut_nodes_computed = 0;
  std::size_t cut_nodes_carried = 0;
  std::size_t windows_carried = 0;
};
AnalysisCounters analysis_counters();
void reset_analysis_counters();

/// Per-graph analysis store. An AnalysisCache is created against one
/// immutable graph; every accessor takes the graph again (the cache never
/// owns it) and the caller guarantees it is the same graph — snapshots in
/// the flow cache pair the two in one entry. All accessors are thread-safe.
class AnalysisCache {
public:
  /// Bind to `g` (records the node count; no analysis is computed yet).
  explicit AnalysisCache(const Aig& g);
  ~AnalysisCache();

  std::size_t num_nodes() const { return num_nodes_; }

  // -- whole-graph artifacts ------------------------------------------------

  /// Reference counts of the pristine graph (what RefCounts(g) computes).
  /// Passes copy this and evolve the copy.
  const RefCounts& pristine_refs(const Aig& g) const;

  /// CSR fanout adjacency of the pristine graph.
  FanoutView fanouts(const Aig& g) const;

  /// Cut sets for `params`, computed once per distinct parameter set and
  /// shared read-only (rewrite never mutates cut sets mid-pass).
  std::shared_ptr<const CutManager> cuts(const Aig& g,
                                         const CutParams& params) const;

  // -- per-node plans -------------------------------------------------------

  /// Reconvergence window of `root` for `max_leaves` (shared by restructure
  /// and refactor when their leaf limits agree).
  const ReconvWindow& window(const Aig& g, std::uint32_t root,
                             unsigned max_leaves) const;

  /// Restructure's pure resub plan for `root`. `scratch_refs` must be a
  /// caller-owned copy of pristine_refs (it is mutated and restored); one
  /// copy per pass avoids contention.
  const ResubPlan& resub_plan(const Aig& g, std::uint32_t root,
                              unsigned max_leaves, unsigned max_divisors,
                              RefCounts& scratch_refs) const;

  /// Refactor's pure factor plan for `root`.
  const FactorPlan& factor_plan(const Aig& g, std::uint32_t root,
                                unsigned max_leaves) const;

  /// Plan already materialised? (test/bench introspection; nullptr when the
  /// slot is still empty).
  const ResubPlan* resub_plan_if_ready(std::uint32_t root,
                                       unsigned max_leaves,
                                       unsigned max_divisors) const;
  const FactorPlan* factor_plan_if_ready(std::uint32_t root,
                                         unsigned max_leaves) const;
  const ReconvWindow* window_if_ready(std::uint32_t root,
                                      unsigned max_leaves) const;

  // -- damage-region carry --------------------------------------------------

  /// Analysis for `new_g` (the output of a pass over `old_g` with damage
  /// `rebuild`), carrying every plan of `old_cache` whose dependency cone
  /// is provably untouched. Everything carried is bitwise identical to a
  /// fresh computation on `new_g`; everything else starts empty. Never
  /// fails — worst case the result is an empty cache.
  static std::shared_ptr<AnalysisCache> derive(const Aig& old_g,
                                               const AnalysisCache& old_cache,
                                               const RebuildInfo& rebuild,
                                               const Aig& new_g);

  /// Approximate heap footprint of every materialised artifact. Grows as
  /// slots fill; byte-budgeted holders (the flow cache) re-poll on touch.
  std::size_t memory_bytes() const;

private:
  struct WindowTable;
  struct ResubTable;
  struct FactorTable;
  struct CutSlot;

  WindowTable& window_table(unsigned max_leaves) const;
  ResubTable& resub_table(unsigned max_leaves, unsigned max_divisors) const;
  FactorTable& factor_table(unsigned max_leaves) const;

  std::size_t num_nodes_ = 0;

  mutable std::mutex mutex_;  ///< guards slot/table creation + fills
  mutable std::shared_ptr<const RefCounts> refs_;
  mutable std::shared_ptr<const std::vector<std::uint32_t>> fanout_offsets_;
  mutable std::shared_ptr<const std::vector<std::uint32_t>> fanout_targets_;
  mutable std::vector<std::unique_ptr<CutSlot>> cut_slots_;
  mutable std::vector<std::unique_ptr<WindowTable>> window_tables_;
  mutable std::vector<std::unique_ptr<ResubTable>> resub_tables_;
  mutable std::vector<std::unique_ptr<FactorTable>> factor_tables_;
};

}  // namespace flowgen::aig
