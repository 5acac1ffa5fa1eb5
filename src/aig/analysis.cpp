#include "aig/analysis.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "aig/isop.hpp"
#include "aig/reconv_cut.hpp"
#include "aig/simulate.hpp"
#include "aig/stamped_slots.hpp"
#include "aig/truth.hpp"

namespace flowgen::aig {

namespace {

// Bounds that are part of the *pure plan semantics*: a plan records at most
// this many candidates, and replay (cold and warm alike) only ever consults
// the recorded list, so the cap can never make warm diverge from cold.
constexpr std::size_t kMaxZeroMatches = 64;
constexpr std::size_t kMaxOneMatches = 64;

struct Counters {
  std::atomic<std::size_t> windows_computed{0};
  std::atomic<std::size_t> resub_plans_computed{0};
  std::atomic<std::size_t> resub_plans_carried{0};
  std::atomic<std::size_t> factor_plans_computed{0};
  std::atomic<std::size_t> factor_plans_carried{0};
  std::atomic<std::size_t> factor_memo_hits{0};
  std::atomic<std::size_t> cut_nodes_computed{0};
  std::atomic<std::size_t> cut_nodes_carried{0};
  std::atomic<std::size_t> windows_carried{0};
};

Counters& counters() {
  static Counters c;
  return c;
}

std::size_t expr_bytes(const FactorExpr& e) {
  std::size_t bytes = e.children.capacity() * sizeof(FactorExpr);
  for (const FactorExpr& c : e.children) bytes += expr_bytes(c);
  return bytes;
}

// ------------------------------------------------- factored-form memo --

struct TruthTableHash {
  std::size_t operator()(const TruthTable& tt) const noexcept {
    std::uint64_t h = 1469598103934665603ull ^ tt.num_vars();
    for (std::uint64_t w : tt.words()) {
      h = (h ^ w) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct FactorMemoShard {
  std::mutex mutex;
  std::unordered_map<TruthTable, std::shared_ptr<const FactoredForm>,
                     TruthTableHash>
      memo;
};

constexpr std::size_t kFactorMemoShards = 8;
// Per-shard high-water mark; beyond it lookups still hit but fresh tables
// are recomputed instead of inserted (values never change, so the bound
// affects cost only, never determinism).
constexpr std::size_t kFactorMemoCap = 1 << 13;

FactorMemoShard* factor_memo() {
  static FactorMemoShard shards[kFactorMemoShards];
  return shards;
}

std::shared_ptr<const FactoredForm> compute_factored(const TruthTable& tt) {
  auto form = std::make_shared<FactoredForm>();
  if (tt.is_const0()) {
    form->expr.kind = FactorExpr::Kind::kConst0;
  } else if (tt.is_const1()) {
    form->expr.kind = FactorExpr::Kind::kConst1;
  } else {
    // Mirrors build_from_truth: factor both polarities, fewer literals
    // wins, ties prefer the positive polarity.
    FactorExpr pos = factor_sop(isop(tt));
    FactorExpr neg = factor_sop(isop(~tt));
    if (pos.num_literals() <= neg.num_literals()) {
      form->expr = std::move(pos);
      form->output_compl = false;
    } else {
      form->expr = std::move(neg);
      form->output_compl = true;
    }
  }
  form->literals = form->expr.num_literals();
  form->bytes = sizeof(FactoredForm) + expr_bytes(form->expr);
  return form;
}

}  // namespace

std::shared_ptr<const FactoredForm> factored_form(const TruthTable& tt) {
  FactorMemoShard& shard =
      factor_memo()[TruthTableHash{}(tt) % kFactorMemoShards];
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.memo.find(tt); it != shard.memo.end()) {
      counters().factor_memo_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  auto form = compute_factored(tt);
  {
    std::lock_guard lock(shard.mutex);
    if (shard.memo.size() < kFactorMemoCap) {
      const auto [it, inserted] = shard.memo.emplace(tt, form);
      if (!inserted) return it->second;  // lost the race: share the winner
    }
  }
  return form;
}

Lit build_factored_form(Aig& aig, const FactoredForm& form,
                        const std::vector<Lit>& inputs) {
  const Lit l = build_factored(aig, form.expr, inputs);
  return form.output_compl ? lit_not(l) : l;
}

AnalysisCounters analysis_counters() {
  AnalysisCounters s;
  const Counters& c = counters();
  s.windows_computed = c.windows_computed.load(std::memory_order_relaxed);
  s.resub_plans_computed =
      c.resub_plans_computed.load(std::memory_order_relaxed);
  s.resub_plans_carried =
      c.resub_plans_carried.load(std::memory_order_relaxed);
  s.factor_plans_computed =
      c.factor_plans_computed.load(std::memory_order_relaxed);
  s.factor_plans_carried =
      c.factor_plans_carried.load(std::memory_order_relaxed);
  s.factor_memo_hits = c.factor_memo_hits.load(std::memory_order_relaxed);
  s.cut_nodes_computed = c.cut_nodes_computed.load(std::memory_order_relaxed);
  s.cut_nodes_carried = c.cut_nodes_carried.load(std::memory_order_relaxed);
  s.windows_carried = c.windows_carried.load(std::memory_order_relaxed);
  return s;
}

void reset_analysis_counters() {
  Counters& c = counters();
  c.windows_computed = 0;
  c.resub_plans_computed = 0;
  c.resub_plans_carried = 0;
  c.factor_plans_computed = 0;
  c.factor_plans_carried = 0;
  c.factor_memo_hits = 0;
  c.cut_nodes_computed = 0;
  c.cut_nodes_carried = 0;
  c.windows_carried = 0;
}

// ----------------------------------------------------------- tables --

struct AnalysisCache::WindowTable {
  struct Slot {
    std::atomic<std::uint8_t> state{0};
    ReconvWindow value;
  };
  explicit WindowTable(unsigned ml, std::size_t n)
      : max_leaves(ml), slots(n) {}
  unsigned max_leaves;
  std::mutex mutex;
  std::atomic<std::size_t> bytes{0};
  std::vector<Slot> slots;
};

struct AnalysisCache::ResubTable {
  struct Slot {
    std::atomic<std::uint8_t> state{0};
    ResubPlan value;
  };
  ResubTable(unsigned ml, unsigned md, std::size_t n)
      : max_leaves(ml), max_divisors(md), slots(n) {}
  unsigned max_leaves;
  unsigned max_divisors;
  std::mutex mutex;
  std::atomic<std::size_t> bytes{0};
  std::vector<Slot> slots;
};

struct AnalysisCache::FactorTable {
  struct Slot {
    std::atomic<std::uint8_t> state{0};
    FactorPlan value;
  };
  explicit FactorTable(unsigned ml, std::size_t n)
      : max_leaves(ml), slots(n) {}
  unsigned max_leaves;
  std::mutex mutex;
  std::atomic<std::size_t> bytes{0};
  std::vector<Slot> slots;
};

struct AnalysisCache::CutSlot {
  CutParams params;
  std::shared_ptr<const CutManager> mgr;
  std::size_t bytes = 0;
};

namespace {

std::size_t window_bytes(const ReconvWindow& w) {
  return sizeof(ReconvWindow) + w.leaves.capacity() * sizeof(std::uint32_t);
}

std::size_t resub_bytes(const ResubPlan& p) {
  return sizeof(ResubPlan) + p.zeros.capacity() * sizeof(ZeroMatch) +
         p.ones.capacity() * sizeof(ResubMatch) +
         p.closure.capacity() * sizeof(std::uint32_t);
}

std::size_t factor_bytes(const FactorPlan& p) {
  return sizeof(FactorPlan) + (p.form ? p.form->bytes : 0);
}

bool pis_first(const Aig& g) {
  for (std::size_t i = 0; i < g.num_pis(); ++i) {
    if (g.pis()[i] != i + 1) return false;
  }
  return true;
}

}  // namespace

AnalysisCache::AnalysisCache(const Aig& g) : num_nodes_(g.num_nodes()) {}

AnalysisCache::~AnalysisCache() = default;

const RefCounts& AnalysisCache::pristine_refs(const Aig& g) const {
  // >=: passes re-read after appending tentative candidate nodes; the
  // artifact must have been materialised before the first append (every
  // pass does so up front), at which point extra nodes cannot change it.
  assert(g.num_nodes() >= num_nodes_);
  {
    std::lock_guard lock(mutex_);
    if (refs_) return *refs_;
  }
  // First materialisation must see the pristine graph (pass contract).
  assert(g.num_nodes() == num_nodes_);
  auto fresh = std::make_shared<const RefCounts>(RefCounts::pristine(g));
  std::lock_guard lock(mutex_);
  if (!refs_) refs_ = std::move(fresh);
  return *refs_;
}

FanoutView AnalysisCache::fanouts(const Aig& g) const {
  assert(g.num_nodes() >= num_nodes_);  // see pristine_refs
  {
    std::lock_guard lock(mutex_);
    if (fanout_offsets_) {
      return FanoutView{fanout_offsets_->data(), fanout_targets_->data()};
    }
  }
  // Counting pass + fill pass over the pristine prefix only (nodes a pass
  // appended past num_nodes_ are tentative candidates, not part of the
  // analysed graph); targets of one node end up ascending because the fill
  // scans ids in ascending order.
  const auto n = static_cast<std::uint32_t>(num_nodes_);
  auto offsets = std::make_shared<std::vector<std::uint32_t>>(n + 1, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!g.is_and(id)) continue;
    ++(*offsets)[lit_node(g.node(id).fanin0) + 1];
    ++(*offsets)[lit_node(g.node(id).fanin1) + 1];
  }
  for (std::size_t i = 1; i < offsets->size(); ++i) {
    (*offsets)[i] += (*offsets)[i - 1];
  }
  auto targets =
      std::make_shared<std::vector<std::uint32_t>>(offsets->back());
  std::vector<std::uint32_t> cursor(*offsets);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!g.is_and(id)) continue;
    (*targets)[cursor[lit_node(g.node(id).fanin0)]++] = id;
    (*targets)[cursor[lit_node(g.node(id).fanin1)]++] = id;
  }
  std::lock_guard lock(mutex_);
  if (!fanout_offsets_) {
    fanout_offsets_ = std::move(offsets);
    fanout_targets_ = std::move(targets);
  }
  return FanoutView{fanout_offsets_->data(), fanout_targets_->data()};
}

std::shared_ptr<const CutManager> AnalysisCache::cuts(
    const Aig& g, const CutParams& params) const {
  assert(g.num_nodes() >= num_nodes_);  // see pristine_refs
  {
    std::lock_guard lock(mutex_);
    for (const auto& slot : cut_slots_) {
      if (slot->params.cut_size == params.cut_size &&
          slot->params.max_cuts == params.max_cuts &&
          slot->params.keep_trivial == params.keep_trivial && slot->mgr) {
        return slot->mgr;
      }
    }
  }
  // First materialisation must see the pristine graph (pass contract).
  assert(g.num_nodes() == num_nodes_);
  auto mgr = std::make_shared<const CutManager>(g, params);
  counters().cut_nodes_computed.fetch_add(g.num_nodes(),
                                          std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  for (const auto& slot : cut_slots_) {
    if (slot->params.cut_size == params.cut_size &&
        slot->params.max_cuts == params.max_cuts &&
        slot->params.keep_trivial == params.keep_trivial && slot->mgr) {
      return slot->mgr;  // lost the race: share the winner
    }
  }
  auto slot = std::make_unique<CutSlot>();
  slot->params = params;
  slot->bytes = mgr->memory_bytes();
  slot->mgr = mgr;
  cut_slots_.push_back(std::move(slot));
  return mgr;
}

AnalysisCache::WindowTable& AnalysisCache::window_table(
    unsigned max_leaves) const {
  std::lock_guard lock(mutex_);
  for (const auto& t : window_tables_) {
    if (t->max_leaves == max_leaves) return *t;
  }
  window_tables_.push_back(
      std::make_unique<WindowTable>(max_leaves, num_nodes_));
  return *window_tables_.back();
}

AnalysisCache::ResubTable& AnalysisCache::resub_table(
    unsigned max_leaves, unsigned max_divisors) const {
  std::lock_guard lock(mutex_);
  for (const auto& t : resub_tables_) {
    if (t->max_leaves == max_leaves && t->max_divisors == max_divisors) {
      return *t;
    }
  }
  resub_tables_.push_back(
      std::make_unique<ResubTable>(max_leaves, max_divisors, num_nodes_));
  return *resub_tables_.back();
}

AnalysisCache::FactorTable& AnalysisCache::factor_table(
    unsigned max_leaves) const {
  std::lock_guard lock(mutex_);
  for (const auto& t : factor_tables_) {
    if (t->max_leaves == max_leaves) return *t;
  }
  factor_tables_.push_back(
      std::make_unique<FactorTable>(max_leaves, num_nodes_));
  return *factor_tables_.back();
}

const ReconvWindow& AnalysisCache::window(const Aig& g, std::uint32_t root,
                                          unsigned max_leaves) const {
  WindowTable& table = window_table(max_leaves);
  WindowTable::Slot& slot = table.slots[root];
  if (slot.state.load(std::memory_order_acquire)) return slot.value;
  ReconvWindow w;
  w.leaves = reconv_cut(g, root, max_leaves);
  w.skip = w.leaves.size() < 2 || w.leaves.size() > 16;
  std::lock_guard lock(table.mutex);
  if (!slot.state.load(std::memory_order_relaxed)) {
    table.bytes.fetch_add(window_bytes(w), std::memory_order_relaxed);
    slot.value = std::move(w);
    counters().windows_computed.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(1, std::memory_order_release);
  }
  return slot.value;
}

const ReconvWindow* AnalysisCache::window_if_ready(std::uint32_t root,
                                                   unsigned max_leaves) const {
  WindowTable& table = window_table(max_leaves);
  WindowTable::Slot& slot = table.slots[root];
  return slot.state.load(std::memory_order_acquire) ? &slot.value : nullptr;
}

namespace detail {

void scan_one_resub(const TruthTable& target,
                    std::span<const TruthTable* const> divisors,
                    std::size_t cap, std::vector<ResubMatch>& out) {
  // Exact unate pre-filter. target == (a ^ ca) & (b ^ cb) implies
  // target <= a ^ ca and target <= b ^ cb (and ~target likewise when the
  // output is complemented), so four containment bits per divisor rule out
  // most (pair, phases) before the full comparison. Bit (ct << 1 | c) says
  // (target ^ ct) <= (d ^ c). A divisor with no bit set takes part in no
  // match, so the pair loop runs over the others only, in the same order.
  struct Live {
    std::uint32_t index;
    std::uint32_t cover;
  };
  const std::span<const std::uint64_t> t = target.words();
  const std::uint64_t tail =
      target.num_vars() >= 6
          ? ~0ull
          : (std::uint64_t{1} << (std::size_t{1} << target.num_vars())) - 1;
  std::vector<Live> live;
  for (std::size_t k = 0; k < divisors.size(); ++k) {
    const std::span<const std::uint64_t> d = divisors[k]->words();
    std::uint64_t t_nd = 0, t_d = 0, nt_nd = 0, nt_d = 0;
    for (std::size_t w = 0; w < t.size(); ++w) {
      const std::uint64_t m = w + 1 == t.size() ? tail : ~0ull;
      t_nd |= t[w] & ~d[w] & m;
      t_d |= t[w] & d[w] & m;
      nt_nd |= ~t[w] & ~d[w] & m;
      nt_d |= ~t[w] & d[w] & m;
    }
    const std::uint32_t cover = (t_nd == 0) | (t_d == 0) << 1 |
                                (nt_nd == 0) << 2 | (nt_d == 0) << 3;
    if (cover) live.push_back({static_cast<std::uint32_t>(k), cover});
  }

  for (std::size_t i = 0; i < live.size() && out.size() < cap; ++i) {
    const Live a = live[i];
    const TruthTable& da = *divisors[a.index];
    for (std::size_t j = i + 1; j < live.size() && out.size() < cap; ++j) {
      const Live b = live[j];
      const TruthTable& db = *divisors[b.index];
      for (unsigned phases = 0; phases < 4; ++phases) {
        const unsigned c0 = phases & 1;
        const unsigned c1 = (phases >> 1) & 1;
        bool out_compl = false;
        if (((a.cover >> c0) & (b.cover >> c1) & 1) != 0 &&
            target.matches_and(da, c0 != 0, db, c1 != 0, false)) {
          out_compl = false;
        } else if (((a.cover >> (2 + c0)) & (b.cover >> (2 + c1)) & 1) != 0 &&
                   target.matches_and(da, c0 != 0, db, c1 != 0, true)) {
          out_compl = true;
        } else {
          continue;
        }
        out.push_back(ResubMatch{a.index, b.index,
                                 static_cast<std::uint8_t>(c0),
                                 static_cast<std::uint8_t>(c1),
                                 static_cast<std::uint8_t>(out_compl)});
        if (out.size() >= cap) break;
      }
    }
  }
}

}  // namespace detail

namespace {

// Per-thread scratch of compute_resub_plan (see aig/stamped_slots.hpp).
struct ResubScratch {
  static constexpr std::uint32_t kNoTable = ~0u;
  struct Slot {
    std::uint32_t tt = kNoTable;  ///< index into `tts`
    bool in_mffc = false;
  };
  struct Divisor {
    std::uint32_t node = 0;
    std::uint32_t tt = 0;
  };
  StampedSlots<Slot> slots;
  std::vector<TruthTable> tts;  ///< window truth tables, insertion order
  std::vector<Divisor> divisors;
  std::vector<const TruthTable*> divisor_tts;
  std::vector<std::uint32_t> frontier;
};

/// The pure half of one restructure window: collect divisors over the
/// pristine graph (pristine reference counts decide deadness and the MFFC
/// membership split) and record every functionally matching candidate in
/// scan order. `refs` is a pristine-state scratch copy: mffc_nodes
/// temporarily mutates and then restores it.
ResubPlan compute_resub_plan(const Aig& g, std::uint32_t root,
                             unsigned max_divisors, const ReconvWindow& win,
                             RefCounts& refs, FanoutView fanouts) {
  ResubPlan plan;
  if (win.skip) {
    plan.skip = true;
    return plan;
  }
  const auto& leaves = win.leaves;
  const auto nv = static_cast<unsigned>(leaves.size());
  constexpr std::uint32_t kNoTable = ResubScratch::kNoTable;

  thread_local ResubScratch s;
  s.slots.reset(g.num_nodes());
  s.tts.clear();
  s.divisors.clear();
  s.frontier.clear();
  for (std::uint32_t id : refs.mffc_nodes(g, root)) {
    s.slots.at(id).in_mffc = true;
  }
  // Stores `tt` as node `id`'s window table unless it already has one (the
  // first table stored wins); returns the table's index.
  auto store = [&](std::uint32_t id, TruthTable tt) {
    std::uint32_t& slot = s.slots.at(id).tt;
    if (slot == kNoTable) {
      slot = static_cast<std::uint32_t>(s.tts.size());
      s.tts.push_back(std::move(tt));
    }
    return slot;
  };
  auto table_of = [&](std::uint32_t id) { return s.slots.get(id).tt; };

  for (unsigned i = 0; i < nv; ++i) {
    s.divisors.push_back(
        {leaves[i], store(leaves[i], TruthTable::variable(nv, i))});
    s.frontier.push_back(leaves[i]);
    plan.closure.push_back(leaves[i]);
  }
  while (!s.frontier.empty() && s.divisors.size() < max_divisors) {
    const std::uint32_t seed = s.frontier.back();
    s.frontier.pop_back();
    for (std::uint32_t fi = fanouts.begin(seed); fi < fanouts.end(seed);
         ++fi) {
      const std::uint32_t candidate = fanouts.target(fi);
      if (candidate == root) continue;
      if (table_of(candidate) != kNoTable || refs.dead(candidate)) continue;
      const auto& n = g.node(candidate);
      const std::uint32_t t0 = table_of(lit_node(n.fanin0));
      const std::uint32_t t1 = table_of(lit_node(n.fanin1));
      if (t0 == kNoTable || t1 == kNoTable) continue;
      const std::uint32_t t = store(
          candidate, TruthTable::and_phase(s.tts[t0], lit_is_compl(n.fanin0),
                                           s.tts[t1], lit_is_compl(n.fanin1)));
      s.frontier.push_back(candidate);
      plan.closure.push_back(candidate);
      if (!s.slots.get(candidate).in_mffc) {
        s.divisors.push_back({candidate, t});
        if (s.divisors.size() >= max_divisors) break;
      }
    }
  }

  // Target function: root over the window leaves. When the window BFS was
  // capped before reaching the root's fanins, fall back to exact cone
  // evaluation (still pure); when even that fails the plan is a skip.
  const auto& rn = g.node(root);
  const std::uint32_t rt0 = table_of(lit_node(rn.fanin0));
  const std::uint32_t rt1 = table_of(lit_node(rn.fanin1));
  TruthTable target;
  if (rt0 != kNoTable && rt1 != kNoTable) {
    target = TruthTable::and_phase(s.tts[rt0], lit_is_compl(rn.fanin0),
                                   s.tts[rt1], lit_is_compl(rn.fanin1));
  } else {
    try {
      target = cone_truth(g, make_lit(root, false), leaves);
    } catch (const std::invalid_argument&) {
      plan.skip = true;
      return plan;
    }
  }

  s.divisor_tts.clear();
  for (const ResubScratch::Divisor& d : s.divisors) {
    s.divisor_tts.push_back(&s.tts[d.tt]);
  }
  for (std::size_t k = 0; k < s.divisors.size(); ++k) {
    const std::uint32_t node = s.divisors[k].node;
    if (node == root) continue;
    if (plan.zeros.size() >= kMaxZeroMatches) break;
    if (*s.divisor_tts[k] == target) {
      plan.zeros.push_back(ZeroMatch{node, 0});
    } else if (s.divisor_tts[k]->equals_compl(target)) {
      plan.zeros.push_back(ZeroMatch{node, 1});
    }
  }

  detail::scan_one_resub(target, s.divisor_tts, kMaxOneMatches, plan.ones);
  for (ResubMatch& m : plan.ones) {
    m.div0 = s.divisors[m.div0].node;
    m.div1 = s.divisors[m.div1].node;
  }
  return plan;
}

}  // namespace

const ResubPlan& AnalysisCache::resub_plan(const Aig& g, std::uint32_t root,
                                           unsigned max_leaves,
                                           unsigned max_divisors,
                                           RefCounts& scratch_refs) const {
  ResubTable& table = resub_table(max_leaves, max_divisors);
  ResubTable::Slot& slot = table.slots[root];
  if (slot.state.load(std::memory_order_acquire)) return slot.value;
  ResubPlan plan = compute_resub_plan(g, root, max_divisors,
                                      window(g, root, max_leaves),
                                      scratch_refs, fanouts(g));
  std::lock_guard lock(table.mutex);
  if (!slot.state.load(std::memory_order_relaxed)) {
    table.bytes.fetch_add(resub_bytes(plan), std::memory_order_relaxed);
    slot.value = std::move(plan);
    counters().resub_plans_computed.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(1, std::memory_order_release);
  }
  return slot.value;
}

const ResubPlan* AnalysisCache::resub_plan_if_ready(
    std::uint32_t root, unsigned max_leaves, unsigned max_divisors) const {
  ResubTable& table = resub_table(max_leaves, max_divisors);
  ResubTable::Slot& slot = table.slots[root];
  return slot.state.load(std::memory_order_acquire) ? &slot.value : nullptr;
}

const FactorPlan& AnalysisCache::factor_plan(const Aig& g, std::uint32_t root,
                                             unsigned max_leaves) const {
  FactorTable& table = factor_table(max_leaves);
  FactorTable::Slot& slot = table.slots[root];
  if (slot.state.load(std::memory_order_acquire)) return slot.value;
  FactorPlan plan;
  const ReconvWindow& win = window(g, root, max_leaves);
  bool degenerate = win.skip;
  for (std::uint32_t leaf : win.leaves) degenerate |= (leaf == root);
  if (degenerate) {
    plan.skip = true;
  } else {
    try {
      plan.form = factored_form(cone_truth(g, make_lit(root, false),
                                           win.leaves));
    } catch (const std::invalid_argument&) {
      plan.skip = true;
    }
  }
  std::lock_guard lock(table.mutex);
  if (!slot.state.load(std::memory_order_relaxed)) {
    table.bytes.fetch_add(factor_bytes(plan), std::memory_order_relaxed);
    slot.value = std::move(plan);
    counters().factor_plans_computed.fetch_add(1, std::memory_order_relaxed);
    slot.state.store(1, std::memory_order_release);
  }
  return slot.value;
}

const FactorPlan* AnalysisCache::factor_plan_if_ready(
    std::uint32_t root, unsigned max_leaves) const {
  FactorTable& table = factor_table(max_leaves);
  FactorTable::Slot& slot = table.slots[root];
  return slot.state.load(std::memory_order_acquire) ? &slot.value : nullptr;
}

// ------------------------------------------------------------ derive --

std::shared_ptr<AnalysisCache> AnalysisCache::derive(
    const Aig& old_g, const AnalysisCache& old_cache,
    const RebuildInfo& rebuild, const Aig& new_g) {
  auto fresh = std::make_shared<AnalysisCache>(new_g);
  const std::size_t n_old = old_g.num_nodes();
  const std::size_t n_new = new_g.num_nodes();
  if (old_cache.num_nodes_ != n_old) return fresh;
  if (rebuild.old_to_new.size() < n_old || rebuild.identity.size() < n_old) {
    return fresh;
  }
  // Order preservation of the counterpart map needs the canonical
  // PIs-first layout on both sides (every transform output has it; raw
  // designs that do not simply start cold).
  if (old_g.num_pis() != new_g.num_pis() || !pis_first(old_g) ||
      !pis_first(new_g)) {
    return fresh;
  }

  constexpr std::uint32_t kNone = CutReuse::kNone;
  // Counterpart of an old node in the new graph (identity sweep only; for
  // those the map literal is always positive).
  auto counterpart = [&](std::uint32_t o) -> std::uint32_t {
    if (o >= n_old || !rebuild.identity[o]) return kNone;
    const Lit l = rebuild.old_to_new[o];
    if (l == kLitInvalid || lit_is_compl(l)) return kNone;
    return lit_node(l);
  };

  std::vector<std::uint32_t> old_of(n_new, kNone);
  for (std::uint32_t o = 0; o < n_old; ++o) {
    const std::uint32_t n = counterpart(o);
    if (n != kNone && n < n_new) old_of[n] = o;
  }

  // tfi_clean: whole transitive fanin emitted by the identity sweep.
  std::vector<char> tfi_clean(n_new, 0);
  for (std::uint32_t id = 0; id < n_new; ++id) {
    if (!new_g.is_and(id)) {
      tfi_clean[id] = old_of[id] != kNone;
    } else if (old_of[id] != kNone) {
      const auto& n = new_g.node(id);
      tfi_clean[id] = tfi_clean[lit_node(n.fanin0)] &&
                      tfi_clean[lit_node(n.fanin1)];
    }
  }

  Counters& c = counters();

  // The old cache may be shared with evaluations that are still filling it
  // (another flow resuming from the same snapshot); its table *lists* grow
  // under its mutex, so snapshot the table pointers first. The tables
  // themselves are stable once created, and slot reads go through the
  // per-slot acquire states.
  std::vector<WindowTable*> old_window_tables;
  std::vector<FactorTable*> old_factor_tables;
  std::vector<ResubTable*> old_resub_tables;
  std::vector<CutSlot*> old_cut_slots;
  {
    std::lock_guard lock(old_cache.mutex_);
    for (const auto& t : old_cache.window_tables_) {
      old_window_tables.push_back(t.get());
    }
    for (const auto& t : old_cache.factor_tables_) {
      old_factor_tables.push_back(t.get());
    }
    for (const auto& t : old_cache.resub_tables_) {
      old_resub_tables.push_back(t.get());
    }
    for (const auto& s : old_cache.cut_slots_) {
      old_cut_slots.push_back(s.get());
    }
  }

  // Windows and factor plans depend only on the transitive fanin.
  for (const WindowTable* wt : old_window_tables) {
    WindowTable& nt = fresh->window_table(wt->max_leaves);
    for (std::uint32_t o = 0; o < n_old; ++o) {
      if (!wt->slots[o].state.load(std::memory_order_acquire)) continue;
      const std::uint32_t n = counterpart(o);
      if (n == kNone || n >= n_new || !tfi_clean[n]) continue;
      ReconvWindow w;
      w.skip = wt->slots[o].value.skip;
      w.leaves.reserve(wt->slots[o].value.leaves.size());
      bool ok = true;
      for (std::uint32_t leaf : wt->slots[o].value.leaves) {
        const std::uint32_t nl = counterpart(leaf);
        if (nl == kNone) {
          ok = false;
          break;
        }
        w.leaves.push_back(nl);
      }
      if (!ok) continue;
      nt.bytes.fetch_add(window_bytes(w), std::memory_order_relaxed);
      nt.slots[n].value = std::move(w);
      nt.slots[n].state.store(1, std::memory_order_release);
      c.windows_carried.fetch_add(1, std::memory_order_relaxed);
    }
  }

  for (const FactorTable* ft : old_factor_tables) {
    FactorTable& nt = fresh->factor_table(ft->max_leaves);
    for (std::uint32_t o = 0; o < n_old; ++o) {
      if (!ft->slots[o].state.load(std::memory_order_acquire)) continue;
      const std::uint32_t n = counterpart(o);
      if (n == kNone || n >= n_new || !tfi_clean[n]) continue;
      nt.bytes.fetch_add(factor_bytes(ft->slots[o].value),
                         std::memory_order_relaxed);
      nt.slots[n].value = ft->slots[o].value;  // shares the FactoredForm
      nt.slots[n].state.store(1, std::memory_order_release);
      c.factor_plans_carried.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Cut sets: remap clean cones, re-merge the damaged fanout region.
  for (const CutSlot* slot : old_cut_slots) {
    if (!slot->mgr) continue;
    CutReuse reuse;
    reuse.old_of = old_of;
    reuse.tfi_clean = tfi_clean;
    reuse.old_to_new = rebuild.old_to_new;
    auto mgr = std::make_shared<const CutManager>(new_g, slot->params,
                                                  *slot->mgr, reuse);
    c.cut_nodes_carried.fetch_add(mgr->reused_nodes(),
                                  std::memory_order_relaxed);
    c.cut_nodes_computed.fetch_add(n_new - mgr->reused_nodes(),
                                   std::memory_order_relaxed);
    auto ns = std::make_unique<CutSlot>();
    ns->params = slot->params;
    ns->bytes = mgr->memory_bytes();
    ns->mgr = std::move(mgr);
    std::lock_guard lock(fresh->mutex_);
    fresh->cut_slots_.push_back(std::move(ns));
  }

  // Resub plans additionally depend on pristine reference counts (MFFC
  // split, dead-divisor filtering) and on fanout lists (window traversal
  // order), so their closure must survive bit-for-bit.
  bool any_resub = false;
  for (const ResubTable* rt : old_resub_tables) {
    for (std::uint32_t o = 0; o < n_old && !any_resub; ++o) {
      any_resub = rt->slots[o].state.load(std::memory_order_acquire) != 0;
    }
  }
  if (any_resub) {
    const RefCounts& old_refs = old_cache.pristine_refs(old_g);
    const RefCounts& new_refs = fresh->pristine_refs(new_g);
    const FanoutView old_fan = old_cache.fanouts(old_g);
    const FanoutView new_fan = fresh->fanouts(new_g);

    std::vector<char> refs_eq(n_new, 0);
    for (std::uint32_t id = 0; id < n_new; ++id) {
      refs_eq[id] = old_of[id] != kNone &&
                    old_refs.refs(old_of[id]) == new_refs.refs(id);
    }
    std::vector<char> tfi_refs_clean(n_new, 0);
    for (std::uint32_t id = 0; id < n_new; ++id) {
      if (!new_g.is_and(id)) {
        tfi_refs_clean[id] = refs_eq[id];
      } else if (tfi_clean[id] && refs_eq[id]) {
        const auto& n = new_g.node(id);
        tfi_refs_clean[id] = tfi_refs_clean[lit_node(n.fanin0)] &&
                             tfi_refs_clean[lit_node(n.fanin1)];
      }
    }
    // fanout_ok: the node's fanout list survived verbatim (same nodes, same
    // order, each with identical pristine refs) — the condition under which
    // the window BFS replays the exact same candidate sequence.
    std::vector<char> fanout_ok(n_new, 0);
    for (std::uint32_t id = 0; id < n_new; ++id) {
      const std::uint32_t o = old_of[id];
      if (o == kNone) continue;
      const std::uint32_t ob = old_fan.begin(o), oe = old_fan.end(o);
      const std::uint32_t nb = new_fan.begin(id), ne = new_fan.end(id);
      if (oe - ob != ne - nb) continue;
      bool ok = true;
      for (std::uint32_t k = 0; k < oe - ob; ++k) {
        const std::uint32_t nf = counterpart(old_fan.target(ob + k));
        if (nf == kNone || nf != new_fan.target(nb + k) || !refs_eq[nf]) {
          ok = false;
          break;
        }
      }
      fanout_ok[id] = ok;
    }

    for (const ResubTable* rt : old_resub_tables) {
      ResubTable& nt = fresh->resub_table(rt->max_leaves, rt->max_divisors);
      for (std::uint32_t o = 0; o < n_old; ++o) {
        if (!rt->slots[o].state.load(std::memory_order_acquire)) continue;
        const std::uint32_t n = counterpart(o);
        if (n == kNone || n >= n_new || !tfi_refs_clean[n]) continue;
        const ResubPlan& old_plan = rt->slots[o].value;
        bool ok = true;
        ResubPlan plan;
        plan.skip = old_plan.skip;
        plan.closure.reserve(old_plan.closure.size());
        for (std::uint32_t w : old_plan.closure) {
          const std::uint32_t nw = counterpart(w);
          if (nw == kNone || !refs_eq[nw] || !fanout_ok[nw]) {
            ok = false;
            break;
          }
          plan.closure.push_back(nw);
        }
        if (!ok) continue;
        plan.zeros.reserve(old_plan.zeros.size());
        for (const ZeroMatch& z : old_plan.zeros) {
          const std::uint32_t nd = counterpart(z.div);
          if (nd == kNone) {
            ok = false;
            break;
          }
          plan.zeros.push_back(ZeroMatch{nd, z.compl_});
        }
        if (!ok) continue;
        plan.ones.reserve(old_plan.ones.size());
        for (const ResubMatch& m : old_plan.ones) {
          const std::uint32_t nd0 = counterpart(m.div0);
          const std::uint32_t nd1 = counterpart(m.div1);
          if (nd0 == kNone || nd1 == kNone) {
            ok = false;
            break;
          }
          plan.ones.push_back(
              ResubMatch{nd0, nd1, m.compl0, m.compl1, m.out_compl});
        }
        if (!ok) continue;
        nt.bytes.fetch_add(resub_bytes(plan), std::memory_order_relaxed);
        nt.slots[n].value = std::move(plan);
        nt.slots[n].state.store(1, std::memory_order_release);
        c.resub_plans_carried.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return fresh;
}

std::size_t AnalysisCache::memory_bytes() const {
  std::lock_guard lock(mutex_);
  std::size_t bytes = sizeof(AnalysisCache);
  if (refs_) bytes += num_nodes_ * 5;  // refs vector + terminal flags
  if (fanout_offsets_) {
    bytes += fanout_offsets_->capacity() * sizeof(std::uint32_t);
    bytes += fanout_targets_->capacity() * sizeof(std::uint32_t);
  }
  for (const auto& slot : cut_slots_) bytes += slot->bytes;
  for (const auto& t : window_tables_) {
    bytes += t->slots.size() * sizeof(WindowTable::Slot) +
             t->bytes.load(std::memory_order_relaxed);
  }
  for (const auto& t : resub_tables_) {
    bytes += t->slots.size() * sizeof(ResubTable::Slot) +
             t->bytes.load(std::memory_order_relaxed);
  }
  for (const auto& t : factor_tables_) {
    bytes += t->slots.size() * sizeof(FactorTable::Slot) +
             t->bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

}  // namespace flowgen::aig
