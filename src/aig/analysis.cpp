#include "aig/analysis.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "aig/isop.hpp"
#include "aig/simulate.hpp"
#include "aig/stamped_slots.hpp"
#include "aig/truth.hpp"

namespace flowgen::aig {

namespace {

// Bounds that are part of the plan semantics: a plan records at most this
// many candidates of each kind, and replay only ever consults the recorded
// list.
constexpr std::size_t kMaxZeroMatches = 64;
constexpr std::size_t kMaxOneMatches = 64;

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
  return form;
}

}  // namespace

std::shared_ptr<const FactoredForm> factored_form(const TruthTable& tt) {
  FactorMemoShard& shard =
      factor_memo()[TruthTableHash{}(tt) % kFactorMemoShards];
  {
    std::lock_guard lock(shard.mutex);
    if (const auto it = shard.memo.find(tt); it != shard.memo.end()) {
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

Fanouts build_fanouts(const Aig& g) {
  // Counting pass + fill pass; targets of one node end up ascending because
  // the fill scans ids in ascending order.
  const auto n = static_cast<std::uint32_t>(g.num_nodes());
  Fanouts f;
  f.offsets.assign(n + 1, 0);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!g.is_and(id)) continue;
    ++f.offsets[lit_node(g.node(id).fanin0) + 1];
    ++f.offsets[lit_node(g.node(id).fanin1) + 1];
  }
  for (std::size_t i = 1; i < f.offsets.size(); ++i) {
    f.offsets[i] += f.offsets[i - 1];
  }
  f.targets.resize(f.offsets.back());
  std::vector<std::uint32_t> cursor(f.offsets);
  for (std::uint32_t id = 0; id < n; ++id) {
    if (!g.is_and(id)) continue;
    f.targets[cursor[lit_node(g.node(id).fanin0)]++] = id;
    f.targets[cursor[lit_node(g.node(id).fanin1)]++] = id;
  }
  return f;
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

}  // namespace

void compute_resub_plan(const Aig& g, std::uint32_t root,
                        const std::vector<std::uint32_t>& leaves,
                        unsigned max_divisors, RefCounts& refs,
                        const Fanouts& fanouts, ResubPlan& plan) {
  plan.zeros.clear();
  plan.ones.clear();
  if (degenerate_window(leaves)) return;
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
      if (!s.slots.get(candidate).in_mffc) {
        s.divisors.push_back({candidate, t});
        if (s.divisors.size() >= max_divisors) break;
      }
    }
  }

  // Target function: root over the window leaves. When the window BFS was
  // capped before reaching the root's fanins, fall back to exact cone
  // evaluation; when even that fails the plan stays empty.
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
      return;
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
}

}  // namespace flowgen::aig
