#include "aig/analysis.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <unordered_map>

#include "aig/isop.hpp"
#include "aig/simulate.hpp"
#include "aig/stamped_slots.hpp"
#include "aig/truth.hpp"
#include "util/rng.hpp"

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

constexpr unsigned kFactorMemoShardBits = 3;
constexpr std::size_t kFactorMemoShards = std::size_t{1}
                                          << kFactorMemoShardBits;
// Per-shard high-water mark; beyond it lookups still hit but fresh tables
// are recomputed instead of inserted (values never change, so the bound
// affects cost only, never determinism).
constexpr std::size_t kFactorMemoCap = 1 << 13;

FactorMemoShard* factor_memo() {
  static FactorMemoShard shards[kFactorMemoShards];
  return shards;
}

// The shard of a table: the top bits of a multiplicative mix of its hash.
// The low bits of the FNV-1a product depend only on the low minterms of
// each word, so taking them would crowd the tables that differ above
// those into one shard and stop its insertions early.
FactorMemoShard& factor_memo_shard(const TruthTable& tt) {
  const std::uint64_t mixed = static_cast<std::uint64_t>(TruthTableHash{}(tt)) *
                              0x9E3779B97F4A7C15ull;
  return factor_memo()[mixed >> (64 - kFactorMemoShardBits)];
}

// Quick-factor of one polarity of `tt` into `expr`, over the per-thread
// cube stack `cubes`.
void factor_polarity(const TruthTable& tt, bool complement, Sop& cubes,
                     FactorExpr& expr) {
  cubes.clear();
  append_isop(tt, complement, cubes);
  expr.nodes.clear();
  append_factored(cubes, expr.nodes);
}

std::shared_ptr<const FactoredForm> compute_factored(const TruthTable& tt) {
  // Mirrors build_from_truth: factor both polarities, fewer literals wins,
  // ties prefer the positive polarity. A constant factors to a constant
  // node in both polarities (zero literals), so it keeps the positive one.
  // Both forms are built in per-thread buffers; only the winner is copied
  // out, at its exact size, since the memo keeps it for the process.
  thread_local Sop cubes;
  thread_local FactorExpr pos;
  thread_local FactorExpr neg;
  factor_polarity(tt, false, cubes, pos);
  factor_polarity(tt, true, cubes, neg);
  const std::size_t pos_literals = pos.num_literals();
  const std::size_t neg_literals = neg.num_literals();
  auto form = std::make_shared<FactoredForm>();
  form->output_compl = pos_literals > neg_literals;
  const FactorExpr& winner = form->output_compl ? neg : pos;
  form->expr.nodes.assign(winner.nodes.begin(), winner.nodes.end());
  form->literals = form->output_compl ? neg_literals : pos_literals;
  return form;
}

}  // namespace

std::shared_ptr<const FactoredForm> factored_form(const TruthTable& tt) {
  FactorMemoShard& shard = factor_memo_shard(tt);
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
                        std::span<const Lit> inputs,
                        std::size_t max_new_nodes) {
  const Lit l = build_factored(aig, form.expr, inputs, max_new_nodes);
  if (l == kLitInvalid) return l;
  return form.output_compl ? lit_not(l) : l;
}

namespace {

// Patterns of shared_signatures: 256 per PI from a fixed seed. They decide
// only how many nodes read as unshared, never whether a 0 is sound.
constexpr std::size_t kSignatureWords = 4;
constexpr std::uint64_t kSignatureSeed = 0x51A7'5EED'0F00'D5EDull;

// Per-thread scratch of shared_signatures, reused across calls.
struct SignatureScratch {
  std::vector<std::uint64_t> words;  ///< node-major, phase-normalized
  std::vector<std::uint32_t> table;  ///< open addressing: node id + 1
  std::vector<std::uint8_t> shared;
};

}  // namespace

std::span<const std::uint8_t> shared_signatures(const Aig& g) {
  thread_local SignatureScratch s;
  const std::size_t n = g.num_nodes();
  util::Rng rng(kSignatureSeed);
  simulate_random(g, rng, kSignatureWords, s.words);

  // Phase-normalize: a signature whose first bit is 1 is complemented, so
  // complementary functions land in one class.
  for (std::size_t id = 0; id < n; ++id) {
    std::uint64_t* w = s.words.data() + id * kSignatureWords;
    const std::uint64_t flip = 0 - (w[0] & 1);
    for (std::size_t k = 0; k < kSignatureWords; ++k) w[k] ^= flip;
  }

  // One insertion per node into a table of at least twice as many slots:
  // the first node of a class keeps the slot, and a later one that finds
  // an equal signature marks both.
  const auto bits = static_cast<unsigned>(std::bit_width(2 * n - 1));
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  s.table.assign(mask + 1, 0);
  s.shared.assign(n, 0);
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint64_t* w = s.words.data() + id * kSignatureWords;
    std::uint64_t h = 0;
    for (std::size_t k = 0; k < kSignatureWords; ++k) {
      h = (h ^ w[k]) * 0x9E3779B97F4A7C15ull;
    }
    for (std::size_t slot = h >> (64 - bits);; slot = (slot + 1) & mask) {
      const std::uint32_t entry = s.table[slot];
      if (entry == 0) {
        s.table[slot] = static_cast<std::uint32_t>(id + 1);
        break;
      }
      const std::uint64_t* other =
          s.words.data() + (entry - 1) * kSignatureWords;
      if (std::equal(w, w + kSignatureWords, other)) {
        s.shared[entry - 1] = 1;
        s.shared[id] = 1;
        break;
      }
    }
  }
  return s.shared;
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
  thread_local std::vector<Live> live;  // reused across calls
  live.clear();
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
  std::vector<std::uint32_t> mffc;
};

}  // namespace

void compute_resub_plan(const Aig& g, std::uint32_t root,
                        std::span<const std::uint32_t> leaves,
                        unsigned max_divisors, RefCounts& refs,
                        const Fanouts& fanouts, ResubPlan& plan,
                        bool scan_ones) {
  plan.zeros.clear();
  plan.ones.clear();
  // A dead root has no MFFC to walk (its fanins' counts hold no reference
  // from it), and nothing reads it to be resubstituted.
  if (degenerate_window(leaves) || refs.dead(root)) return;
  const auto nv = static_cast<unsigned>(leaves.size());
  constexpr std::uint32_t kNoTable = ResubScratch::kNoTable;

  thread_local ResubScratch s;
  s.slots.reset(g.num_nodes());
  s.tts.clear();
  s.divisors.clear();
  s.frontier.clear();
  refs.mffc_nodes(g, root, s.mffc);
  for (std::uint32_t id : s.mffc) s.slots.at(id).in_mffc = true;
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
      if (candidate == root || table_of(candidate) != kNoTable) continue;
      // The seed has a table, so the candidate needs one on its other
      // fanin only.
      const auto& n = g.node(candidate);
      const std::uint32_t other = lit_node(n.fanin0) == seed
                                      ? lit_node(n.fanin1)
                                      : lit_node(n.fanin0);
      if (table_of(other) == kNoTable || refs.dead(candidate)) continue;
      const std::uint32_t t0 = table_of(lit_node(n.fanin0));
      const std::uint32_t t1 = table_of(lit_node(n.fanin1));
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
  // capped before reaching the root's fanins, finish the root's cone from
  // the window tables already built: each is its node's function over the
  // leaves in leaf order, exactly what cone_truth computes, so only the
  // rest of the cone is evaluated. A cone that reaches a PI outside the
  // leaves is not a function of them, and the plan stays empty.
  const auto& rn = g.node(root);
  const std::uint32_t rt0 = table_of(lit_node(rn.fanin0));
  const std::uint32_t rt1 = table_of(lit_node(rn.fanin1));
  TruthTable target;
  if (rt0 != kNoTable && rt1 != kNoTable) {
    target = TruthTable::and_phase(s.tts[rt0], lit_is_compl(rn.fanin0),
                                   s.tts[rt1], lit_is_compl(rn.fanin1));
  } else {
    std::vector<std::uint32_t>& stack = s.frontier;  // spent by the walk
    stack.assign(1, root);
    while (!stack.empty()) {
      const std::uint32_t id = stack.back();
      if (table_of(id) != kNoTable) {
        stack.pop_back();
        continue;
      }
      if (!g.is_and(id)) {
        if (id != 0) return;
        store(0, TruthTable::constant(nv, false));
        continue;
      }
      const auto& n = g.node(id);
      const std::uint32_t t0 = table_of(lit_node(n.fanin0));
      const std::uint32_t t1 = table_of(lit_node(n.fanin1));
      if (t0 != kNoTable && t1 != kNoTable) {
        store(id, TruthTable::and_phase(s.tts[t0], lit_is_compl(n.fanin0),
                                        s.tts[t1], lit_is_compl(n.fanin1)));
        stack.pop_back();
      } else {
        if (t0 == kNoTable) stack.push_back(lit_node(n.fanin0));
        if (t1 == kNoTable) stack.push_back(lit_node(n.fanin1));
      }
    }
    target = s.tts[table_of(root)];
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

  if (!scan_ones) return;
  detail::scan_one_resub(target, s.divisor_tts, kMaxOneMatches, plan.ones);
  for (ResubMatch& m : plan.ones) {
    m.div0 = s.divisors[m.div0].node;
    m.div1 = s.divisors[m.div1].node;
  }
}

}  // namespace flowgen::aig
