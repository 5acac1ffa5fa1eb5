#include "aig/simulate.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "aig/stamped_slots.hpp"

namespace flowgen::aig {

namespace {

/// Node signatures of `aig` into `data` (node-major, `words` per node),
/// where PI k reads pattern word `pi_word(k, w)`, called PI by PI.
template <typename PiWord>
void simulate(const Aig& aig, std::size_t words,
              std::vector<std::uint64_t>& data, PiWord pi_word) {
  data.assign(aig.num_nodes() * words, 0);
  for (std::size_t k = 0; k < aig.num_pis(); ++k) {
    const std::uint32_t pi = aig.pis()[k];
    for (std::size_t w = 0; w < words; ++w) {
      data[pi * words + w] = pi_word(k, w);
    }
  }
  for (std::uint32_t id = 0; id < aig.num_nodes(); ++id) {
    if (!aig.is_and(id)) continue;
    const auto& n = aig.node(id);
    const std::uint32_t a = lit_node(n.fanin0);
    const std::uint32_t b = lit_node(n.fanin1);
    const std::uint64_t ma = lit_is_compl(n.fanin0) ? ~0ull : 0ull;
    const std::uint64_t mb = lit_is_compl(n.fanin1) ? ~0ull : 0ull;
    for (std::size_t w = 0; w < words; ++w) {
      data[id * words + w] =
          (data[a * words + w] ^ ma) & (data[b * words + w] ^ mb);
    }
  }
}

}  // namespace

void simulate_random(const Aig& aig, util::Rng& rng, std::size_t words,
                     std::vector<std::uint64_t>& data) {
  simulate(aig, words, data, [&](std::size_t, std::size_t) { return rng(); });
}

Simulator::Simulator(const Aig& aig, util::Rng& rng, std::size_t words)
    : words_(words) {
  simulate_random(aig, rng, words_, data_);
}

std::vector<std::uint64_t> Simulator::signature(Lit l) const {
  const std::span<const std::uint64_t> node = node_words(lit_node(l));
  const std::uint64_t mask = lit_is_compl(l) ? ~0ull : 0ull;
  std::vector<std::uint64_t> sig(node.begin(), node.end());
  for (std::uint64_t& w : sig) w ^= mask;
  return sig;
}

bool random_equivalent(const Aig& a, const Aig& b, util::Rng& rng,
                       std::size_t words) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  // Both graphs must see the same PI patterns: fork the RNG once and replay.
  const util::Rng saved = rng;
  util::Rng rng_a = saved;
  util::Rng rng_b = saved;
  Simulator sim_a(a, rng_a, words);
  Simulator sim_b(b, rng_b, words);
  for (std::size_t i = 0; i < a.num_pos(); ++i) {
    const Lit la = a.po(i);
    const Lit lb = b.po(i);
    const std::uint64_t flip =
        (lit_is_compl(la) ? ~0ull : 0ull) ^ (lit_is_compl(lb) ? ~0ull : 0ull);
    const std::span<const std::uint64_t> wa = sim_a.node_words(lit_node(la));
    const std::span<const std::uint64_t> wb = sim_b.node_words(lit_node(lb));
    for (std::size_t w = 0; w < words; ++w) {
      if ((wa[w] ^ wb[w]) != flip) return false;
    }
  }
  rng = rng_a;  // advance the caller's stream
  return true;
}

bool exhaustive_equivalent(const Aig& a, const Aig& b) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) return false;
  const std::size_t n = a.num_pis();
  if (n > 24) {
    throw std::invalid_argument("exhaustive_equivalent: more than 24 inputs");
  }
  // Pattern p sits at bit p % 64 of word p / 64, and input k reads bit k
  // of p: inputs 0-5 alternate inside every word (kVarMask), input k >= 6
  // is constant across a word and flips every 2^(k-6) words. Fewer than 6
  // inputs repeat their patterns within the one word.
  const std::uint64_t total = n <= 6 ? 1 : std::uint64_t{1} << (n - 6);
  // Blocks of words bound the signature memory at any input count.
  constexpr std::uint64_t kBlockWords = 256;
  std::vector<std::uint64_t> data_a;
  std::vector<std::uint64_t> data_b;
  for (std::uint64_t first = 0; first < total; first += kBlockWords) {
    const auto words =
        static_cast<std::size_t>(std::min(kBlockWords, total - first));
    const auto pi_word = [first](std::size_t k,
                                 std::size_t w) -> std::uint64_t {
      if (k < 6) return kVarMask[k];
      return ((first + w) >> (k - 6)) & 1 ? ~0ull : 0ull;
    };
    simulate(a, words, data_a, pi_word);
    simulate(b, words, data_b, pi_word);
    for (std::size_t i = 0; i < a.num_pos(); ++i) {
      const Lit la = a.po(i);
      const Lit lb = b.po(i);
      const std::uint64_t flip =
          (lit_is_compl(la) ? ~0ull : 0ull) ^ (lit_is_compl(lb) ? ~0ull : 0ull);
      const std::uint64_t* wa = data_a.data() + lit_node(la) * words;
      const std::uint64_t* wb = data_b.data() + lit_node(lb) * words;
      for (std::size_t w = 0; w < words; ++w) {
        if ((wa[w] ^ wb[w]) != flip) return false;
      }
    }
  }
  return true;
}

TruthTable cone_truth(const Aig& aig, Lit root,
                      std::span<const std::uint32_t> leaves) {
  const auto nv = static_cast<unsigned>(leaves.size());
  if (nv > 16) throw std::invalid_argument("cone_truth: cut too large");
  const std::uint32_t nw = nv <= 6 ? 1u : 1u << (nv - 6);

  // Node id -> offset of its table in `words`, nw words per table; the
  // first table stored for an id wins. Below 6 variables the bits past
  // 2^nv are don't-cares, masked once on the result.
  thread_local StampedSlots<std::uint32_t> slot;
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<std::uint32_t> stack;
  slot.reset(aig.num_nodes());
  words.clear();
  for (unsigned i = 0; i < nv; ++i) {
    if (slot.has(leaves[i])) continue;
    slot.at(leaves[i]) = static_cast<std::uint32_t>(words.size());
    for (std::uint32_t w = 0; w < nw; ++w) {
      words.push_back(i < 6 ? kVarMask[i] : ((w >> (i - 6)) & 1) ? ~0ull : 0);
    }
  }
  if (!slot.has(0)) {  // the constant node: all zeros
    slot.at(0) = static_cast<std::uint32_t>(words.size());
    words.insert(words.end(), nw, 0);
  }

  // Recursive evaluation with an explicit stack (cones can be deep).
  stack.assign(1, lit_node(root));
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    if (slot.has(id)) {
      stack.pop_back();
      continue;
    }
    if (!aig.is_and(id)) {
      throw std::invalid_argument("cone_truth: leaves do not form a cut");
    }
    const auto& n = aig.node(id);
    const std::uint32_t a = lit_node(n.fanin0);
    const std::uint32_t b = lit_node(n.fanin1);
    const bool have_a = slot.has(a);
    const bool have_b = slot.has(b);
    if (have_a && have_b) {
      const std::uint32_t ta = slot.get(a);
      const std::uint32_t tb = slot.get(b);
      const std::uint64_t ma = lit_is_compl(n.fanin0) ? ~0ull : 0ull;
      const std::uint64_t mb = lit_is_compl(n.fanin1) ? ~0ull : 0ull;
      slot.at(id) = static_cast<std::uint32_t>(words.size());
      for (std::uint32_t w = 0; w < nw; ++w) {
        words.push_back((words[ta + w] ^ ma) & (words[tb + w] ^ mb));
      }
      stack.pop_back();
    } else {
      if (!have_a) stack.push_back(a);
      if (!have_b) stack.push_back(b);
    }
  }
  const std::uint32_t t = slot.get(lit_node(root));
  TruthTable result = TruthTable::from_words(nv, {words.data() + t, nw});
  if (lit_is_compl(root)) result = ~result;
  return result;
}

}  // namespace flowgen::aig
