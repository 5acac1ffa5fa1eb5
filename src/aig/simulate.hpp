#pragma once
// Bit-parallel simulation. Used (a) as the project-wide equivalence oracle —
// every synthesis transform must preserve all PO signatures, under random
// patterns or, for small designs, under every input pattern — and (b) to
// compute exact truth tables of cut cones.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/truth.hpp"
#include "util/rng.hpp"

namespace flowgen::aig {

/// Per-node simulation signatures: `words` 64-bit patterns per node.
class Simulator {
public:
  /// Simulate the whole graph under random PI patterns from `rng`.
  Simulator(const Aig& aig, util::Rng& rng, std::size_t words = 4);

  /// Signature of a literal (complement applied).
  std::vector<std::uint64_t> signature(Lit l) const;

  /// The `words()` pattern words of node `id`, uncomplemented, in place.
  std::span<const std::uint64_t> node_words(std::uint32_t id) const {
    return {data_.data() + id * words_, words_};
  }

  std::size_t words() const { return words_; }

private:
  std::size_t words_;
  std::vector<std::uint64_t> data_;  // node-major: data_[id * words_ + w]
};

/// Simulate `aig` under `words` random patterns per PI drawn from `rng`,
/// PI by PI, into `data`: node id's words at data[id * words ..], reusing
/// the vector's capacity. Simulator holds exactly these words.
void simulate_random(const Aig& aig, util::Rng& rng, std::size_t words,
                     std::vector<std::uint64_t>& data);

/// True iff both graphs have identical PI/PO arity and identical PO
/// signatures under `words` shared random patterns. Random simulation can in
/// principle miss differences; with 64*words patterns over the same seeds the
/// false-equal probability is negligible for these graph sizes, and tests
/// additionally run multiple seeds.
bool random_equivalent(const Aig& a, const Aig& b, util::Rng& rng,
                       std::size_t words = 8);

/// True iff both graphs have identical PI/PO arity and every PO agrees on
/// all 2^n input patterns (n = PIs), simulated 64 per word: a proof, not a
/// sample. Throws std::invalid_argument past 24 inputs.
bool exhaustive_equivalent(const Aig& a, const Aig& b);

/// Exact truth table of `root` as a function of `leaves` (in order), where
/// every other node in the transitive fanin of `root` must be expressible
/// over the leaves (i.e. `leaves` is a cut of `root`). num_vars =
/// leaves.size() <= 16.
TruthTable cone_truth(const Aig& aig, Lit root,
                      std::span<const std::uint32_t> leaves);

}  // namespace flowgen::aig
