#pragma once
// Dynamic truth tables over up to 16 variables, bit-packed into 64-bit words.
// Used for cut functions (rewrite/refactor/resub), library matching in the
// technology mapper, and the Rijndael S-box elaboration.
//
// Storage: tables of up to 8 variables (4 words) live inline — no heap
// traffic. The synthesis inner loops (ISOP, resubstitution, cut matching)
// construct millions of such tables per pass, so this is the difference
// between allocator-bound and compute-bound transforms. Larger tables
// (9..16 vars) fall back to a heap block.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace flowgen::aig {

/// Bit patterns of x_0..x_5 inside any 64-bit word of a table: minterm m
/// sits at bit m % 64 of word m / 64, and x_i is bit i of m.
inline constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

class TruthTable {
public:
  TruthTable() = default;
  /// All-zero function of `num_vars` variables.
  explicit TruthTable(unsigned num_vars);

  TruthTable(const TruthTable& o);
  TruthTable(TruthTable&& o) noexcept;
  TruthTable& operator=(const TruthTable& o);
  TruthTable& operator=(TruthTable&& o) noexcept;
  ~TruthTable() = default;

  static TruthTable constant(unsigned num_vars, bool value);
  /// Projection x_i of `num_vars` variables.
  static TruthTable variable(unsigned num_vars, unsigned index);
  /// From the low 2^num_vars bits of `bits` (num_vars <= 6).
  static TruthTable from_bits(unsigned num_vars, std::uint64_t bits);
  /// The first 2^num_vars bits of `words` (at least one word, and
  /// 2^(num_vars - 6) from 7 variables up), tail-masked: lets word-level
  /// kernels (cone and cut functions) hand their result back as a table.
  static TruthTable from_words(unsigned num_vars,
                               std::span<const std::uint64_t> words);

  unsigned num_vars() const { return num_vars_; }
  std::size_t num_bits() const { return std::size_t{1} << num_vars_; }
  std::size_t num_words() const { return num_words_; }
  std::span<const std::uint64_t> words() const {
    return {data(), num_words_};
  }

  bool bit(std::size_t minterm) const;
  void set_bit(std::size_t minterm, bool value);

  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  TruthTable operator~() const;
  bool operator==(const TruthTable& o) const;
  bool operator!=(const TruthTable& o) const { return !(*this == o); }
  /// Lexicographic comparison of the word arrays (for canonical forms).
  bool operator<(const TruthTable& o) const;

  // Allocation-free kernels for the resubstitution inner loops, which
  // used to materialise millions of temporary tables per pass (the dominant
  // cost of `restructure` on paper-scale designs).

  /// *this == ~o without building ~o.
  bool equals_compl(const TruthTable& o) const;
  /// ((a ^ ca) & (b ^ cb)) == (*this ^ ct) without temporaries; early-exits
  /// on the first mismatching word.
  bool matches_and(const TruthTable& a, bool ca, const TruthTable& b, bool cb,
                   bool ct) const;
  /// (a ^ ca) & (b ^ cb) in a single construction.
  static TruthTable and_phase(const TruthTable& a, bool ca,
                              const TruthTable& b, bool cb);

  TruthTable& operator|=(const TruthTable& o);
  TruthTable& operator&=(const TruthTable& o);

  bool is_const0() const;
  bool is_const1() const;
  /// True if the function depends on variable `v`.
  bool depends_on(unsigned v) const;
  std::size_t count_ones() const;

  /// Shannon cofactors with respect to variable `v`.
  TruthTable cofactor0(unsigned v) const;
  TruthTable cofactor1(unsigned v) const;

  /// Swap variables i < j < num_vars() in place.
  void swap_vars(unsigned i, unsigned j);

  /// Apply input negation mask, input permutation, and output negation:
  /// result(x_0..x_{n-1}) = f(y_{perm[0]}, ...) with y_i = x_i ^ flip bit.
  /// Specifically: new_tt(m) = f(transform(m)) where input i of f is taken
  /// from input perm[i] of the new function, optionally complemented.
  TruthTable permute_flip(const std::vector<unsigned>& perm,
                          unsigned flip_mask, bool out_flip) const;

  /// Hex string (MSB-first words) for debugging / hashing.
  std::string to_hex() const;
  /// Low 64 bits, padded by repetition for functions with < 6 vars.
  std::uint64_t low_word() const { return num_words_ ? data()[0] : 0; }

private:
  static constexpr std::uint32_t kInlineWords = 4;  // up to 8 variables

  const std::uint64_t* data() const {
    return num_words_ <= kInlineWords ? inline_.data() : heap_.get();
  }
  std::uint64_t* data() {
    return num_words_ <= kInlineWords ? inline_.data() : heap_.get();
  }
  void mask_tail();

  unsigned num_vars_ = 0;
  std::uint32_t num_words_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_{};
  std::unique_ptr<std::uint64_t[]> heap_;
};

/// Swap variables i < j < 6 inside one word of a table in TruthTable's
/// layout: minterms with x_i = 1, x_j = 0 take the value `shift` minterms
/// up (x_i = 0, x_j = 1), and those minterms take it back.
inline std::uint64_t swap_vars_in_word(std::uint64_t w, unsigned i,
                                       unsigned j) {
  const unsigned shift = (1u << j) - (1u << i);
  const std::uint64_t down = kVarMask[i] & ~kVarMask[j];
  const std::uint64_t up = ~kVarMask[i] & kVarMask[j];
  return (w & ~(down | up)) | ((w >> shift) & down) | ((w << shift) & up);
}

/// The table of num_vars variables in the low 2^num_vars bits of `w`
/// (the rest ignored) repeated across the word, so that over variables
/// 0-5 it reads the same function, independent of x_num_vars..x_5. A
/// table of 6 or more variables is returned as it is.
inline std::uint64_t repeat_in_word(std::uint64_t w, unsigned num_vars) {
  if (num_vars >= 6) return w;
  w &= (std::uint64_t{1} << (1u << num_vars)) - 1;
  for (unsigned width = 1u << num_vars; width < 64; width *= 2) {
    w |= w << width;
  }
  return w;
}

/// Swap variables i < j of a table stored as `words` in TruthTable's
/// layout: bit m % 64 of word m / 64 is minterm m, so variables 0-5 live
/// inside every word and variable v >= 6 selects words in blocks of
/// 2^(v-6). `words` holds at least one word, and at least 2^(j-5) when
/// j >= 6; a word's bits past the table's minterms swap along, so a
/// table kept independent of its unused variables stays so.
void swap_vars(std::span<std::uint64_t> words, unsigned i, unsigned j);

}  // namespace flowgen::aig
