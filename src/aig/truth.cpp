#include "aig/truth.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <utility>

namespace flowgen::aig {

namespace {

std::uint32_t words_for(unsigned num_vars) {
  return num_vars <= 6 ? 1u : (1u << (num_vars - 6));
}

std::uint64_t tail_mask(unsigned num_vars) {
  return num_vars >= 6
             ? ~0ull
             : (std::uint64_t{1} << (std::size_t{1} << num_vars)) - 1;
}

}  // namespace

TruthTable::TruthTable(unsigned num_vars)
    : num_vars_(num_vars), num_words_(words_for(num_vars)) {
  assert(num_vars <= 16);
  if (num_words_ > kInlineWords) {
    heap_ = std::make_unique<std::uint64_t[]>(num_words_);
    std::memset(heap_.get(), 0, num_words_ * sizeof(std::uint64_t));
  }
}

TruthTable::TruthTable(const TruthTable& o)
    : num_vars_(o.num_vars_), num_words_(o.num_words_), inline_(o.inline_) {
  if (num_words_ > kInlineWords) {
    heap_ = std::make_unique<std::uint64_t[]>(num_words_);
    std::memcpy(heap_.get(), o.heap_.get(),
                num_words_ * sizeof(std::uint64_t));
  }
}

TruthTable::TruthTable(TruthTable&& o) noexcept
    : num_vars_(o.num_vars_),
      num_words_(o.num_words_),
      inline_(o.inline_),
      heap_(std::move(o.heap_)) {
  o.num_vars_ = 0;
  o.num_words_ = 0;
}

TruthTable& TruthTable::operator=(const TruthTable& o) {
  if (this == &o) return *this;
  // Allocate before touching members so a bad_alloc leaves *this intact.
  std::unique_ptr<std::uint64_t[]> new_heap;
  if (o.num_words_ > kInlineWords) {
    new_heap = std::make_unique<std::uint64_t[]>(o.num_words_);
    std::memcpy(new_heap.get(), o.heap_.get(),
                o.num_words_ * sizeof(std::uint64_t));
  }
  num_vars_ = o.num_vars_;
  num_words_ = o.num_words_;
  inline_ = o.inline_;
  heap_ = std::move(new_heap);
  return *this;
}

TruthTable& TruthTable::operator=(TruthTable&& o) noexcept {
  if (this == &o) return *this;
  num_vars_ = o.num_vars_;
  num_words_ = o.num_words_;
  inline_ = o.inline_;
  heap_ = std::move(o.heap_);
  o.num_vars_ = 0;
  o.num_words_ = 0;
  return *this;
}

void TruthTable::mask_tail() {
  if (num_vars_ < 6) data()[0] &= tail_mask(num_vars_);
}

TruthTable TruthTable::constant(unsigned num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    std::uint64_t* w = t.data();
    for (std::uint32_t i = 0; i < t.num_words_; ++i) w[i] = ~0ull;
    t.mask_tail();
  }
  return t;
}

TruthTable TruthTable::variable(unsigned num_vars, unsigned index) {
  assert(index < num_vars);
  TruthTable t(num_vars);
  std::uint64_t* w = t.data();
  if (index < 6) {
    for (std::uint32_t i = 0; i < t.num_words_; ++i) w[i] = kVarMask[index];
  } else {
    // Variable >= 6 alternates whole words in blocks of 2^(index-6).
    const std::uint32_t block = 1u << (index - 6);
    for (std::uint32_t i = 0; i < t.num_words_; ++i) {
      if ((i / block) & 1) w[i] = ~0ull;
    }
  }
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_bits(unsigned num_vars, std::uint64_t bits) {
  assert(num_vars <= 6);
  TruthTable t(num_vars);
  t.data()[0] = bits;
  t.mask_tail();
  return t;
}

TruthTable TruthTable::from_words(unsigned num_vars,
                                  std::span<const std::uint64_t> words) {
  TruthTable t(num_vars);
  assert(words.size() >= t.num_words_);
  std::memcpy(t.data(), words.data(), t.num_words_ * sizeof(std::uint64_t));
  t.mask_tail();
  return t;
}

bool TruthTable::bit(std::size_t minterm) const {
  return (data()[minterm >> 6] >> (minterm & 63)) & 1ull;
}

void TruthTable::set_bit(std::size_t minterm, bool value) {
  if (value) {
    data()[minterm >> 6] |= (1ull << (minterm & 63));
  } else {
    data()[minterm >> 6] &= ~(1ull << (minterm & 63));
  }
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  assert(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  std::uint64_t* w = t.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] = a[i] & b[i];
  return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  assert(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  std::uint64_t* w = t.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] = a[i] | b[i];
  return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  assert(num_vars_ == o.num_vars_);
  TruthTable t(num_vars_);
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  std::uint64_t* w = t.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] = a[i] ^ b[i];
  return t;
}

TruthTable TruthTable::operator~() const {
  TruthTable t(num_vars_);
  const std::uint64_t* a = data();
  std::uint64_t* w = t.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] = ~a[i];
  t.mask_tail();
  return t;
}

bool TruthTable::operator==(const TruthTable& o) const {
  if (num_vars_ != o.num_vars_ || num_words_ != o.num_words_) return false;
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool TruthTable::operator<(const TruthTable& o) const {
  const auto a = words();
  const auto b = o.words();
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool TruthTable::equals_compl(const TruthTable& o) const {
  if (num_vars_ != o.num_vars_ || num_words_ != o.num_words_) return false;
  const std::uint64_t* a = data();
  const std::uint64_t* b = o.data();
  for (std::uint32_t w = 0; w < num_words_; ++w) {
    std::uint64_t want = ~b[w];
    if (w + 1 == num_words_) want &= tail_mask(num_vars_);
    if (a[w] != want) return false;
  }
  return true;
}

bool TruthTable::matches_and(const TruthTable& a, bool ca,
                             const TruthTable& b, bool cb, bool ct) const {
  assert(a.num_vars_ == num_vars_ && b.num_vars_ == num_vars_);
  const std::uint64_t ma = ca ? ~0ull : 0ull;
  const std::uint64_t mb = cb ? ~0ull : 0ull;
  const std::uint64_t mt = ct ? ~0ull : 0ull;
  const std::uint64_t tail = tail_mask(num_vars_);
  const std::uint64_t* wa = a.data();
  const std::uint64_t* wb = b.data();
  const std::uint64_t* wt = data();
  for (std::uint32_t w = 0; w < num_words_; ++w) {
    std::uint64_t conj = (wa[w] ^ ma) & (wb[w] ^ mb);
    std::uint64_t want = wt[w] ^ mt;
    if (w + 1 == num_words_) {
      conj &= tail;
      want &= tail;
    }
    if (conj != want) return false;
  }
  return true;
}

TruthTable TruthTable::and_phase(const TruthTable& a, bool ca,
                                 const TruthTable& b, bool cb) {
  assert(a.num_vars_ == b.num_vars_);
  const std::uint64_t ma = ca ? ~0ull : 0ull;
  const std::uint64_t mb = cb ? ~0ull : 0ull;
  TruthTable t(a.num_vars_);
  const std::uint64_t* wa = a.data();
  const std::uint64_t* wb = b.data();
  std::uint64_t* w = t.data();
  for (std::uint32_t i = 0; i < t.num_words_; ++i) {
    w[i] = (wa[i] ^ ma) & (wb[i] ^ mb);
  }
  t.mask_tail();
  return t;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  std::uint64_t* w = data();
  const std::uint64_t* b = o.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] |= b[i];
  return *this;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
  assert(num_vars_ == o.num_vars_);
  std::uint64_t* w = data();
  const std::uint64_t* b = o.data();
  for (std::uint32_t i = 0; i < num_words_; ++i) w[i] &= b[i];
  return *this;
}

bool TruthTable::is_const0() const {
  const std::uint64_t* w = data();
  for (std::uint32_t i = 0; i < num_words_; ++i) {
    if (w[i]) return false;
  }
  return true;
}

bool TruthTable::is_const1() const {
  if (num_words_ == 0) return false;
  const std::uint64_t* w = data();
  for (std::uint32_t i = 0; i + 1 < num_words_; ++i) {
    if (w[i] != ~0ull) return false;
  }
  return w[num_words_ - 1] == tail_mask(num_vars_);
}

bool TruthTable::depends_on(unsigned v) const {
  assert(v < num_vars_);
  // cofactor0(v) != cofactor1(v), evaluated in place: some minterm with
  // x_v = 0 must differ from its x_v = 1 partner.
  const std::uint64_t* w = data();
  if (v < 6) {
    const unsigned shift = 1u << v;
    for (std::uint32_t i = 0; i < num_words_; ++i) {
      if (((w[i] >> shift) ^ w[i]) & ~kVarMask[v]) return true;
    }
    return false;
  }
  const std::uint32_t block = 1u << (v - 6);
  for (std::uint32_t i = 0; i < num_words_; ++i) {
    if (((i / block) & 1) == 0 && w[i] != w[i + block]) return true;
  }
  return false;
}

std::size_t TruthTable::count_ones() const {
  std::size_t n = 0;
  const std::uint64_t* w = data();
  for (std::uint32_t i = 0; i < num_words_; ++i) {
    n += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return n;
}

TruthTable TruthTable::cofactor0(unsigned v) const {
  assert(v < num_vars_);
  TruthTable t(*this);
  std::uint64_t* w = t.data();
  if (v < 6) {
    const unsigned shift = 1u << v;
    for (std::uint32_t i = 0; i < t.num_words_; ++i) {
      const std::uint64_t low = w[i] & ~kVarMask[v];
      w[i] = low | (low << shift);
    }
  } else {
    const std::uint32_t block = 1u << (v - 6);
    for (std::uint32_t i = 0; i < t.num_words_; ++i) {
      if ((i / block) & 1) w[i] = w[i - block];
    }
  }
  return t;
}

TruthTable TruthTable::cofactor1(unsigned v) const {
  assert(v < num_vars_);
  TruthTable t(*this);
  std::uint64_t* w = t.data();
  if (v < 6) {
    const unsigned shift = 1u << v;
    for (std::uint32_t i = 0; i < t.num_words_; ++i) {
      const std::uint64_t high = w[i] & kVarMask[v];
      w[i] = high | (high >> shift);
    }
  } else {
    const std::uint32_t block = 1u << (v - 6);
    for (std::uint32_t i = 0; i < t.num_words_; ++i) {
      if (!((i / block) & 1)) w[i] = w[i + block];
    }
  }
  return t;
}

void swap_vars(std::span<std::uint64_t> words, unsigned i, unsigned j) {
  assert(i < j);
  if (j < 6) {
    for (std::uint64_t& w : words) w = swap_vars_in_word(w, i, j);
  } else if (i < 6) {
    // Word pairs (x_j = 0, x_j = 1) trade their x_i = 1 and x_i = 0 halves.
    const std::size_t step = std::size_t{1} << (j - 6);
    const unsigned shift = 1u << i;
    for (std::size_t w = 0; w < words.size(); ++w) {
      if (w & step) continue;
      const std::uint64_t lo = words[w];
      const std::uint64_t hi = words[w + step];
      words[w] = (lo & ~kVarMask[i]) | ((hi << shift) & kVarMask[i]);
      words[w + step] = (hi & kVarMask[i]) | ((lo >> shift) & ~kVarMask[i]);
    }
  } else {
    // Both select words: words with x_i = 1, x_j = 0 trade places with
    // their x_i = 0, x_j = 1 partners.
    const std::size_t si = std::size_t{1} << (i - 6);
    const std::size_t sj = std::size_t{1} << (j - 6);
    for (std::size_t w = 0; w < words.size(); ++w) {
      if ((w & si) && !(w & sj)) std::swap(words[w], words[w - si + sj]);
    }
  }
}

void TruthTable::swap_vars(unsigned i, unsigned j) {
  assert(i < j && j < num_vars_);
  aig::swap_vars({data(), num_words_}, i, j);
}

TruthTable TruthTable::permute_flip(const std::vector<unsigned>& perm,
                                    unsigned flip_mask, bool out_flip) const {
  assert(perm.size() == num_vars_);
  TruthTable t(num_vars_);
  const std::size_t n = num_bits();
  for (std::size_t m = 0; m < n; ++m) {
    // Minterm m of the result assigns x_i = bit i of m. Input i of the
    // original function reads variable perm[i], possibly complemented.
    std::size_t src = 0;
    for (unsigned i = 0; i < num_vars_; ++i) {
      bool v = (m >> perm[i]) & 1;
      if ((flip_mask >> i) & 1) v = !v;
      if (v) src |= (std::size_t{1} << i);
    }
    t.set_bit(m, bit(src) ^ out_flip);
  }
  return t;
}

std::string TruthTable::to_hex() const {
  std::string out;
  char buf[20];
  const std::uint64_t* w = data();
  for (std::uint32_t i = num_words_; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(w[i]));
    out += buf;
  }
  return out;
}

}  // namespace flowgen::aig
