#pragma once
// Fixed-capacity vector with inline storage, for the small per-node lists
// of the synthesis kernels whose length already has an enforced bound: cut
// leaves (cut_size <= Cut::kMaxLeaves), reconvergence windows (at most 16
// leaves) and cell pin bindings (at most 4 pins). Millions of these are
// built per labeling batch; inline storage keeps them off the heap.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>

namespace flowgen::aig {

template <typename T, std::size_t N>
class InlineVec {
public:
  InlineVec() = default;
  InlineVec(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  std::size_t size() const {
    // push_back keeps size_ <= N; saying so lets the optimiser bound loops
    // over the elements (without it GCC warns of writes past items_).
    if (size_ > N) __builtin_unreachable();
    return size_;
  }
  bool empty() const { return size_ == 0; }

  T* begin() { return items_.data(); }
  T* end() { return items_.data() + size(); }
  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size(); }
  T& operator[](std::size_t i) { return items_[i]; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T& front() const { return items_[0]; }

  /// Throws std::length_error when full: callers enforce the bound up
  /// front, so this only fires on a logic error, never silently.
  void push_back(const T& v) {
    if (size_ == N) throw std::length_error("InlineVec capacity exceeded");
    items_[size_++] = v;
  }
  void clear() { size_ = 0; }
  /// Removes the element at `i`, keeping the order of the rest.
  void erase_at(std::size_t i) {
    for (std::size_t k = i + 1; k < size_; ++k) items_[k - 1] = items_[k];
    --size_;
  }

  operator std::span<const T>() const { return {items_.data(), size_}; }

  bool operator==(const InlineVec& o) const {
    return size() == o.size() && std::equal(begin(), end(), o.begin());
  }

private:
  std::array<T, N> items_{};
  std::uint32_t size_ = 0;
};

}  // namespace flowgen::aig
