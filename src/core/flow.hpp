#pragma once
// A synthesis flow: an ordered sequence of transforms (Definition 1/2 of the
// paper), stored as packed registry step ids. Flows hash and compare by
// value so sampling can enforce uniqueness. A flow is meaningful only next
// to a TransformRegistry (which says what each id does); the paper registry
// is the default everywhere, under which ids 0..5 are the fixed alphabet
// the pre-registry code used — keys, hashes and packed bytes unchanged.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "opt/registry.hpp"

namespace flowgen::core {

/// A flow prefix/key in its packed form: one byte per step (the registry
/// StepId), so the step sequence itself is the byte encoding — no string
/// materialised.
using StepsView = std::span<const opt::StepId>;
using StepsKey = std::vector<opt::StepId>;

/// FNV-1a over the packed steps; hashes any prefix without allocating.
/// Transparent so unordered containers keyed by StepsKey can be probed with
/// a borrowed StepsView (C++20 heterogeneous lookup).
struct StepsHash {
  using is_transparent = void;
  std::size_t operator()(StepsView s) const noexcept {
    std::uint64_t h = 1469598103934665603ull;
    for (opt::StepId t : s) {
      h = (h ^ t) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
  std::size_t operator()(const StepsKey& v) const noexcept {
    return (*this)(StepsView(v));
  }
};

struct StepsEqual {
  using is_transparent = void;
  bool operator()(StepsView a, StepsView b) const noexcept {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }
  bool operator()(const StepsKey& a, const StepsKey& b) const noexcept {
    return a == b;
  }
  bool operator()(const StepsKey& a, StepsView b) const noexcept {
    return (*this)(StepsView(a), b);
  }
  bool operator()(StepsView a, const StepsKey& b) const noexcept {
    return (*this)(a, StepsView(b));
  }
};

struct Flow {
  StepsKey steps;

  std::size_t length() const { return steps.size(); }
  bool operator==(const Flow&) const = default;

  /// Compact text key for I/O and reports: one character per step, base-36
  /// ('0'-'9' then 'a'-'z'), identical to the old digit keys for registries
  /// of up to 10 transforms. Throws opt::RegistryError for ids >= 36 (the
  /// packed byte form has no such limit). Hot paths hash the packed `steps`
  /// directly (StepsHash) instead of materialising this.
  std::string key() const;
  /// Human-readable script over the registry's spec names
  /// ("balance; rewrite -z; ...").
  std::string to_string(const opt::TransformRegistry& registry =
                            *opt::TransformRegistry::paper()) const;
  /// Full ABC script for cross-checking the flow with real ABC:
  /// "strash; <transforms...>; map" (note: our `restructure` corresponds
  /// to ABC's `resub`).
  std::string to_abc_script(const opt::TransformRegistry& registry =
                                *opt::TransformRegistry::paper()) const;

  /// Parse a text key, validating every step against `registry` — an
  /// out-of-range or unparseable character is an opt::RegistryError, so a
  /// key can never smuggle a step the alphabet does not define.
  static Flow from_key(const std::string& key,
                       const opt::TransformRegistry& registry =
                           *opt::TransformRegistry::paper());
};

struct FlowHash {
  std::size_t operator()(const Flow& f) const noexcept {
    return StepsHash{}(StepsView(f.steps));
  }
};

/// The batch order every evaluation path schedules by: the indices of
/// `flows` sorted by step sequence (lexicographic, a prefix before its
/// extensions), equal flows in index order — exactly the permutation
/// std::stable_sort gives with `a.steps < b.steps`. Flows sharing a prefix
/// end up back to back: the longest prefix a flow shares with any earlier
/// flow is the one it shares with its predecessor, so a trail holding only
/// the predecessor's graphs (SynthesisEvaluator::Trail) resumes as far as
/// any cache of earlier prefixes could.
/// Sorts transient 16-byte keys (the first 12 step bytes, zero-padded, and
/// the index) and reads whole step vectors only when two keys tie, so a
/// 10^6-flow batch never chases a pointer per comparison. Throws
/// std::length_error for a batch of 2^32 flows or more.
std::vector<std::size_t> lexicographic_order(std::span<const Flow> flows);

}  // namespace flowgen::core
