#pragma once
// The typed transform registry: the cross-layer contract that says what a
// packed step byte *means*. A registry is an ordered list of TransformSpecs
// — typed, parameterized transform descriptions {name, base kind, params} —
// and a flow is a sequence of StepIds into that list. Everything that
// stores, ships or caches flows (evaluator memo, QoR store, wire protocol,
// one-hot encoding) keys on the same uint8 ids and carries the registry's
// 128-bit fingerprint so two parties can never silently disagree about the
// alphabet.
//
// The default instance, TransformRegistry::paper(), reproduces the paper's
// 6-transform ABC set bit-identically at ids 0..5 — flows, cache keys, QoR
// values and stored bytes are exactly what the pre-registry code produced
// (pinned by tests/golden_registry_test.cpp). Extended registries add
// parameterized variants (e.g. "rewrite -K 3", "restructure -D 12") and
// grow the flow space without touching any consumer.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/transform.hpp"

namespace flowgen::opt {

/// Position of a spec in its registry: the packed byte that flows, cache
/// keys, store records and the wire all carry. Meaningful only next to a
/// registry (or its fingerprint).
using StepId = std::uint8_t;

/// A registry can hold at most this many specs (StepId is one byte).
inline constexpr std::size_t kMaxRegistrySpecs = 256;

/// Typed error for every alphabet violation: out-of-range step ids, unknown
/// spec names, malformed registry encodings, fingerprint mismatches on the
/// store/wire paths. Deliberately distinct from std::invalid_argument so
/// callers can tell "wrong alphabet" from "wrong anything else".
class RegistryError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// 128-bit content identity of a registry: a hash of every spec in id
/// order. Two registries with equal fingerprints assign identical meaning
/// to every packed step byte. Stable across platforms and versions — it is
/// persisted in QoR-store headers and checked per wire request.
using RegistryFingerprint = std::array<std::uint64_t, 2>;

std::string registry_fingerprint_hex(const RegistryFingerprint& fp);

/// One transform, fully specified: a base kind (one of the four primary
/// passes — the -z enumerators are normalized into `zero_cost`) plus every
/// parameter the pass accepts. Fields default to the pass defaults, so a
/// default-constructed spec of a given base is exactly the paper transform.
struct TransformSpec {
  /// Unique name within a registry; empty = the canonical text form
  /// (spec_text). The paper specs canonicalise to the familiar ABC names
  /// ("balance", "rewrite -z", ...).
  std::string name;
  TransformKind base = TransformKind::kBalance;
  bool zero_cost = false;          ///< rewrite/refactor: the -z perturbation
  unsigned cut_size = 4;           ///< rewrite: k-feasible cut width (2..8)
  unsigned max_cuts_per_node = 8;  ///< rewrite: priority cuts kept per node
  unsigned max_leaves = 8;         ///< restructure/refactor: reconv window (2..16)
  unsigned max_divisors = 24;      ///< restructure: divisor candidates
  unsigned min_mffc = 2;           ///< refactor: skip smaller cones

  bool operator==(const TransformSpec&) const = default;
};

/// Canonical text form of a spec: the base pass name followed by the flags
/// that differ from the defaults, in fixed order ("-z", "-K", "-C", "-D",
/// "-M"). Paper specs print as their ABC names. Ignores `name`.
std::string spec_text(const TransformSpec& spec);

/// Inverse of spec_text ("rewrite -z -K 3"); also the CLI syntax for
/// extended registries. Throws RegistryError on unknown pass names, unknown
/// flags or out-of-range parameters.
TransformSpec spec_from_text(const std::string& text);

/// Run one fully-specified transform (the spec-level apply every other
/// apply_transform* overload dispatches through).
aig::Aig apply_spec(const aig::Aig& in, const TransformSpec& spec);

/// An immutable, validated alphabet: specs at ids 0..size()-1. Construction
/// normalises (empty names -> canonical text, -z base kinds -> zero_cost)
/// and validates (non-empty, <= 256 specs, unique names, parameter ranges);
/// after that every accessor is const and thread-safe. Share instances via
/// shared_ptr — FlowSpace, evaluators, workers and coordinators all hold
/// one and compare by fingerprint.
class TransformRegistry {
public:
  /// Throws RegistryError on an invalid spec list (see class comment).
  explicit TransformRegistry(std::vector<TransformSpec> specs);

  /// The paper's 6-transform registry: balance, restructure, rewrite,
  /// refactor, rewrite -z, refactor -z at ids 0..5, bit-identical to the
  /// pre-registry fixed alphabet. One shared instance per process.
  static const std::shared_ptr<const TransformRegistry>& paper();

  std::size_t size() const { return specs_.size(); }
  const std::vector<TransformSpec>& specs() const { return specs_; }

  /// Spec at `id`; throws RegistryError when `id >= size()`.
  const TransformSpec& spec(StepId id) const {
    validate_step(id);
    return specs_[id];
  }
  const std::string& name(StepId id) const { return spec(id).name; }

  /// Id of the spec named `name`; throws RegistryError for unknown names.
  StepId id_of(const std::string& name) const;
  /// Like id_of, but nullptr instead of throwing.
  const StepId* find(const std::string& name) const;

  /// Every id, in order — the "whole alphabet" argument to FlowSpace.
  std::vector<StepId> all_ids() const;

  const RegistryFingerprint& fingerprint() const { return fingerprint_; }
  /// True iff this registry is content-identical to paper().
  bool is_paper() const;

  /// Throw RegistryError unless `id` (or every element of `steps`) names a
  /// spec of this registry. The guard every decode path (wire, store, flow
  /// keys) runs before a stray byte can reach dispatch.
  void validate_step(StepId id) const {
    if (id >= specs_.size()) {
      throw RegistryError("step id " + std::to_string(unsigned{id}) +
                          " out of range for registry of " +
                          std::to_string(specs_.size()) + " transforms");
    }
  }
  void validate_steps(std::span<const StepId> steps) const {
    for (const StepId id : steps) validate_step(id);
  }

  /// Apply the transform at `id` (throws RegistryError when out of range).
  aig::Aig apply(const aig::Aig& in, StepId id) const {
    return apply_spec(in, spec(id));
  }
  /// Apply a whole packed flow left to right.
  aig::Aig apply_steps(const aig::Aig& in,
                       std::span<const StepId> steps) const;

  /// Compact binary form for the wire (LoadRegistry) and for hashing; the
  /// fingerprint is a hash of exactly these bytes. decode() re-validates
  /// everything and throws RegistryError on malformed input.
  std::vector<std::uint8_t> encode() const;
  static std::shared_ptr<const TransformRegistry> decode(
      std::span<const std::uint8_t> bytes);

private:
  std::vector<TransformSpec> specs_;
  std::unordered_map<std::string, StepId> by_name_;
  RegistryFingerprint fingerprint_{};
};

/// Fingerprint of paper() without forcing the instance (handy for
/// include-light defaulting: an all-zero fingerprint is never valid, so
/// holders use "empty = paper").
const RegistryFingerprint& paper_registry_fingerprint();

}  // namespace flowgen::opt
