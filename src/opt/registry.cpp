#include "opt/registry.hpp"

#include <algorithm>
#include <cstdio>

#include "opt/balance.hpp"
#include "opt/refactor.hpp"
#include "opt/restructure.hpp"
#include "opt/rewrite.hpp"

namespace flowgen::opt {

namespace {

// Registry encoding (little-endian; hashed verbatim for the fingerprint):
//   u32 magic "FREG", u8 version, u8 0, u16 count,
//   per spec: u16 name_len + bytes, u8 base, u8 zero_cost,
//             u32 cut_size, u32 max_cuts_per_node, u32 max_leaves,
//             u32 max_divisors, u32 min_mffc
constexpr std::uint32_t kRegistryMagic = 0x47455246;  // "FREG"
constexpr std::uint8_t kRegistryVersion = 1;

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  put_u16(b, static_cast<std::uint16_t>(v));
  put_u16(b, static_cast<std::uint16_t>(v >> 16));
}

struct ByteReader {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > data.size()) {
      throw RegistryError("registry encoding truncated");
    }
  }
  std::uint8_t u8() {
    need(1);
    return data[pos++];
  }
  std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>(
        data[pos] | (static_cast<std::uint16_t>(data[pos + 1]) << 8));
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::string str() {
    const std::uint16_t len = u16();
    need(len);
    std::string s(reinterpret_cast<const char*>(data.data() + pos), len);
    pos += len;
    return s;
  }
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  return h;
}

void check_range(const char* what, unsigned value, unsigned lo, unsigned hi) {
  if (value < lo || value > hi) {
    throw RegistryError(std::string("TransformSpec: ") + what + " = " +
                        std::to_string(value) + " outside [" +
                        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
}

/// Normalise a spec: fold the -z enum aliases into zero_cost, reset the
/// parameters the base pass never reads to their defaults (so irrelevant
/// fields cannot perturb the canonical text or the fingerprint), derive an
/// empty name from the canonical text, and range-check what remains.
TransformSpec normalize(TransformSpec spec) {
  if (spec.base == TransformKind::kRewriteZ) {
    spec.base = TransformKind::kRewrite;
    spec.zero_cost = true;
  } else if (spec.base == TransformKind::kRefactorZ) {
    spec.base = TransformKind::kRefactor;
    spec.zero_cost = true;
  }
  const TransformSpec defaults;
  switch (spec.base) {
    case TransformKind::kBalance:
      spec.zero_cost = false;
      spec.cut_size = defaults.cut_size;
      spec.max_cuts_per_node = defaults.max_cuts_per_node;
      spec.max_leaves = defaults.max_leaves;
      spec.max_divisors = defaults.max_divisors;
      spec.min_mffc = defaults.min_mffc;
      break;
    case TransformKind::kRestructure:
      spec.zero_cost = false;
      spec.cut_size = defaults.cut_size;
      spec.max_cuts_per_node = defaults.max_cuts_per_node;
      spec.min_mffc = defaults.min_mffc;
      check_range("max_leaves", spec.max_leaves, 2, 16);
      check_range("max_divisors", spec.max_divisors, 1, 1024);
      break;
    case TransformKind::kRewrite:
      spec.max_leaves = defaults.max_leaves;
      spec.max_divisors = defaults.max_divisors;
      spec.min_mffc = defaults.min_mffc;
      check_range("cut_size", spec.cut_size, 2, 8);
      check_range("max_cuts_per_node", spec.max_cuts_per_node, 1, 64);
      break;
    case TransformKind::kRefactor:
      spec.cut_size = defaults.cut_size;
      spec.max_cuts_per_node = defaults.max_cuts_per_node;
      spec.max_divisors = defaults.max_divisors;
      check_range("max_leaves", spec.max_leaves, 2, 16);
      check_range("min_mffc", spec.min_mffc, 1, 1024);
      break;
    default:
      throw RegistryError("TransformSpec: unknown base kind " +
                          std::to_string(static_cast<unsigned>(spec.base)));
  }
  if (spec.name.empty()) spec.name = spec_text(spec);
  return spec;
}

void append_flag(std::string& s, const char* flag, unsigned value) {
  s += ' ';
  s += flag;
  s += ' ';
  s += std::to_string(value);
}

}  // namespace

std::string registry_fingerprint_hex(const RegistryFingerprint& fp) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(fp[0]),
                static_cast<unsigned long long>(fp[1]));
  return buf;
}

std::string spec_text(const TransformSpec& in) {
  // Fold the -z aliases so callers may pass unnormalised specs.
  TransformSpec spec = in;
  if (spec.base == TransformKind::kRewriteZ) {
    spec.base = TransformKind::kRewrite;
    spec.zero_cost = true;
  } else if (spec.base == TransformKind::kRefactorZ) {
    spec.base = TransformKind::kRefactor;
    spec.zero_cost = true;
  }
  const TransformSpec defaults;
  std::string s;
  switch (spec.base) {
    case TransformKind::kBalance:
      return "balance";
    case TransformKind::kRestructure:
      s = "restructure";
      if (spec.max_leaves != defaults.max_leaves) {
        append_flag(s, "-K", spec.max_leaves);
      }
      if (spec.max_divisors != defaults.max_divisors) {
        append_flag(s, "-D", spec.max_divisors);
      }
      return s;
    case TransformKind::kRewrite:
      s = "rewrite";
      if (spec.zero_cost) s += " -z";
      if (spec.cut_size != defaults.cut_size) {
        append_flag(s, "-K", spec.cut_size);
      }
      if (spec.max_cuts_per_node != defaults.max_cuts_per_node) {
        append_flag(s, "-C", spec.max_cuts_per_node);
      }
      return s;
    case TransformKind::kRefactor:
      s = "refactor";
      if (spec.zero_cost) s += " -z";
      if (spec.max_leaves != defaults.max_leaves) {
        append_flag(s, "-K", spec.max_leaves);
      }
      if (spec.min_mffc != defaults.min_mffc) {
        append_flag(s, "-M", spec.min_mffc);
      }
      return s;
    default:
      break;
  }
  throw RegistryError("spec_text: unknown base kind");
}

TransformSpec spec_from_text(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t space = text.find(' ', start);
    const std::size_t end = space == std::string::npos ? text.size() : space;
    if (end > start) tokens.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  if (tokens.empty()) throw RegistryError("spec_from_text: empty spec");

  TransformSpec spec;
  if (tokens[0] == "balance") {
    spec.base = TransformKind::kBalance;
  } else if (tokens[0] == "restructure") {
    spec.base = TransformKind::kRestructure;
  } else if (tokens[0] == "rewrite") {
    spec.base = TransformKind::kRewrite;
  } else if (tokens[0] == "refactor") {
    spec.base = TransformKind::kRefactor;
  } else {
    throw RegistryError("spec_from_text: unknown pass '" + tokens[0] + "'");
  }

  // A flag the base pass never reads must be an error, not a silently
  // normalised-away no-op: "refactor -D 12" describes a spec that does not
  // exist, and pretending it is plain refactor would hand the user a
  // different alphabet than they wrote down.
  const auto reject_unless = [&](const std::string& flag, bool applies) {
    if (!applies) {
      throw RegistryError("spec_from_text: flag '" + flag +
                          "' does not apply to '" + tokens[0] + "' in '" +
                          text + "'");
    }
  };
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    if (flag == "-z") {
      reject_unless(flag, spec.base == TransformKind::kRewrite ||
                              spec.base == TransformKind::kRefactor);
      spec.zero_cost = true;
      continue;
    }
    if (i + 1 >= tokens.size()) {
      throw RegistryError("spec_from_text: flag '" + flag +
                          "' needs a value in '" + text + "'");
    }
    unsigned value = 0;
    try {
      std::size_t consumed = 0;
      value = static_cast<unsigned>(std::stoul(tokens[i + 1], &consumed));
      if (consumed != tokens[i + 1].size()) {
        throw RegistryError("trailing characters");  // "-K 3x" is not 3
      }
    } catch (const std::exception&) {
      throw RegistryError("spec_from_text: bad value for '" + flag +
                          "' in '" + text + "'");
    }
    ++i;
    if (flag == "-K") {
      // -K names the window/cut width of whichever pass this is.
      reject_unless(flag, spec.base != TransformKind::kBalance);
      if (spec.base == TransformKind::kRewrite) {
        spec.cut_size = value;
      } else {
        spec.max_leaves = value;
      }
    } else if (flag == "-C") {
      reject_unless(flag, spec.base == TransformKind::kRewrite);
      spec.max_cuts_per_node = value;
    } else if (flag == "-D") {
      reject_unless(flag, spec.base == TransformKind::kRestructure);
      spec.max_divisors = value;
    } else if (flag == "-M") {
      reject_unless(flag, spec.base == TransformKind::kRefactor);
      spec.min_mffc = value;
    } else {
      throw RegistryError("spec_from_text: unknown flag '" + flag +
                          "' in '" + text + "'");
    }
  }
  return normalize(std::move(spec));
}

aig::Aig apply_spec(const aig::Aig& in, const TransformSpec& spec) {
  switch (spec.base) {
    case TransformKind::kBalance:
      return balance(in);
    case TransformKind::kRestructure: {
      RestructureParams p;
      p.max_leaves = spec.max_leaves;
      p.max_divisors = spec.max_divisors;
      return restructure(in, p);
    }
    case TransformKind::kRewrite: {
      RewriteParams p;
      p.cut_size = spec.cut_size;
      p.max_cuts_per_node = spec.max_cuts_per_node;
      p.zero_cost = spec.zero_cost;
      return rewrite(in, p);
    }
    case TransformKind::kRefactor: {
      RefactorParams p;
      p.max_leaves = spec.max_leaves;
      p.min_mffc = spec.min_mffc;
      p.zero_cost = spec.zero_cost;
      return refactor(in, p);
    }
    default:
      throw RegistryError("apply_spec: unnormalised base kind " +
                          std::to_string(static_cast<unsigned>(spec.base)));
  }
}

TransformRegistry::TransformRegistry(std::vector<TransformSpec> specs) {
  if (specs.empty()) {
    throw RegistryError("TransformRegistry: empty spec list");
  }
  if (specs.size() > kMaxRegistrySpecs) {
    throw RegistryError("TransformRegistry: more than " +
                        std::to_string(kMaxRegistrySpecs) + " specs");
  }
  specs_.reserve(specs.size());
  for (TransformSpec& spec : specs) {
    TransformSpec normal = normalize(std::move(spec));
    const auto id = static_cast<StepId>(specs_.size());
    if (!by_name_.emplace(normal.name, id).second) {
      throw RegistryError("TransformRegistry: duplicate spec name '" +
                          normal.name + "'");
    }
    specs_.push_back(std::move(normal));
  }
  const std::vector<std::uint8_t> bytes = encode();
  fingerprint_[0] = splitmix64(fnv1a(bytes, 1469598103934665603ull));
  fingerprint_[1] = splitmix64(fnv1a(bytes, 0x9AE16A3B2F90404Full));
}

const std::shared_ptr<const TransformRegistry>& TransformRegistry::paper() {
  static const std::shared_ptr<const TransformRegistry> instance = [] {
    std::vector<TransformSpec> specs(6);
    specs[0].base = TransformKind::kBalance;
    specs[1].base = TransformKind::kRestructure;
    specs[2].base = TransformKind::kRewrite;
    specs[3].base = TransformKind::kRefactor;
    specs[4].base = TransformKind::kRewrite;
    specs[4].zero_cost = true;
    specs[5].base = TransformKind::kRefactor;
    specs[5].zero_cost = true;
    return std::make_shared<const TransformRegistry>(std::move(specs));
  }();
  return instance;
}

const RegistryFingerprint& paper_registry_fingerprint() {
  return TransformRegistry::paper()->fingerprint();
}

StepId TransformRegistry::id_of(const std::string& name) const {
  if (const StepId* id = find(name)) return *id;
  throw RegistryError("TransformRegistry: no spec named '" + name + "'");
}

const StepId* TransformRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::vector<StepId> TransformRegistry::all_ids() const {
  std::vector<StepId> ids(specs_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<StepId>(i);
  }
  return ids;
}

bool TransformRegistry::is_paper() const {
  return fingerprint_ == paper()->fingerprint();
}

aig::Aig TransformRegistry::apply_steps(const aig::Aig& in,
                                        std::span<const StepId> steps) const {
  validate_steps(steps);
  aig::Aig g = in;
  for (const StepId id : steps) g = apply(g, id);
  return g;
}

std::vector<std::uint8_t> TransformRegistry::encode() const {
  std::vector<std::uint8_t> b;
  put_u32(b, kRegistryMagic);
  b.push_back(kRegistryVersion);
  b.push_back(0);
  put_u16(b, static_cast<std::uint16_t>(specs_.size()));
  for (const TransformSpec& spec : specs_) {
    if (spec.name.size() > 0xFFFF) {
      throw RegistryError("TransformRegistry: spec name too long");
    }
    put_u16(b, static_cast<std::uint16_t>(spec.name.size()));
    b.insert(b.end(), spec.name.begin(), spec.name.end());
    b.push_back(static_cast<std::uint8_t>(spec.base));
    b.push_back(spec.zero_cost ? 1 : 0);
    put_u32(b, spec.cut_size);
    put_u32(b, spec.max_cuts_per_node);
    put_u32(b, spec.max_leaves);
    put_u32(b, spec.max_divisors);
    put_u32(b, spec.min_mffc);
  }
  return b;
}

std::shared_ptr<const TransformRegistry> TransformRegistry::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  if (r.u32() != kRegistryMagic) {
    throw RegistryError("registry encoding: bad magic");
  }
  if (r.u8() != kRegistryVersion) {
    throw RegistryError("registry encoding: unsupported version");
  }
  r.u8();  // reserved
  const std::uint16_t count = r.u16();
  if (count == 0 || count > kMaxRegistrySpecs) {
    throw RegistryError("registry encoding: bad spec count " +
                        std::to_string(count));
  }
  std::vector<TransformSpec> specs;
  specs.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    TransformSpec spec;
    spec.name = r.str();
    spec.base = static_cast<TransformKind>(r.u8());
    spec.zero_cost = r.u8() != 0;
    spec.cut_size = r.u32();
    spec.max_cuts_per_node = r.u32();
    spec.max_leaves = r.u32();
    spec.max_divisors = r.u32();
    spec.min_mffc = r.u32();
    specs.push_back(std::move(spec));
  }
  if (r.pos != bytes.size()) {
    throw RegistryError("registry encoding: trailing bytes");
  }
  // The constructor re-normalises and re-validates; a registry decoded from
  // hostile bytes is exactly as checked as one built in process. The
  // fingerprint is recomputed from the canonical re-encoding, so a peer
  // cannot ship bytes that claim someone else's fingerprint.
  return std::make_shared<const TransformRegistry>(std::move(specs));
}

}  // namespace flowgen::opt
