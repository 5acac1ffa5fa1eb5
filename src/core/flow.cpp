#include "core/flow.hpp"

#include <compare>
#include <limits>
#include <stdexcept>

namespace flowgen::core {

namespace {

char step_char(opt::StepId id) {
  if (id < 10) return static_cast<char>('0' + id);
  if (id < 36) return static_cast<char>('a' + (id - 10));
  throw opt::RegistryError("Flow::key: step id " +
                           std::to_string(unsigned{id}) +
                           " has no single-character form (>= 36)");
}

/// lexicographic_order's sort key: the flow's first 12 step bytes,
/// big-endian in `head` and `tail` so integer order is byte order, zero
/// past the flow's end. Where two keys differ, their flows compare the same
/// way: the first differing byte is either a real step on both sides or a
/// padding zero where one flow ended, which makes that flow a prefix of the
/// other and so the smaller. Equal keys fall back to the whole step
/// vectors, then the index.
struct OrderKey {
  std::uint64_t head = 0;
  std::uint32_t tail = 0;
  std::uint32_t index = 0;
};
static_assert(sizeof(OrderKey) == 16);

constexpr std::size_t kKeySteps = 12;

OrderKey order_key(const StepsKey& steps, std::size_t index) {
  std::uint8_t bytes[kKeySteps] = {};
  std::copy_n(steps.begin(), std::min(steps.size(), kKeySteps), bytes);
  OrderKey key;
  for (std::size_t i = 0; i < 8; ++i) key.head = (key.head << 8) | bytes[i];
  for (std::size_t i = 8; i < kKeySteps; ++i) {
    key.tail = (key.tail << 8) | bytes[i];
  }
  key.index = static_cast<std::uint32_t>(index);
  return key;
}

}  // namespace

std::string Flow::key() const {
  std::string k;
  k.reserve(steps.size());
  for (opt::StepId t : steps) k += step_char(t);
  return k;
}

std::string Flow::to_string(const opt::TransformRegistry& registry) const {
  std::string s;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (i) s += "; ";
    s += registry.name(steps[i]);
  }
  return s;
}

std::string Flow::to_abc_script(const opt::TransformRegistry& registry) const {
  std::string s = "strash";
  for (opt::StepId t : steps) {
    s += "; ";
    // ABC commands come from the canonical text form, never the free-form
    // spec name (which may be anything): spec_text of a restructure spec
    // always starts with "restructure", so the resub rename is safe, and
    // parameter flags carry over verbatim ("restructure -K 6" ->
    // "resub -K 6"). Our windowed resubstitution is ABC's `resub`.
    std::string cmd = opt::spec_text(registry.spec(t));
    if (registry.spec(t).base == opt::TransformKind::kRestructure) {
      cmd = "resub" + cmd.substr(std::string("restructure").size());
    }
    s += cmd;
  }
  s += "; map";
  return s;
}

Flow Flow::from_key(const std::string& key,
                    const opt::TransformRegistry& registry) {
  Flow f;
  f.steps.reserve(key.size());
  for (char c : key) {
    opt::StepId id = 0;
    if (c >= '0' && c <= '9') {
      id = static_cast<opt::StepId>(c - '0');
    } else if (c >= 'a' && c <= 'z') {
      id = static_cast<opt::StepId>(10 + (c - 'a'));
    } else {
      throw opt::RegistryError(std::string("Flow::from_key: bad step "
                                           "character '") +
                               c + "'");
    }
    registry.validate_step(id);
    f.steps.push_back(id);
  }
  return f;
}

std::vector<std::size_t> lexicographic_order(std::span<const Flow> flows) {
  if (flows.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("lexicographic_order: 2^32 flows or more");
  }
  std::vector<OrderKey> keys(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    keys[i] = order_key(flows[i].steps, i);
  }
  std::sort(keys.begin(), keys.end(),
            [flows](const OrderKey& a, const OrderKey& b) {
              if (a.head != b.head) return a.head < b.head;
              if (a.tail != b.tail) return a.tail < b.tail;
              const auto steps = flows[a.index].steps <=> flows[b.index].steps;
              return steps != 0 ? steps < 0 : a.index < b.index;
            });
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) order[i] = keys[i].index;
  return order;
}

}  // namespace flowgen::core
