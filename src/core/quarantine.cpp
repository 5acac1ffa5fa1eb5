#include "core/quarantine.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "aig/serialize.hpp"
#include "util/log.hpp"

namespace flowgen::core {
namespace {

constexpr const char* kFileName = "QUARANTINE";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool parse_hex(const std::string& s, std::vector<std::uint8_t>* out) {
  if (s.size() % 2 != 0) return false;
  out->clear();
  out->reserve(s.size() / 2);
  for (std::size_t i = 0; i < s.size(); i += 2) {
    const int hi = hex_nibble(s[i]);
    const int lo = hex_nibble(s[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::string steps_hex(StepsView steps) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(steps.size() * 2);
  for (const auto step : steps) {
    const auto b = static_cast<std::uint8_t>(step);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

bool parse_fingerprint(const std::string& s, aig::Fingerprint* out) {
  std::vector<std::uint8_t> bytes;
  if (!parse_hex(s, &bytes) || bytes.size() != 16) return false;
  for (int half = 0; half < 2; ++half) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[half * 8 + i];
    (*out)[half] = v;
  }
  return true;
}

}  // namespace

QuarantineList::QuarantineList(const std::string& dir)
    : path_(dir + "/" + kFileName) {
  std::lock_guard lock(mu_);
  load_locked();
}

void QuarantineList::load_locked() {
  std::ifstream in(path_);
  if (!in.is_open()) return;  // no convictions yet
  std::string line;
  std::size_t skipped = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string design_hex, flow_hex, reason;
    std::uint32_t losses = 0;
    QuarantineEntry e;
    std::vector<std::uint8_t> steps;
    if (!(fields >> design_hex >> flow_hex >> losses) ||
        !parse_fingerprint(design_hex, &e.design) ||
        !parse_hex(flow_hex, &steps)) {
      // Torn or hand-mangled line: skip it (the crash that tore it already
      // cost the conviction; the flow will be re-convicted if still toxic).
      ++skipped;
      continue;
    }
    std::getline(fields >> std::ws, reason);
    e.steps.assign(steps.begin(), steps.end());
    e.losses = losses;
    e.reason = std::move(reason);
    Key key{e.design, e.steps};
    entries_.insert_or_assign(std::move(key), std::move(e));
  }
  if (skipped != 0)
    util::log_warn("quarantine: skipped ", skipped, " malformed line(s) in ",
                   path_);
  if (!entries_.empty())
    util::log_info("quarantine: loaded ", entries_.size(), " entr",
                   entries_.size() == 1 ? "y" : "ies", " from ", path_);
}

bool QuarantineList::contains(const aig::Fingerprint& design,
                              StepsView steps) const {
  std::lock_guard lock(mu_);
  // The coordinator asks for every flow of every batch, and the list is
  // almost always empty: answer that before building a heap key.
  if (entries_.empty()) return false;
  return entries_.find(Key{design, StepsKey(steps.begin(), steps.end())}) !=
         entries_.end();
}

bool QuarantineList::add(const aig::Fingerprint& design, StepsView steps,
                         std::uint32_t losses, const std::string& reason) {
  QuarantineEntry e;
  e.design = design;
  e.steps.assign(steps.begin(), steps.end());
  e.losses = losses;
  e.reason = reason;
  {
    std::lock_guard lock(mu_);
    Key key{design, e.steps};
    if (!entries_.emplace(std::move(key), e).second) return false;
  }
  if (!path_.empty()) {
    // One line, one write: O_APPEND via "a" keeps concurrent coordinators
    // from interleaving partial lines. Reasons are kept single-line.
    std::string clean = reason;
    std::replace(clean.begin(), clean.end(), '\n', ' ');
    std::ofstream out(path_, std::ios::app);
    if (out.is_open()) {
      out << aig::fingerprint_hex(design) << ' ' << steps_hex(steps) << ' '
          << losses << ' ' << clean << '\n';
    }
    if (!out.good()) {
      util::log_warn("quarantine: could not persist entry to ", path_,
                     " (in-memory quarantine still active)");
    }
  }
  return true;
}

std::vector<QuarantineEntry> QuarantineList::entries() const {
  std::lock_guard lock(mu_);
  std::vector<QuarantineEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(e);
  std::sort(out.begin(), out.end(),
            [](const QuarantineEntry& a, const QuarantineEntry& b) {
              if (a.design != b.design) return a.design < b.design;
              return a.steps < b.steps;
            });
  return out;
}

std::size_t QuarantineList::size() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace flowgen::core
