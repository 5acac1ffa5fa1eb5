// Measurement plumbing shared by every workload: clocks, /proc readers,
// Prometheus page parsing, seeded batches, digests and the replay oracle.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/flow_space.hpp"
#include "e2e.hpp"
#include "map/mapper.hpp"
#include "opt/registry.hpp"
#include "service/wire.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace flowgen::e2e {

void Report::fail(std::size_t flows, const std::string& why) {
  failed += flows;
  if (failures.size() < 8) failures.push_back(why);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields 3.. follow; utime and stime are fields 14 and 15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

double status_kb(pid_t pid, const char* key) {
  std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size()));
    }
  }
  return 0.0;
}

}  // namespace

double vm_hwm_mb(pid_t pid) { return status_kb(pid, "VmHWM") / 1024.0; }
double vm_rss_mb() { return status_kb(0, "VmRSS") / 1024.0; }

void reset_peak_rss() {
  // Without it (kernels before 4.0) the peak spans the whole process.
  std::ofstream("/proc/self/clear_refs") << "5";
}

Page parse_page(const std::string& text) {
  Page page;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    // The value follows the last space; label values may hold spaces
    // ("rewrite -z") but never a trailing one.
    const std::size_t sp = line.find_last_of(' ');
    if (sp == std::string::npos) continue;
    page[line.substr(0, sp)] += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return page;
}

void add_page(Page& into, const Page& page) {
  for (const auto& [key, value] : page) into[key] += value;
}

double page_value(const Page& page, const std::string& key) {
  const auto it = page.find(key);
  return it == page.end() ? 0.0 : it->second;
}

double page_mean(const Page& page, const std::string& name,
                 const std::string& labels) {
  const double count = page_value(page, name + "_count" + labels);
  return count > 0 ? page_value(page, name + "_sum" + labels) / count : 0.0;
}

std::size_t batches_for(double seconds, double nominal_s,
                        std::size_t minimum) {
  return std::max(minimum,
                  static_cast<std::size_t>(std::llround(seconds / nominal_s)));
}

void start_trace(const Options& options) {
  if (!telemetry::start_tracing(options.trace_file)) {
    throw std::runtime_error("cannot open trace file " + options.trace_file);
  }
}

core::QorStoreConfig store_config(const std::string& dir,
                                  const std::string& writer) {
  core::QorStoreConfig config;
  config.dir = dir;
  config.writer_name = writer;
  return config;
}

std::vector<core::Flow> make_batch(std::uint64_t seed, std::size_t k,
                                   unsigned m, std::size_t count) {
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + k * 0xD1B54A32D192ED03ull +
                m);
  return core::FlowSpace(m).sample_unique(count, rng);
}

std::string qor_digest(const std::vector<map::QoR>& qor) {
  std::uint32_t crc = 0;
  for (const map::QoR& q : qor) {
    const auto bytes = service::qor_record_bytes(q);
    crc = util::crc32(bytes, crc);
  }
  char hex[9];
  std::snprintf(hex, sizeof hex, "%08x", crc);
  return hex;
}

std::vector<std::size_t> first_sorted(const std::vector<core::Flow>& flows,
                                      std::size_t count) {
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return flows[a].steps < flows[b].steps;
  });
  order.resize(std::min(count, order.size()));
  return order;
}

std::string spec_key(const std::string& spec) {
  std::string out;
  for (const char c : spec) {
    if (c == ' ') continue;
    out.push_back(c == '-' ? '_' : c);
  }
  return out;
}

std::vector<map::QoR> replay(const aig::Aig& design,
                             const std::vector<core::Flow>& flows,
                             std::size_t threads, ReplayTimes* times) {
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  std::vector<map::QoR> out(flows.size());
  std::vector<ReplayTimes> per_flow(flows.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < flows.size(); i = next++) {
      ReplayTimes& t = per_flow[i];
      aig::Aig g = design;
      for (const opt::StepId step : flows[i].steps) {
        const opt::TransformSpec& spec = registry.spec(step);
        telemetry::Span span("bench", "replay_pass");
        const Clock::time_point t0 = Clock::now();
        g = opt::apply_spec(g, spec);
        t.per_spec_ms[spec_key(spec.name)].push_back(seconds_since(t0) * 1e3);
      }
      telemetry::Span span("bench", "replay_map");
      const Clock::time_point t0 = Clock::now();
      out[i] = map::evaluate_qor(g);
      t.map_ms.push_back(seconds_since(t0) * 1e3);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < std::max<std::size_t>(1, threads); ++i) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();
  if (times) {
    for (const ReplayTimes& t : per_flow) {
      for (const auto& [spec, ms] : t.per_spec_ms) {
        auto& into = times->per_spec_ms[spec];
        into.insert(into.end(), ms.begin(), ms.end());
      }
      times->map_ms.insert(times->map_ms.end(), t.map_ms.begin(),
                           t.map_ms.end());
    }
  }
  return out;
}

}  // namespace flowgen::e2e
