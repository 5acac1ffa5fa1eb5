#pragma once
// Process-wide metrics registry: monotonic counters, gauges, and
// fixed-bucket histograms, exported in the Prometheus text-exposition
// format. Built for instrumentation *inside* the evaluation hot path, so
// the update cost is a few nanoseconds:
//
//  * counters/histogram buckets are striped across cache-line-aligned
//    atomic slots indexed by thread (relaxed increments, no CAS loops on
//    the common path); stripes are summed only on scrape,
//  * every metric is registered once by (name, labels) and then cached as
//    a reference at the call site — the hot path never touches the
//    registry map or any string,
//  * the whole layer is gated on one relaxed atomic (set_enabled), so a
//    single binary can A/B telemetry-on vs telemetry-off — that is how
//    bench_evaluator prices the overhead budget.
//
// Scrapes (render_prometheus) are lock-light and read-only; the worker
// admin socket's `metrics` command and the coordinator's fleet-wide
// aggregation (merge_prometheus over per-worker scrapes) are both built on
// it. docs/observability.md catalogues the metric names.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace flowgen::telemetry {

/// Runtime master switch (default on). When off, every inc/observe/set is
/// one relaxed load and a branch — the A/B baseline for the overhead
/// bench. Scrapes still work (they report whatever was recorded).
bool enabled();
void set_enabled(bool on);

/// Label set of one metric instance, e.g. {{"spec","rewrite"}}. Sorted by
/// key at registration; (name, labels) is the metric's identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Stripe count: enough that a 16-thread evaluator rarely shares a slot,
/// small enough that scraping stays trivial. Power of two (mask select).
inline constexpr std::size_t kStripes = 16;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};

/// This thread's stripe: threads are numbered at first use and wrap.
std::size_t stripe_index();

}  // namespace detail

/// Monotonic counter. inc() is wait-free: one relaxed fetch_add on a
/// striped slot. Registry-owned; hold a reference, never copy.
class Counter {
public:
  void inc(std::uint64_t n = 1) {
    if (!enabled()) return;
    slots_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const detail::Slot& s : slots_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  /// Zero every stripe. Only sound while no thread is incrementing
  /// (tests, bench phase boundaries) — see reset_all().
  void reset() {
    for (detail::Slot& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

private:
  detail::Slot slots_[detail::kStripes];
};

/// Last-value gauge with add/sub deltas (e.g. current cache bytes summed
/// across shards). A single CAS-looped double — gauges sit off the hot
/// path (insert/evict, not per-transform).
class Gauge {
public:
  void set(double v) {
    if (!enabled()) return;
    bits_.store(to_bits(v), std::memory_order_relaxed);
  }
  void add(double delta) {
    if (!enabled()) return;
    std::uint64_t cur = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(cur, to_bits(from_bits(cur) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(double delta) { add(-delta); }
  double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }
  void reset() { bits_.store(0, std::memory_order_relaxed); }

private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed-bucket histogram (Prometheus semantics: `bounds` are inclusive
/// upper bounds, an implicit +Inf bucket catches the rest). observe() is
/// a branchless-ish binary search plus three relaxed adds on this
/// thread's stripe; aggregation happens on scrape.
class Histogram {
public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  struct Snapshot {
    std::vector<double> bounds;        ///< upper bounds, ascending
    std::vector<std::uint64_t> counts; ///< per bucket, bounds.size()+1 (+Inf)
    double sum = 0.0;
    std::uint64_t count = 0;
    double mean() const {
      return count ? sum / static_cast<double>(count) : 0.0;
    }
  };
  Snapshot snapshot() const;
  /// Zero all stripes (bounds unchanged); see Counter::reset caveats.
  void reset();

private:
  struct alignas(64) Stripe {
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_bits{0};  ///< double, CAS-accumulated
  };
  std::vector<double> bounds_;
  std::vector<Stripe> stripes_;
};

/// Default latency bounds: exponential ms grid from ~10us to ~30s.
std::vector<double> default_ms_buckets();
/// `count` exponential upper bounds: start, start*factor, ...
std::vector<double> exp_buckets(double start, double factor,
                                std::size_t count);

// ------------------------------------------------------------- registry --
//
// Registration is idempotent: the same (name, labels) returns the same
// object, so `static auto& c = telemetry::counter(...)` at a call site and
// per-spec cached references in an evaluator all share one instance.
// Registering a name that already exists as a different metric kind
// throws std::logic_error. All registration functions are thread-safe.

Counter& counter(const std::string& name, const std::string& help,
                 Labels labels = {});
Gauge& gauge(const std::string& name, const std::string& help,
             Labels labels = {});
Histogram& histogram(const std::string& name, const std::string& help,
                     std::vector<double> bounds, Labels labels = {});

/// Pull-model source: `fn` is called on every scrape and must return
/// well-formed Prometheus text (its own # HELP/# TYPE lines), for
/// counters owned outside the registry.
void register_collector(std::function<std::string()> fn);

/// Render every registered metric (+ collector output) as Prometheus
/// text-exposition format, metrics sorted by name.
std::string render_prometheus();

/// Sum several Prometheus texts sample-by-sample (identical
/// name+labels add up; first-seen # HELP/# TYPE win) — the fleet-wide
/// aggregation the coordinator serves to `evalctl metrics`. Gauges sum
/// too, which is the right fleet semantics for the gauges exported here
/// (cache bytes, queue depths — extensive quantities).
std::string merge_prometheus(std::span<const std::string> texts);

/// Zero every counter/gauge/histogram (objects and references stay
/// valid). For tests and the bench's phase-delta measurements; not for
/// concurrent use with live increments.
void reset_all();

}  // namespace flowgen::telemetry
