// parc_bench shared pieces: run options, the metric report, sample
// statistics, trace-span pairing and the correctness gate.
//
// Every workload fills one Report. Untraced runs fill `metrics` (end to
// end) and exact counter-based `layers`; traced runs fill `layers` from
// client-timed spans and obs events. main() prints the report and the
// result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "sched/thread_pool.hpp"
#include "support/histogram.hpp"

namespace parc_bench {

/// An output disagreed with its oracle or a conservation identity broke.
/// main() turns it into a non-zero exit with no metrics printed.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall time the timed phase of an untraced run aims to fill.
  double seconds = 10.0;
  bool trace = false;
  /// Traced runs only: write the main traced phase as a Chrome trace here.
  std::string trace_file;
  /// Input sizes relative to the full benchmark (--check runs at 1/20).
  double scale = 1.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Quartiles and sample count when `value` is a median of samples.
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

struct Report {
  std::vector<Metric> metrics;  ///< end to end (untraced run)
  std::vector<Metric> layers;   ///< per layer
  std::vector<Metric> diag;     ///< reported, never gated
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Median of `samples`, with quartiles and count.
  void metric(std::string name, std::string unit,
              const std::vector<double>& samples);
  void layer(std::string name, std::string unit, double value);
  void diag_value(std::string name, std::string unit, double value);
};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double sum(const std::vector<double>& xs);

/// Independent stream seed `k` derived from the run's --seed (splitmix64).
[[nodiscard]] inline std::uint64_t sub_seed(std::uint64_t seed,
                                            std::uint64_t k) {
  std::uint64_t x = seed + (k + 1) * 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// a / b, or 0 when b is 0 (a layer the workload leaves idle).
[[nodiscard]] inline double share(double a, double b) {
  return b > 0.0 ? a / b : 0.0;
}

/// Bucket counts of `after` minus those of `before` (same layout): the
/// latency samples recorded between two snapshots of one histogram.
struct HistogramDelta {
  parc::LogHistogram layout;  ///< bucket bounds
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  HistogramDelta(const parc::LogHistogram& before,
                 const parc::LogHistogram& after);
  /// Pool the samples of another delta of the same layout.
  void add(const HistogramDelta& other);
  /// Percentile p in [0, 100], geometrically interpolated inside the
  /// covering bucket so the estimate moves continuously with the samples.
  [[nodiscard]] double percentile(double p) const;
};

// ---------------------------------------------------------------------------
// Host and process.
// ---------------------------------------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned usable_cpus();
/// Peak resident set of this process in MB (ru_maxrss, the same as VmHWM).
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Client-timed spans around one public call (offer, push, run_after).
struct CallSpans {
  std::vector<double> ns;
  void reserve(std::size_t n) { ns.reserve(n); }
  /// api.call_ns (mean), api.call_p99_ns and api.busy_share over `wall_s`.
  void report(Report& r, double wall_s) const;
};

/// Time `fn()` into `spans` when it is non-null; otherwise just call it.
template <typename F>
decltype(auto) timed(CallSpans* spans, F&& fn) {
  if (spans == nullptr) return fn();
  const std::uint64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    spans->ns.push_back(static_cast<double>(now_ns() - t0));
  } else {
    decltype(auto) out = fn();
    spans->ns.push_back(static_cast<double>(now_ns() - t0));
    return out;
  }
}

// ---------------------------------------------------------------------------
// Trace analysis over events that already exist in src/.
// ---------------------------------------------------------------------------

/// The measured part of a trace session, in ns since the session origin.
/// A thread's first event in a session allocates and zero-fills its whole
/// trace buffer, a stall of milliseconds; so every traced phase first runs
/// a short warm-up inside the session that registers each thread, and only
/// events inside the window are analysed.
struct TraceWindow {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;

  /// Window between two now_ns() readings taken during `dump`'s session.
  TraceWindow(const parc::obs::TraceDump& dump, std::uint64_t begin,
              std::uint64_t end)
      : begin_ns(begin - dump.origin_ns), end_ns(end - dump.origin_ns) {}
  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
  }
};

/// One matched begin→end pair.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  [[nodiscard]] double us() const {
    return static_cast<double>(end_ns - begin_ns) / 1e3;
  }
};

/// Pair `begin` and `end` events by id across all tracks (first begin,
/// first end after it), keeping spans that begin inside `window`.
[[nodiscard]] std::vector<Span> pair_by_id(const parc::obs::TraceDump& dump,
                                           const TraceWindow& window,
                                           parc::obs::EventKind begin,
                                           parc::obs::EventKind end);

/// Scheduler-layer trace metrics of the pool named `pool`: queue wait
/// (kJobEnqueue→kExecBegin) and the share of its workers' time parked
/// (kPark→kUnpark on each "<pool>-w*" track).
void report_sched_trace(Report& r, const parc::obs::TraceDump& dump,
                        const TraceWindow& window, const std::string& pool,
                        std::size_t workers);

/// obs.dropped_events (must be 0) and obs.trace_overhead_share.
void report_trace_cost(Report& r, std::uint64_t dropped, double traced_s,
                       double untraced_s);

/// Write `dump` as a Chrome trace to `path` (no-op for an empty path).
void write_trace(const parc::obs::TraceDump& dump, const std::string& path);

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// sched.* counter metrics between two pool snapshots taken at quiescent
/// points (exact deltas).
void report_sched_counters(Report& r,
                           const parc::sched::WorkStealingPool::Stats& before,
                           const parc::sched::WorkStealingPool::Stats& after);

Report run_serve(const Options& opt, bool hot);
Report run_flow(const Options& opt);
Report run_tasks(const Options& opt);

}  // namespace parc_bench
