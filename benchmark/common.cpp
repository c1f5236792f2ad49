#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/chrome_trace.hpp"

namespace parc_bench {

void Report::metric(std::string name, std::string unit,
                    const std::vector<double>& samples) {
  metrics.push_back({std::move(name), std::move(unit), median(samples),
                     quantile(samples, 0.25), quantile(samples, 0.75),
                     samples.size()});
}

void Report::layer(std::string name, std::string unit, double value) {
  layers.push_back({std::move(name), std::move(unit), value, value, value, 1});
}

void Report::diag_value(std::string name, std::string unit, double value) {
  diag.push_back({std::move(name), std::move(unit), value, value, value, 1});
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : sum(xs) / static_cast<double>(xs.size());
}

HistogramDelta::HistogramDelta(const parc::LogHistogram& before,
                               const parc::LogHistogram& after)
    : layout(after), counts(after.bucket_count()) {
  require(before.same_layout(after), "histogram snapshots differ in layout");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    require(after.bucket(i) >= before.bucket(i),
            "histogram snapshot went backwards");
    counts[i] = after.bucket(i) - before.bucket(i);
    total += counts[i];
  }
}

void HistogramDelta::add(const HistogramDelta& other) {
  require(layout.same_layout(other.layout), "histograms differ in layout");
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  total += other.total;
}

double HistogramDelta::percentile(double p) const {
  if (total == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
      const double lo = layout.bucket_low(i);
      const double hi = layout.bucket_high(i);
      if (lo <= 0.0) return hi * frac;
      return lo * std::pow(hi / lo, frac);
    }
    cum += c;
  }
  return layout.bucket_high(counts.size() - 1);
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  require(getrusage(RUSAGE_SELF, &usage) == 0, "getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

void CallSpans::report(Report& r, double wall_s) const {
  r.layer("api.call_ns", "ns", mean(ns));
  r.layer("api.call_p99_ns", "ns", quantile(ns, 0.99));
  r.layer("api.busy_share", "ratio", share(sum(ns), wall_s * 1e9));
}

std::vector<Span> pair_by_id(const parc::obs::TraceDump& dump,
                             const TraceWindow& window,
                             parc::obs::EventKind begin,
                             parc::obs::EventKind end) {
  std::unordered_map<std::uint64_t, std::uint64_t> begins;
  for (const auto& track : dump.tracks) {
    for (const auto& e : track.events) {
      if (e.kind == begin && e.t_ns >= window.begin_ns &&
          e.t_ns <= window.end_ns) {
        begins.try_emplace(e.id, e.t_ns);
      }
    }
  }
  std::vector<Span> out;
  out.reserve(begins.size());
  for (const auto& track : dump.tracks) {
    for (const auto& e : track.events) {
      if (e.kind != end) continue;
      const auto it = begins.find(e.id);
      if (it == begins.end() || e.t_ns < it->second) continue;
      out.push_back({e.id, it->second, e.t_ns});
      begins.erase(it);
    }
  }
  return out;
}

namespace {

double parked_ns(const parc::obs::TraceDump& dump, const TraceWindow& window,
                 const std::string& pool) {
  const std::string prefix = pool + "-w";
  const auto clipped = [&](std::uint64_t from, std::uint64_t to) {
    from = std::max(from, window.begin_ns);
    to = std::min(to, window.end_ns);
    return to > from ? static_cast<double>(to - from) : 0.0;
  };
  double total = 0.0;
  for (const auto& track : dump.tracks) {
    if (track.name.rfind(prefix, 0) != 0) continue;
    bool parked = false;
    std::uint64_t since = 0;
    for (const auto& e : track.events) {
      if (e.kind == parc::obs::EventKind::kPark) {
        parked = true;
        since = e.t_ns;
      } else if (e.kind == parc::obs::EventKind::kUnpark && parked) {
        total += clipped(since, e.t_ns);
        parked = false;
      }
    }
    if (parked) total += clipped(since, window.end_ns);
  }
  return total;
}

}  // namespace

void report_sched_trace(Report& r, const parc::obs::TraceDump& dump,
                        const TraceWindow& window, const std::string& pool,
                        std::size_t workers) {
  using parc::obs::EventKind;
  std::vector<double> wait_us;
  for (const Span& s : pair_by_id(dump, window, EventKind::kJobEnqueue,
                                  EventKind::kExecBegin)) {
    wait_us.push_back(s.us());
  }
  std::vector<double> run_us;
  for (const Span& s : pair_by_id(dump, window, EventKind::kExecBegin,
                                  EventKind::kExecEnd)) {
    run_us.push_back(s.us());
  }
  r.layer("sched.queue_wait_p50_us", "us", quantile(wait_us, 0.5));
  r.layer("sched.queue_wait_p99_us", "us", quantile(wait_us, 0.99));
  r.layer("sched.queue_wait_share", "ratio",
          share(sum(wait_us), sum(wait_us) + sum(run_us)));
  r.layer("sched.parked_share", "ratio",
          share(parked_ns(dump, window, pool),
                window.seconds() * 1e9 * static_cast<double>(workers)));
}

void report_sched_counters(Report& r,
                           const parc::sched::WorkStealingPool::Stats& before,
                           const parc::sched::WorkStealingPool::Stats& after) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double jobs = delta(after.executed, before.executed) +
                      delta(after.helped, before.helped);
  const double local = delta(after.continuation_local_pushed,
                             before.continuation_local_pushed);
  const double hinted =
      local +
      delta(after.continuation_inject_fallback,
            before.continuation_inject_fallback) +
      delta(after.deque_overflows, before.deque_overflows);
  r.layer("sched.steals_per_1k", "1/1k",
          1e3 * share(delta(after.stolen, before.stolen), jobs));
  r.layer("sched.parks_per_1k", "1/1k",
          1e3 * share(delta(after.parked, before.parked), jobs));
  r.layer("sched.steal_fails_per_1k", "1/1k",
          1e3 * share(delta(after.steal_fails, before.steal_fails), jobs));
  r.layer("sched.helped_share", "ratio",
          share(delta(after.helped, before.helped), jobs));
  r.layer("sched.local_push_share", "ratio", share(local, hinted));
}

void report_trace_cost(Report& r, std::uint64_t dropped, double traced_s,
                       double untraced_s) {
  require(dropped == 0, "the traced run dropped trace events");
  r.layer("obs.dropped_events", "count", static_cast<double>(dropped));
  r.layer("obs.trace_overhead_share", "ratio",
          share(traced_s, untraced_s) - 1.0);
}

void write_trace(const parc::obs::TraceDump& dump, const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path);
  parc::obs::write_chrome_trace(dump, os);
  require(os.good(), "could not write the trace to " + path);
}

}  // namespace parc_bench
