// serve-hot and serve-cold: serve::Server::offer driven by one client
// thread at a fixed load.
//
// Two servers share one configuration (bench_serve's, with 3 workers, one
// shard and 4 healthy replicas) and differ only in admission: `cap` has no
// gates and measures closed-loop capacity; `open` has a token bucket at
// 1.2x the fixed open-loop rate. Both are warmed in set-up, so timed passes
// start from a filled cache and warm pool freelists.
#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "support/clock.hpp"

namespace parc_bench {
namespace {

using parc::Stopwatch;
using parc::obs::EventKind;
using parc::serve::LoadGenerator;
using parc::serve::Request;
using parc::serve::Server;
using parc::serve::ServerConfig;
using parc::serve::WorkloadConfig;

struct Shape {
  std::uint64_t keyspace;
  double key_skew;
  double open_rate;                ///< fixed open-loop load, requests/s
  std::uint64_t warm_requests;     ///< closed-loop warm-up
  /// Open-loop percentile reported as latency_ms: the typical latency of a
  /// request that reaches a backend.
  double latency_percentile;
};

// hot: Zipf 1.1 over 2^16 keys per kind, so about 80% of requests are
// answered inline from the cache and the ingress thread is the bottleneck.
// 700k/s is roughly half of the measured closed-loop capacity. Its p50 is
// an inline cache answer (under a microsecond) that mostly measures how
// late the client runs, and it moved 2x between runs of one commit; p90
// falls among the ~18% of requests that reach a backend.
constexpr Shape kHot{1ull << 16, 1.1, 700e3, 1'000'000, 90.0};
// cold: unique keys, so every request misses, routes, batches and
// executes; 160k/s is roughly half of capacity.
constexpr Shape kCold{1ull << 40, 0.0, 160e3, 300'000, 50.0};

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kWindow = 512;     ///< closed-loop requests in flight
/// Each run sets up this many fresh server pairs and measures each in
/// kSegments alternating (capacity pass, open-loop segment) pairs. The
/// speed of a shared host drifts over seconds, so many short samples spread
/// over the run, reduced to medians, repeat far better than a few long ones.
constexpr int kRounds = 3;
constexpr int kSegments = 5;
constexpr double kOpenWarmS = 0.3;       ///< open-loop warm-up schedule
constexpr double kTracedRequests = 300e3;
constexpr double kOverheadRequests = 100e3;
// Traffic run inside a trace session before its window opens, so every
// thread has registered its trace buffer (see TraceWindow).
constexpr std::uint64_t kRegisterRequests = 10'000;
constexpr double kRegisterS = 0.02;
constexpr const char* kOpenPool = "serve-open";

ServerConfig server_config(const char* pool, double admit_rate,
                           std::uint64_t seed) {
  ServerConfig cfg;
  cfg.pool.name = pool;
  cfg.pool.num_threads = kWorkers;
  cfg.pool.shards = 1;
  cfg.cache_capacity = 1ull << 14;
  cfg.cache_stripes = 16;
  cfg.batch_max = 32;
  cfg.backend.img_source_dim = 16;
  cfg.backend.img_thumb_dim = 8;
  cfg.backend.text_chunk_bytes = 2048;
  cfg.backend.net_spin_iters = 2000;
  cfg.backend.pool.acquire_timeout_s = 10.0;
  cfg.router.replicas = 4;
  cfg.router.seed = seed;
  // The open loop runs at about half of capacity, so a queue bound only
  // fires when the host stalls the process for tens of milliseconds; it is
  // set high enough that such a stall shows as latency, not as shedding.
  cfg.admission = admit_rate > 0.0
                      ? parc::serve::AdmissionConfig{admit_rate, 256.0, 1 << 16}
                      : parc::serve::AdmissionConfig{0.0, 256.0, 0};
  return cfg;
}

WorkloadConfig workload(const Shape& shape, double rate, std::uint64_t seed) {
  WorkloadConfig w;
  w.arrival_rate = rate;
  w.keyspace = shape.keyspace;
  w.key_skew = shape.key_skew;
  w.seed = seed;
  return w;
}

/// The client's own count of offer() outcomes: the oracle the server's
/// counters are checked against.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t shed = 0;
  std::uint64_t hit = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t dispatched = 0;

  void add(Server::Outcome o) {
    ++offered;
    switch (o) {
      case Server::Outcome::shed: ++shed; break;
      case Server::Outcome::hit: ++hit; break;
      case Server::Outcome::coalesced: ++coalesced; break;
      case Server::Outcome::dispatched: ++dispatched; break;
    }
  }
};

/// bench_serve's conservation identities plus the client's tally, on the
/// server's lifetime totals at a drained point.
void check_server(const Server& server, const Tally& t, const char* where) {
  const Server::Stats s = server.stats();
  const std::string at = std::string(" (") + where + ")";
  require(s.in_flight == 0, "requests in flight after drain" + at);
  require(s.offered ==
              s.admitted + s.shed_rate + s.shed_queue + s.shed_deadline,
          "offered != admitted + shed" + at);
  require(s.admitted == s.completed + s.failed,
          "admitted != completed + failed" + at);
  require(s.admitted ==
              s.hits_inline + s.negative_hits + s.coalesced + s.executed,
          "admitted != hits + coalesced + executed" + at);
  require(s.cache.hits == s.hits_inline + s.negative_hits,
          "cache hits != ingress hits" + at);
  require(s.cache.misses == s.executed + s.coalesced,
          "cache misses != executed + coalesced" + at);
  std::uint64_t offered_by = 0, admitted_by = 0, shed_by = 0;
  for (std::size_t p = 0; p < parc::serve::kPriorities; ++p) {
    offered_by += s.offered_by[p];
    admitted_by += s.admitted_by[p];
    shed_by += s.shed_by[p];
  }
  require(offered_by == s.offered && admitted_by == s.admitted &&
              shed_by == s.shed_rate + s.shed_queue + s.shed_deadline,
          "per-priority splits do not sum to the totals" + at);
  require(s.offered == t.offered && s.hits_inline + s.negative_hits == t.hit &&
              s.coalesced == t.coalesced && s.executed == t.dispatched &&
              s.shed_rate + s.shed_queue + s.shed_deadline == t.shed,
          "server counters disagree with the client's outcome tally" + at);
}

/// Open-loop request stream whose next request is held between phases, so
/// each phase can shift the schedule to start at the current time.
struct OpenStream {
  LoadGenerator gen;
  Request next;
  explicit OpenStream(const WorkloadConfig& w) : gen(w), next(gen.next()) {}
};

struct Rig {
  Rig(const Shape& shape, std::uint64_t seed)
      : cap(std::make_unique<Server>(
            server_config("serve-cap", 0.0, sub_seed(seed, 1)))),
        open(std::make_unique<Server>(server_config(
            kOpenPool, 1.2 * shape.open_rate, sub_seed(seed, 1)))),
        closed(workload(shape, 0.0, sub_seed(seed, 2))),
        stream(workload(shape, shape.open_rate, sub_seed(seed, 3))) {}

  std::unique_ptr<Server> cap;   ///< closed loop, no admission gates
  std::unique_ptr<Server> open;  ///< open loop at the fixed rate
  LoadGenerator closed;
  OpenStream stream;
  Tally cap_tally;
  Tally open_tally;
};

/// Closed loop: keep kWindow requests in flight (the client helps the pool
/// while it waits) until `max_requests` are offered or `max_s` has passed.
/// Returns the wall time including the final drain.
double closed_loop(Server& server, LoadGenerator& gen, Tally& tally,
                   std::uint64_t max_requests, double max_s) {
  Stopwatch sw;
  for (std::uint64_t i = 0; i < max_requests; ++i) {
    if (i % 256 == 0 && sw.elapsed_s() >= max_s) break;
    while (server.in_flight() >= kWindow) {
      server.flush();  // partial batches must reach the pool before waiting
      server.pool().help_while([&] { return server.in_flight() >= kWindow; });
    }
    Request req = gen.next();
    req.arrival_s = server.now_s();
    tally.add(server.offer(req));
  }
  server.drain();
  return sw.elapsed_s();
}

struct OpenRun {
  double wall_s = 0.0;      ///< first scheduled arrival to drained
  double late_max_s = 0.0;  ///< worst lag of the client behind schedule
};

/// Open loop: offer every request of the next `schedule_s` seconds of the
/// stream at its scheduled time (latency counts from that time).
OpenRun open_loop(Server& server, OpenStream& stream, Tally& tally,
                  double schedule_s, CallSpans* spans) {
  const double start = server.now_s() + 1e-3;
  const double shift = start - stream.next.arrival_s;
  const double end = stream.next.arrival_s + schedule_s;
  OpenRun out;
  while (stream.next.arrival_s < end) {
    Request req = stream.next;
    req.arrival_s += shift;
    double now = server.now_s();
    if (now < req.arrival_s) {
      server.flush();  // idle: don't let partial batches go stale
      while ((now = server.now_s()) < req.arrival_s) {
      }
    } else {
      out.late_max_s = std::max(out.late_max_s, now - req.arrival_s);
    }
    tally.add(timed(spans, [&] { return server.offer(req); }));
    stream.next = stream.gen.next();
  }
  server.drain();
  out.wall_s = server.now_s() - start;
  return out;
}

std::unique_ptr<Rig> set_up(const Shape& shape, const Options& opt) {
  auto rig = std::make_unique<Rig>(shape, opt.seed);
  rig->cap->start();
  rig->open->start();
  closed_loop(*rig->cap, rig->closed, rig->cap_tally,
              static_cast<std::uint64_t>(
                  static_cast<double>(shape.warm_requests) * opt.scale),
              std::numeric_limits<double>::infinity());
  check_server(*rig->cap, rig->cap_tally, "closed-loop warm-up");
  open_loop(*rig->open, rig->stream, rig->open_tally, kOpenWarmS * opt.scale,
            nullptr);
  check_server(*rig->open, rig->open_tally, "open-loop warm-up");
  return rig;
}

std::uint64_t errors(const Server::Stats& a, const Server::Stats& b) {
  return (b.shed_rate + b.shed_queue + b.shed_deadline + b.failed) -
         (a.shed_rate + a.shed_queue + a.shed_deadline + a.failed);
}

std::vector<std::uint64_t> routed_per_replica(const Server& server) {
  std::vector<std::uint64_t> out;
  for (const auto& r : server.router().snapshot(server.now_s())) {
    out.push_back(r.routed);
  }
  return out;
}

/// Counters of one server at a drained point; two of them bracket a phase.
struct CounterSnapshot {
  Server::Stats serve;
  parc::sched::WorkStealingPool::Stats pool;
  std::vector<std::uint64_t> routed;

  explicit CounterSnapshot(Server& s)
      : serve(s.stats()),
        pool(s.pool().stats()),
        routed(routed_per_replica(s)) {}
};

void report_counters(Report& r, const CounterSnapshot& a,
                     const CounterSnapshot& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const Server::Stats& s0 = a.serve;
  const Server::Stats& s1 = b.serve;
  const double admitted = d(s0.admitted, s1.admitted);
  r.layer("serve.hit_share", "ratio",
          share(d(s0.hits_inline, s1.hits_inline), admitted));
  r.layer("serve.coalesce_share", "ratio",
          share(d(s0.coalesced, s1.coalesced), admitted));
  r.layer("serve.shed_share", "ratio",
          share(d(s0.shed_rate + s0.shed_queue + s0.shed_deadline,
                  s1.shed_rate + s1.shed_queue + s1.shed_deadline),
                d(s0.offered, s1.offered)));
  r.layer("serve.evictions_per_req", "1/req",
          share(d(s0.cache.evictions, s1.cache.evictions), admitted));
  r.layer("serve.batch_mean", "req/batch",
          share(d(s0.executed, s1.executed), d(s0.batches, s1.batches)));
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (std::size_t i = 0; i < b.routed.size(); ++i) {
    const double n = d(a.routed[i], b.routed[i]);
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  r.layer("serve.replica_imbalance", "ratio", share(hi, lo));
  report_sched_counters(r, a.pool, b.pool);
}

/// Per-request layer times from the traced open loop's kServe* events.
void report_serve_trace(Report& r, const parc::obs::TraceDump& dump,
                        const TraceWindow& window) {
  std::unordered_map<std::uint64_t, std::uint64_t> kind_of;
  for (const auto& track : dump.tracks) {
    for (const auto& e : track.events) {
      if (e.kind == EventKind::kServeArrive) kind_of.emplace(e.id, e.arg);
    }
  }
  std::array<std::vector<double>, parc::serve::kRequestKinds> exec_us;
  double exec_total = 0.0;
  for (const Span& s : pair_by_id(dump, window, EventKind::kServeExecBegin,
                                  EventKind::kServeExecEnd)) {
    const auto it = kind_of.find(s.id);
    if (it == kind_of.end() || it->second >= exec_us.size()) continue;
    exec_us[it->second].push_back(s.us());
    exec_total += s.us();
  }
  std::vector<double> pre_us, reply_us;
  for (const Span& s : pair_by_id(dump, window, EventKind::kServeArrive,
                                  EventKind::kServeExecBegin)) {
    pre_us.push_back(s.us());
  }
  for (const Span& s :
       pair_by_id(dump, window, EventKind::kServeExecEnd,
                  EventKind::kServeDone)) {
    reply_us.push_back(s.us());
  }
  for (std::size_t k = 0; k < exec_us.size(); ++k) {
    const auto kind = static_cast<parc::serve::RequestKind>(k);
    r.layer("serve.exec_p50_us." + parc::serve::to_string(kind), "us",
            median(exec_us[k]));
  }
  r.layer("serve.pre_exec_p50_us", "us", median(pre_us));
  r.layer("serve.pre_exec_p99_us", "us", quantile(pre_us, 0.99));
  r.layer("serve.reply_p50_us", "us", median(reply_us));
  r.layer("serve.backend_busy_share", "ratio",
          share(exec_total,
                window.seconds() * 1e6 * static_cast<double>(kWorkers)));
  r.layer("serve.wait_share", "ratio",
          share(sum(pre_us), sum(pre_us) + exec_total + sum(reply_us)));
  report_sched_trace(r, dump, window, kOpenPool, kWorkers);
}

Report measure(const Shape& shape, const Options& opt) {
  Report r;
  std::vector<double> setup_s, capacity, latency_ms;
  std::optional<HistogramDelta> lat;  ///< every open-loop segment pooled
  std::uint64_t offered = 0, errs = 0;
  double open_s = 0.0, late_max_s = 0.0;
  const double segment_s = opt.seconds / (kRounds * kSegments);
  std::unique_ptr<Rig> rig;
  for (int round = 0; round < kRounds; ++round) {
    rig.reset();
    Stopwatch sw;
    rig = set_up(shape, opt);
    setup_s.push_back(sw.elapsed_s());
    for (int seg = 0; seg < kSegments; ++seg) {
      // Capacity: a closed-loop pass for a third of the segment.
      const Server::Stats s0 = rig->cap->stats();
      const double wall =
          closed_loop(*rig->cap, rig->closed, rig->cap_tally,
                      std::numeric_limits<std::uint64_t>::max(), segment_s / 3);
      check_server(*rig->cap, rig->cap_tally, "capacity pass");
      const Server::Stats s1 = rig->cap->stats();
      capacity.push_back(static_cast<double>(s1.admitted - s0.admitted) /
                         wall / 1e6);
      r.attempted += s1.offered - s0.offered;
      r.failed += errors(s0, s1);

      // Open loop at the fixed rate for the rest of the segment.
      const CounterSnapshot before(*rig->open);
      const parc::LogHistogram hist0 = rig->open->latency_histogram();
      const OpenRun run = open_loop(*rig->open, rig->stream, rig->open_tally,
                                    segment_s * 2 / 3, nullptr);
      check_server(*rig->open, rig->open_tally, "open loop");
      const CounterSnapshot after(*rig->open);
      const HistogramDelta seg_lat(hist0, rig->open->latency_histogram());
      latency_ms.push_back(seg_lat.percentile(shape.latency_percentile) * 1e3);
      if (lat) {
        lat->add(seg_lat);
      } else {
        lat = seg_lat;
      }
      offered += after.serve.offered - before.serve.offered;
      errs += errors(before.serve, after.serve);
      open_s += run.wall_s;
      late_max_s = std::max(late_max_s, run.late_max_s);
      if (round + 1 == kRounds && seg + 1 == kSegments) {
        report_counters(r, before, after);
      }
    }
  }
  r.attempted += offered;
  r.failed += errs;

  r.metric("setup_s", "s", setup_s);
  r.metric("throughput", "Mitem/s", capacity);
  r.metric("latency_ms", "ms", latency_ms);
  r.diag_value("p50_ms", "ms", lat->percentile(50) * 1e3);
  r.diag_value("p90_ms", "ms", lat->percentile(90) * 1e3);
  r.diag_value("p99_ms", "ms", lat->percentile(99) * 1e3);
  r.diag_value("p999_ms", "ms", lat->percentile(99.9) * 1e3);
  r.diag_value("latency_samples", "count", static_cast<double>(lat->total));
  r.diag_value("gen_late_max_ms", "ms", late_max_s * 1e3);
  r.diag_value("offered_rate", "req/s", static_cast<double>(offered) / open_s);
  r.diag_value("error_share", "ratio",
               share(static_cast<double>(errs), static_cast<double>(offered)));
  return r;
}

Report trace(const Shape& shape, const Options& opt) {
  Report r;
  auto rig = set_up(shape, opt);
  const auto overhead_n =
      static_cast<std::uint64_t>(kOverheadRequests * opt.scale);
  const double traced_n = kTracedRequests * opt.scale;
  // Trace buffer slots per thread: the ingress thread emits up to ~6
  // events per request.
  const auto capacity = [](double requests) {
    return std::max<std::size_t>(1 << 16,
                                 static_cast<std::size_t>(requests * 8));
  };
  const auto closed = [&](std::uint64_t n) {
    return closed_loop(*rig->cap, rig->closed, rig->cap_tally, n,
                       std::numeric_limits<double>::infinity());
  };

  // Tracing cost on the closed loop: the same request count with and
  // without a live session.
  const double untraced_s = closed(overhead_n);
  std::uint64_t dropped = 0;
  double traced_s = 0.0;
  {
    parc::obs::TraceSession session(
        {capacity(static_cast<double>(overhead_n + kRegisterRequests))});
    closed(kRegisterRequests);
    traced_s = closed(overhead_n);
    dropped += session.end().total_dropped();
  }
  check_server(*rig->cap, rig->cap_tally, "traced closed loop");
  r.attempted += 2 * overhead_n + kRegisterRequests;
  rig->cap.reset();  // its workers' trace buffers die with them

  // Untraced open loop: exact counters and client-timed offer().
  const CounterSnapshot before(*rig->open);
  CallSpans spans;
  spans.reserve(static_cast<std::size_t>(traced_n * 1.1));
  const OpenRun run = open_loop(*rig->open, rig->stream, rig->open_tally,
                                traced_n / shape.open_rate, &spans);
  check_server(*rig->open, rig->open_tally, "untraced open loop");
  const CounterSnapshot after(*rig->open);
  report_counters(r, before, after);
  spans.report(r, run.wall_s);

  // Traced open loop: per-request layer times from kServe* events.
  parc::obs::TraceSession session(
      {capacity(traced_n + kRegisterS * shape.open_rate)});
  open_loop(*rig->open, rig->stream, rig->open_tally, kRegisterS, nullptr);
  const std::uint64_t t0 = now_ns();
  open_loop(*rig->open, rig->stream, rig->open_tally,
            traced_n / shape.open_rate, nullptr);
  const std::uint64_t t1 = now_ns();
  const parc::obs::TraceDump dump = session.end();
  check_server(*rig->open, rig->open_tally, "traced open loop");
  const Server::Stats end = rig->open->stats();
  r.attempted += end.offered - before.serve.offered;
  r.failed += errors(before.serve, end);
  dropped += dump.total_dropped();
  report_serve_trace(r, dump, TraceWindow(dump, t0, t1));
  report_trace_cost(r, dropped, traced_s, untraced_s);
  r.diag_value("trace_events", "count",
               static_cast<double>(dump.total_events()));
  write_trace(dump, opt.trace_file);
  return r;
}

}  // namespace

Report run_serve(const Options& opt, bool hot) {
  const Shape& shape = hot ? kHot : kCold;
  return opt.trace ? trace(shape, opt) : measure(shape, opt);
}

}  // namespace parc_bench
