// tasks-wavefront: a blocked LCS dynamic program as a ptask dependence
// graph, spawned by one client thread with ptask::run_after.
//
// Block (i, j) of the DP table depends on its north (i-1, j) and west
// (i, j-1) neighbours. Bodies take about a microsecond, so the cost under
// test is spawn, dependence release (the finishing worker pushes the
// successor onto its own deque), stealing and parking. No serve or flow
// code runs.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"
#include "ptask/ptask.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace parc_bench {
namespace {

using parc::Stopwatch;
using parc::obs::EventKind;
using parc::ptask::Runtime;
using parc::ptask::TaskID;

constexpr std::size_t kLength = 16384;  ///< 512 x 512 blocks = 262,144 tasks
constexpr std::size_t kTracedLength = 8192;
/// Solved inside the trace session before its window opens (TraceWindow).
constexpr std::size_t kRegisterLength = 1024;
constexpr std::size_t kBlock = 32;
constexpr std::size_t kWorkers = 3;
/// Each run sets up and measures this many fresh runtimes; timed solves
/// fill an equal share of --seconds after each set-up (at least
/// kMinSolves each).
constexpr int kRounds = 3;
constexpr int kWarmSolves = 2;
constexpr int kMinSolves = 2;

/// Sequential LCS length (one rolling row): the oracle.
std::uint16_t lcs(const std::string& a, const std::string& b) {
  std::vector<std::uint16_t> row(b.size() + 1, 0);
  for (const char ai : a) {
    std::uint16_t diag = 0;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::uint16_t up = row[j];
      row[j] = ai == b[j - 1] ? static_cast<std::uint16_t>(diag + 1)
                              : std::max(up, row[j - 1]);
      diag = up;
    }
  }
  return row.back();
}

/// The blocked DP. Only block boundaries are stored: `north` holds the
/// bottom row of the latest block in each column, `west` the right column
/// of the latest block in each row band (each is read and rewritten by a
/// chain of blocks the dependences already order), and `corner` the
/// bottom-right value of every block, read by its south-east neighbour.
struct Wavefront {
  std::string a, b;
  std::size_t blocks = 0;  ///< per side
  std::uint16_t oracle = 0;
  std::vector<std::uint16_t> north, west, corner;
  /// Per block, the number of the last solve in which it ran after its
  /// north and west neighbours; a block run out of dependence order writes
  /// 0 instead. Accessed through relaxed atomic_refs, so an ordering bug is
  /// reported rather than being a data race.
  std::vector<std::uint32_t> ran;
  std::uint32_t solve_no = 0;  ///< 1 for the first solve

  Wavefront(std::size_t length, std::uint64_t seed)
      : blocks(length / kBlock),
        north(length),
        west(length),
        corner(blocks * blocks),
        ran(blocks * blocks) {
    parc::Rng rng(sub_seed(seed, 0));
    for (std::string* s : {&a, &b}) {
      s->resize(length);
      for (char& c : *s) c = "ACGT"[rng.below(4)];
    }
    oracle = lcs(a, b);
  }

  bool ran_this_solve(std::size_t bi, std::size_t bj) {
    return std::atomic_ref(ran[bi * blocks + bj])
               .load(std::memory_order_relaxed) == solve_no;
  }

  void block(std::size_t bi, std::size_t bj) {
    const bool in_order = (bi == 0 || ran_this_solve(bi - 1, bj)) &&
                          (bj == 0 || ran_this_solve(bi, bj - 1));
    const std::size_t r0 = bi * kBlock;
    const std::size_t c0 = bj * kBlock;
    std::array<std::uint16_t, kBlock + 1> row{};
    if (bi > 0 && bj > 0) row[0] = corner[(bi - 1) * blocks + bj - 1];
    if (bi > 0) std::copy_n(&north[c0], kBlock, &row[1]);
    for (std::size_t i = 0; i < kBlock; ++i) {
      const char ai = a[r0 + i];
      std::uint16_t diag = row[0];
      row[0] = bj > 0 ? west[r0 + i] : 0;
      for (std::size_t j = 1; j <= kBlock; ++j) {
        const std::uint16_t up = row[j];
        row[j] = ai == b[c0 + j - 1] ? static_cast<std::uint16_t>(diag + 1)
                                     : std::max(up, row[j - 1]);
        diag = up;
      }
      west[r0 + i] = row[kBlock];
    }
    std::copy_n(&row[1], kBlock, &north[c0]);
    corner[bi * blocks + bj] = row[kBlock];
    std::atomic_ref(ran[bi * blocks + bj])
        .store(in_order ? solve_no : 0, std::memory_order_relaxed);
  }
};

struct Solve {
  double wall_s = 0.0;
  double join_s = 0.0;  ///< last spawn returned -> final task done
  std::uint64_t tasks = 0;
};

Solve solve(Runtime& rt, Wavefront& w, CallSpans* spans) {
  ++w.solve_no;
  const std::size_t nb = w.blocks;
  std::vector<TaskID<void>> above(nb), row(nb);
  Stopwatch sw;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t bj = 0; bj < nb; ++bj) {
      auto body = [&w, bi, bj] { w.block(bi, bj); };
      row[bj] = timed(spans, [&] {
        using parc::ptask::run;
        using parc::ptask::run_after;
        if (bi == 0 && bj == 0) return run(rt, body);
        if (bi == 0) return run_after(rt, body, row[bj - 1]);
        if (bj == 0) return run_after(rt, body, above[bj]);
        return run_after(rt, body, above[bj], row[bj - 1]);
      });
    }
    std::swap(above, row);
  }
  const double spawned_s = sw.elapsed_s();
  above[nb - 1].wait();
  Solve out;
  out.wall_s = sw.elapsed_s();
  out.join_s = out.wall_s - spawned_s;
  out.tasks = nb * nb;
  require(above[nb - 1].status() == parc::ptask::TaskStatus::kDone,
          "the final block did not complete");
  require(std::all_of(w.ran.begin(), w.ran.end(),
                      [&](std::uint32_t s) { return s == w.solve_no; }),
          "a wavefront block did not run, or ran before its north or west "
          "neighbour");
  require(w.corner.back() == w.oracle, "wavefront LCS != sequential DP");
  return out;
}

Runtime::Config runtime_config() {
  Runtime::Config cfg;
  cfg.workers = kWorkers;
  return cfg;
}

struct Rig {
  Wavefront w;
  Runtime rt;
  Rig(std::size_t length, std::uint64_t seed)
      : w(length, seed), rt(runtime_config()) {
    for (int i = 0; i < kWarmSolves; ++i) solve(rt, w, nullptr);
  }
};

/// Side length at `scale` of the task count, whole blocks.
std::size_t side(std::size_t length, double scale) {
  const auto blocks = static_cast<std::size_t>(
      std::lround(static_cast<double>(length / kBlock) * std::sqrt(scale)));
  return std::max<std::size_t>(blocks, 2) * kBlock;
}

Report measure(const Options& opt) {
  Report r;
  const std::size_t length = side(kLength, opt.scale);
  std::vector<double> setup_s, solve_ms, mtask_s, join_ms;
  std::unique_ptr<Rig> rig;
  for (int round = 0; round < kRounds; ++round) {
    rig.reset();
    Stopwatch sw;
    rig = std::make_unique<Rig>(length, opt.seed);
    setup_s.push_back(sw.elapsed_s());
    const auto pool0 = rig->rt.pool().stats();
    const Stopwatch block;
    for (int k = 0; k < kMinSolves || block.elapsed_s() < opt.seconds / kRounds;
         ++k) {
      const Solve s = solve(rig->rt, rig->w, nullptr);
      solve_ms.push_back(s.wall_s * 1e3);
      mtask_s.push_back(static_cast<double>(s.tasks) / s.wall_s / 1e6);
      join_ms.push_back(s.join_s * 1e3);
      r.attempted += s.tasks;
    }
    if (round + 1 == kRounds) {
      report_sched_counters(r, pool0, rig->rt.pool().stats());
    }
  }
  r.metric("setup_s", "s", setup_s);
  r.metric("throughput", "Mitem/s", mtask_s);
  r.metric("latency_ms", "ms", solve_ms);
  r.diag_value("solves", "count", static_cast<double>(solve_ms.size()));
  r.diag_value("join_ms", "ms", median(join_ms));
  return r;
}

Report trace(const Options& opt) {
  Report r;
  Rig rig(side(kTracedLength, opt.scale), opt.seed);

  // Both solves carry the client-timed spans, so the overhead compares
  // like runs.
  const auto pool0 = rig.rt.pool().stats();
  CallSpans spans;
  const Solve untraced = solve(rig.rt, rig.w, &spans);
  report_sched_counters(r, pool0, rig.rt.pool().stats());
  spans.report(r, untraced.wall_s);

  CallSpans traced_spans;
  const std::size_t tasks = untraced.tasks;
  Wavefront small(kRegisterLength, opt.seed);
  parc::obs::TraceSession session({6 * (tasks + small.blocks * small.blocks) +
                                   (1 << 16)});
  // Registers every worker's trace buffer before the window opens.
  const Solve registering = solve(rig.rt, small, nullptr);
  const std::uint64_t t0 = now_ns();
  const Solve traced = solve(rig.rt, rig.w, &traced_spans);
  const std::uint64_t t1 = now_ns();
  const parc::obs::TraceDump dump = session.end();
  const TraceWindow window(dump, t0, t1);

  std::vector<double> ready_us, body_us;
  for (const Span& s : pair_by_id(dump, window, EventKind::kTaskReady,
                                  EventKind::kTaskStart)) {
    ready_us.push_back(s.us());
  }
  for (const Span& s : pair_by_id(dump, window, EventKind::kTaskStart,
                                  EventKind::kTaskFinish)) {
    body_us.push_back(s.us());
  }
  require(body_us.size() == tasks, "every traced task has a start and finish");
  r.layer("ptask.ready_wait_p50_us", "us", median(ready_us));
  r.layer("ptask.ready_wait_p99_us", "us", quantile(ready_us, 0.99));
  r.layer("ptask.body_p50_us", "us", median(body_us));
  r.layer("ptask.join_ms", "ms", traced.join_s * 1e3);
  r.layer("ptask.busy_share", "ratio",
          share(sum(body_us),
                traced.wall_s * 1e6 * static_cast<double>(kWorkers)));
  r.layer("ptask.ready_wait_share", "ratio",
          share(sum(ready_us), sum(ready_us) + sum(body_us)));
  report_sched_trace(r, dump, window, "ptask", kWorkers);
  report_trace_cost(r, dump.total_dropped(), traced.wall_s, untraced.wall_s);
  r.diag_value("trace_events", "count",
               static_cast<double>(dump.total_events()));
  r.attempted += untraced.tasks + registering.tasks + traced.tasks;
  write_trace(dump, opt.trace_file);
  return r;
}

}  // namespace

Report run_tasks(const Options& opt) {
  return opt.trace ? trace(opt) : measure(opt);
}

}  // namespace parc_bench
