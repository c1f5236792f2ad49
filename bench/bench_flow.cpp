// bench_flow: a million elements through the channel substrate (ISSUE 8).
//
// Phases:
//   1. Pipesort — a streaming mergesort on flow::Pipeline: a run-builder
//      stage sorts fixed-size runs, then a cascade of pair-merge stages
//      (each holding one run, merging it with the next, flush() emitting
//      the leftover) collapses them to a single sorted stream. Every stage
//      is stateful-with-flush, so every stage is a materialized channel
//      boundary and the whole sort runs as a 10-thread dataflow with exact
//      conservation asserted (pushed == popped + dropped == n, output ==
//      std::sort oracle).
//   2. A traced pipesort (16k elements) — zero-drop asserted, per-stage
//      occupancy/blocked-time table printed, kChanPush == kChanPop checked,
//      the trace rebuilt into a task DAG with flow::build_flow_dag and
//      replayed through sim::simulate; full mode also writes the Chrome
//      trace (chan#N occupancy counter tracks) to flow_pipesort_trace.json.
//   3. A live-search feed — a generated text corpus streamed file-by-file
//      through a parallel search stage whose results land on a bounded
//      gui::EventLoop (the "matches appear while the search runs" UX);
//      ground-truth match counts and EventLoop queue conservation asserted.
//   4. A two-thread channel micro — 2M ints from one thread to another
//      through capacity 1024, in ns per element: a bare Lamport ring (the
//      floor), the SPSC Channel, and the SPSC Channel while 8 bystander
//      threads sit parked on other, empty channels (parked threads share
//      the stdlib's futex waiter table with the channel's epoch words).
//      Only exact counts are gated: pushed == popped == N and the sum.
//
// --json: CI smoke mode. Same phases, same assertion gates (the pipesort
// still moves the full million elements — that *is* the acceptance bar),
// writes BENCH_flow.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "flow/flow.hpp"
#include "gui/gui.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"
#include "support/clock.hpp"
#include "support/table.hpp"
#include "text/text.hpp"

namespace parc::flow {
namespace {

// ---------------------------------------------------------------------------
// Pipesort stages.
// ---------------------------------------------------------------------------

/// Accumulate `run` elements, sort, emit as one run; flush() the remainder.
struct RunBuilder {
  std::size_t run;
  std::vector<int> acc;

  std::optional<std::vector<int>> operator()(int x) {
    if (acc.capacity() < run) acc.reserve(run);
    acc.push_back(x);
    if (acc.size() < run) return std::nullopt;
    std::sort(acc.begin(), acc.end());
    std::vector<int> out;
    out.swap(acc);
    return out;
  }
  std::optional<std::vector<int>> flush() {
    if (acc.empty()) return std::nullopt;
    std::sort(acc.begin(), acc.end());
    std::vector<int> out;
    out.swap(acc);
    return out;
  }
};

/// Hold one sorted run; merge it with the next and emit. An odd run count
/// leaves one run held, which flush() passes through — so a cascade of
/// these halves the run count per stage.
struct PairMerge {
  std::vector<int> held;
  bool has = false;

  std::optional<std::vector<int>> operator()(std::vector<int> next) {
    if (!has) {
      held = std::move(next);
      has = true;
      return std::nullopt;
    }
    std::vector<int> out;
    out.reserve(held.size() + next.size());
    std::merge(held.begin(), held.end(), next.begin(), next.end(),
               std::back_inserter(out));
    held.clear();
    has = false;
    return out;
  }
  std::optional<std::vector<int>> flush() {
    if (!has) return std::nullopt;
    has = false;
    return std::move(held);
  }
};

StageOptions named(const char* n) {
  StageOptions o;
  o.name = n;
  return o;
}

struct SortRun {
  std::vector<int> sorted;
  double elapsed_s = 0.0;
  ChannelStats source;
  PipelineStats stages;
  std::size_t stage_count = 0;
};

/// Sort `data` through the run-builder + 8-deep pair-merge cascade. Eight
/// merges collapse up to 256 runs, so run_len must satisfy
/// ceil(n / run_len) <= 256.
SortRun pipesort(const std::vector<int>& data, std::size_t run_len) {
  PipelineOptions po;
  po.capacity = 1024;
  po.single_producer = true;
  auto p = pipeline<int>(po)
               .then(stage(RunBuilder{run_len, {}}, named("runs")))
               .then(stage(PairMerge{}, named("merge0")))
               .then(stage(PairMerge{}, named("merge1")))
               .then(stage(PairMerge{}, named("merge2")))
               .then(stage(PairMerge{}, named("merge3")))
               .then(stage(PairMerge{}, named("merge4")))
               .then(stage(PairMerge{}, named("merge5")))
               .then(stage(PairMerge{}, named("merge6")))
               .then(stage(PairMerge{}, named("merge7")))
               .collect();
  Stopwatch sw;
  for (int x : data) {
    PARC_CHECK(p.push(x));
  }
  std::vector<std::vector<int>> runs = p.wait();
  SortRun out;
  out.elapsed_s = sw.elapsed_s();
  out.source = p.source_stats();
  out.stages = p.stats();
  out.stage_count = p.stage_count();

  // Conservation, end to end: the source channel saw every element exactly
  // once, nothing was dropped, and the cascade collapsed to a single run.
  PARC_CHECK_MSG(out.source.pushed == data.size(), "source saw every element");
  PARC_CHECK_MSG(out.source.popped == data.size(), "source fully drained");
  PARC_CHECK_MSG(out.source.dropped == 0, "clean run drops nothing");
  PARC_CHECK_MSG(p.swept_dropped() == 0, "no stragglers after join");
  PARC_CHECK_MSG(runs.size() == 1, "cascade must collapse to one run");
  out.sorted = std::move(runs.front());
  PARC_CHECK_MSG(out.sorted.size() == data.size(),
                 "conservation: every element sorted");
  return out;
}

void print_stage_table(const char* title, const PipelineStats& ps) {
  Table t(title);
  t.columns({"stage", "par", "inbox cap", "high water", "blocked(prod) ms",
             "blocked(cons) ms"});
  for (const StageStats& s : ps.stages) {
    t.add_row()
        .cell(s.name)
        .cell(static_cast<double>(s.parallelism), 0)
        .cell(static_cast<double>(s.input.capacity), 0)
        .cell(static_cast<double>(s.input.high_water), 0)
        .cell(static_cast<double>(s.input.producer_blocked_ns) / 1e6, 1)
        .cell(static_cast<double>(s.input.consumer_blocked_ns) / 1e6, 1);
  }
  bench::emit(t);
}

// ---------------------------------------------------------------------------
// Phase 1+2: the million-element sort, then a traced+replayed small one.
// ---------------------------------------------------------------------------

std::vector<int> make_data(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> data(n);
  for (auto& x : data) x = static_cast<int>(rng() & 0x7fffffff);
  return data;
}

double run_pipesort_million(bench::JsonReport& report) {
  constexpr std::size_t kN = 1'000'000;
  constexpr std::size_t kRun = 4096;  // 245 runs -> 8 merge stages collapse
  const std::vector<int> data = make_data(kN, 20260808);

  SortRun r = pipesort(data, kRun);

  std::vector<int> oracle = data;
  std::sort(oracle.begin(), oracle.end());
  PARC_CHECK_MSG(r.sorted == oracle, "pipesort output == std::sort oracle");

  const double melem_s = static_cast<double>(kN) / r.elapsed_s / 1e6;
  std::printf("pipesort: %zu elements, %zu stages, %.3f s (%.2f Melem/s)\n",
              kN, r.stage_count, r.elapsed_s, melem_s);
  print_stage_table("Pipesort per-stage backpressure (1M elements)",
                    r.stages);

  // Throughput envelope: generous for a loaded 1-core CI container — the
  // gate exists to catch order-of-magnitude regressions (a spinning or
  // serialized substrate), not to benchmark the host.
  PARC_CHECK_MSG(melem_s > 0.2, "pipesort throughput envelope (0.2 Melem/s)");
  report.add("pipesort_ns_per_elem", r.elapsed_s * 1e9 / kN);
  return melem_s;
}

void run_traced_replay(bench::JsonReport& report, bool json_only,
                       const std::string& trace_path) {
  constexpr std::size_t kN = 16384;
  constexpr std::size_t kRun = 512;  // 32 runs
  const std::vector<int> data = make_data(kN, 7);

  obs::TraceSession session(obs::TraceConfig{std::size_t{1} << 19});
  SortRun r = pipesort(data, kRun);
  const obs::TraceDump dump = session.end();

  PARC_CHECK_MSG(dump.total_dropped() == 0,
                 "traced pipesort must not drop events");
  const std::size_t pushes = dump.count_kind(obs::EventKind::kChanPush);
  const std::size_t pops = dump.count_kind(obs::EventKind::kChanPop);
  PARC_CHECK_MSG(pushes == pops, "every traced push has its traced pop");

  const FlowReplay replay = build_flow_dag(dump);
  PARC_CHECK(replay.pushes == pushes);
  PARC_CHECK_MSG(replay.channels == 10, "source + 9 stage inboxes");
  std::printf(
      "\ntraced pipesort: %zu push/%zu pop events over %zu channels, "
      "%zu source / %zu stage / %zu sink units\n",
      pushes, pops, replay.channels, replay.source_units, replay.stage_units,
      replay.sink_units);

  Table t("Pipesort replay on simulated machines (traced 16k-element run)");
  t.columns({"cores", "makespan ms", "speedup", "efficiency"});
  sim::SweepOptions sweep_opts;
  sweep_opts.cores = {1, 4, 16};
  sweep_opts.machine.name = "sim";
  const sim::SweepTable table = sim::sweep(replay.dag, sweep_opts);
  for (const sim::SweepPoint& point : table.points) {
    PARC_CHECK(point.outcome.makespan_s > 0.0);
    t.add_row()
        .cell(static_cast<double>(point.cores), 0)
        .cell(point.outcome.makespan_s * 1e3, 3)
        .cell(point.outcome.speedup, 2)
        .cell(point.outcome.efficiency, 3);
  }
  report.add("replay_speedup_p4_x1000", table.speedup_at(4) * 1e3);
  bench::emit(t);

  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    obs::write_chrome_trace(dump, os);
    std::printf("wrote %s (feed it to perf_report --flow)\n",
                trace_path.c_str());
  } else if (!json_only) {
    std::ofstream os("flow_pipesort_trace.json");
    obs::write_chrome_trace(dump, os);
    std::printf("wrote flow_pipesort_trace.json (chan#N occupancy counter "
                "tracks per stage)\n");
  }
}

// ---------------------------------------------------------------------------
// Phase 3: live-search feed (text corpus -> search stage -> gui EventLoop).
// ---------------------------------------------------------------------------

void run_live_search(bench::JsonReport& report, bool json_only) {
  text::CorpusOptions copts;
  copts.num_files = json_only ? 192 : 512;
  copts.mean_words_per_file = 1500;
  copts.needle = "concurrency";
  const text::GeneratedCorpus gen = text::make_corpus(copts, 20260808);
  const std::size_t total_bytes = gen.corpus.total_bytes();

  gui::EventLoop ui(/*queue_capacity=*/256);
  std::atomic<std::uint64_t> ui_updates{0};
  std::atomic<std::uint64_t> ui_matches{0};

  StageOptions search_opts;
  search_opts.parallelism = 2;
  search_opts.name = "search";
  PipelineOptions po;
  po.capacity = 64;
  po.single_producer = true;
  auto p =
      pipeline<std::size_t>(po)
          .then(stage(
              [&gen, &copts](std::size_t i) {
                const auto matches = text::search_file_literal(
                    gen.corpus.files[i], i, copts.needle);
                return std::pair<std::size_t, std::size_t>(i, matches.size());
              },
              search_opts))
          .for_each([&](std::pair<std::size_t, std::size_t> result) {
            // Blocking post: the bounded EDT queue backpressures the feed
            // instead of dropping result rows.
            ui.post([&ui_updates, &ui_matches, result] {
              ui_updates.fetch_add(1);
              ui_matches.fetch_add(result.second);
            });
          });

  Stopwatch sw;
  for (std::size_t i = 0; i < gen.corpus.files.size(); ++i) {
    PARC_CHECK(p.push(i));
  }
  (void)p.wait();
  ui.drain();
  const double elapsed = sw.elapsed_s();

  // Ground truth: the vocabulary never contains the needle, so the planted
  // occurrences are exactly the matches the feed must deliver to the UI.
  PARC_CHECK_MSG(ui_updates.load() == gen.corpus.files.size(),
                 "one UI update per searched file");
  PARC_CHECK_MSG(ui_matches.load() == gen.needles.size(),
                 "live-search feed delivers exactly the planted matches");
  PARC_CHECK_MSG(ui.overflowed() == 0, "blocking post path never drops");
  const ChannelStats qs = ui.queue_stats();
  PARC_CHECK_MSG(qs.pushed == qs.popped, "EDT queue drained clean");
  PARC_CHECK_MSG(qs.high_water <= qs.capacity, "EDT queue stays bounded");

  const double mb_s = static_cast<double>(total_bytes) / elapsed / 1e6;
  std::printf(
      "\nlive search: %zu files (%.1f MB), %llu matches streamed to the "
      "EDT in %.3f s (%.1f MB/s); EDT queue high water %llu/%zu\n",
      gen.corpus.files.size(), static_cast<double>(total_bytes) / 1e6,
      static_cast<unsigned long long>(ui_matches.load()), elapsed, mb_s,
      static_cast<unsigned long long>(qs.high_water), qs.capacity);
  report.add("livesearch_ns_per_byte",
             elapsed * 1e9 / static_cast<double>(total_bytes));
}

// ---------------------------------------------------------------------------
// Phase 4: two-thread channel micro.
// ---------------------------------------------------------------------------

constexpr std::size_t kMicroN = 2'000'000;
constexpr std::size_t kMicroCapacity = 1024;
constexpr std::size_t kBystanders = 8;

/// The reference floor: a Lamport ring with cached indices and nothing
/// else — no counters, no park/wake (a blocked side spins, then yields).
class LamportRing {
 public:
  explicit LamportRing(std::size_t capacity)
      : slots_(capacity), mask_(capacity - 1) {}

  bool try_push(int v) {
    const std::size_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (t - head_cache_ > mask_) return false;
    }
    slots_[t & mask_] = v;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  bool try_pop(int& v) {
    const std::size_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (h == tail_cache_) return false;
    }
    v = slots_[h & mask_];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  std::vector<int> slots_;
  std::size_t mask_;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};
  std::size_t head_cache_ = 0;
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};
  std::size_t tail_cache_ = 0;
};

/// Pass 1..kMicroN from a producer thread to this one; returns ns per
/// element and gates the sum.
template <typename Push, typename Pop>
double two_thread_ns_per_elem(Push push, Pop pop) {
  Stopwatch sw;
  std::thread producer([&] {
    for (std::size_t i = 1; i <= kMicroN; ++i) push(static_cast<int>(i));
  });
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kMicroN; ++i) {
    int v = 0;
    pop(v);
    sum += static_cast<std::uint64_t>(v);
  }
  producer.join();
  const double ns = sw.elapsed_ns() / static_cast<double>(kMicroN);
  PARC_CHECK_MSG(sum == std::uint64_t{kMicroN} * (kMicroN + 1) / 2,
                 "micro: every element arrives exactly once");
  return ns;
}

void run_channel_micro(bench::JsonReport& report) {
  Table t("Two-thread channel micro (2M ints, capacity 1024)");
  t.columns({"variant", "ns/element", "producer blocks", "consumer blocks",
             "parks"});

  LamportRing ring(kMicroCapacity);
  const double ring_ns = two_thread_ns_per_elem(
      [&](int v) {
        ExponentialBackoff backoff;
        while (!ring.try_push(v)) backoff.pause();
      },
      [&](int& v) {
        ExponentialBackoff backoff;
        while (!ring.try_pop(v)) backoff.pause();
      });
  t.add_row().cell("bare Lamport ring").cell(ring_ns, 1).cell("-").cell(
      "-").cell("-");
  report.add("micro_lamport_ring_ns_per_elem", ring_ns);

  const auto channel_row = [&](const char* name, const char* json_name) {
    Channel<int> ch(
        ChannelOptions{.capacity = kMicroCapacity, .spsc = true});
    const double ns = two_thread_ns_per_elem(
        [&](int v) { PARC_CHECK(ch.push(v)); },
        [&](int& v) { PARC_CHECK(ch.pop(v)); });
    const ChannelStats s = ch.stats();
    PARC_CHECK_MSG(s.pushed == kMicroN && s.popped == kMicroN,
                   "micro: pushed == popped == N");
    t.add_row()
        .cell(name)
        .cell(ns, 1)
        .cell(static_cast<double>(s.producer_blocks), 0)
        .cell(static_cast<double>(s.consumer_blocks), 0)
        .cell(static_cast<double>(s.producer_parks + s.consumer_parks), 0);
    report.add(json_name, ns);
  };
  channel_row("spsc Channel", "micro_spsc_channel_ns_per_elem");

  // Bystanders: consumers parked on their own empty channels, as idle
  // pipeline stages are.
  std::vector<std::unique_ptr<Channel<int>>> idle;
  std::vector<std::thread> bystanders;
  for (std::size_t k = 0; k < kBystanders; ++k) {
    idle.push_back(std::make_unique<Channel<int>>(
        ChannelOptions{.capacity = 4, .spsc = true}));
    bystanders.emplace_back([c = idle.back().get()] {
      int v = 0;
      PARC_CHECK_MSG(!c->pop(v), "bystander channel stays empty");
    });
  }
  for (const auto& c : idle) {
    while (c->stats().consumer_parks == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  channel_row("spsc Channel, 8 threads parked elsewhere",
              "micro_spsc_channel_8_parked_ns_per_elem");
  for (const auto& c : idle) c->close();
  for (auto& b : bystanders) b.join();
  bench::emit(t);
}

}  // namespace
}  // namespace parc::flow

int main(int argc, char** argv) {
  using namespace parc;

  const bench::Args args = bench::parse(argc, argv);
  const bool json_only = args.json;

  bench::JsonReport report("flow");
  report.config("pipesort_n", "1000000")
      .config("pipesort_run", "4096")
      .config("traced_n", "16384")
      .config("micro_n", "2000000");

  const double melem_s = flow::run_pipesort_million(report);
  flow::run_traced_replay(report, json_only, args.trace_path);
  flow::run_live_search(report, json_only);
  flow::run_channel_micro(report);

  std::printf("\nbench_flow: all conservation and envelope gates passed "
              "(pipesort %.2f Melem/s)\n", melem_s);
  report.write();
  return 0;
}
