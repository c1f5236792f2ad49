// flow-pipesort: flow::Pipeline::push driven by one producer thread.
//
// bench_flow's streaming mergesort: a run-sorting stage sorts fixed-size
// runs, then 8 pair-merge stages collapse them to one sorted stream. Every
// stage holds state with a flush(), so every stage is a channel boundary
// and a stage thread of its own (flow's thread-per-stage design); the pool
// is not used. Per-element push/pop and park/wake on the source edge
// dominate the cost.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "flow/flow.hpp"
#include "obs/trace.hpp"
#include "support/clock.hpp"
#include "support/rng.hpp"

namespace parc_bench {
namespace {

using parc::Stopwatch;
using parc::flow::ChannelStats;
using parc::flow::PipelineStats;

constexpr std::size_t kElements = 2'000'000;
/// 2M / 8,192 = 245 runs: all 8 merge stages (up to 256 runs) do work.
constexpr std::size_t kRunLength = 8192;
constexpr std::size_t kTracedElements = 256'000;
constexpr std::size_t kCapacity = 1024;
/// Each run sets up and measures this many fresh inputs and pipelines;
/// timed passes fill an equal share of --seconds after each set-up.
constexpr int kRounds = 3;

/// Accumulate `run` elements, sort, emit as one run; flush() the remainder.
struct RunBuilder {
  std::size_t run;
  std::vector<int> acc;

  std::optional<std::vector<int>> operator()(int x) {
    if (acc.capacity() < run) acc.reserve(run);
    acc.push_back(x);
    if (acc.size() < run) return std::nullopt;
    return flush();
  }
  std::optional<std::vector<int>> flush() {
    if (acc.empty()) return std::nullopt;
    std::sort(acc.begin(), acc.end());
    std::vector<int> out;
    out.swap(acc);
    return out;
  }
};

/// Hold one sorted run; merge it with the next and emit. flush() passes an
/// odd run through, so each stage halves the run count.
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

parc::flow::StageOptions named(const char* name) {
  parc::flow::StageOptions o;
  o.name = name;
  return o;
}

struct SortRun {
  std::vector<int> sorted;
  double wall_s = 0.0;
  PipelineStats stages;  ///< stages[0].input is the source channel
};

/// One pass: build the pipeline, push every element, wait for the output.
SortRun pipesort(const std::vector<int>& data, std::size_t run_len,
                 CallSpans* spans) {
  using parc::flow::stage;
  Stopwatch sw;
  parc::flow::PipelineOptions po;
  po.capacity = kCapacity;
  po.single_producer = true;
  auto p = parc::flow::pipeline<int>(po)
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
  for (const int x : data) {
    require(timed(spans, [&] { return p.push(x); }), "pipeline refused a push");
  }
  std::vector<std::vector<int>> runs = p.wait();
  SortRun out;
  out.wall_s = sw.elapsed_s();
  out.stages = p.stats();
  const ChannelStats src = p.source_stats();
  require(src.pushed == data.size() && src.popped == data.size(),
          "source channel: pushed == popped == elements");
  require(src.dropped == 0 && p.swept_dropped() == 0,
          "a clean pipesort drops nothing");
  require(runs.size() == 1, "the merge cascade must collapse to one run");
  out.sorted = std::move(runs.front());
  return out;
}

struct Input {
  std::vector<int> data;
  std::vector<int> oracle;  ///< std::sort of data
  std::size_t run_len = 0;
};

void check(const SortRun& run, const Input& in) {
  require(run.sorted == in.oracle, "pipesort output != std::sort oracle");
}

/// Inputs, oracle and one discarded warm-up pass.
Input set_up(std::size_t n, std::uint64_t seed) {
  Input in;
  parc::Rng rng(sub_seed(seed, 0));
  in.data.resize(n);
  for (int& x : in.data) x = static_cast<int>(rng.bits() & 0x7fffffff);
  in.oracle = in.data;
  std::sort(in.oracle.begin(), in.oracle.end());
  in.run_len = (kRunLength * n + kElements - 1) / kElements;
  check(pipesort(in.data, in.run_len, nullptr), in);
  return in;
}

std::size_t scaled(std::size_t n, double scale) {
  return static_cast<std::size_t>(static_cast<double>(n) * scale);
}

/// Channel counters summed over passes (exact: every pass has joined).
struct FlowCounters {
  double pushed = 0.0;
  double wall_ns = 0.0;
  double src_producer_blocks = 0.0;
  double src_consumer_blocks = 0.0;
  double src_producer_blocked_ns = 0.0;
  double src_consumer_blocked_ns = 0.0;
  double parks = 0.0;
  std::vector<std::pair<std::string, double>> stage_blocked_ns;

  void add(const SortRun& run) {
    const ChannelStats& src = run.stages.stages.front().input;
    pushed += static_cast<double>(src.pushed);
    wall_ns += run.wall_s * 1e9;
    src_producer_blocks += static_cast<double>(src.producer_blocks);
    src_consumer_blocks += static_cast<double>(src.consumer_blocks);
    src_producer_blocked_ns += static_cast<double>(src.producer_blocked_ns);
    src_consumer_blocked_ns += static_cast<double>(src.consumer_blocked_ns);
    stage_blocked_ns.resize(run.stages.stages.size());
    for (std::size_t i = 0; i < run.stages.stages.size(); ++i) {
      const auto& st = run.stages.stages[i];
      parks += static_cast<double>(st.input.producer_parks +
                                   st.input.consumer_parks);
      stage_blocked_ns[i].first = st.name;
      stage_blocked_ns[i].second +=
          static_cast<double>(st.input.consumer_blocked_ns);
    }
  }

  void report(Report& r) const {
    r.layer("flow.src_producer_blocks_per_1k", "1/1k",
            1e3 * share(src_producer_blocks, pushed));
    r.layer("flow.src_consumer_blocks_per_1k", "1/1k",
            1e3 * share(src_consumer_blocks, pushed));
    r.layer("flow.src_producer_blocked_share", "ratio",
            share(src_producer_blocked_ns, wall_ns));
    r.layer("flow.src_consumer_blocked_share", "ratio",
            share(src_consumer_blocked_ns, wall_ns));
    r.layer("flow.parks_per_1k", "1/1k", 1e3 * share(parks, pushed));
    for (const auto& [name, ns] : stage_blocked_ns) {
      r.layer("flow.stage_blocked_share." + name, "ratio", share(ns, wall_ns));
    }
  }
};

Report measure(const Options& opt) {
  Report r;
  const std::size_t n = scaled(kElements, opt.scale);
  std::vector<double> setup_s, pass_ms, melem_s;
  FlowCounters counters;
  for (int round = 0; round < kRounds; ++round) {
    Stopwatch sw;
    const Input in = set_up(n, opt.seed);
    setup_s.push_back(sw.elapsed_s());
    const Stopwatch block;
    do {
      const SortRun run = pipesort(in.data, in.run_len, nullptr);
      check(run, in);
      pass_ms.push_back(run.wall_s * 1e3);
      melem_s.push_back(static_cast<double>(n) / run.wall_s / 1e6);
      counters.add(run);
      r.attempted += n;
    } while (block.elapsed_s() < opt.seconds / kRounds);
  }
  r.metric("setup_s", "s", setup_s);
  r.metric("throughput", "Mitem/s", melem_s);
  r.metric("latency_ms", "ms", pass_ms);
  r.diag_value("passes", "count", static_cast<double>(pass_ms.size()));
  counters.report(r);
  return r;
}

Report trace(const Options& opt) {
  Report r;
  const std::size_t n = scaled(kTracedElements, opt.scale);
  const Input in = set_up(n, opt.seed);

  // Both passes carry the client-timed spans, so the overhead compares
  // like runs.
  CallSpans spans;
  spans.reserve(n);
  const SortRun untraced = pipesort(in.data, in.run_len, &spans);
  check(untraced, in);
  FlowCounters counters;
  counters.add(untraced);
  counters.report(r);
  spans.report(r, untraced.wall_s);

  CallSpans traced_spans;
  traced_spans.reserve(n);
  parc::obs::TraceSession session({2 * n + (1 << 16)});
  const SortRun traced = pipesort(in.data, in.run_len, &traced_spans);
  const parc::obs::TraceDump dump = session.end();
  check(traced, in);
  require(dump.count_kind(parc::obs::EventKind::kChanPush) ==
              dump.count_kind(parc::obs::EventKind::kChanPop),
          "every traced channel push has its traced pop");
  report_trace_cost(r, dump.total_dropped(), traced.wall_s, untraced.wall_s);
  r.diag_value("trace_events", "count",
               static_cast<double>(dump.total_events()));
  r.attempted += 2 * n;
  write_trace(dump, opt.trace_file);
  return r;
}

}  // namespace

Report run_flow(const Options& opt) {
  return opt.trace ? trace(opt) : measure(opt);
}

}  // namespace parc_bench
