// P2: parallel quicksort with three runtime flavours vs sequential —
// wall times per strategy/size/input shape, cutoff ablation, and the
// divide-and-conquer machine-model speedup curve for the lab machines.
#include <functional>

#include "bench_util.hpp"
#include "kernels/sort.hpp"
#include "sim/machine.hpp"
#include "support/clock.hpp"

using namespace parc;
using namespace parc::kernels;

namespace {

ptask::Runtime& runtime() {
  static ptask::Runtime rt(ptask::Runtime::Config{4, {}});
  return rt;
}

double time_sort(const std::function<void(std::vector<std::int64_t>&)>& fn,
                 std::size_t n, InputKind kind) {
  auto data = make_sort_input(n, kind, 42 + n);
  Stopwatch sw;
  fn(data);
  return sw.elapsed_ms();
}

}  // namespace

int main() {
  Table table("P2 — quicksort strategies (1-core container wall times)");
  table.columns({"n", "input", "seq ms", "ptask ms", "pj ms", "threads ms"});
  for (std::size_t n : {100000u, 1000000u, 4000000u}) {
    for (const auto kind : {InputKind::kUniform, InputKind::kFewUniques}) {
      table.add_row()
          .cell(static_cast<std::uint64_t>(n))
          .cell(kind == InputKind::kUniform ? "uniform" : "few-uniques")
          .cell(time_sort([](auto& d) { quicksort_seq(d); }, n, kind), 1)
          .cell(time_sort(
                    [](auto& d) { quicksort_ptask(d, runtime(), 16384); }, n,
                    kind),
                1)
          .cell(time_sort([](auto& d) { quicksort_pj(d, 3, 16384); }, n, kind),
                1)
          .cell(time_sort([](auto& d) { quicksort_threads(d, 3, 16384); }, n,
                          kind),
                1);
    }
  }
  bench::emit(table);

  // Cutoff ablation (the design knob DESIGN.md calls out).
  Table cutoff("P2 — ParallelTask cutoff ablation (n = 1M uniform)");
  cutoff.columns({"cutoff", "wall ms"});
  for (std::size_t c : {256u, 1024u, 4096u, 16384u, 65536u, 262144u}) {
    cutoff.add_row()
        .cell(static_cast<std::uint64_t>(c))
        .cell(time_sort([c](auto& d) { quicksort_ptask(d, runtime(), c); },
                        1000000, InputKind::kUniform),
              1);
  }
  bench::emit(cutoff);

  // Machine-model speedup sweep: quicksort DAG on 1..64 cores.
  const auto dag = sim::divide_conquer_dag(1 << 22, 1 << 14, 2e-9, 1e-6);
  Table curve("P2 — quicksort DAG speedup (machine model, 4M elements)");
  curve.columns({"cores", "speedup", "efficiency %"});
  sim::SweepOptions sweep_opts;
  sweep_opts.machine.per_task_overhead_s = 1e-6;
  for (const auto& point : sim::sweep(dag, sweep_opts).points) {
    curve.add_row()
        .cell(static_cast<std::uint64_t>(point.cores))
        .cell(point.outcome.speedup, 2)
        .cell(100.0 * point.outcome.efficiency, 1);
  }
  bench::emit(curve);
  std::printf("quicksort DAG parallelism (work/span): %.1f\n",
              dag.parallelism());

  return 0;
}
