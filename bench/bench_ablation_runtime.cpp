// ABLATION: the runtime design knobs DESIGN.md calls out —
//  (a) task spawn overhead: ParallelTask task vs raw std::thread (why
//      pooled tasks beat thread-per-item);
//  (b) chunk-size sweep for dynamic scheduling (grain vs dispenser traffic);
//  (c) work-stealing statistics under recursive fork/join (helping waits in
//      action);
//  (d) machine-model sensitivity to per-task overhead (when fine-grained
//      tasking stops paying off).
#include "bench_util.hpp"
#include "pj/pj.hpp"
#include "ptask/ptask.hpp"
#include "sim/machine.hpp"
#include "support/clock.hpp"

#include <thread>

using namespace parc;

int main() {
  // (a) spawn-cost table: 10k pooled tasks against raw threads (500 timed,
  // scaled to 10k).
  {
    Table spawn("Ablation (a) — cost per unit of concurrency (10k spawns)");
    spawn.columns({"mechanism", "total ms", "us each"});
    constexpr int kSpawns = 10000;
    ptask::Runtime rt(ptask::Runtime::Config{2, {}});
    {
      Stopwatch sw;
      ptask::TaskGroup group(rt);
      for (int i = 0; i < kSpawns; ++i) group.run([] {});
      group.wait();
      const double ms = sw.elapsed_ms();
      spawn.add_row().cell("ptask task (pooled)").cell(ms, 1).cell(
          ms * 1000.0 / kSpawns, 2);
    }
    {
      Stopwatch sw;
      constexpr int kThreads = 500;  // 10k raw threads would take minutes
      for (int i = 0; i < kThreads; ++i) {
        std::thread t([] {});
        t.join();
      }
      const double ms = sw.elapsed_ms();
      spawn.add_row()
          .cell("std::thread (join each)")
          .cell(ms * kSpawns / kThreads, 1)
          .cell(ms * 1000.0 / kThreads, 2);
    }
    bench::emit(spawn);
  }

  // (b) dynamic chunk sweep on a skewed loop.
  {
    Table chunks("Ablation (b) — dynamic schedule chunk size (skewed 100k-iter loop)");
    chunks.columns({"chunk", "wall ms"});
    for (std::int64_t chunk : {1, 8, 64, 512, 4096, 32768}) {
      Stopwatch sw;
      std::atomic<std::uint64_t> sink{0};
      pj::parallel_for(
          4, 0, 100000,
          [&](std::int64_t i) {
            sink.fetch_add(spin_work(static_cast<std::uint64_t>(i % 37)),
                           std::memory_order_relaxed);
          },
          {pj::Schedule::kDynamic, chunk});
      chunks.add_row().cell(static_cast<std::uint64_t>(chunk)).cell(
          sw.elapsed_ms(), 1);
    }
    bench::emit(chunks);
  }

  // (c) stealing statistics under recursive fork/join.
  {
    ptask::Runtime rt(ptask::Runtime::Config{4, {}});
    std::function<long(int)> fib = [&](int n) -> long {
      if (n < 14) {
        long a = 0, b = 1;
        for (int i = 0; i < n; ++i) {
          const long next = a + b;
          a = b;
          b = next;
        }
        return a;
      }
      auto left = ptask::run(rt, [&, n] { return fib(n - 1); });
      const long right = fib(n - 2);
      return left.get() + right;
    };
    const long result = fib(26);
    const auto stats = rt.pool().stats();
    Table steals("Ablation (c) — pool statistics after recursive fib(26)");
    steals.columns({"metric", "value"});
    steals.add_row().cell("result (oracle 121393)").cell(
        static_cast<std::int64_t>(result));
    steals.add_row().cell("tasks executed by workers").cell(stats.executed);
    steals.add_row().cell("tasks obtained by stealing").cell(stats.stolen);
    steals.add_row().cell("tasks run inside helping waits").cell(stats.helped);
    steals.add_row().cell("worker park events").cell(stats.parked);
    bench::emit(steals);
  }

  // (d) machine-model overhead sensitivity: same DAG, growing dispatch cost.
  {
    Table sensitivity("Ablation (d) — speedup vs per-task overhead (16 cores, 4096 x 10us tasks)");
    sensitivity.columns({"overhead us", "speedup", "efficiency %"});
    const auto dag = sim::fork_join_dag(std::vector<double>(4096, 1e-5));
    for (double overhead_us : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
      const auto out = sim::simulate(
          dag, sim::MachineParams{16, overhead_us * 1e-6, "x"});
      sensitivity.add_row()
          .cell(overhead_us, 1)
          .cell(out.speedup, 2)
          .cell(100.0 * out.efficiency, 1);
    }
    bench::emit(sensitivity);
  }

  return 0;
}
