// P6: task-aware libraries for Parallel Task — the stall-incidence table
// (thread-safe blocking queue inside a bounded pool vs the task-safe queue)
// across worker counts, plus join-point comparisons (latch/barrier).
#include "bench_util.hpp"
#include "conc/task_safe.hpp"
#include "support/clock.hpp"

#include <atomic>
#include <thread>

using namespace parc;
using namespace parc::conc;

namespace {

/// Run the consumers-then-producer scenario on `workers` workers with the
/// cv-blocking queue; returns true only if EVERY consumer was served inside
/// its window. With blocking consumers on every worker, the producer queued
/// behind them starves until the first consumer gives up — so at least one
/// consumer always times out: the stall.
bool thread_safe_scenario(std::size_t workers) {
  sched::WorkStealingPool pool(
      sched::WorkStealingPool::Config{workers, 4, "p6"});
  ThreadSafeBlockingQueue<int> queue(4);
  std::atomic<std::size_t> got{0};
  std::atomic<std::size_t> done{0};
  for (std::size_t c = 0; c < workers; ++c) {
    // One blocking consumer per worker: with cv-blocking takes, every
    // worker parks and the producers behind them starve.
    pool.submit([&] {
      if (queue.take_for(std::chrono::milliseconds(200)).has_value()) {
        got.fetch_add(1);
      }
      done.fetch_add(1);
    });
  }
  pool.submit([&] {
    for (std::size_t c = 0; c < workers; ++c) {
      queue.put(static_cast<int>(c));
    }
  });
  while (done.load() < workers) std::this_thread::yield();
  return got.load() == workers;
}

bool task_safe_scenario(std::size_t workers) {
  sched::WorkStealingPool pool(
      sched::WorkStealingPool::Config{workers, 4, "p6"});
  TaskSafeQueue<int> queue(pool);
  std::atomic<std::size_t> got{0};
  std::atomic<std::size_t> done{0};
  for (std::size_t c = 0; c < workers; ++c) {
    pool.submit([&] {
      if (queue.take() >= 0) got.fetch_add(1);
      done.fetch_add(1);
    });
  }
  pool.submit([&] {
    for (std::size_t c = 0; c < workers; ++c) {
      queue.put(static_cast<int>(c));
    }
  });
  while (done.load() < workers) std::this_thread::yield();
  return got.load() == workers;
}

}  // namespace

int main() {
  Table table("P6 — blocking take() inside a bounded pool: thread-safe vs task-safe");
  table.columns({"workers", "blocking consumers", "thread-safe queue",
                 "task-safe queue"});
  for (std::size_t workers : {1u, 2u, 4u}) {
    const bool ts_ok = thread_safe_scenario(workers);
    const bool task_ok = task_safe_scenario(workers);
    table.add_row()
        .cell(static_cast<std::uint64_t>(workers))
        .cell(static_cast<std::uint64_t>(workers))
        .cell(ts_ok ? "completed" : "STALLED (timeout)")
        .cell(task_ok ? "completed" : "STALLED");
  }
  bench::emit(table);

  // Join-point variants: a barrier with more parties than workers.
  Table joins("P6 — task-safe join points with parties > workers (2 workers)");
  joins.columns({"primitive", "parties", "outcome", "wall ms"});
  {
    sched::WorkStealingPool pool(sched::WorkStealingPool::Config{2, 4, "p6"});
    TaskSafeBarrier barrier(pool, 8);
    std::atomic<int> passed{0};
    Stopwatch sw;
    for (int i = 0; i < 8; ++i) {
      pool.submit([&] {
        barrier.arrive_and_wait();
        passed.fetch_add(1);
      });
    }
    pool.help_while([&] { return passed.load() < 8; });
    joins.add_row()
        .cell("TaskSafeBarrier")
        .cell(std::uint64_t{8})
        .cell("completed")
        .cell(sw.elapsed_ms(), 2);
  }
  {
    sched::WorkStealingPool pool(sched::WorkStealingPool::Config{2, 4, "p6"});
    TaskSafeLatch latch(pool, 64);
    std::atomic<int> fired{0};
    Stopwatch sw;
    for (int i = 0; i < 64; ++i) {
      pool.submit([&] {
        fired.fetch_add(1);
        latch.count_down();
      });
    }
    latch.wait();
    joins.add_row()
        .cell("TaskSafeLatch")
        .cell(std::uint64_t{64})
        .cell(fired.load() == 64 ? "completed" : "STALLED")
        .cell(sw.elapsed_ms(), 2);
  }
  bench::emit(joins);

  std::printf(
      "\nreading the tables: 'thread-safe' parks the worker and starves the "
      "producer queued behind it — the stall appears whenever blocking "
      "consumers >= workers. The task-safe classes donate the waiting thread "
      "back to the pool, so the same program completes at every size.\n");

  return 0;
}
