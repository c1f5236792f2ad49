// Scheduler fast-path microcosts: the per-job constants that multiply into
// every fine-grained benchmark in EXPERIMENTS.md (quicksort cutoff sweeps,
// reduction trees, the spawn-cost ablation).
//
// Prints a table of per-operation costs for the zero-allocation TaskCell
// path against a reconstruction of the seed path (`new Job{std::function}`
// + mutex-guarded injection deque), and *asserts* — via a counting
// operator-new hook — that the worker-local submit path performs zero heap
// allocations for small captures once the cell freelists are warm. The
// per-spawn numbers feed parc::sim's MachineParams::per_task_overhead_s.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "pj/parallel.hpp"
#include "ptask/ptask.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/completion.hpp"
#include "sched/mpsc_queue.hpp"
#include "sched/task_cell.hpp"
#include "sched/thread_pool.hpp"
#include "support/check.hpp"
#include "support/clock.hpp"
#include "support/table.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every operator-new on *this thread* bumps the
// counter. Thread-local so worker/benchmark-harness allocations on other
// threads cannot pollute a measured window.
// ---------------------------------------------------------------------------

namespace {
thread_local std::uint64_t t_alloc_count = 0;
}  // namespace

// GCC's heuristic flags free() on pointers from the replacement operator new
// below; the replacement operator delete is free-backed too, so the pairing
// is correct — the warning is a false positive in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  ++t_alloc_count;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++t_alloc_count;
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace parc::sched {
namespace {

volatile std::uint64_t g_sink = 0;

// The capture every measurement uses: three words, comfortably inline.
struct SmallWork {
  std::uint64_t* acc;
  std::uint64_t a;
  std::uint64_t b;
  void operator()() const { *acc += a ^ b; }
};
static_assert(TaskCell::stores_inline<SmallWork>());

// --- seed path reconstruction: one heap Job per submission ----------------

struct SeedJob {
  std::function<void()> fn;
};

double measure_seed_job_cycle(std::size_t iters) {
  std::uint64_t acc = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    auto* job = new SeedJob{std::function<void()>(SmallWork{&acc, i, i + 1})};
    job->fn();
    delete job;
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  g_sink = g_sink + acc;
  return ns;
}

double measure_task_cell_cycle(std::size_t iters) {
  std::uint64_t acc = 0;
  TaskCell cell;  // recycled in place: the steady-state freelist case
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    cell.emplace(SmallWork{&acc, i, i + 1});
    cell.invoke();
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  g_sink = g_sink + acc;
  return ns;
}

// --- injection queues: seed (mutex+deque) vs MPSC -------------------------

double measure_seed_injection(std::size_t iters) {
  std::mutex mutex;
  std::deque<SeedJob*> queue;
  std::uint64_t acc = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    auto* job = new SeedJob{std::function<void()>(SmallWork{&acc, i, i})};
    {
      std::scoped_lock lock(mutex);
      queue.push_back(job);
    }
    SeedJob* got;
    {
      std::scoped_lock lock(mutex);
      got = queue.front();
      queue.pop_front();
    }
    got->fn();
    delete got;
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  g_sink = g_sink + acc;
  return ns;
}

double measure_mpsc_injection(std::size_t iters) {
  MpscIntrusiveQueue<TaskCell> queue;
  TaskCell cell;
  std::uint64_t acc = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    cell.emplace(SmallWork{&acc, i, i});
    queue.push(&cell);
    TaskCell* got = queue.try_pop();
    got->invoke();
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  g_sink = g_sink + acc;
  return ns;
}

// --- Chase–Lev owner push/pop and thief steal ------------------------------

double measure_deque_push_pop(std::size_t iters) {
  ChaseLevDeque<TaskCell> deque;
  TaskCell cell;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    deque.push(&cell);
    g_sink = g_sink + (deque.pop() != nullptr ? 1 : 0);
  }
  return sw.elapsed_ns() / static_cast<double>(iters);
}

double measure_deque_steal(std::size_t iters) {
  ChaseLevDeque<TaskCell> deque;
  std::vector<TaskCell> cells(iters);
  for (auto& c : cells) deque.push(&c);
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    g_sink = g_sink + (deque.steal() != nullptr ? 1 : 0);
  }
  return sw.elapsed_ns() / static_cast<double>(iters);
}

// --- full pool: worker-local submit+run, with the zero-allocation assert ---

struct LocalSubmitResult {
  double ns_per_job = 0.0;
  std::uint64_t allocs_in_window = ~0ull;
};

LocalSubmitResult measure_worker_local_submit(WorkStealingPool& pool,
                                              std::size_t iters,
                                              SubmitHint hint) {
  // NOTE: call with a 1-worker pool — a sibling worker could otherwise
  // steal the freshly pushed job between submit and try_run_one.
  LocalSubmitResult result;
  std::atomic<bool> done{false};
  // The whole measurement runs inside one worker: submit to the local deque,
  // then immediately pop-and-run (LIFO), so the cell cycles through this
  // worker's freelist. After warmup the window must allocate nothing.
  pool.submit([&pool, &result, &done, iters, hint] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < 256; ++i) {  // warm the freelist
      pool.submit(SmallWork{&acc, i, i}, hint);
      PARC_CHECK(pool.try_run_one());
    }
    const std::uint64_t allocs_before = t_alloc_count;
    Stopwatch sw;
    for (std::size_t i = 0; i < iters; ++i) {
      pool.submit(SmallWork{&acc, i, i + 1}, hint);
      PARC_CHECK(pool.try_run_one());
    }
    result.ns_per_job = sw.elapsed_ns() / static_cast<double>(iters);
    result.allocs_in_window = t_alloc_count - allocs_before;
    g_sink = g_sink + acc;
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
  return result;
}

double measure_external_submit(WorkStealingPool& pool, std::size_t iters) {
  std::atomic<std::uint64_t> ran{0};
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  pool.help_while([&] { return ran.load(std::memory_order_relaxed) < iters; });
  return ns;
}

// --- ptask spawn: one run_after with two pending dependences ---------------
//
// What spawning a dependence-graph node costs the spawning thread. Both
// dependences are held at a gate, so the window covers spawn and edge
// registration only; the successors are released and run after it. One
// warm-up round of the same shape fills the frame cache and the workers'
// cell freelists. The gate: the window allocates no more than the block
// cache's slack, one partial batch of 64 blocks per thread (ptask_spawn_test
// asserts the same bound).
struct SpawnResult {
  double ns_per_spawn = 0.0;
  std::uint64_t allocs = 0;
};

constexpr std::size_t kSpawnWorkers = 3;
constexpr std::uint64_t kSpawnAllocSlack = 64 * (kSpawnWorkers + 1);

SpawnResult run_after_pending_round(ptask::Runtime& rt, std::size_t spawns) {
  const std::uint64_t executed0 = rt.pool().stats().executed;
  std::atomic<bool> gate{false};
  std::atomic<std::size_t> ran{0};
  auto gated = [&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  auto a = ptask::run(rt, gated);
  auto b = ptask::run(rt, gated);
  SpawnResult result;
  const std::uint64_t allocs_before = t_alloc_count;
  Stopwatch sw;
  for (std::size_t i = 0; i < spawns; ++i) {
    (void)ptask::run_after(
        rt, [&ran] { ran.fetch_add(1, std::memory_order_release); }, a, b);
  }
  result.ns_per_spawn = sw.elapsed_ns() / static_cast<double>(spawns);
  result.allocs = t_alloc_count - allocs_before;
  gate.store(true, std::memory_order_release);
  a.wait();
  b.wait();
  while (ran.load(std::memory_order_acquire) < spawns) {
    std::this_thread::yield();
  }
  // A job is counted as executed after its closure, and with it the frame
  // reference, is gone: the next round finds every frame back in the cache.
  while (rt.pool().stats().executed - executed0 < spawns + 2) {
    std::this_thread::yield();
  }
  return result;
}

SpawnResult measure_run_after_pending(std::size_t spawns) {
  ptask::Runtime rt(ptask::Runtime::Config{kSpawnWorkers, {}});
  (void)run_after_pending_round(rt, spawns);
  return run_after_pending_round(rt, spawns);
}

// --- tracing overhead ------------------------------------------------------

// Cost of one enabled-but-idle trace hook: the `obs::tracing()` gate every
// runtime hot path pays while no session is live. At PARC_TRACE=OFF the gate
// is a constexpr false and this loop measures an empty body (~0 ns).
double measure_trace_gate_cost(std::size_t iters) {
  std::uint64_t hits = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    if (obs::tracing()) [[unlikely]] ++hits;
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  g_sink = g_sink + hits;
  return ns;
}

double measure_parked_wakeup(WorkStealingPool& pool, std::size_t rounds) {
  double total_us = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let it park
    std::atomic<bool> ran{false};
    Stopwatch sw;
    pool.submit([&ran] { ran.store(true, std::memory_order_release); });
    // Yield while waiting: on a 1-core container the woken worker needs the
    // CPU to actually run the job.
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    total_us += sw.elapsed_us();
  }
  return total_us / static_cast<double>(rounds);
}

std::int64_t now_ns();  // defined with the join-wakeup measures below

// Continuation-release wakeup: a busy worker local-pushes newly-ready work
// while its sibling is parked, so the sample is push → sibling wakes, steals
// and runs — the path a dependsOn successor takes when its predecessor's
// worker stays busy. Median over rounds (an OS wake path: one descheduled
// round on a 1-core container would dominate a mean).
//
// `shards` > 1 turns each round into the cross-domain hostage case: with
// 2 workers in 2 domains the busy pusher is its shard's *only* worker, so
// signal_work finds no sleeper at home and must take the fallback
// cross-shard wake (the work-conservation guard) to rouse the sibling in
// the other domain. Without that fallback this round would livelock on a
// 1-core container — pusher spinning on ran_at, sibling parked forever —
// which is exactly the deadlock the guard exists to prevent.
double measure_parked_wakeup_local_push(std::size_t rounds,
                                        std::size_t shards = 1) {
  WorkStealingPool pool(
      WorkStealingPool::Config{2, 4, "bench-local-wake", 4096, shards});
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::atomic<std::int64_t> pushed_at{0};
    std::atomic<std::int64_t> ran_at{0};
    std::atomic<bool> outer_done{false};
    pool.submit([&pool, &pushed_at, &ran_at, &outer_done] {
      // 2 ms lets the sibling run out of steal sweeps and park.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      pushed_at.store(now_ns(), std::memory_order_release);
      pool.submit(
          [&ran_at] {
            ran_at.store(now_ns(), std::memory_order_release);
          },
          SubmitHint::local);
      // Hold this worker hostage: only the woken sibling can take the probe.
      while (ran_at.load(std::memory_order_acquire) == 0) {
        std::this_thread::yield();
      }
      // Last access to the round's frame. Main must not retire the round on
      // ran_at alone: on a 1-core box this worker may not be rescheduled
      // until after main has reused the stack slots for the next round's
      // atomics, leaving it spinning on a reborn ran_at that a *second*
      // hostage then waits on too — every thread spinning, no one eligible
      // to run either probe.
      outer_done.store(true, std::memory_order_release);
    });
    while (!outer_done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    samples.push_back(
        static_cast<double>(ran_at.load(std::memory_order_acquire) -
                            pushed_at.load(std::memory_order_acquire)) /
        1000.0);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// --- locality domains: sharded-pool fast path and counter gates ------------

// Parks one worker inside a spinning job routed to `shard`, so a 2-worker /
// 2-domain pool degenerates to the single-worker case the submit→run window
// measurements need: the hostage executes (never sweeps), so it cannot
// steal out of the 1-deep window between submit and try_run_one. The spin
// yields — on a 1-core container every other thread still progresses.
struct ShardHostage {
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> exited{false};

  void take(WorkStealingPool& pool, std::size_t shard) {
    pool.submit(
        [this] {
          started.store(true, std::memory_order_release);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          exited.store(true, std::memory_order_release);
        },
        SubmitHint::remote, shard);
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  // Rounds must retire on `exited`, not `release`: the hostage frame reads
  // this struct after release, so the caller may not reuse (or destroy) it
  // until the hostage has demonstrably left — the same stack-rebirth hazard
  // measure_parked_wakeup_local_push documents for its ran_at slots.
  void free() {
    release.store(true, std::memory_order_release);
    while (!exited.load(std::memory_order_acquire)) std::this_thread::yield();
  }
};

// Fallback cross-shard wake latency: the submission targets a domain whose
// only worker is busy (the hostage) while the other domain's worker is
// parked. signal_work finds no sleeper on the target shard and must wake
// the remote one (counted as cross_shard_wakes) — the work-conservation
// guarantee that a job never waits on a busy shard while any worker in the
// pool sleeps. Median submit → probe-running time over rounds; rounds where
// the sibling had not parked yet simply resolve through its live sweep (no
// wake needed), so only the counter delta — not every round — is asserted.
double measure_cross_shard_fallback_wake(std::size_t rounds,
                                         std::uint64_t* wakes_delta) {
  WorkStealingPool pool(
      WorkStealingPool::Config{2, 4, "bench-cross-wake", 4096, 2});
  const std::uint64_t wakes_before = pool.stats().cross_shard_wakes;
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    ShardHostage hostage;
    hostage.take(pool, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let 1 park
    std::atomic<bool> ran{false};
    Stopwatch sw;
    pool.submit([&ran] { ran.store(true, std::memory_order_release); },
                SubmitHint::remote, 0);
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    samples.push_back(sw.elapsed_us());
    hostage.free();
  }
  *wakes_delta = pool.stats().cross_shard_wakes - wakes_before;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// All-local load: one generator job routed to each of 4 domains, each
// cycling jobs through its own worker via the worker-local submit→run path.
// Every job is born and consumed on the same worker, so the only way work
// crosses a domain is a remote thief winning the 1-deep race between a
// generator's push and its own pop — under hierarchical stealing that must
// stay a rounding error of throughput. Returns counter deltas read after
// full quiescence (all jobs ran, all generators retired), which the stats()
// contract makes exact.
struct ShardLocalLoadOutcome {
  std::uint64_t executed = 0;
  std::uint64_t cross_steals = 0;
  std::uint64_t local_steals = 0;
  std::uint64_t cross_probes = 0;
};

ShardLocalLoadOutcome run_shard_local_load(std::size_t jobs_per_shard) {
  constexpr std::size_t kShards = 4;
  WorkStealingPool pool(
      WorkStealingPool::Config{kShards, 4, "bench-shard-load", 4096, kShards});
  const WorkStealingPool::Stats before = pool.stats();
  std::atomic<std::size_t> jobs_ran{0};
  std::atomic<std::size_t> gens_done{0};
  for (std::size_t s = 0; s < kShards; ++s) {
    pool.submit(
        [&pool, &jobs_ran, &gens_done, jobs_per_shard] {
          for (std::size_t i = 0; i < jobs_per_shard; ++i) {
            pool.submit(
                [&jobs_ran] {
                  jobs_ran.fetch_add(1, std::memory_order_relaxed);
                },
                SubmitHint::auto_);
            // Usually pops the job just pushed; a cross-steal may win the
            // race, in which case the job still runs — remotely.
            pool.try_run_one();
          }
          gens_done.fetch_add(1, std::memory_order_release);
        },
        SubmitHint::remote, s);
  }
  const std::size_t total = kShards * jobs_per_shard;
  while (gens_done.load(std::memory_order_acquire) < kShards ||
         jobs_ran.load(std::memory_order_acquire) < total) {
    std::this_thread::yield();
  }
  const WorkStealingPool::Stats after = pool.stats();
  ShardLocalLoadOutcome out;
  out.executed = after.executed - before.executed;
  out.cross_steals = after.stolen_cross_shard - before.stolen_cross_shard;
  out.local_steals = after.stolen_shard_local - before.stolen_shard_local;
  out.cross_probes = after.cross_shard_probes - before.cross_shard_probes;
  return out;
}

// --- pj region fork/join: flat vs depth-2 nested ---------------------------
//
// What one `pj::region(2, ...)` fork+join costs, and what opening an inner
// region(2) from thread 0 adds on top. The outer fork is a std::thread spawn
// (level-0 regions keep the spawn path); the inner fork is the pool-routed
// exclusive-job path, so depth2 − flat ≈ reservation + 1 exclusive submit +
// pool-helped inner join. Median over rounds: the outer spawn is an OS
// thread-create and a single descheduled round would dominate a mean.
double measure_region_forkjoin_us(std::size_t rounds, bool nested) {
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t r = 0; r < rounds + 8; ++r) {  // 8 warmup rounds
    Stopwatch sw;
    pj::region(2, [nested](pj::Team& team) {
      if (nested && team.thread_num() == 0) {
        pj::region(2, [](pj::Team&) {});
      }
    });
    if (r >= 8) samples.push_back(sw.elapsed_us());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// --- completion core: seed (mutex+cv TaskState) vs sched::Completion ------
//
// The seed's TaskState carried a std::mutex + std::condition_variable + a
// dependents vector per task; the task-graph refactor replaces all three
// with one Completion word (done bit | parked-waiter count) and a sealed
// Treiber continuation list. These measure the three costs that refactor
// targets: the no-waiter complete (every task pays it), the notify-one-
// dependent hand-off, and the per-edge dependency decrement.

struct SeedCompletionState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::vector<std::function<void()>> dependents;

  void add_dependent(std::function<void()> fn) {
    std::unique_lock lock(mutex);
    if (done) {
      lock.unlock();
      fn();
      return;
    }
    dependents.push_back(std::move(fn));
  }
  void complete() {
    std::vector<std::function<void()>> fire;
    {
      std::scoped_lock lock(mutex);
      done = true;
      fire.swap(dependents);
    }
    cv.notify_all();
    for (auto& fn : fire) fn();
  }
  void wait() {
    std::unique_lock lock(mutex);
    cv.wait(lock, [this] { return done; });
  }
};

// No-waiter complete: construct + finish, the cost every task pays even when
// nobody blocks on it. Fresh object per iteration on both sides — the seed
// also constructed its mutex/cv per TaskState.
double measure_seed_complete_cycle(std::size_t iters) {
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    SeedCompletionState s;
    s.complete();
    g_sink = g_sink + (s.done ? 1 : 0);
  }
  return sw.elapsed_ns() / static_cast<double>(iters);
}

double measure_core_complete_cycle(std::size_t iters) {
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    Completion c;
    c.complete();
    g_sink = g_sink + (c.completed() ? 1 : 0);
  }
  return sw.elapsed_ns() / static_cast<double>(iters);
}

// Notify hand-off: one registered dependent dispatched at completion. Both
// sides heap-allocate the continuation (std::function vs FnNode); the win
// is losing the lock round-trips around registration and the swap.
double measure_seed_notify_one(std::size_t iters) {
  std::uint64_t ran = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    SeedCompletionState s;
    s.add_dependent([&ran] { ++ran; });
    s.complete();
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  PARC_CHECK(ran == iters);
  g_sink = g_sink + ran;
  return ns;
}

double measure_core_notify_one(std::size_t iters) {
  std::uint64_t ran = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    Completion c;
    c.add_continuation([&ran]() noexcept { ++ran; });
    c.complete();
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  PARC_CHECK(ran == iters);
  g_sink = g_sink + ran;
  return ns;
}

// Dependency resolution, ns per edge: what each dependsOn edge costs the
// predecessor at finish time. Seed = mutex-guarded counter decrement; core
// = DependencyCounter::satisfy (one fetch_sub; true for the last one). The
// registration hold (+1) keeps the fire out of the measured window on both
// sides.

// Escape hatch: publishing the state's address to a volatile global means
// the opaque pthread lock/unlock calls could observe it, so the compiler
// must keep `remaining` in memory across the critical section — as it had
// to for the seed's shared TaskState — instead of caching it in a register.
volatile void* g_escape = nullptr;

struct SeedDepState {
  std::mutex mutex;
  std::size_t remaining = 0;
};

double measure_seed_dependency_edge(std::size_t iters) {
  auto state = std::make_unique<SeedDepState>();
  state->remaining = iters + 1;
  g_escape = state.get();
  std::uint64_t fired = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) {
    std::scoped_lock lock(state->mutex);
    if (--state->remaining == 0) ++fired;
  }
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  PARC_CHECK(fired == 0);
  g_sink = g_sink + state->remaining;
  g_escape = nullptr;
  return ns;
}

double measure_core_dependency_edge(std::size_t iters) {
  DependencyCounter deps(iters + 1);
  std::uint64_t fired = 0;
  Stopwatch sw;
  for (std::size_t i = 0; i < iters; ++i) fired += deps.satisfy() ? 1 : 0;
  const double ns = sw.elapsed_ns() / static_cast<double>(iters);
  // Release the registration hold: the last satisfy, outside the window.
  fired += deps.satisfy() ? 1 : 0;
  PARC_CHECK(fired == 1);
  g_sink = g_sink + fired;
  return ns;
}

// Parked-join wakeup: complete() → a parked waiter returning from wait().
// The waiter gets 2 ms to pass its spin phase and park, so this measures
// the futex (resp. condition-variable) wake path, not the spin path.
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median, not mean: each round is one sample of an OS wake path, and a
// single descheduled round on a 1-core container can be 100x the typical
// latency — the median is the number a student can reproduce.
template <typename State>
double measure_join_wakeup_us(std::size_t rounds) {
  std::vector<double> samples;
  samples.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    State state;
    std::atomic<std::int64_t> woke_at{0};
    std::thread waiter([&] {
      state.wait();
      woke_at.store(now_ns(), std::memory_order_release);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const std::int64_t t0 = now_ns();
    state.complete();
    waiter.join();
    samples.push_back(
        static_cast<double>(woke_at.load(std::memory_order_acquire) - t0) /
        1000.0);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

}  // namespace
}  // namespace parc::sched

int main(int argc, char** argv) {
  using namespace parc;
  using namespace parc::sched;

  // Every run measures each row, asserts its gates (zero-alloc windows,
  // trace budget, cross-shard counters) and writes
  // BENCH_sched_overhead.json. --json, which CI passes, is accepted for
  // the shared spelling but selects nothing here.
  (void)bench::parse(argc, argv);

  constexpr std::size_t kIters = 200000;

  Table table("Scheduler fast-path microcosts (1-core container)");
  table.columns({"operation", "seed path ns", "fast path ns", "speedup"});

  const double seed_cycle = measure_seed_job_cycle(kIters);
  const double cell_cycle = measure_task_cell_cycle(kIters);
  table.add_row()
      .cell("job create+run+release (small capture)")
      .cell(seed_cycle, 1)
      .cell(cell_cycle, 1)
      .cell(seed_cycle / cell_cycle, 2);

  const double seed_inject = measure_seed_injection(kIters);
  const double mpsc_inject = measure_mpsc_injection(kIters);
  table.add_row()
      .cell("external inject+drain (1 thread)")
      .cell(seed_inject, 1)
      .cell(mpsc_inject, 1)
      .cell(seed_inject / mpsc_inject, 2);

  const double push_pop = measure_deque_push_pop(kIters);
  const double steal = measure_deque_steal(100000);
  table.add_row()
      .cell("deque owner push+pop")
      .cell("-")
      .cell(push_pop, 1)
      .cell("-");
  table.add_row().cell("deque steal").cell("-").cell(steal, 1).cell("-");

  // Completion core (ISSUE 3): seed mutex+cv TaskState vs sched::Completion.
  // glibc skips mutex atomics entirely while a process is single-threaded,
  // which would flatter the seed numbers: the seed runtime always had pool
  // workers alive. A parked keeper thread (zero CPU: futex wait) restores
  // the multi-threaded lock paths for the measured window.
  std::atomic<std::uint32_t> keeper_flag{0};
  std::thread keeper([&keeper_flag] { keeper_flag.wait(0); });

  const double seed_complete = measure_seed_complete_cycle(kIters);
  const double core_complete = measure_core_complete_cycle(kIters);
  table.add_row()
      .cell("completion: construct+complete, no waiter")
      .cell(seed_complete, 1)
      .cell(core_complete, 1)
      .cell(seed_complete / core_complete, 2);

  const double seed_notify = measure_seed_notify_one(kIters);
  const double core_notify = measure_core_notify_one(kIters);
  table.add_row()
      .cell("completion: notify one dependent")
      .cell(seed_notify, 1)
      .cell(core_notify, 1)
      .cell(seed_notify / core_notify, 2);

  const double seed_edge = measure_seed_dependency_edge(kIters);
  const double core_edge = measure_core_dependency_edge(kIters);
  table.add_row()
      .cell("dependency resolution, ns/edge")
      .cell(seed_edge, 1)
      .cell(core_edge, 1)
      .cell(seed_edge / core_edge, 2);

  const double seed_join_us = measure_join_wakeup_us<SeedCompletionState>(50);
  const double core_join_us = measure_join_wakeup_us<Completion>(50);
  table.add_row()
      .cell("parked join wakeup latency (us)")
      .cell(seed_join_us, 1)
      .cell(core_join_us, 1)
      .cell(seed_join_us / core_join_us, 2);

  keeper_flag.store(1);
  keeper_flag.notify_one();
  keeper.join();

  constexpr std::size_t kSpawns = 100000;
  const SpawnResult spawn = measure_run_after_pending(kSpawns);
  PARC_CHECK_MSG(spawn.allocs <= kSpawnAllocSlack,
                 "run_after allocated per spawn on a warm runtime");
  table.add_row()
      .cell("ptask run_after, 2 pending deps, ns/spawn")
      .cell("-")
      .cell(spawn.ns_per_spawn, 1)
      .cell("-");
  table.add_row()
      .cell("  heap allocs per spawn")
      .cell("-")
      .cell(static_cast<double>(spawn.allocs) / static_cast<double>(kSpawns),
            4)
      .cell("-");

  {
    // One worker: keeps the submit→run cycle on a single deque so the
    // zero-allocation window cannot be perturbed by a sibling's steal.
    WorkStealingPool pool(WorkStealingPool::Config{1, 4, "bench-local"});
    const LocalSubmitResult local =
        measure_worker_local_submit(pool, kIters, SubmitHint::auto_);
    // The acceptance gate: the warm worker-local submit path must not touch
    // the heap for inline-sized captures.
    PARC_CHECK_MSG(local.allocs_in_window == 0,
                   "worker-local submit path allocated on the fast path");
    table.add_row()
        .cell("pool worker-local submit+run")
        .cell("-")
        .cell(local.ns_per_job, 1)
        .cell("-");
    table.add_row()
        .cell("  heap allocs in measured window")
        .cell("-")
        .cell(static_cast<std::uint64_t>(local.allocs_in_window))
        .cell("-");

    // The continuation-stealing hand-off path: same cycle with the explicit
    // local hint, which adds the soft-cap check and outcome counter. Must
    // stay allocation-free too — this is the path every dependsOn release
    // takes on a worker.
    const LocalSubmitResult hinted =
        measure_worker_local_submit(pool, kIters, SubmitHint::local);
    PARC_CHECK_MSG(hinted.allocs_in_window == 0,
                   "hinted-local submit path allocated on the fast path");
    table.add_row()
        .cell("pool worker-local submit+run, hint=local")
        .cell("-")
        .cell(hinted.ns_per_job, 1)
        .cell("-");

    const double external = measure_external_submit(pool, kIters);
    table.add_row()
        .cell("pool external submit (amortised)")
        .cell("-")
        .cell(external, 1)
        .cell("-");

    const double wakeup_us = measure_parked_wakeup(pool, 50);
    table.add_row()
        .cell("parked-worker wakeup latency (us)")
        .cell("-")
        .cell(wakeup_us, 1)
        .cell("-");

    const double wakeup_local_us = measure_parked_wakeup_local_push(50);
    table.add_row()
        .cell("parked sibling wake via local push (us)")
        .cell("-")
        .cell(wakeup_local_us, 1)
        .cell("-");

    // pj nested-region cost: what an inner region(2) adds over a flat
    // region(2). The delta is the pool-routed inner fork/join (reserve +
    // exclusive submit + helped join), not a second thread spawn.
    const double region_flat_us = measure_region_forkjoin_us(200, false);
    const double region_depth2_us = measure_region_forkjoin_us(200, true);
    table.add_row()
        .cell("pj region(2) fork+join, flat (us)")
        .cell("-")
        .cell(region_flat_us, 1)
        .cell("-");
    table.add_row()
        .cell("pj region(2) fork+join, depth 2 (us)")
        .cell("-")
        .cell(region_depth2_us, 1)
        .cell("-");
    table.add_row()
        .cell("  inner-region fork/join delta (us)")
        .cell("-")
        .cell(region_depth2_us - region_flat_us, 1)
        .cell("-");

    // --- tracing overhead: the obs acceptance gates ----------------------
    // Idle gate: one relaxed load + predicted branch, budgeted at <= 5 ns.
    const double gate_ns = measure_trace_gate_cost(kIters);
    table.add_row()
        .cell("trace hook, compiled in but idle")
        .cell("-")
        .cell(gate_ns, 2)
        .cell("-");
    if (obs::kTraceCompiled) {
      PARC_CHECK_MSG(gate_ns <= 5.0,
                     "idle trace hook exceeds the 5 ns/job budget");
    }

    // Live session: same worker-local cycle while every submit/exec emits
    // events. The window must still be allocation-free — events land in the
    // session's preallocated per-thread buffer (warmup registers the
    // worker's buffer before the counted window opens).
    double traced_ns = 0.0;
    std::uint64_t traced_events = 0;
    if (obs::kTraceCompiled) {
      constexpr std::size_t kTracedIters = 20000;
      obs::TraceSession session({.events_per_thread = 1u << 17});
      const LocalSubmitResult traced =
          measure_worker_local_submit(pool, kTracedIters, SubmitHint::auto_);
      const obs::TraceDump dump = session.end();
      PARC_CHECK_MSG(traced.allocs_in_window == 0,
                     "tracing a worker-local submit allocated per job");
      PARC_CHECK_MSG(dump.total_dropped() == 0,
                     "trace buffer sized too small for the bench window");
      traced_ns = traced.ns_per_job;
      traced_events = dump.total_events();
      table.add_row()
          .cell("pool worker-local submit+run, trace live")
          .cell("-")
          .cell(traced_ns, 1)
          .cell("-");
      table.add_row()
          .cell("  events captured / heap allocs in window")
          .cell("-")
          .cell(traced_events)
          .cell(static_cast<std::uint64_t>(traced.allocs_in_window));
    }

    // --- locality domains: the sharded-pool acceptance gates -------------
    // Same submit→run cycles on a 2-domain pool, the other domain's worker
    // held hostage so it cannot steal out of the 1-deep window. Sharding
    // must cost the fast path nothing: the zero-allocation gates are
    // asserted identically, and the ns/job rows let EXPERIMENTS.md show the
    // envelopes holding (≈2.4 ns auto, ≈47 ns hint=local on this container).
    LocalSubmitResult s2_local;
    LocalSubmitResult s2_hinted;
    {
      WorkStealingPool pool2(
          WorkStealingPool::Config{2, 4, "bench-local-s2", 4096, 2});
      ShardHostage hostage;
      hostage.take(pool2, 1);
      s2_local = measure_worker_local_submit(pool2, kIters, SubmitHint::auto_);
      PARC_CHECK_MSG(s2_local.allocs_in_window == 0,
                     "worker-local submit allocated on a 2-domain pool");
      s2_hinted = measure_worker_local_submit(pool2, kIters, SubmitHint::local);
      PARC_CHECK_MSG(s2_hinted.allocs_in_window == 0,
                     "hinted-local submit allocated on a 2-domain pool");
      hostage.free();
    }
    table.add_row()
        .cell("pool worker-local submit+run, 2 domains")
        .cell("-")
        .cell(s2_local.ns_per_job, 1)
        .cell("-");
    table.add_row()
        .cell("pool worker-local, hint=local, 2 domains")
        .cell("-")
        .cell(s2_hinted.ns_per_job, 1)
        .cell("-");

    // Hostage-round wake paths across a domain boundary: the local-push
    // variant (continuation hand-off) and the explicit-shard variant. Both
    // rely on signal_work's fallback cross-shard wake; the counter assert
    // below pins that the fallback actually fired, not that some sweep got
    // lucky.
    const double wakeup_local_s2_us = measure_parked_wakeup_local_push(50, 2);
    table.add_row()
        .cell("parked sibling wake via local push, 2 domains (us)")
        .cell("-")
        .cell(wakeup_local_s2_us, 1)
        .cell("-");
    std::uint64_t fallback_wakes = 0;
    const double cross_wake_us =
        measure_cross_shard_fallback_wake(50, &fallback_wakes);
    PARC_CHECK_MSG(fallback_wakes >= 1,
                   "no cross-shard fallback wake fired in 50 hostage rounds");
    table.add_row()
        .cell("cross-shard fallback wake latency (us)")
        .cell("-")
        .cell(cross_wake_us, 1)
        .cell("-");

    // The hierarchical-stealing gate: under all-local load on a 4-domain
    // pool, cross-shard steals must stay under 10% of executed jobs.
    // Counter assert only — no timing threshold, so a loaded CI box cannot
    // flake it.
    const ShardLocalLoadOutcome shard_load = run_shard_local_load(20000);
    PARC_CHECK_MSG(shard_load.cross_steals * 10 <= shard_load.executed,
                   "cross-shard steals exceed 10% of all-local load");
    const double cross_per_1k =
        shard_load.executed > 0
            ? 1000.0 * static_cast<double>(shard_load.cross_steals) /
                  static_cast<double>(shard_load.executed)
            : 0.0;
    table.add_row()
        .cell("all-local load: cross-shard steals / 1k jobs (4 domains)")
        .cell("-")
        .cell(cross_per_1k, 2)
        .cell("-");

    bench::JsonReport report("sched_overhead");
    report.config("workers", "1")
        .config("shards", "1")
        .config("shard_variants", "2,4")
        .config("trace_compiled", obs::kTraceCompiled ? "1" : "0");
    report.add("seed_job_cycle", seed_cycle)
        .add("task_cell_cycle", cell_cycle)
        .add("seed_injection", seed_inject)
        .add("mpsc_injection", mpsc_inject)
        .add("deque_push_pop", push_pop)
        .add("deque_steal", steal)
        .add("worker_local_submit", local.ns_per_job)
        .add("worker_local_submit_hint_local", hinted.ns_per_job)
        .add("external_submit", external)
        .add("parked_wakeup", wakeup_us * 1000.0)
        .add("parked_wakeup_local_push", wakeup_local_us * 1000.0)
        .add("pj_region_forkjoin_flat", region_flat_us * 1000.0)
        .add("pj_region_forkjoin_depth2", region_depth2_us * 1000.0)
        .add("seed_complete_cycle", seed_complete)
        .add("core_complete_cycle", core_complete)
        .add("seed_notify_one", seed_notify)
        .add("core_notify_one", core_notify)
        .add("seed_dependency_edge", seed_edge)
        .add("core_dependency_edge", core_edge)
        .add("run_after_pending_spawn", spawn.ns_per_spawn)
        .add("seed_join_wakeup", seed_join_us * 1000.0)
        .add("core_join_wakeup", core_join_us * 1000.0)
        .add("trace_gate_idle", gate_ns)
        .add("worker_local_submit_shards2", s2_local.ns_per_job)
        .add("worker_local_submit_hint_local_shards2", s2_hinted.ns_per_job)
        .add("parked_wakeup_local_push_shards2", wakeup_local_s2_us * 1000.0)
        .add("cross_shard_fallback_wake", cross_wake_us * 1000.0)
        .add("shard_local_cross_steals_per_1k", cross_per_1k);
    if (obs::kTraceCompiled) {
      report.add("worker_local_submit_traced", traced_ns);
    }
    report.write();
  }

  bench::emit(table);
  std::printf("zero-allocation fast path: PASS\n");
  std::printf("trace overhead gates: PASS\n");
  std::printf("cross-shard steal/wake gates: PASS\n");
  return 0;
}
