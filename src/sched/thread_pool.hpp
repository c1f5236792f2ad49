// Work-stealing thread pool: the execution engine under both the
// ParallelTask runtime (parc::ptask) and the Pyjama runtime (parc::pj).
//
// Design (all per C++ Core Guidelines CP rules):
//  - one Chase–Lev deque per worker; a worker pushes spawned jobs to its own
//    deque and pops LIFO (work-first, good locality), thieves steal FIFO;
//  - jobs live in recyclable small-buffer TaskCells (task_cell.hpp) drawn
//    from per-worker freelists backed by slabs: a worker-local submit of a
//    small capture performs zero heap allocations;
//  - workers are partitioned into *locality domains* (Config::shards):
//    each shard owns its own lock-free Vyukov MPSC injection queue, its own
//    exclusive-job queue, and its own park list (epoch + condition
//    variable), so a submission wakes and feeds only the domain it targets;
//  - victim selection is hierarchical: a worker pops its own deque, drains
//    its own shard's injection queue, steals from shard siblings
//    (randomized start), and only when its whole shard runs dry probes
//    remote shards (injection queue first, then deques). Local vs
//    cross-shard steals are counted separately (Stats), and cross-shard
//    steals emit their own trace event (kStealRemote);
//  - submission is locality-hinted (SubmitHint): newly-ready continuations
//    and dependence-released tasks completed on a worker are pushed onto
//    that worker's own deque tail (continuation stealing — cache-hot,
//    LIFO-next, steal-able by idle siblings), with a counted fallback to
//    injection for non-worker completers and a soft-cap overflow so a deep
//    local backlog stays visible to thieves. A submission may also name an
//    explicit shard (submit(fn, hint, shard)), which routes to that shard's
//    injection queue regardless of the submitting thread;
//  - workers park on their shard's condition variable when repeated steal
//    sweeps fail; bulk submissions (submit_bulk / submit_n) bump the shard
//    epoch and notify once per batch, not once per job. When a submission
//    targets a shard with no parked workers while another shard has some,
//    one remote sleeper is woken as a work-conservation fallback (counted
//    as cross_shard_wakes) — a job must never wait on a busy shard while
//    any worker in the pool sleeps;
//  - blocking waits never block a worker thread: waiters call help_while(),
//    executing pending jobs until their condition holds. This is what makes
//    nested task waits (recursive quicksort!) and the project-6 "task-safe"
//    collections deadlock-free on a bounded pool;
//  - threads are joined in the destructor (never detached, CP.26).
//
// Wakeup ordering contract (signal_work / park), per shard: a submitter
// fully publishes the job (deque push or completed MPSC link), then
// increments the target shard's `work_epoch` (release) and, only if that
// shard's `sleepers > 0`, takes its `park_mutex` and notifies. A parking
// worker snapshots its own shard's epoch, re-scans every queue (all
// shards), and then waits on the CV with the predicate `epoch != snapshot`.
// Any submission targeting this shard that the re-scan could have missed
// must have bumped the epoch after the snapshot, so the predicate is
// already true and the wait returns immediately. A submission targeting
// *another* shard wakes that shard's sleepers (or, via the fallback above,
// bumps this shard's epoch too before notifying here), so no job is ever
// stranded behind a parked pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "sched/chase_lev_deque.hpp"
#include "sched/mpsc_queue.hpp"
#include "sched/task_cell.hpp"
#include "support/backoff.hpp"
#include "support/rng.hpp"

namespace parc::sched {

/// Number of workers to use when the caller does not say: the hardware
/// concurrency, but at least 2 so that parallel semantics are exercised even
/// on single-core containers like CI runners.
[[nodiscard]] std::size_t default_concurrency() noexcept;

/// Locality hint for the submission surface: where a job should land
/// relative to the submitting thread. Every submit/submit_bulk/submit_n
/// overload takes one; the unhinted spellings forward `auto_`.
enum class SubmitHint : std::uint8_t {
  /// Resolve at submit time: the caller's own deque when the caller is a
  /// worker of this pool, the injection queue otherwise. The right default
  /// for fresh spawns.
  auto_,
  /// Continuation hand-off: the job is newly-ready dependent work whose
  /// inputs are hot in the submitting worker's cache, so it belongs on that
  /// worker's deque tail (LIFO-next, steal-able by idle siblings). From a
  /// non-worker thread this falls back to injection (counted, so traces
  /// show where dependent work actually ran); on a worker whose deque is
  /// past Config::local_queue_soft_cap it overflows to injection to keep
  /// ready work visible to thieves that only probe the MPSC queue.
  local,
  /// Force the injection queue even from a worker: FIFO-fair work that
  /// should not shadow the worker's own LIFO stack (e.g. bench harnesses
  /// isolating the wakeup path). Combined with an explicit shard id this is
  /// the "run over there" spelling: the job lands on the named locality
  /// domain's injection queue.
  remote,
};

class WorkStealingPool {
 public:
  /// "No shard named": submissions resolve their target shard from the
  /// submitting thread (its home shard for workers, its bound shard for
  /// pinned externals, a stable thread hash otherwise).
  static constexpr std::size_t kAnyShard = static_cast<std::size_t>(-1);

  struct Config {
    std::size_t num_threads = default_concurrency();
    /// Steal sweeps over all victims before a worker parks.
    std::size_t sweeps_before_park = 4;
    std::string name = "parc";
    /// SubmitHint::local pushes overflow to the injection queue once the
    /// submitter's own deque holds this many jobs (the Chase–Lev deque
    /// itself grows without bound; the cap is a visibility/fairness policy,
    /// not a capacity limit). Checked only on the hinted-local path.
    std::size_t local_queue_soft_cap = 4096;
    /// Locality domains the workers are partitioned into (contiguous
    /// blocks). 1 = the classic single-domain pool (behavior-identical to
    /// the pre-shard scheduler); 0 = auto (workers / 4, at least 1). Always
    /// clamped to num_threads so no shard is empty.
    std::size_t shards = 1;
  };

  /// Per-shard counter snapshot (see stats() for the consistency contract).
  struct ShardStats {
    std::uint64_t executed = 0;      ///< jobs run by this shard's workers
    std::uint64_t stolen = 0;        ///< successful steals (local + cross)
    std::uint64_t stolen_local = 0;  ///< victim was a shard sibling
    std::uint64_t stolen_cross = 0;  ///< victim was in another shard
    std::uint64_t cross_probes = 0;  ///< sweeps that went past the own shard
    std::uint64_t parked = 0;        ///< times a worker of this shard slept
    std::uint64_t steal_fails = 0;   ///< sweeps that found no job
    std::uint64_t injected_high_water = 0;  ///< shard MPSC depth (traced only)
    /// Workers of this shard asleep right now (gauge, not monotonic). A
    /// worker counts from the moment its final pre-park re-scan came up
    /// empty, so `sleeping == shard size` means no worker of the shard can
    /// take a job until a submission bumps the work epoch.
    std::uint64_t sleeping = 0;
  };

  /// Counter snapshot. Consistency contract: every counter is a relaxed
  /// atomic written by its owning worker (or, for pool-level counters, by
  /// arbitrary submitters) and summed here without any synchronisation —
  /// the snapshot is *not* a consistent cut. Each counter is monotonic and
  /// eventually visible, so deltas observed after a quiescent point (all
  /// submitted work known to have completed) are exact; mid-run reads may
  /// transiently disagree across counters (e.g. `executed` can lag the
  /// `stolen` that fed it). Tests that assert exact counts must quiesce
  /// first. `shard(i)` exposes the same counters per locality domain;
  /// pool-wide fields are always the sum of their shard columns plus the
  /// non-worker contributions (helped, continuation_inject_fallback).
  struct Stats {
    std::uint64_t executed = 0;     ///< jobs run to completion
    std::uint64_t stolen = 0;       ///< jobs obtained by stealing
    std::uint64_t parked = 0;       ///< times a worker went to sleep
    std::uint64_t sleeping = 0;     ///< workers asleep right now (gauge)
    std::uint64_t helped = 0;       ///< jobs run inside help_while()
    std::uint64_t steal_fails = 0;  ///< worker sweeps that found no job
    /// Queue-depth high-water marks. Sampled on the enqueue path only while
    /// an obs trace session is live (the sample costs a size_approx, which
    /// the idle fast path must not pay); 0 if never traced.
    std::uint64_t deque_high_water = 0;     ///< max local deque depth
    std::uint64_t injected_high_water = 0;  ///< max injection queue depth
    // Continuation-stealing hand-off outcomes (SubmitHint::local).
    std::uint64_t continuation_local_pushed = 0;   ///< landed on own deque
    std::uint64_t continuation_inject_fallback = 0;  ///< non-worker submitter
    std::uint64_t deque_overflows = 0;  ///< soft cap hit, spilled to inject
    // Exclusive-job / capacity-reservation outcomes (nested pj regions).
    std::uint64_t exclusive_submitted = 0;     ///< jobs via submit_exclusive
    std::uint64_t reservations_granted = 0;    ///< try_reserve_capacity ok
    std::uint64_t reservations_denied = 0;     ///< pool saturated
    // Hierarchical stealing outcomes. stolen_shard_local counts steals with
    // a same-domain victim (== stolen when Config::shards is 1); the cross
    // counters are all zero at shards=1.
    std::uint64_t stolen_shard_local = 0;  ///< steals with a same-shard victim
    std::uint64_t stolen_cross_shard = 0;  ///< steals that crossed a domain
    std::uint64_t cross_shard_probes = 0;  ///< sweeps entering the remote phase
    std::uint64_t cross_shard_wakes = 0;   ///< fallback wakes of a remote sleeper

    /// Per-shard snapshots, one entry per locality domain.
    std::vector<ShardStats> shards;
    [[nodiscard]] const ShardStats& shard(std::size_t i) const {
      return shards.at(i);
    }
  };

  WorkStealingPool() : WorkStealingPool(Config{}) {}
  explicit WorkStealingPool(Config cfg);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  /// Enqueue a job. Placement follows `hint` (see SubmitHint) and `shard`:
  /// a worker submitting to its own pool lands on its local deque
  /// (allocation-free for captures up to TaskCell::kInlineBytes) unless an
  /// explicit shard routes it to that domain's injection queue; any other
  /// thread goes to the resolved shard's lock-free injection queue.
  template <typename F>
  void submit(F&& fn, SubmitHint hint, std::size_t shard = kAnyShard) {
    if constexpr (std::is_constructible_v<bool, const std::decay_t<F>&>) {
      PARC_CHECK(static_cast<bool>(fn));
    }
    TaskCell* cell = acquire_cell();
    cell->emplace(std::forward<F>(fn));
    stamp_cell(cell);
    const std::size_t target = enqueue_cell(cell, hint, shard);
    signal_work(target, 1);
  }

  /// Unhinted legacy spelling: forwards SubmitHint::auto_.
  template <typename F>
  void submit(F&& fn) {
    submit(std::forward<F>(fn), SubmitHint::auto_);
  }

  /// Enqueue a batch of jobs (moved from), waking workers once for the
  /// whole batch instead of once per job. Used by the runtimes' chunked
  /// fan-out (ptask::run_multi). The whole batch targets one shard.
  template <typename F>
  void submit_bulk(std::span<F> fns, SubmitHint hint,
                   std::size_t shard = kAnyShard) {
    if (fns.empty()) return;
    std::size_t target = 0;
    for (F& fn : fns) {
      TaskCell* cell = acquire_cell();
      cell->emplace(std::move(fn));
      stamp_cell(cell);
      target = enqueue_cell(cell, hint, shard);
    }
    signal_work(target, fns.size());
  }

  /// Unhinted legacy spelling: forwards SubmitHint::auto_.
  template <typename F>
  void submit_bulk(std::span<F> fns) {
    submit_bulk(fns, SubmitHint::auto_);
  }

  /// Enqueue `count` jobs produced by `factory(i)` for i in [0, count) —
  /// the no-intermediate-storage spelling of submit_bulk for generated
  /// closures. One wakeup for the whole batch.
  template <typename Factory>
  void submit_n(std::size_t count, Factory&& factory, SubmitHint hint,
                std::size_t shard = kAnyShard) {
    if (count == 0) return;
    std::size_t target = 0;
    for (std::size_t i = 0; i < count; ++i) {
      TaskCell* cell = acquire_cell();
      cell->emplace(factory(i));
      stamp_cell(cell);
      target = enqueue_cell(cell, hint, shard);
    }
    signal_work(target, count);
  }

  /// Unhinted legacy spelling: forwards SubmitHint::auto_.
  template <typename Factory>
  void submit_n(std::size_t count, Factory&& factory) {
    submit_n(count, std::forward<Factory>(factory), SubmitHint::auto_);
  }

  /// Enqueue a job that may *block its worker for long stretches* — a team
  /// member body parking or poll-waiting at region barriers. Exclusive jobs
  /// are taken only by workers at the top of their loop, never by
  /// try_run_one()/help_while(): a waiter that helps can have a blocked
  /// frame buried under it on the same stack, and running a member job
  /// there would let that member's barrier wait on the very frame it is
  /// sitting on (deadlock). Giving each member a fresh top-level worker
  /// frame makes member-to-member waits acyclic.
  ///
  /// `shard` names the locality domain whose workers should *prefer* the
  /// job (the pj places binding hook): it lands on that shard's exclusive
  /// queue, which that shard's workers check first at the top of every
  /// loop. The binding is soft — any worker drains foreign exclusive
  /// queues right after its own, so the "some top-of-loop frame always
  /// exists" deadlock-freedom argument is unchanged from the unsharded
  /// pool.
  ///
  /// Callers must bound in-flight exclusive jobs with
  /// try_reserve_capacity() first — exclusive jobs cannot be helped, so
  /// without a reservation more members than workers would wait forever.
  template <typename F>
  void submit_exclusive(F&& fn, std::size_t shard = kAnyShard) {
    TaskCell* cell = acquire_cell();
    cell->emplace(std::forward<F>(fn));
    stamp_cell(cell);
    exclusive_submitted_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t target = resolve_shard(shard);
    push_exclusive(cell, target);
    signal_work(target, 1);
  }

  /// Reserve `n` units of blocking capacity (one unit ≈ one worker that may
  /// sit in a blocked/poll-waiting frame). Fails — without blocking — once
  /// the total outstanding reservation would exceed worker_count(); the
  /// caller then falls back to spawning its own threads. Pairs with
  /// release_capacity().
  [[nodiscard]] bool try_reserve_capacity(std::size_t n) noexcept;
  void release_capacity(std::size_t n) noexcept;
  /// Currently reserved blocking capacity (tests/stats only).
  [[nodiscard]] std::size_t reserved_capacity() const noexcept {
    return reserved_.load(std::memory_order_acquire);
  }

  /// Run one pending job on the calling thread, if any is available.
  /// Returns false when nothing was found. Safe from any thread. Never runs
  /// exclusive jobs (see submit_exclusive).
  bool try_run_one();

  /// Cooperatively wait: run pending jobs while `keep_waiting()` is true.
  /// The calling thread (worker or external) donates itself to the pool for
  /// the duration, so waiting can never starve the pool. Templated on the
  /// predicate so hot join loops (Barrier arrivals, JoinLatch waits) pay no
  /// std::function wrap per wait.
  template <typename Pred>
  void help_while(Pred&& keep_waiting) {
    // Spin → yield → doubling sleep: nothing runnable means the condition
    // is waiting on a job executing elsewhere; escalate instead of burning
    // a core on oversubscribed hosts, and restart cheap after each helped
    // job.
    ExponentialBackoff backoff(/*spins_before_yield=*/64,
                               /*yields_before_sleep=*/32);
    while (keep_waiting()) {
      if (try_run_one()) {
        helped_.fetch_add(1, std::memory_order_relaxed);
        if (obs::tracing()) [[unlikely]] {
          // A waiter productively drained a job instead of blocking: the
          // completion core's "help" leg, visible next to kWaiterPark/Wake.
          obs::emit(obs::EventKind::kWaiterHelp, 0, 0);
        }
        backoff.reset();
        continue;
      }
      backoff.pause();
    }
  }

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Number of locality domains (Config::shards after clamping).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Home shard of worker `worker` (workers are partitioned into contiguous
  /// blocks: shard s owns [s*W/S, (s+1)*W/S)).
  [[nodiscard]] std::size_t shard_of_worker(std::size_t worker) const {
    return worker_shard_.at(worker);
  }

  /// Pool that the calling thread belongs to, or nullptr.
  [[nodiscard]] static WorkStealingPool* current_pool() noexcept;
  /// Worker index of the calling thread within its pool, or -1.
  [[nodiscard]] static int current_worker() noexcept;

  /// Per-worker pinning hook (the pj places binding): route this thread's
  /// future un-shard-named injections (and exclusive submissions) to
  /// `shard`, taken modulo each pool's shard count at use. kAnyShard
  /// clears. A process-wide thread property, not per-pool: a thread binds
  /// to one locality domain at a time.
  static void bind_thread_to_shard(std::size_t shard) noexcept;
  /// The calling thread's bound shard, or kAnyShard when unbound.
  [[nodiscard]] static std::size_t thread_bound_shard() noexcept;

  /// Shard the calling thread submits to by default: a worker's home shard,
  /// a bound thread's binding (mod shard_count), else kAnyShard.
  [[nodiscard]] std::size_t current_shard() const noexcept;

  [[nodiscard]] Stats stats() const;

  /// Approximate number of queued-but-unstarted jobs (stats/tests only).
  [[nodiscard]] std::size_t pending_approx() const;

 private:
  /// Per-worker state, cache-line padded so one worker's deque activity and
  /// stat counters never false-share with a neighbour's.
  struct alignas(kCacheLineSize) Worker {
    explicit Worker(std::uint64_t seed) : rng(seed) {}
    ChaseLevDeque<TaskCell> deque;
    Rng rng;
    std::uint32_t shard = 0;  ///< home shard index (set once at pool start)
    // Stat counters are written only by the owning worker (a relaxed load
    // plus store, no locked RMW) and read by stats() from arbitrary
    // threads: relaxed atomics (counts, not synchronisation).
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> stolen_cross{0};  ///< victim in another shard
    std::atomic<std::uint64_t> cross_probes{0};  ///< sweeps gone remote
    std::atomic<std::uint64_t> parked{0};
    std::atomic<std::uint64_t> steal_fails{0};
    std::atomic<std::uint64_t> deque_hw{0};  ///< sampled only while tracing
    // Continuation-stealing outcomes on this worker (SubmitHint::local).
    std::atomic<std::uint64_t> cont_local{0};
    std::atomic<std::uint64_t> overflowed{0};
    // Owner-only cell freelist, chained through TaskCell::next.
    TaskCell* free_head = nullptr;
    std::size_t free_count = 0;
  };

  /// One locality domain: its injection/exclusive queues and park list.
  /// Cache-line padded so one shard's submission traffic never false-shares
  /// with a neighbour domain's.
  struct alignas(kCacheLineSize) Shard {
    // Lock-free producers; consumers serialise via the try-lock (failing it
    // means "someone else is draining — go steal instead").
    MpscIntrusiveQueue<TaskCell> injected;
    alignas(kCacheLineSize) std::atomic_flag inject_pop_lock{};
    // Exclusive jobs bound (softly) to this domain: drained only by
    // worker_loop frames, own-shard workers first.
    MpscIntrusiveQueue<TaskCell> exclusive;
    alignas(kCacheLineSize) std::atomic_flag exclusive_pop_lock{};
    // Park list: the per-shard wakeup protocol state (see header comment).
    std::mutex park_mutex;
    std::condition_variable park_cv;
    alignas(kCacheLineSize) std::atomic<std::uint64_t> work_epoch{0};
    alignas(kCacheLineSize) std::atomic<int> sleepers{0};
    std::atomic<std::uint64_t> injected_hw{0};  ///< sampled while tracing
    std::size_t first_worker = 0;  ///< contiguous worker block [first, first+n)
    std::size_t num_workers = 0;
  };

  /// Give the freshly emplaced job an obs trace id and record its enqueue.
  /// One relaxed load + predicted-untaken branch when no session is live;
  /// compiles to the plain `trace_id = 0` store at PARC_TRACE=OFF.
  void stamp_cell(TaskCell* cell) noexcept {
    if (obs::tracing()) [[unlikely]] {
      cell->trace_id = obs::next_id();
      obs::emit(obs::EventKind::kJobEnqueue, cell->trace_id, 0);
    } else {
      cell->trace_id = 0;
    }
  }

  void worker_loop(std::size_t index);
  TaskCell* find_worker_job(std::size_t index);
  TaskCell* find_job(std::size_t self_or_npos);
  TaskCell* pop_exclusive(std::size_t shard);
  TaskCell* pop_exclusive_any(std::size_t home_shard);
  [[nodiscard]] bool any_exclusive_pending() const noexcept;
  TaskCell* steal_within_shard(std::size_t self, Rng& rng);
  TaskCell* steal_remote_shards(std::size_t self);
  void signal_work(std::size_t shard, std::size_t jobs);
  void run_cell(TaskCell* cell);

  // Cell recycling (see task_cell.hpp for the lifecycle).
  TaskCell* acquire_cell();
  void release_cell(TaskCell* cell);
  void refill_freelist(Worker& w);
  /// Places the cell per hint/shard; returns the shard whose park list must
  /// be signalled.
  std::size_t enqueue_cell(TaskCell* cell, SubmitHint hint, std::size_t shard);
  void push_injected(TaskCell* cell, std::size_t shard);
  void push_exclusive(TaskCell* cell, std::size_t shard);
  TaskCell* pop_injected(std::size_t shard);
  /// Map a caller-supplied shard id (or kAnyShard) to a concrete shard.
  [[nodiscard]] std::size_t resolve_shard(std::size_t requested) const;

  Config cfg_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> worker_shard_;  ///< worker index → shard index
  std::vector<std::thread> threads_;

  /// Outstanding blocking-capacity reservation (≤ worker_count()).
  alignas(kCacheLineSize) std::atomic<std::size_t> reserved_{0};

  // Slab arena backing the recycled cells. The mutex guards slab creation
  // only (rare); cross-thread cell returns go through the lock-free
  // `arena_free_` Treiber stack, drained wholesale by refill_freelist.
  std::mutex arena_mutex_;
  std::vector<std::unique_ptr<TaskCell[]>> slabs_;  // guarded by arena_mutex_
  alignas(kCacheLineSize) std::atomic<TaskCell*> arena_free_{nullptr};

  alignas(kCacheLineSize) std::atomic<bool> stop_{false};

  alignas(kCacheLineSize) std::atomic<std::uint64_t> helped_{0};
  /// SubmitHint::local from a thread that is not one of this pool's workers
  /// (EDT, main thread, cross-pool completers): written from arbitrary
  /// threads, hence pool-level rather than per-worker.
  std::atomic<std::uint64_t> cont_inject_fallback_{0};
  std::atomic<std::uint64_t> exclusive_submitted_{0};
  std::atomic<std::uint64_t> reserve_granted_{0};
  std::atomic<std::uint64_t> reserve_denied_{0};
  /// Fallback wakes: submissions that found their target shard sleeper-free
  /// and woke a parked worker of another shard instead.
  std::atomic<std::uint64_t> cross_shard_wakes_{0};

  // For external (non-worker) threads taking jobs: rotate steal start.
  alignas(kCacheLineSize) std::atomic<std::size_t> external_cursor_{0};
};

}  // namespace parc::sched
