#include "sched/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "sched/completion.hpp"
#include "support/check.hpp"

namespace parc::sched {

namespace {
// Identity of the calling thread within a pool. Plain thread_locals: a
// thread belongs to at most one pool for its lifetime.
thread_local WorkStealingPool* t_pool = nullptr;
thread_local int t_worker = -1;
// pj-places pinning hook: the locality domain this thread's unnamed
// injections route to (kAnyShard = unbound). Process-wide, taken modulo
// each pool's shard count at use.
thread_local std::size_t t_shard_pref = WorkStealingPool::kAnyShard;

// Cells handed to each worker per slab allocation. Slabs are allocated only
// when a worker's freelist and the shared return stack are both empty, so
// steady-state submission never touches the allocator.
constexpr std::size_t kSlabCells = 64;
// Above this, a worker's freelist spills back to the shared return stack so
// a pure-producer / pure-consumer pair cannot strand unbounded cells.
constexpr std::size_t kMaxLocalFree = 512;

// Continuation hand-off hook for the completion core (completion.hpp is
// deliberately pool-free, so the link runs through a function pointer
// installed at pool construction). Called by Completion::complete when a
// continuation cascade on this thread exceeds its inline depth budget:
// package the node as a pool job on the completing worker's own deque
// (SubmitHint::local — the node's inputs are hot right here). Declining
// (non-worker thread, or a worker of a *different* pool than the one whose
// job is completing is still fine — its own deque is equally warm) makes
// the caller run the node inline.
bool hand_off_continuation(CompletionNode* node,
                           std::uint64_t trace_id) noexcept {
  if (t_pool == nullptr || t_worker < 0) return false;
  // 16-byte capture: stays inside the TaskCell inline buffer.
  t_pool->submit(
      [node, trace_id]() noexcept { run_continuation_node(node, trace_id); },
      SubmitHint::local);
  return true;
}

// Bump a per-worker stat counter. Only the owning worker writes it, so a
// relaxed load plus store replaces the locked RMW; stats() readers still
// read it atomically from any thread.
void bump(std::atomic<std::uint64_t>& counter) noexcept {
  counter.store(counter.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

// Stable per-thread default shard for unbound external submitters: keeping
// one thread's stream in one domain preserves FIFO-ish ordering and
// locality; thieves rebalance if it skews. Computed once per thread.
std::size_t thread_hash() noexcept {
  thread_local const std::size_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h;
}
}  // namespace

std::size_t default_concurrency() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::max<std::size_t>(hc == 0 ? 1 : hc, 2);
}

WorkStealingPool* WorkStealingPool::current_pool() noexcept { return t_pool; }
int WorkStealingPool::current_worker() noexcept { return t_worker; }

void WorkStealingPool::bind_thread_to_shard(std::size_t shard) noexcept {
  t_shard_pref = shard;
}

std::size_t WorkStealingPool::thread_bound_shard() noexcept {
  return t_shard_pref;
}

std::size_t WorkStealingPool::current_shard() const noexcept {
  if (t_pool == this && t_worker >= 0) {
    return workers_[static_cast<std::size_t>(t_worker)]->shard;
  }
  if (t_shard_pref != kAnyShard) return t_shard_pref % shards_.size();
  return kAnyShard;
}

std::size_t WorkStealingPool::resolve_shard(std::size_t requested) const {
  const std::size_t n = shards_.size();
  if (n == 1) return 0;
  // Explicit ids wrap modulo the shard count so callers can name places
  // (pj) without consulting this pool's clamped configuration.
  if (requested != kAnyShard) return requested % n;
  if (t_pool == this && t_worker >= 0) {
    return workers_[static_cast<std::size_t>(t_worker)]->shard;
  }
  if (t_shard_pref != kAnyShard) return t_shard_pref % n;
  return thread_hash() % n;
}

WorkStealingPool::WorkStealingPool(Config cfg) : cfg_(std::move(cfg)) {
  PARC_CHECK(cfg_.num_threads >= 1);
  PARC_CHECK(cfg_.local_queue_soft_cap >= 1);
  // Shard auto-sizing: one locality domain per ~4 workers mirrors the
  // core-complex granularity of the paper's lab machines. Clamp so no
  // domain is empty.
  if (cfg_.shards == 0) {
    cfg_.shards = std::max<std::size_t>(cfg_.num_threads / 4, 1);
  }
  cfg_.shards = std::min(cfg_.shards, cfg_.num_threads);
  // First pool up installs the completion core's hand-off hook (idempotent:
  // the hook re-resolves the calling thread's pool on every call, so it is
  // pool-agnostic and never uninstalled — see hand_off_continuation).
  detail::g_continuation_hand_off.store(&hand_off_continuation,
                                        std::memory_order_release);
  workers_.reserve(cfg_.num_threads);
  for (std::size_t i = 0; i < cfg_.num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(0x5157c0de + i));
  }
  // Contiguous worker blocks per shard: shard s owns [s*W/S, (s+1)*W/S).
  shards_.reserve(cfg_.shards);
  worker_shard_.resize(cfg_.num_threads);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->first_worker = s * cfg_.num_threads / cfg_.shards;
    shard->num_workers =
        (s + 1) * cfg_.num_threads / cfg_.shards - shard->first_worker;
    for (std::size_t w = shard->first_worker;
         w < shard->first_worker + shard->num_workers; ++w) {
      worker_shard_[w] = static_cast<std::uint32_t>(s);
      workers_[w]->shard = static_cast<std::uint32_t>(s);
    }
    shards_.push_back(std::move(shard));
  }
  threads_.reserve(cfg_.num_threads);
  for (std::size_t i = 0; i < cfg_.num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::scoped_lock lock(shard->park_mutex);
    shard->park_cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  // Drain anything submitted after the workers left. Running (rather than
  // discarding) keeps the contract that every submitted job eventually
  // executes, so external waiters cannot hang on destruction. Exclusive
  // jobs get the same treatment: with the workers gone there is no frame
  // below this one that could be waiting on them.
  while (try_run_one()) {
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (TaskCell* cell = pop_exclusive(s)) {
      run_cell(cell);
    }
  }
  // Cells are owned by slabs_ (freed with the vector) or were individually
  // heap-allocated and deleted after their run; nothing else to reclaim.
}

bool WorkStealingPool::try_reserve_capacity(std::size_t n) noexcept {
  std::size_t cur = reserved_.load(std::memory_order_relaxed);
  do {
    if (cur + n > workers_.size()) {
      reserve_denied_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  } while (!reserved_.compare_exchange_weak(cur, cur + n,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed));
  reserve_granted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void WorkStealingPool::release_capacity(std::size_t n) noexcept {
  PARC_DCHECK(reserved_.load(std::memory_order_relaxed) >= n);
  reserved_.fetch_sub(n, std::memory_order_release);
}

// --------------------------------------------------------------------------
// Cell recycling.
// --------------------------------------------------------------------------

TaskCell* WorkStealingPool::acquire_cell() {
  if (t_pool == this && t_worker >= 0) {
    Worker& w = *workers_[static_cast<std::size_t>(t_worker)];
    if (w.free_head == nullptr) refill_freelist(w);
    TaskCell* cell = w.free_head;
    w.free_head = cell->next.load(std::memory_order_relaxed);
    --w.free_count;
    return cell;
  }
  // External submitters have no freelist; one allocation, freed after the
  // run. Still an improvement over the seed (which also took a mutex).
  return new TaskCell;  // slab_owned stays false
}

void WorkStealingPool::refill_freelist(Worker& w) {
  PARC_DCHECK(w.free_head == nullptr);
  // First drain the shared return stack: cells recycled by thieves and
  // external helpers come back here. Taking the whole list at once makes
  // the pop ABA-free (no interior CAS).
  if (TaskCell* list = arena_free_.exchange(nullptr, std::memory_order_acquire)) {
    std::size_t n = 0;
    for (TaskCell* c = list; c != nullptr;
         c = c->next.load(std::memory_order_relaxed)) {
      ++n;
    }
    w.free_head = list;
    w.free_count = n;
    return;
  }
  std::scoped_lock lock(arena_mutex_);
  auto slab = std::make_unique<TaskCell[]>(kSlabCells);
  for (std::size_t i = 0; i < kSlabCells; ++i) {
    slab[i].slab_owned = true;
    slab[i].next.store(i + 1 < kSlabCells ? &slab[i + 1] : nullptr,
                       std::memory_order_relaxed);
  }
  w.free_head = &slab[0];
  w.free_count = kSlabCells;
  slabs_.push_back(std::move(slab));
}

void WorkStealingPool::release_cell(TaskCell* cell) {
  if (!cell->slab_owned) {
    delete cell;
    return;
  }
  if (t_pool == this && t_worker >= 0) {
    Worker& w = *workers_[static_cast<std::size_t>(t_worker)];
    if (w.free_count < kMaxLocalFree) {
      cell->next.store(w.free_head, std::memory_order_relaxed);
      w.free_head = cell;
      ++w.free_count;
      return;
    }
  }
  // Thief overflow or external helper: lock-free push onto the shared
  // return stack (push-only CAS + wholesale exchange on pop = no ABA).
  TaskCell* old = arena_free_.load(std::memory_order_relaxed);
  do {
    cell->next.store(old, std::memory_order_relaxed);
  } while (!arena_free_.compare_exchange_weak(
      old, cell, std::memory_order_release, std::memory_order_relaxed));
}

std::size_t WorkStealingPool::enqueue_cell(TaskCell* cell, SubmitHint hint,
                                           std::size_t shard) {
  // Worker-local fast path: own deque, unless the caller explicitly named
  // a shard (explicit routing always means "that domain's injection queue")
  // or hinted remote.
  if (t_pool == this && t_worker >= 0 && hint != SubmitHint::remote &&
      shard == kAnyShard) {
    Worker& w = *workers_[static_cast<std::size_t>(t_worker)];
    if (hint == SubmitHint::local) {
      // Hinted hand-off: bound the local backlog. Past the soft cap, spill
      // to injection so ready work stays visible to thieves (and external
      // helpers) that probe the MPSC queue before stealing.
      if (w.deque.size_approx() >= cfg_.local_queue_soft_cap) [[unlikely]] {
        bump(w.overflowed);
        if (obs::tracing()) [[unlikely]] {
          obs::emit(obs::EventKind::kDequeOverflow, cell->trace_id,
                    static_cast<std::uint64_t>(t_worker));
        }
        push_injected(cell, w.shard);
        return w.shard;
      }
      bump(w.cont_local);
      if (obs::tracing()) [[unlikely]] {
        obs::emit(obs::EventKind::kContLocalPush, cell->trace_id, 0);
      }
    }
    w.deque.push(cell);
    if (obs::tracing()) [[unlikely]] {
      // Queue-depth high-water, sampled only while a trace session is live:
      // size_approx on the idle fast path would cost two loads we promised
      // not to pay. Owner-only write, so a relaxed read-modify-store is fine.
      const auto depth = static_cast<std::uint64_t>(w.deque.size_approx());
      if (depth > w.deque_hw.load(std::memory_order_relaxed)) {
        w.deque_hw.store(depth, std::memory_order_relaxed);
      }
    }
    return w.shard;
  }
  const std::size_t target = resolve_shard(shard);
  if (hint == SubmitHint::local && !(t_pool == this && t_worker >= 0)) {
    // A local hint from a non-worker completer (EDT, main thread): the
    // continuation-stealing fast path does not apply; count the fallback so
    // traces show dependent work that crossed threads.
    cont_inject_fallback_.fetch_add(1, std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kContInjectFallback, cell->trace_id, 0);
    }
  }
  push_injected(cell, target);
  return target;
}

void WorkStealingPool::push_injected(TaskCell* cell, std::size_t shard) {
  Shard& s = *shards_[shard];
  s.injected.push(cell);
  if (obs::tracing()) [[unlikely]] {
    const auto depth = static_cast<std::uint64_t>(s.injected.size_approx());
    std::uint64_t hw = s.injected_hw.load(std::memory_order_relaxed);
    while (depth > hw && !s.injected_hw.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  }
}

void WorkStealingPool::push_exclusive(TaskCell* cell, std::size_t shard) {
  shards_[shard]->exclusive.push(cell);
}

// --------------------------------------------------------------------------
// Finding and running work.
// --------------------------------------------------------------------------

// Wakeup correctness across shards (the 1-core deadlock guard, sharded):
// a submission must never strand behind a fully parked pool. Within the
// target shard the single-epoch protocol from the header comment applies
// verbatim. Across shards the protocol is a Dekker handshake on seq_cst
// accesses: the parker increments its shard's `sleepers` (seq_cst RMW)
// *before* its final predicate check reads every shard's epoch (seq_cst),
// and the submitter bumps the target epoch (seq_cst RMW) *before* reading
// every shard's `sleepers` (seq_cst). In the total order, either the
// submitter's sleepers-read sees the parker (→ the fallback below notifies
// that shard's CV), or the parker's epoch-read sees the bump (→ the wait
// predicate is already true and the worker never sleeps). A worker that is
// *already* asleep is covered by the mutex: the fallback notifies under the
// sleeper's park_mutex, which orders the epoch bump before the woken
// predicate re-check.
void WorkStealingPool::signal_work(std::size_t shard, std::size_t jobs) {
  Shard& target = *shards_[shard];
  target.work_epoch.fetch_add(1, std::memory_order_seq_cst);
  if (target.sleepers.load(std::memory_order_seq_cst) != 0) {
    std::scoped_lock lock(target.park_mutex);
    if (jobs > 1) {
      target.park_cv.notify_all();
    } else {
      target.park_cv.notify_one();
    }
    return;
  }
  const std::size_t n = shards_.size();
  if (n == 1) return;
  // Work-conservation fallback: the target shard is sleeper-free (its
  // workers are busy or spinning), but another domain may be parked. Wake
  // one remote sleeper so it can cross-probe the target's queues — a job
  // must never wait on a busy shard while any worker in the pool sleeps.
  for (std::size_t k = 1; k < n; ++k) {
    Shard& other = *shards_[(shard + k) % n];
    if (other.sleepers.load(std::memory_order_seq_cst) == 0) continue;
    cross_shard_wakes_.fetch_add(1, std::memory_order_relaxed);
    std::scoped_lock lock(other.park_mutex);
    if (jobs > 1) {
      other.park_cv.notify_all();
    } else {
      other.park_cv.notify_one();
    }
    return;
  }
}

TaskCell* WorkStealingPool::pop_injected(std::size_t shard) {
  Shard& s = *shards_[shard];
  if (s.injected.empty_approx()) return nullptr;
  // Serialise MPSC consumers without blocking: if another thread is already
  // draining, this caller just moves on to stealing.
  if (s.inject_pop_lock.test_and_set(std::memory_order_acquire)) {
    return nullptr;
  }
  TaskCell* cell = s.injected.try_pop();
  s.inject_pop_lock.clear(std::memory_order_release);
  return cell;
}

TaskCell* WorkStealingPool::pop_exclusive(std::size_t shard) {
  Shard& s = *shards_[shard];
  if (s.exclusive.empty_approx()) return nullptr;
  if (s.exclusive_pop_lock.test_and_set(std::memory_order_acquire)) {
    return nullptr;
  }
  TaskCell* cell = s.exclusive.try_pop();
  s.exclusive_pop_lock.clear(std::memory_order_release);
  return cell;
}

TaskCell* WorkStealingPool::pop_exclusive_any(std::size_t home_shard) {
  const std::size_t n = shards_.size();
  for (std::size_t k = 1; k < n; ++k) {
    if (TaskCell* cell = pop_exclusive((home_shard + k) % n)) return cell;
  }
  return nullptr;
}

bool WorkStealingPool::any_exclusive_pending() const noexcept {
  for (const auto& s : shards_) {
    if (!s->exclusive.empty_approx()) return true;
  }
  return false;
}

TaskCell* WorkStealingPool::steal_within_shard(std::size_t self, Rng& rng) {
  const Shard& home = *shards_[workers_[self]->shard];
  const std::size_t n = home.num_workers;
  if (n <= 1) return nullptr;
  const std::size_t start = static_cast<std::size_t>(rng.below(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = home.first_worker + (start + k) % n;
    if (v == self) continue;
    if (TaskCell* cell = workers_[v]->deque.steal()) {
      if (obs::tracing()) [[unlikely]] {
        obs::emit(obs::EventKind::kSteal, cell->trace_id,
                  static_cast<std::uint64_t>(v));
      }
      return cell;
    }
  }
  return nullptr;
}

// Remote phase of the hierarchical sweep: the thief's own domain ran dry.
// Visit foreign shards round-robin from the next-door neighbour; in each,
// prefer its injection queue (FIFO work nobody has claimed) before raiding
// its workers' deques. Only deque raids count as cross-shard *steals*;
// entering this phase at all is counted by the caller as a cross-probe.
TaskCell* WorkStealingPool::steal_remote_shards(std::size_t self) {
  Worker& w = *workers_[self];
  const std::size_t n = shards_.size();
  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t si = (w.shard + k) % n;
    if (TaskCell* cell = pop_injected(si)) return cell;
    const Shard& s = *shards_[si];
    for (std::size_t j = 0; j < s.num_workers; ++j) {
      const std::size_t v = s.first_worker + j;
      if (TaskCell* cell = workers_[v]->deque.steal()) {
        bump(w.stolen_cross);
        if (obs::tracing()) [[unlikely]] {
          obs::emit(obs::EventKind::kStealRemote, cell->trace_id,
                    static_cast<std::uint64_t>(v));
        }
        return cell;
      }
    }
  }
  return nullptr;
}

TaskCell* WorkStealingPool::find_worker_job(std::size_t index) {
  // Top-of-loop worker frames are the only consumers of the exclusive
  // queues, and they check them first: an exclusive job is a region member
  // that a whole team is waiting on, so it outranks ordinary backlog. Own
  // shard first (the pj places soft binding), then every foreign queue —
  // the drain-anywhere rule keeps the capacity-reservation deadlock
  // argument shard-count-independent.
  const std::size_t home = workers_[index]->shard;
  if (TaskCell* cell = pop_exclusive(home)) return cell;
  if (shards_.size() > 1) {
    if (TaskCell* cell = pop_exclusive_any(home)) return cell;
  }
  return find_job(index);
}

TaskCell* WorkStealingPool::find_job(std::size_t self_or_npos) {
  if (self_or_npos != static_cast<std::size_t>(-1)) {
    Worker& w = *workers_[self_or_npos];
    // Hierarchical sweep: own deque → own shard's injection queue → shard
    // siblings' deques (randomized start) → only then cross the domain
    // boundary.
    if (TaskCell* cell = w.deque.pop()) return cell;
    if (TaskCell* cell = pop_injected(w.shard)) return cell;
    if (TaskCell* cell = steal_within_shard(self_or_npos, w.rng)) {
      bump(w.stolen);
      return cell;
    }
    if (shards_.size() > 1) {
      bump(w.cross_probes);
      // Deque raids are counted as stolen_cross inside the remote sweep;
      // remote injection pops are ordinary queue takes, not steals.
      if (TaskCell* cell = steal_remote_shards(self_or_npos)) return cell;
    }
    return nullptr;
  }
  // External thread: drain injection queues first (starting at the thread's
  // resolved home domain), then steal with a deterministic rotating start.
  // Relaxed RMW on the cursor: it only spreads steal attempts, it
  // synchronises nothing.
  const std::size_t ns = shards_.size();
  const std::size_t first = resolve_shard(kAnyShard);
  for (std::size_t k = 0; k < ns; ++k) {
    if (TaskCell* cell = pop_injected((first + k) % ns)) return cell;
  }
  const std::size_t n = workers_.size();
  const std::size_t start =
      external_cursor_.fetch_add(1, std::memory_order_relaxed) %
      std::max<std::size_t>(n, 1);
  for (std::size_t k = 0; k < n; ++k) {
    if (TaskCell* cell = workers_[(start + k) % n]->deque.steal()) return cell;
  }
  return nullptr;
}

void WorkStealingPool::run_cell(TaskCell* cell) {
  // Jobs are noexcept by contract: the runtimes above catch user exceptions
  // and store them into task state before the job returns. A throw escaping
  // here means a runtime bug, so let it terminate loudly.
  if (obs::tracing()) [[unlikely]] {
    // Capture the id before invoke(): the cell may be recycled (and even
    // re-stamped by a nested submit) the moment the job returns.
    const std::uint64_t id = cell->trace_id;
    obs::emit(obs::EventKind::kExecBegin, id, 0);
    cell->invoke();
    release_cell(cell);
    obs::emit(obs::EventKind::kExecEnd, id, 0);
    return;
  }
  cell->invoke();
  release_cell(cell);
}

void WorkStealingPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker = static_cast<int>(index);
  Worker& self = *workers_[index];
  Shard& home = *shards_[self.shard];
  if (shards_.size() > 1) {
    obs::label_thread(cfg_.name + "-s" + std::to_string(self.shard) + "-w" +
                      std::to_string(index));
  } else {
    obs::label_thread(cfg_.name + "-w" + std::to_string(index));
  }
  // Epoch snapshots for the park predicate, one per shard: allocated once
  // outside the loop so parking never touches the heap.
  std::vector<std::uint64_t> seen(shards_.size(), 0);
  while (!stop_.load(std::memory_order_acquire)) {
    TaskCell* cell = nullptr;
    for (std::size_t sweep = 0; sweep < cfg_.sweeps_before_park && !cell;
         ++sweep) {
      cell = find_worker_job(index);
      if (!cell) {
        bump(self.steal_fails);
        if (sweep + 1 < cfg_.sweeps_before_park) std::this_thread::yield();
      }
    }
    if (cell) {
      run_cell(cell);
      bump(self.executed);
      continue;
    }
    // Park protocol: snapshot every shard's epoch, then re-scan once. A
    // submit that lands after a snapshot bumps that shard's epoch (so the
    // wait predicate is already true); one that landed before it is found
    // by the re-scan, which crosses shard boundaries (find_worker_job's
    // remote phase). See signal_work for the cross-shard seq_cst handshake.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      seen[s] = shards_[s]->work_epoch.load(std::memory_order_seq_cst);
    }
    if (TaskCell* late = find_worker_job(index)) {
      run_cell(late);
      bump(self.executed);
      continue;
    }
    // Exclusive jobs have no help_while rescue path (only top-level worker
    // frames may run them), so a worker must not park past one — in any
    // shard. The re-scan above can miss a linked job only while another
    // popper holds a try-lock; spinning the outer loop instead of sleeping
    // closes that window.
    if (any_exclusive_pending()) continue;
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kPark, index, self.shard);
      if (shards_.size() > 1) {
        obs::emit(obs::EventKind::kParkShard, index, self.shard);
      }
    }
    std::unique_lock lock(home.park_mutex);
    home.sleepers.fetch_add(1, std::memory_order_seq_cst);
    bump(self.parked);
    home.park_cv.wait(lock, [&] {
      if (stop_.load(std::memory_order_acquire)) return true;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (shards_[s]->work_epoch.load(std::memory_order_seq_cst) !=
            seen[s]) {
          return true;
        }
      }
      return false;
    });
    home.sleepers.fetch_sub(1, std::memory_order_seq_cst);
    lock.unlock();
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kUnpark, index, self.shard);
    }
  }
  t_pool = nullptr;
  t_worker = -1;
}

bool WorkStealingPool::try_run_one() {
  const std::size_t self =
      (t_pool == this && t_worker >= 0) ? static_cast<std::size_t>(t_worker)
                                        : static_cast<std::size_t>(-1);
  TaskCell* cell = find_job(self);
  if (!cell) return false;
  run_cell(cell);
  if (self != static_cast<std::size_t>(-1)) {
    bump(workers_[self]->executed);
  }
  return true;
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats s;
  s.shards.resize(shards_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const Worker& w = *workers_[i];
    ShardStats& sh = s.shards[w.shard];
    const std::uint64_t executed = w.executed.load(std::memory_order_relaxed);
    const std::uint64_t stolen = w.stolen.load(std::memory_order_relaxed);
    const std::uint64_t cross = w.stolen_cross.load(std::memory_order_relaxed);
    const std::uint64_t probes = w.cross_probes.load(std::memory_order_relaxed);
    const std::uint64_t parked = w.parked.load(std::memory_order_relaxed);
    const std::uint64_t fails = w.steal_fails.load(std::memory_order_relaxed);
    s.executed += executed;
    s.stolen += stolen + cross;
    s.parked += parked;
    s.steal_fails += fails;
    s.deque_high_water = std::max(
        s.deque_high_water, w.deque_hw.load(std::memory_order_relaxed));
    s.continuation_local_pushed += w.cont_local.load(std::memory_order_relaxed);
    s.deque_overflows += w.overflowed.load(std::memory_order_relaxed);
    s.stolen_shard_local += stolen;
    s.stolen_cross_shard += cross;
    s.cross_shard_probes += probes;
    sh.executed += executed;
    sh.stolen += stolen + cross;
    sh.stolen_local += stolen;
    sh.stolen_cross += cross;
    sh.cross_probes += probes;
    sh.parked += parked;
    sh.steal_fails += fails;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint64_t hw =
        shards_[i]->injected_hw.load(std::memory_order_relaxed);
    s.shards[i].injected_high_water = hw;
    s.injected_high_water = std::max(s.injected_high_water, hw);
    const auto asleep = static_cast<std::uint64_t>(
        std::max(shards_[i]->sleepers.load(std::memory_order_relaxed), 0));
    s.shards[i].sleeping = asleep;
    s.sleeping += asleep;
  }
  s.helped = helped_.load(std::memory_order_relaxed);
  s.continuation_inject_fallback =
      cont_inject_fallback_.load(std::memory_order_relaxed);
  s.exclusive_submitted = exclusive_submitted_.load(std::memory_order_relaxed);
  s.reservations_granted = reserve_granted_.load(std::memory_order_relaxed);
  s.reservations_denied = reserve_denied_.load(std::memory_order_relaxed);
  s.cross_shard_wakes = cross_shard_wakes_.load(std::memory_order_relaxed);
  return s;
}

std::size_t WorkStealingPool::pending_approx() const {
  std::size_t n = 0;
  for (const auto& s : shards_) {
    n += s->injected.size_approx() + s->exclusive.size_approx();
  }
  for (const auto& w : workers_) n += w->deque.size_approx();
  return n;
}

}  // namespace parc::sched
