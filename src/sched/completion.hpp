// The lock-free completion core shared by every join path in the system.
//
// Before this existed, each runtime re-implemented "wait for completion"
// with its own mutex + condition_variable: ptask::TaskState guarded its
// continuation/dependent lists and wait() with one, pj's Barrier/Ordered
// blocked team threads on one, and run_multi/TaskGroup each kept a
// mutex-guarded first-error slot. This header is the single replacement:
//
//  - Completion: a one-shot completion event made of a Treiber-stack
//    continuation list with a sealed sentinel (push after completion fails,
//    the caller runs inline) and a single state word that packs the
//    completed bit with a parked-waiter count, so completing when nobody
//    waits is one RMW and no syscall;
//  - FirstError: first-exception capture via one atomic<exception_ptr*>
//    CAS — the winner's exception survives, losers delete theirs;
//  - DependencyCounter: atomic countdown for `dependsOn` edges; the caller
//    that releases the last dependence is told so and readies the task;
//  - Sequencer: ticket-ordered hand-off (OpenMP `ordered`) on one atomic
//    ticket word with spin-then-park waiting.
//
// Waiter protocol. A waiter that may run pool work never parks here — it
// helps via WorkStealingPool::help_while (see task_graph.hpp for the
// composed pieces), because a helper parked on a completion word cannot be
// woken by new pool work and a bounded pool could deadlock. Threads that
// must not run pool work (the main thread, the EDT, region team threads)
// spin briefly and then park on the word with std::atomic::wait; the
// completing side publishes its result, then sets the bit and notifies.
//
// Lifetime rule (what makes stack-allocated Completions safe, e.g. in
// EventLoop::post_and_wait): complete() touches *this last via the
// state-word RMW; the subsequent notify does not dereference the object
// beyond the futex address. A waiter can only return after that RMW is
// visible, so the waiter owning the Completion's storage may destroy it as
// soon as wait() returns.
//
// Trace hooks: waiter-park/waiter-wake and continuation-run events are
// emitted through parc::obs (compiled out with PARC_TRACE=OFF), so a trace
// shows exactly where join time goes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"

namespace parc::sched {

/// Intrusive node of a Completion's continuation list. A heap node is
/// allocated by the registering side and freed by whoever runs it (the
/// completer, or the registering side itself when the completion already
/// fired). An `embedded` node lives inside another object and is never
/// freed by a Completion.
class CompletionNode {
 public:
  virtual ~CompletionNode() = default;
  /// Invoked exactly once, after the completion fired. Must not throw: it
  /// runs on the completing thread, inside paths that are noexcept by
  /// contract (pool jobs, finish()).
  virtual void run() noexcept = 0;

  CompletionNode* next = nullptr;
  /// Nodes that *must* run on the completing thread before the completed
  /// bit is published — the dependence-countdown edges of the dependsOn
  /// machinery, whose "continuations ran before wait() returned" ordering
  /// other code relies on. Never deferred through the continuation hand-off
  /// below; user-facing handlers leave this false.
  bool inline_only = false;
  /// A member of another object (a task frame's dependence edge), not a
  /// heap allocation: the completion neither frees it nor touches it once
  /// run() has been called, because run() may free the object around it.
  bool embedded = false;
};

namespace detail {

template <typename F>
class FnNode final : public CompletionNode {
 public:
  explicit FnNode(F fn) : fn_(std::move(fn)) {}
  void run() noexcept override { fn_(); }

 private:
  F fn_;
};

/// Spin budget before a waiter escalates from cpu_relax to parking. Short:
/// parking is the *intended* steady state for non-helper threads, spinning
/// only covers completions that are a few hundred cycles away.
inline constexpr std::size_t kWaiterSpins = 256;

/// Continuation hand-off hook (continuation stealing). This header is
/// deliberately pool-free — include- *and* link-level: parc_gui uses
/// Completion without linking parc_sched — so the scheduler attaches
/// itself through a function pointer instead of a direct call. Installed
/// by WorkStealingPool's constructor; the hook returns true when it took
/// ownership of the node (pushed it onto the calling worker's own deque
/// tail), false when the caller should run it inline (non-worker thread,
/// or no pool built yet).
using ContinuationHandOff = bool (*)(CompletionNode*, std::uint64_t) noexcept;
inline std::atomic<ContinuationHandOff> g_continuation_hand_off{nullptr};

/// How many continuations may nest inline on one thread's stack before
/// complete() starts deferring them through the hand-off. Small: depth 0
/// covers every ordinary completion (handlers run inline, exactly the seed
/// contract); the budget only engages when continuations chain completions
/// of their own, where unbounded inline recursion would grow the stack
/// linearly with chain depth.
inline constexpr std::size_t kContinuationDepthBudget = 8;

/// Current inline continuation nesting depth on this thread.
inline thread_local std::size_t t_continuation_depth = 0;

}  // namespace detail

/// Heap-allocate a continuation node from any callable.
template <typename F>
[[nodiscard]] CompletionNode* make_completion_node(F&& fn) {
  return new detail::FnNode<std::decay_t<F>>(std::forward<F>(fn));
}

/// Run one ready continuation node under the trampolining policy: inside
/// the per-thread depth budget (or for inline_only nodes) run it here, past
/// the budget hand it to the scheduler hook, which re-enters this function
/// from a fresh pool-job stack frame at depth 0. Frees a heap node after
/// the run; the hook takes ownership when it accepts.
inline void run_continuation_node(CompletionNode* node,
                                  std::uint64_t trace_id) noexcept {
  const bool embedded = node->embedded;  // *node may be gone after run()
  if (!node->inline_only &&
      detail::t_continuation_depth >= detail::kContinuationDepthBudget)
      [[unlikely]] {
    const auto hand_off =
        detail::g_continuation_hand_off.load(std::memory_order_acquire);
    if (hand_off != nullptr && hand_off(node, trace_id)) return;
  }
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kContinuationRun, trace_id, 0);
  }
  ++detail::t_continuation_depth;
  node->run();
  --detail::t_continuation_depth;
  if (!embedded) delete node;
}

/// One-shot completion event: sealed continuation stack + parking word.
class Completion {
 public:
  Completion() = default;
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  ~Completion() {
    // A never-completed completion still owns its registered-but-unrun
    // heap nodes; embedded ones belong to the object around them.
    CompletionNode* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr && n != sealed()) {
      CompletionNode* next = n->next;
      if (!n->embedded) delete n;
      n = next;
    }
  }

  [[nodiscard]] bool completed() const noexcept {
    return (state_.load(std::memory_order_acquire) & kCompletedBit) != 0;
  }

  /// Register `node` to run on completion. Returns false — without taking
  /// ownership — when the completion already fired; the caller then runs
  /// (or frees) the node itself.
  [[nodiscard]] bool try_push(CompletionNode* node) noexcept {
    CompletionNode* head = head_.load(std::memory_order_acquire);
    do {
      if (head == sealed()) return false;
      node->next = head;
    } while (!head_.compare_exchange_weak(head, node,
                                          std::memory_order_release,
                                          std::memory_order_acquire));
    return true;
  }

  /// Convenience: run `fn` after completion — inline on this thread when
  /// the completion has already fired (matching the seed TaskState
  /// contract), on the completing thread otherwise.
  template <typename F>
  void add_continuation(F&& fn) {
    CompletionNode* node = make_completion_node(std::forward<F>(fn));
    if (!try_push(node)) {
      node->run();
      delete node;
    }
  }

  /// Fire the completion: seal the list, run continuations in registration
  /// order (each under the run_continuation_node trampolining policy — deep
  /// chains hop through the completing worker's deque instead of growing
  /// the stack), then publish the completed bit and wake parked waiters. The
  /// caller must have published its payload (result/error/status) *before*
  /// calling complete() — the state-word RMW is the release point waiters
  /// acquire through. `trace_id` labels the continuation-run trace events
  /// (0 = untraced owner).
  void complete(std::uint64_t trace_id = 0) noexcept {
    // Seal first: any try_push from here on fails and runs inline, so no
    // continuation can be stranded on the stack.
    CompletionNode* list = head_.exchange(sealed(), std::memory_order_acq_rel);
    // Reverse to registration (FIFO) order, as the seed's vector ran them.
    CompletionNode* ordered = nullptr;
    while (list != nullptr) {
      CompletionNode* next = list->next;
      list->next = ordered;
      ordered = list;
      list = next;
    }
    while (ordered != nullptr) {
      CompletionNode* next = ordered->next;
      run_continuation_node(ordered, trace_id);
      ordered = next;
    }
    // Publish + wake. This RMW is the last access to *this: a waiter that
    // observes the bit may destroy the Completion, and notify_all only
    // touches the global waiter table / futex address, never the object.
    const std::uint32_t prev =
        state_.fetch_or(kCompletedBit, std::memory_order_acq_rel);
    if ((prev >> kWaiterShift) != 0) state_.notify_all();
  }

  /// Park until complete() has fired. For threads that must not run pool
  /// work; helpers compose help_while with completed() instead (see
  /// task_graph.hpp). `trace_id` labels the park/wake trace events.
  void wait(std::uint64_t trace_id = 0) noexcept {
    if (completed()) return;
    for (std::size_t i = 0; i < detail::kWaiterSpins; ++i) {
      ExponentialBackoff::cpu_relax();
      if (completed()) return;
    }
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kWaiterPark, trace_id, 0);
    }
    state_.fetch_add(std::uint32_t{1} << kWaiterShift,
                     std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t s = state_.load(std::memory_order_acquire);
      if ((s & kCompletedBit) != 0) break;
      state_.wait(s, std::memory_order_acquire);
    }
    state_.fetch_sub(std::uint32_t{1} << kWaiterShift,
                     std::memory_order_relaxed);
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kWaiterWake, trace_id, 0);
    }
  }

 private:
  static constexpr std::uint32_t kCompletedBit = 1;
  static constexpr std::uint32_t kWaiterShift = 1;

  /// Sealed sentinel: `this` can never be a valid node address of its own
  /// list, and needs no storage.
  [[nodiscard]] CompletionNode* sealed() const noexcept {
    return reinterpret_cast<CompletionNode*>(
        const_cast<Completion*>(this));
  }

  std::atomic<CompletionNode*> head_{nullptr};
  /// bit 0: completed; bits 1..: count of parked waiters. Packing both in
  /// one word makes the no-waiter complete() a single RMW, syscall-free.
  std::atomic<std::uint32_t> state_{0};
};

/// First-exception capture: one CAS on an atomic pointer replaces the three
/// mutex-guarded `first_error_` slots the runtimes used to carry.
class FirstError {
 public:
  FirstError() = default;
  FirstError(const FirstError&) = delete;
  FirstError& operator=(const FirstError&) = delete;

  ~FirstError() { delete slot_.load(std::memory_order_acquire); }

  /// Record `e` if no error has been recorded yet. Lock-free; safe from
  /// any number of concurrent failing tasks.
  void capture(std::exception_ptr e) noexcept {
    if (e == nullptr) return;
    if (slot_.load(std::memory_order_acquire) != nullptr) return;
    auto* mine = new std::exception_ptr(std::move(e));
    std::exception_ptr* expected = nullptr;
    if (!slot_.compare_exchange_strong(expected, mine,
                                       std::memory_order_release,
                                       std::memory_order_acquire)) {
      delete mine;  // lost the race: the first error wins
    }
  }

  [[nodiscard]] bool has_error() const noexcept {
    return slot_.load(std::memory_order_acquire) != nullptr;
  }

  /// Remove and return the captured error (nullptr if none). Callers
  /// sequence take() after the join completes, so concurrent captures
  /// cannot land after it — but a concurrent take() from another waiter is
  /// fine: exactly one gets the exception, the rest get nullptr.
  [[nodiscard]] std::exception_ptr take() noexcept {
    std::exception_ptr* p = slot_.exchange(nullptr, std::memory_order_acq_rel);
    if (p == nullptr) return nullptr;
    std::exception_ptr e = std::move(*p);
    delete p;
    return e;
  }

 private:
  std::atomic<std::exception_ptr*> slot_{nullptr};
};

/// Atomic dependence countdown. Callers use the +1 registration-hold idiom:
/// start at deps + 1, register against each dependence, then satisfy the
/// hold — the count cannot reach zero mid-registration. satisfy() returns
/// true to exactly one caller, the one that released the last dependence;
/// that caller readies the dependent task.
class DependencyCounter {
 public:
  explicit DependencyCounter(std::size_t count) noexcept : remaining_(count) {}
  DependencyCounter(const DependencyCounter&) = delete;
  DependencyCounter& operator=(const DependencyCounter&) = delete;

  [[nodiscard]] bool satisfy() noexcept {
    const std::size_t before =
        remaining_.fetch_sub(1, std::memory_order_acq_rel);
    PARC_DCHECK(before != 0);
    return before == 1;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return remaining_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::size_t> remaining_;
};

/// Ticket-ordered hand-off: OpenMP `ordered` semantics on one atomic word.
/// Ticket i's holder runs only after advance() has been called i - first
/// times. Waiters spin briefly then park; advance() is one RMW + notify.
///
/// Waiting never helps the pool: a helper stuck under a nested job that
/// waits for a *later* ticket could never resume to release its own, so
/// ordered waits park unconditionally (ticket holders are team threads).
class Sequencer {
 public:
  explicit Sequencer(std::int64_t first) : next_(first) {}
  Sequencer(const Sequencer&) = delete;
  Sequencer& operator=(const Sequencer&) = delete;

  /// Block until it is `ticket`'s turn.
  void wait_for(std::int64_t ticket, std::uint64_t trace_id = 0) noexcept {
    if (next_.load(std::memory_order_acquire) == ticket) return;
    for (std::size_t i = 0; i < detail::kWaiterSpins; ++i) {
      ExponentialBackoff::cpu_relax();
      if (next_.load(std::memory_order_acquire) == ticket) return;
    }
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kWaiterPark, trace_id,
                static_cast<std::uint64_t>(ticket));
    }
    for (;;) {
      const std::int64_t cur = next_.load(std::memory_order_acquire);
      if (cur == ticket) break;
      next_.wait(cur, std::memory_order_acquire);
    }
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kWaiterWake, trace_id,
                static_cast<std::uint64_t>(ticket));
    }
  }

  /// Release the next ticket. The release RMW publishes everything the
  /// finishing ticket holder wrote.
  void advance() noexcept {
    next_.fetch_add(1, std::memory_order_release);
    next_.notify_all();
  }

  [[nodiscard]] std::int64_t current() const noexcept {
    return next_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::int64_t> next_;
};

}  // namespace parc::sched
