// Task creation API: the C++ spelling of Parallel Task's TASK constructs.
//
//   run(body)                         — `TASK R m(...)`      (compute task)
//   run_after(body, dep1, dep2, ...)  — `dependsOn(...)`     (task graph)
//   run_interactive(body)             — `IO_TASK`            (elastic pool)
//   run_multi(n, f)                   — `TASK(n) / TASK(*)`  (multi-task)
//   TaskGroup / parallel_invoke       — structured join points
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "ptask/block_cache.hpp"
#include "ptask/task_id.hpp"
#include "sched/task_graph.hpp"

namespace parc::ptask {

namespace detail {

/// Dependences arrive as raw pointers (run_after) or as shared_ptrs (the
/// runtime-sized spawn); both spellings share one registration loop.
inline TaskStateBase* dep_ptr(TaskStateBase* dep) noexcept { return dep; }
inline TaskStateBase* dep_ptr(
    const std::shared_ptr<TaskStateBase>& dep) noexcept {
  return dep.get();
}

/// Trace a task's creation: a fresh obs id, a spawn event carrying the
/// spawning task's id (0 at top level), and one dependence edge per dep.
/// No-op (id stays 0) while no trace session is live.
template <typename Deps = std::array<TaskStateBase*, 0>>
void trace_spawn(TaskStateBase& state, const Deps& deps = {}) {
  if (obs::tracing()) [[unlikely]] {
    state.obs_id = obs::next_id();
    const TaskStateBase* parent = CurrentTask::get();
    obs::emit(obs::EventKind::kTaskSpawn, state.obs_id,
              parent != nullptr ? parent->obs_id : 0);
    for (const auto& dep : deps) {
      const TaskStateBase* d = dep_ptr(dep);
      if (d != nullptr && d->obs_id != 0) {
        obs::emit(obs::EventKind::kDepEdge, d->obs_id, state.obs_id);
      }
    }
  }
}

/// Per-body trace id for a multi-task: spawn + ready events parented to the
/// aggregate handle, emitted at submit time. Returns 0 while untraced.
inline std::uint64_t trace_multi_body(const TaskStateBase& agg) {
  if (obs::tracing()) [[unlikely]] {
    const std::uint64_t id = obs::next_id();
    obs::emit(obs::EventKind::kTaskSpawn, id, agg.obs_id);
    obs::emit(obs::EventKind::kTaskReady, id, 0);
    return id;
  }
  return 0;
}

/// One dependence edge, embedded in its successor's frame and registered
/// on the predecessor's Completion. inline_only: it runs on the completing
/// thread before the predecessor's completed bit is published. embedded:
/// the Completion never frees it, and never touches it once run() starts,
/// since the successor (and with it this edge) may be freed inside run().
template <typename Frame>
class DependenceEdge final : public sched::CompletionNode {
 public:
  DependenceEdge() noexcept {
    inline_only = true;
    embedded = true;
  }
  void run() noexcept override { successor->release_dependence(); }

  Frame* successor = nullptr;
};

/// Everything one spawn needs, in one recycled block (BlockCache): the
/// task's state, its body, the dependence countdown and one edge per
/// predecessor (N of them, or a vector beside the frame when N is
/// std::dynamic_extent). From spawn until its last dependence is released
/// the frame owns itself through `self_`; the pool job then takes that
/// reference over, so dropping every TaskID never strands a pending task.
template <typename R, typename F, std::size_t N>
class TaskFrame {
  using Edge = DependenceEdge<TaskFrame>;
  struct NoEdges {};  // std::array<Edge, 0> still takes a byte, then padding
  using Edges = std::conditional_t<
      N == std::dynamic_extent, std::vector<Edge>,
      std::conditional_t<N == 0, NoEdges, std::array<Edge, N>>>;

 public:
  template <typename Body>
  TaskFrame(Body&& body, Runtime& rt, bool interactive, std::size_t deps)
      : countdown_(deps + 1),  // + the registration hold
        rt_(&rt),
        interactive_(interactive),
        edges_(make_edges(deps)),
        body_(std::forward<Body>(body)) {
    for (Edge& e : edges()) e.successor = this;
  }
  /// The body is gone by now: run() destroys it right after it ran, and a
  /// frame dies only after its job has run.
  ~TaskFrame() {}

  TaskFrame(const TaskFrame&) = delete;
  TaskFrame& operator=(const TaskFrame&) = delete;

  [[nodiscard]] TaskState<R>& state() noexcept { return state_; }

  /// Spawn-time wiring: keep the frame alive on its own, register one edge
  /// per dependence (a dependence that already finished is counted here),
  /// then release the registration hold. The caller already owns a handle.
  template <typename Deps>
  void start(std::shared_ptr<TaskFrame> self, const Deps& deps) {
    self_ = std::move(self);
    for (std::size_t i = 0; i < std::size(deps); ++i) {
      TaskStateBase* dep = dep_ptr(deps[i]);
      PARC_CHECK_MSG(dep != nullptr, "dependence on an invalid TaskID");
      if (!dep->try_add_edge(edges()[i])) release_dependence();
    }
    release_dependence();
  }

  /// One dependence finished. The caller that releases the last one makes
  /// the task ready.
  void release_dependence() {
    if (countdown_.satisfy()) submit();
  }

 private:
  static Edges make_edges(std::size_t deps) {
    if constexpr (N == std::dynamic_extent) {
      return Edges(deps);
    } else {
      PARC_DCHECK(deps == N);
      return Edges{};
    }
  }

  std::span<Edge> edges() noexcept {
    if constexpr (N == 0) {
      return {};
    } else {
      return edges_;
    }
  }

  // A dependent task is released by the thread that satisfied its final
  // dependence — usually the predecessor's worker, whose cache holds the
  // data the successor is about to read: hint `local` so the release lands
  // on that worker's own deque tail (continuation stealing). Fresh spawns
  // resolve placement at submit time (`auto_`). Nothing here touches the
  // frame after the pool has the job: the job may run and free it at once.
  void submit() {
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kTaskReady, state_.obs_id, 0);
    }
    state_.mark_scheduled_public();
    Runtime& rt = *rt_;
    const bool interactive = interactive_;
    const auto hint = edges().empty() ? sched::SubmitHint::auto_
                                      : sched::SubmitHint::local;
    auto job = [frame = std::move(self_)] { frame->run(); };
    if (interactive) {
      rt.interactive_pool().submit(std::move(job));
    } else {
      rt.pool().submit(std::move(job), hint);
    }
  }

  void run() {
    {
      CurrentTask::Scope scope(&state_);
      // Lifecycle trace events are emitted inside run_body: the finish
      // event must land before finish() unblocks waiters
      // (see trace_body_finish).
      state_.run_body(body_);
    }
    body_.~F();
  }

  TaskState<R> state_;
  sched::DependencyCounter countdown_;
  Runtime* rt_;
  bool interactive_;
  std::shared_ptr<TaskFrame> self_;
  [[no_unique_address]] Edges edges_;
  union {
    F body_;  ///< constructed with the frame, destroyed by run()
  };
};

/// Build the task's frame in one recycled block, hand back its handle, then
/// wire the dependences: raw pointers from run_after, shared_ptrs from the
/// runtime-sized spawn below.
template <typename R, std::size_t N, typename F, typename Deps>
TaskID<R> spawn_frame(Runtime& rt, F&& body, const Deps& deps,
                      bool interactive) {
  using Frame = TaskFrame<R, std::decay_t<F>, N>;
  auto frame = std::allocate_shared<Frame>(BlockAllocator<Frame>{},
                                           std::forward<F>(body), rt,
                                           interactive, std::size(deps));
  Frame& f = *frame;
  trace_spawn(f.state(), deps);
  TaskID<R> id(std::shared_ptr<TaskState<R>>(frame, &f.state()), &rt);
  f.start(std::move(frame), deps);
  return id;
}

/// Spawn with a runtime-sized dependence list (the edges get one vector).
template <typename R, typename F>
TaskID<R> spawn(Runtime& rt, F&& body,
                std::vector<std::shared_ptr<TaskStateBase>> deps,
                bool interactive) {
  return spawn_frame<R, std::dynamic_extent>(rt, std::forward<F>(body), deps,
                                             interactive);
}

}  // namespace detail

/// Spawn a compute task on the given runtime.
template <typename F>
auto run(Runtime& rt, F&& body) -> TaskID<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  return detail::spawn_frame<R, 0>(rt, std::forward<F>(body),
                                   std::array<TaskStateBase*, 0>{},
                                   /*interactive=*/false);
}

/// Spawn a compute task on the global runtime.
template <typename F>
auto run(F&& body) -> TaskID<std::invoke_result_t<F>> {
  return run(Runtime::global(), std::forward<F>(body));
}

/// Spawn a task that starts only after all `deps` have finished (in any
/// terminal state; inspect the deps yourself if failure matters).
template <typename F, typename... DepTs>
auto run_after(Runtime& rt, F&& body, const TaskID<DepTs>&... deps)
    -> TaskID<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  const std::array<TaskStateBase*, sizeof...(DepTs)> dep_states{
      deps.state_base_ptr()...};
  return detail::spawn_frame<R, sizeof...(DepTs)>(rt, std::forward<F>(body),
                                                  dep_states,
                                                  /*interactive=*/false);
}

template <typename F, typename... DepTs>
auto run_after(F&& body, const TaskID<DepTs>&... deps)
    -> TaskID<std::invoke_result_t<F>> {
  return run_after(Runtime::global(), std::forward<F>(body), deps...);
}

/// Spawn an interactive (IO-bound) task on the elastic pool: never occupies
/// a compute worker, so GUI-driven scans/downloads cannot starve computation.
template <typename F>
auto run_interactive(Runtime& rt, F&& body)
    -> TaskID<std::invoke_result_t<F>> {
  using R = std::invoke_result_t<F>;
  return detail::spawn_frame<R, 0>(rt, std::forward<F>(body),
                                   std::array<TaskStateBase*, 0>{},
                                   /*interactive=*/true);
}

template <typename F>
auto run_interactive(F&& body) -> TaskID<std::invoke_result_t<F>> {
  return run_interactive(Runtime::global(), std::forward<F>(body));
}

/// Multi-task (`TASK(n)`): logically one task expanded into `n` bodies
/// f(0..n-1) running in parallel; the returned handle completes when all
/// bodies have. For value-returning f the results arrive index-ordered.
template <typename F>
  requires std::is_void_v<std::invoke_result_t<F, std::size_t>>
TaskID<void> run_multi(Runtime& rt, std::size_t n, F&& f) {
  auto agg = std::make_shared<TaskState<void>>();
  if (n == 0) {
    agg->complete_value();
    return TaskID<void>(std::move(agg), &rt);
  }
  struct Shared {
    std::atomic<std::size_t> remaining;
    sched::FirstError error;  // lock-free first-failure capture
    std::function<void(std::size_t)> body;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining.store(n);
  shared->body = std::forward<F>(f);
  detail::trace_spawn(*agg);
  // One batched submission: n cells enqueued, workers woken once — the
  // wakeup cost of a TASK(n) no longer scales with n.
  rt.pool().submit_n(n, [&shared, &agg](std::size_t i) {
    // The extra id capture keeps the closure at exactly
    // TaskCell::kInlineBytes, so multi-task bodies still store inline.
    return [shared, agg, i, tid = detail::trace_multi_body(*agg)] {
      if (obs::tracing() && tid != 0) [[unlikely]] {
        obs::emit(obs::EventKind::kTaskStart, tid, 0);
      }
      if (!agg->cancel_requested()) {
        CurrentTask::Scope scope(agg.get());
        try {
          shared->body(i);
        } catch (...) {
          shared->error.capture(std::current_exception());
        }
      }
      if (obs::tracing() && tid != 0) [[unlikely]] {
        obs::emit(obs::EventKind::kTaskFinish, tid, 0);
      }
      if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (agg->cancel_requested()) {
          agg->complete_cancelled();
        } else if (auto err = shared->error.take()) {
          agg->complete_error(std::move(err));
        } else {
          agg->complete_value();
        }
      }
    };
  }, sched::SubmitHint::auto_);
  return TaskID<void>(std::move(agg), &rt);
}

template <typename F>
  requires(!std::is_void_v<std::invoke_result_t<F, std::size_t>>)
auto run_multi(Runtime& rt, std::size_t n, F&& f)
    -> TaskID<std::vector<std::invoke_result_t<F, std::size_t>>> {
  using R = std::invoke_result_t<F, std::size_t>;
  auto agg = std::make_shared<TaskState<std::vector<R>>>();
  if (n == 0) {
    agg->complete_value({});
    return TaskID<std::vector<R>>(std::move(agg), &rt);
  }
  struct Shared {
    std::atomic<std::size_t> remaining;
    sched::FirstError error;  // lock-free first-failure capture
    std::vector<std::optional<R>> slots;
    std::function<R(std::size_t)> body;
  };
  auto shared = std::make_shared<Shared>();
  shared->remaining.store(n);
  shared->slots.resize(n);
  shared->body = std::forward<F>(f);
  detail::trace_spawn(*agg);
  rt.pool().submit_n(n, [&shared, &agg](std::size_t i) {
    return [shared, agg, i, tid = detail::trace_multi_body(*agg)] {
      if (obs::tracing() && tid != 0) [[unlikely]] {
        obs::emit(obs::EventKind::kTaskStart, tid, 0);
      }
      if (!agg->cancel_requested()) {
        CurrentTask::Scope scope(agg.get());
        try {
          shared->slots[i].emplace(shared->body(i));
        } catch (...) {
          shared->error.capture(std::current_exception());
        }
      }
      if (obs::tracing() && tid != 0) [[unlikely]] {
        obs::emit(obs::EventKind::kTaskFinish, tid, 0);
      }
      if (shared->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (agg->cancel_requested()) {
          agg->complete_cancelled();
        } else if (auto err = shared->error.take()) {
          agg->complete_error(std::move(err));
        } else {
          std::vector<R> out;
          out.reserve(shared->slots.size());
          for (auto& slot : shared->slots) out.push_back(std::move(*slot));
          agg->complete_value(std::move(out));
        }
      }
    };
  }, sched::SubmitHint::auto_);
  return TaskID<std::vector<R>>(std::move(agg), &rt);
}

template <typename F>
auto run_multi(std::size_t n, F&& f) {
  return run_multi(Runtime::global(), n, std::forward<F>(f));
}

/// Structured fork/join: spawn void tasks into the group, then wait() for
/// all of them. wait() rethrows the first captured exception. A worker that
/// waits helps execute pending tasks, so recursive use (divide and conquer)
/// cannot deadlock the pool.
class TaskGroup {
 public:
  explicit TaskGroup(Runtime& rt = Runtime::global()) : rt_(rt) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Late safety net only: callers are expected to wait() themselves. Must
  /// never throw — destructors routinely run during the unwinding of some
  /// other exception, and rethrowing a task failure there would terminate.
  /// Any error still captured at this point is intentionally dropped.
  ~TaskGroup() noexcept {
    try {
      wait_nothrow();
    } catch (...) {
      // Helping the pool can surface foreign exceptions (a non-group job
      // that throws through try_run_one); swallow rather than terminate.
    }
  }

  template <typename F>
  void run(F&& f) {
    join_.add();
    rt_.pool().submit(
        [this, body = std::function<void()>(std::forward<F>(f))] {
          try {
            body();
          } catch (...) {
            join_.capture_error(std::current_exception());
          }
          join_.done();
        },
        sched::SubmitHint::auto_);
  }

  /// Wait for all tasks spawned so far; rethrows the first failure.
  void wait() {
    wait_nothrow();
    if (auto err = join_.take_error()) std::rethrow_exception(err);
  }

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return join_.outstanding();
  }

 private:
  void wait_nothrow() { join_.wait(&rt_.pool()); }

  Runtime& rt_;
  sched::JoinLatch join_;
};

/// Run the given callables in parallel and wait for all of them.
template <typename... Fs>
void parallel_invoke(Runtime& rt, Fs&&... fs) {
  TaskGroup group(rt);
  (group.run(std::forward<Fs>(fs)), ...);
  group.wait();
}

template <typename... Fs>
void parallel_invoke(Fs&&... fs) {
  parallel_invoke(Runtime::global(), std::forward<Fs>(fs)...);
}

}  // namespace parc::ptask
