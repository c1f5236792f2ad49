// TaskID<T> — the caller-side handle of a ParallelTask task, mirroring the
// TaskID the Java compiler returns from a `TASK`-annotated call.
//
// Supports: readiness queries, cooperative waits (a waiting pool worker
// executes other tasks instead of blocking), result retrieval with exception
// propagation, GUI-aware completion handlers (`notify` — delivered on the
// registered event-dispatch thread), async error handlers, and cooperative
// cancellation.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "ptask/runtime.hpp"
#include "ptask/task_state.hpp"
#include "support/check.hpp"

namespace parc::ptask {

namespace detail {

/// Cooperative wait shared by all handle types: a thread belonging to the
/// runtime's compute pool helps (runs queued tasks); any other thread spins
/// briefly then parks on the task's completion word (sched::Completion).
inline void wait_on(Runtime& rt, TaskStateBase& state) {
  if (sched::WorkStealingPool::current_pool() == &rt.pool()) {
    rt.pool().help_while([&state] { return !state.finished(); });
  } else {
    state.wait_blocking();
  }
}

}  // namespace detail

template <typename T>
class TaskID {
 public:
  using value_type = T;

  TaskID() = default;
  TaskID(std::shared_ptr<TaskState<T>> state, Runtime* rt)
      : state_(std::move(state)), rt_(rt) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept {
    return state_ && state_->finished();
  }
  [[nodiscard]] TaskStatus status() const noexcept {
    PARC_CHECK(valid());
    return state_->status();
  }

  /// Wait for completion (does not throw; see get()).
  void wait() const {
    PARC_CHECK(valid());
    detail::wait_on(*rt_, *state_);
  }

  /// Wait, then return the result; rethrows the task's exception, or
  /// TaskCancelled if it was cancelled before running.
  const T& get() const {
    wait();
    state_->throw_if_failed();
    return state_->value();
  }

  /// GUI-aware completion handler: runs on the event-dispatch thread if one
  /// is registered with the runtime (Runtime::set_event_dispatcher), inline
  /// on the completing worker otherwise. Only successful completions are
  /// delivered; pair with on_error for failures.
  TaskID& notify(std::function<void(const T&)> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    Runtime* rt = rt_;
    state_->add_continuation([state, rt, handler = std::move(handler)] {
      if (state->status() == TaskStatus::kDone) {
        rt->dispatch_to_edt([state, handler] { handler(state->value()); });
      }
    });
    return *this;
  }

  /// Completion handler run inline on the completing worker thread.
  TaskID& notify_inline(std::function<void(const T&)> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    state_->add_continuation([state, handler = std::move(handler)] {
      if (state->status() == TaskStatus::kDone) handler(state->value());
    });
    return *this;
  }

  /// Asynchronous exception handler (ParallelTask's `asyncCatch`): delivered
  /// on the EDT like notify. Also fires for cancellation (TaskCancelled).
  TaskID& on_error(std::function<void(std::exception_ptr)> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    Runtime* rt = rt_;
    state_->add_continuation([state, rt, handler = std::move(handler)] {
      const TaskStatus s = state->status();
      if (s == TaskStatus::kFailed) {
        rt->dispatch_to_edt([state, handler] { handler(state->error()); });
      } else if (s == TaskStatus::kCancelled) {
        rt->dispatch_to_edt([handler] {
          handler(std::make_exception_ptr(TaskCancelled{}));
        });
      }
    });
    return *this;
  }

  /// Request cancellation. Returns true if the task had not yet started
  /// (it will complete as kCancelled without running). A task already
  /// running observes the request via ptask::cancellation_requested().
  bool cancel() {
    PARC_CHECK(valid());
    return state_->request_cancel();
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_ && state_->cancel_requested();
  }

  /// Untyped state, used to express dependences (run_after).
  [[nodiscard]] std::shared_ptr<TaskStateBase> state_base() const {
    return state_;
  }
  /// The same, borrowed: run_after registers its edges through this
  /// without copying the handle.
  [[nodiscard]] TaskStateBase* state_base_ptr() const noexcept {
    return state_.get();
  }
  [[nodiscard]] Runtime* runtime() const noexcept { return rt_; }

 private:
  std::shared_ptr<TaskState<T>> state_;
  Runtime* rt_ = nullptr;
};

template <>
class TaskID<void> {
 public:
  using value_type = void;

  TaskID() = default;
  TaskID(std::shared_ptr<TaskState<void>> state, Runtime* rt)
      : state_(std::move(state)), rt_(rt) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] bool ready() const noexcept {
    return state_ && state_->finished();
  }
  [[nodiscard]] TaskStatus status() const noexcept {
    PARC_CHECK(valid());
    return state_->status();
  }

  void wait() const {
    PARC_CHECK(valid());
    detail::wait_on(*rt_, *state_);
  }

  void get() const {
    wait();
    state_->throw_if_failed();
  }

  TaskID& notify(std::function<void()> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    Runtime* rt = rt_;
    state_->add_continuation([state, rt, handler = std::move(handler)] {
      if (state->status() == TaskStatus::kDone) {
        rt->dispatch_to_edt(handler);
      }
    });
    return *this;
  }

  TaskID& notify_inline(std::function<void()> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    state_->add_continuation([state, handler = std::move(handler)] {
      if (state->status() == TaskStatus::kDone) handler();
    });
    return *this;
  }

  TaskID& on_error(std::function<void(std::exception_ptr)> handler) {
    PARC_CHECK(valid());
    auto state = state_;
    Runtime* rt = rt_;
    state_->add_continuation([state, rt, handler = std::move(handler)] {
      const TaskStatus s = state->status();
      if (s == TaskStatus::kFailed) {
        rt->dispatch_to_edt([state, handler] { handler(state->error()); });
      } else if (s == TaskStatus::kCancelled) {
        rt->dispatch_to_edt([handler] {
          handler(std::make_exception_ptr(TaskCancelled{}));
        });
      }
    });
    return *this;
  }

  bool cancel() {
    PARC_CHECK(valid());
    return state_->request_cancel();
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_ && state_->cancel_requested();
  }

  [[nodiscard]] std::shared_ptr<TaskStateBase> state_base() const {
    return state_;
  }
  [[nodiscard]] TaskStateBase* state_base_ptr() const noexcept {
    return state_.get();
  }
  [[nodiscard]] Runtime* runtime() const noexcept { return rt_; }

 private:
  std::shared_ptr<TaskState<void>> state_;
  Runtime* rt_ = nullptr;
};

}  // namespace parc::ptask
