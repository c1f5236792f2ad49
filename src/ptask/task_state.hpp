// Shared state behind a TaskID: status, result/exception slot, completion
// continuations and the cancellation flag. A spawned task's state lives in
// its task frame (spawn.hpp) beside the body and the dependence countdown.
//
// Mirrors the runtime objects that the Java Parallel Task compiler emits for
// a `TASK` method invocation (Giacaman & Sinnen, IJPP 2013): the handle the
// caller holds is a thin shared_ptr to this state.
//
// Synchronization rides the sched completion core (sched/completion.hpp):
// continuations and dependence edges are nodes on the Completion's lock-free
// sealed Treiber stack, and blocking waits park on its futex word — there
// is no mutex or condition_variable anywhere in a task's lifecycle. The
// error slot is a plain member: it is written before finish() publishes the
// terminal status, and every reader first observes finished() through an
// acquire (status load or completion word), which orders the read.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <utility>

#include "obs/trace.hpp"
#include "sched/completion.hpp"
#include "support/check.hpp"

namespace parc::ptask {

enum class TaskStatus : std::uint8_t {
  kCreated,    ///< constructed, dependences not yet satisfied
  kScheduled,  ///< in a pool queue
  kRunning,    ///< body executing
  kDone,       ///< completed with a value
  kFailed,     ///< completed with an exception
  kCancelled,  ///< cancelled before the body started
};

/// Thrown by TaskID::get() when the task was cancelled before running.
class TaskCancelled : public std::exception {
 public:
  [[nodiscard]] const char* what() const noexcept override {
    return "parc::ptask task was cancelled before it ran";
  }
};

class TaskStateBase {
 public:
  virtual ~TaskStateBase() = default;

  /// obs trace id (0 = spawned with no live trace session). Written once at
  /// spawn before the task can be scheduled, read by the runtime's task
  /// lifecycle and dependence-edge trace events.
  std::uint64_t obs_id = 0;

  [[nodiscard]] TaskStatus status() const noexcept {
    return status_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool finished() const noexcept {
    const TaskStatus s = status();
    return s == TaskStatus::kDone || s == TaskStatus::kFailed ||
           s == TaskStatus::kCancelled;
  }

  /// Request cooperative cancellation. Returns true if the request landed
  /// before the body started (i.e. the task will not run).
  bool request_cancel() noexcept {
    cancel_requested_.store(true, std::memory_order_release);
    return !started_.load(std::memory_order_acquire);
  }

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_requested_.load(std::memory_order_acquire);
  }

  /// Register a continuation to run after completion. If the task has
  /// already finished the continuation runs inline on the calling thread;
  /// otherwise it runs on the completing thread, after the terminal status
  /// is published.
  void add_continuation(std::function<void()> fn) {
    completion_.add_continuation(std::move(fn));
  }

  /// Register a successor's dependence edge (an embedded, inline_only
  /// node) to run on the completing thread before the completed bit is
  /// published: wait()-returned implies the successor was released. Returns
  /// false, without registering, if this task has already finished.
  [[nodiscard]] bool try_add_edge(sched::CompletionNode& edge) noexcept {
    PARC_DCHECK(edge.inline_only && edge.embedded);
    return completion_.try_push(&edge);
  }

  /// Blocking wait for completion from a non-pool thread: spins briefly,
  /// then parks on the completion's futex word (no mutex/cv).
  void wait_blocking() { completion_.wait(obs_id); }

  [[nodiscard]] std::exception_ptr error() const noexcept {
    // Only read after finished(); release/acquire on status_ orders it.
    return error_;
  }

  /// Rethrows the failure/cancellation, if any. Requires finished().
  void throw_if_failed() const {
    const TaskStatus s = status();
    if (s == TaskStatus::kFailed) std::rethrow_exception(error_);
    if (s == TaskStatus::kCancelled) throw TaskCancelled{};
  }

 protected:
  /// The executing job calls these.
  void mark_scheduled() noexcept {
    status_.store(TaskStatus::kScheduled, std::memory_order_release);
  }

  /// Returns false if cancellation won and the body must not run.
  bool begin_running() noexcept {
    if (cancel_requested_.load(std::memory_order_acquire)) return false;
    started_.store(true, std::memory_order_release);
    status_.store(TaskStatus::kRunning, std::memory_order_release);
    return true;
  }

  void finish(TaskStatus terminal, std::exception_ptr error) {
    PARC_DCHECK(terminal == TaskStatus::kDone ||
                terminal == TaskStatus::kFailed ||
                terminal == TaskStatus::kCancelled);
    // Publish payload before the completion fires: continuations and
    // waiters acquire through status_/the completion word and must see
    // both the error slot and the terminal status.
    error_ = std::move(error);
    status_.store(terminal, std::memory_order_release);
    // Runs continuations and dependent notifications on this thread, then
    // wakes parked waiters. Its final RMW is the release point wait_blocking
    // synchronizes with.
    completion_.complete(obs_id);
  }

  /// Trace hooks around the body. The finish event must be emitted *before*
  /// finish() publishes completion: a waiter that returns from wait() may
  /// immediately end the trace session, and the task's lifecycle has to be
  /// fully recorded by then.
  void trace_body_start() const noexcept {
    if (obs::tracing() && obs_id != 0) [[unlikely]] {
      obs::emit(obs::EventKind::kTaskStart, obs_id, 0);
    }
  }
  void trace_body_finish() const noexcept {
    if (obs::tracing() && obs_id != 0) [[unlikely]] {
      obs::emit(obs::EventKind::kTaskFinish, obs_id, 0);
    }
  }

 private:
  std::atomic<TaskStatus> status_{TaskStatus::kCreated};
  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> started_{false};
  sched::Completion completion_;
  std::exception_ptr error_;  ///< written in finish() before publication
};

/// Typed result slot + body execution glue.
template <typename T>
class TaskState final : public TaskStateBase {
 public:
  [[nodiscard]] const T& value() const {
    PARC_CHECK(status() == TaskStatus::kDone);
    return *value_;
  }

  /// Templated on the callable so spawn sites avoid a std::function
  /// conversion (and its potential allocation) per task. Takes an lvalue
  /// reference: mutable lambdas are legal task bodies.
  template <typename F>
  void run_body(F& body) {
    if (!begin_running()) {
      finish(TaskStatus::kCancelled, nullptr);
      return;
    }
    trace_body_start();
    try {
      value_.emplace(body());
      trace_body_finish();
      finish(TaskStatus::kDone, nullptr);
    } catch (...) {
      trace_body_finish();
      finish(TaskStatus::kFailed, std::current_exception());
    }
  }

  void mark_scheduled_public() noexcept { mark_scheduled(); }

  /// Direct completion, used by aggregate tasks (multi-tasks) whose result
  /// is assembled outside a single body.
  void complete_value(T v) {
    value_.emplace(std::move(v));
    finish(TaskStatus::kDone, nullptr);
  }
  void complete_error(std::exception_ptr e) {
    finish(TaskStatus::kFailed, std::move(e));
  }
  void complete_cancelled() { finish(TaskStatus::kCancelled, nullptr); }

 private:
  std::optional<T> value_;
};

template <>
class TaskState<void> final : public TaskStateBase {
 public:
  /// Templated on the callable so spawn sites avoid a std::function
  /// conversion (and its potential allocation) per task. Takes an lvalue
  /// reference: mutable lambdas are legal task bodies.
  template <typename F>
  void run_body(F& body) {
    if (!begin_running()) {
      finish(TaskStatus::kCancelled, nullptr);
      return;
    }
    trace_body_start();
    try {
      body();
      trace_body_finish();
      finish(TaskStatus::kDone, nullptr);
    } catch (...) {
      trace_body_finish();
      finish(TaskStatus::kFailed, std::current_exception());
    }
  }

  void mark_scheduled_public() noexcept { mark_scheduled(); }

  /// Direct completion, used by aggregate tasks (multi-tasks).
  void complete_value() { finish(TaskStatus::kDone, nullptr); }
  void complete_error(std::exception_ptr e) {
    finish(TaskStatus::kFailed, std::move(e));
  }
  void complete_cancelled() { finish(TaskStatus::kCancelled, nullptr); }
};

/// Identity of the task currently executing on this thread (cancellation
/// checks, diagnostics). Set by the runtime around body execution.
class CurrentTask {
 public:
  [[nodiscard]] static TaskStateBase* get() noexcept { return current_; }

  class Scope {
   public:
    explicit Scope(TaskStateBase* state) noexcept : prev_(current_) {
      current_ = state;
    }
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TaskStateBase* prev_;
  };

 private:
  // inline + constant-initialized: accesses from other TUs go straight to
  // the TLS slot instead of through a lazy-init wrapper function (which
  // GCC's UBSan mis-flags as a possible null store under -fsanitize).
  static inline thread_local TaskStateBase* current_ = nullptr;
};

/// True when the currently running task has been asked to cancel.
/// Long-running task bodies poll this (cooperative cancellation).
[[nodiscard]] inline bool cancellation_requested() noexcept {
  const TaskStateBase* t = CurrentTask::get();
  return t != nullptr && t->cancel_requested();
}

}  // namespace parc::ptask
