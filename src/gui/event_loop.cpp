#include "gui/event_loop.hpp"

#include <queue>
#include <utility>

#include "obs/trace.hpp"
#include "sched/completion.hpp"
#include "support/check.hpp"

namespace parc::gui {

EventLoop::EventLoop(std::size_t queue_capacity)
    : queue_({.capacity = queue_capacity, .stripes = 1}),
      thread_([this] { loop(); }) {}

EventLoop::~EventLoop() { shutdown(); }

void EventLoop::enqueue(Msg m, const char* what) {
  PARC_CHECK_MSG(!stopping_.load(std::memory_order_acquire), what);
  if (is_event_thread()) {
    // Never block the dispatch thread on its own queue: a full channel here
    // means nobody else can drain it. Spill to the EDT-confined backlog.
    const flow::PushResult r = queue_.try_push(m);
    if (r == flow::PushResult::ok) return;
    PARC_CHECK_MSG(r != flow::PushResult::closed, what);
    edt_backlog_.push_back(std::move(m));
    return;
  }
  // Backpressure: a full queue stalls the poster until the EDT catches up
  // (pool workers help-steal while they wait — Channel::push).
  PARC_CHECK_MSG(queue_.push(std::move(m)), what);
}

void EventLoop::post(std::function<void()> event) {
  PARC_CHECK(event != nullptr);
  if (obs::tracing()) [[unlikely]] {
    // The posting side of a worker→EDT handoff; the matching kEdtRunBegin
    // happens on the event thread when the event is serviced.
    obs::emit(obs::EventKind::kEdtPost, 0, 0);
  }
  enqueue(Msg{std::move(event), Clock::now(), {}, 0, false},
          "post() after EventLoop::shutdown()");
}

bool EventLoop::try_post(std::function<void()> event) {
  PARC_CHECK(event != nullptr);
  PARC_CHECK_MSG(!stopping_.load(std::memory_order_acquire),
                 "try_post() after EventLoop::shutdown()");
  Msg m{std::move(event), Clock::now(), {}, 0, false};
  const flow::PushResult r = queue_.try_push(m);
  if (r == flow::PushResult::ok) {
    if (obs::tracing()) [[unlikely]] {
      obs::emit(obs::EventKind::kEdtPost, 0, 0);
    }
    return true;
  }
  PARC_CHECK_MSG(r != flow::PushResult::closed,
                 "try_post() after EventLoop::shutdown()");
  overflowed_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void EventLoop::post_delayed(std::function<void()> event,
                             std::chrono::milliseconds delay) {
  PARC_CHECK(event != nullptr);
  const auto now = Clock::now();
  enqueue(Msg{std::move(event), now, now + delay,
              delayed_seq_.fetch_add(1, std::memory_order_relaxed), true},
          "post_delayed() after EventLoop::shutdown()");
}

void EventLoop::post_and_wait(std::function<void()> event) {
  PARC_CHECK_MSG(!is_event_thread(),
                 "post_and_wait from the event thread would deadlock");
  // Stack lifetime is safe: complete()'s final access to the Completion is
  // the publishing RMW the waiter acquires through, so the waiter cannot
  // return (and destroy `done`) while the EDT still touches it.
  sched::Completion done;
  post([&done, event = std::move(event)] {
    event();
    done.complete();
  });
  done.wait();
}

bool EventLoop::is_event_thread() const noexcept {
  return std::this_thread::get_id() == thread_.get_id();
}

void EventLoop::drain() {
  PARC_CHECK_MSG(!is_event_thread(), "drain from the event thread");
  if (stopping_.load(std::memory_order_acquire)) return;  // shutdown drains
  // FIFO sentinel: when it runs, everything posted before it has run.
  sched::Completion done;
  Msg m{[&done] { done.complete(); }, Clock::now(), {}, 0, false};
  if (!queue_.push(std::move(m))) return;  // raced shutdown(); it drains
  done.wait();
}

void EventLoop::shutdown() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();  // idempotent; wakes the parked dispatch thread
  if (thread_.joinable()) thread_.join();
}

void EventLoop::run_event(std::function<void()>&& fn,
                          Clock::time_point enqueued) {
  const double latency_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - enqueued)
          .count();
  {
    std::scoped_lock lock(metrics_mutex_);
    latencies_ms_.push_back(latency_ms);
  }
  if (obs::tracing()) [[unlikely]] {
    obs::emit(obs::EventKind::kEdtRunBegin, 0, 0);
    fn();
    obs::emit(obs::EventKind::kEdtRunEnd, 0, 0);
  } else {
    fn();
  }
  serviced_.fetch_add(1, std::memory_order_relaxed);
}

void EventLoop::loop() {
  obs::label_thread("edt");
  // Timer heap is dispatch-thread-confined: delayed events cross the
  // channel as messages and park here until due — no shared timer state.
  std::priority_queue<DelayedEvent, std::vector<DelayedEvent>, std::greater<>>
      timers;
  bool closed = false;
  for (;;) {
    if (!timers.empty() && timers.top().due <= Clock::now()) {
      // enqueued = due time: latency measures EDT backlog, not the delay.
      DelayedEvent t = std::move(const_cast<DelayedEvent&>(timers.top()));
      timers.pop();
      run_event(std::move(t.fn), t.due);
      continue;
    }
    Msg m;
    bool have = false;
    if (!closed) {
      if (!edt_backlog_.empty()) {
        // Local work pending: poll the channel (older events) but never
        // park over it.
        const flow::PopResult r = queue_.try_pop(m);
        if (r == flow::PopResult::ok) have = true;
        if (r == flow::PopResult::closed) closed = true;
      } else {
        const Clock::time_point deadline =
            timers.empty() ? Clock::time_point::max() : timers.top().due;
        const flow::PopResult r = queue_.try_pop_until(m, deadline);
        if (r == flow::PopResult::ok) have = true;
        if (r == flow::PopResult::closed) closed = true;
      }
    }
    if (!have && !edt_backlog_.empty()) {
      m = std::move(edt_backlog_.front());
      edt_backlog_.pop_front();
      have = true;
    }
    if (!have) {
      if (closed) {
        // Already-due timers still run at shutdown; the rest are
        // intentionally dropped — they are timers, and the app is closing.
        if (!timers.empty() && timers.top().due <= Clock::now()) continue;
        return;
      }
      continue;  // a timer came due, or the deadline poll timed out
    }
    if (m.delayed) {
      if (m.due <= Clock::now()) {
        run_event(std::move(m.fn), m.due);
      } else {
        timers.push(DelayedEvent{m.due, m.seq, std::move(m.fn)});
      }
      continue;
    }
    run_event(std::move(m.fn), m.enqueued);
  }
}

std::vector<double> EventLoop::latency_samples_ms() const {
  std::scoped_lock lock(metrics_mutex_);
  return latencies_ms_;
}

Summary EventLoop::latency_summary_ms() const {
  Summary s;
  s.add_all(latency_samples_ms());
  return s;
}

LogHistogram EventLoop::latency_histogram_ms() const {
  // 1 µs .. 100 s in ms units covers everything from an idle loop's
  // sub-frame latencies to a fully wedged EDT.
  LogHistogram h(1e-3, 1e5);
  std::scoped_lock lock(metrics_mutex_);
  for (const double ms : latencies_ms_) h.add(ms);
  return h;
}

void EventLoop::reset_metrics() {
  std::scoped_lock lock(metrics_mutex_);
  latencies_ms_.clear();
}

Debouncer::Debouncer(EventLoop& loop, std::chrono::milliseconds quiet)
    : loop_(loop), quiet_(quiet), state_(std::make_shared<State>()) {}

void Debouncer::trigger(std::function<void()> action) {
  PARC_CHECK(action != nullptr);
  std::uint64_t my_generation;
  {
    std::scoped_lock lock(state_->mutex);
    my_generation = ++state_->generation;
  }
  loop_.post_delayed(
      [state = state_, my_generation, action = std::move(action)] {
        {
          std::scoped_lock lock(state->mutex);
          if (state->generation != my_generation) return;  // superseded
        }
        state->fired.fetch_add(1, std::memory_order_relaxed);
        action();
      },
      quiet_);
}

std::uint64_t Debouncer::fired() const noexcept {
  return state_->fired.load(std::memory_order_relaxed);
}

double dropped_frame_fraction(const std::vector<double>& latencies_ms,
                              double budget_ms) {
  if (latencies_ms.empty()) return 0.0;
  std::size_t over = 0;
  for (double l : latencies_ms) {
    if (l > budget_ms) ++over;
  }
  return static_cast<double>(over) / static_cast<double>(latencies_ms.size());
}

}  // namespace parc::gui
