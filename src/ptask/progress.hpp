// ProgressChannel: SwingWorker's publish()/process() for Parallel Task.
//
// A background task publishes intermediate results from any thread; the
// channel coalesces them and delivers batches to a handler on the
// event-dispatch thread. Coalescing matters: a task publishing thousands of
// items must not flood the EDT with one event each — batches arrive at the
// EDT's own pace, exactly like SwingWorker.
#pragma once

#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "ptask/runtime.hpp"
#include "support/check.hpp"

namespace parc::ptask {

template <typename P>
class ProgressChannel {
 public:
  using Handler = std::function<void(std::vector<P>)>;

  ProgressChannel(Runtime& rt, Handler on_process)
      : rt_(rt), state_(std::make_shared<State>()) {
    PARC_CHECK(on_process != nullptr);
    state_->handler = std::move(on_process);
  }

  /// Thread-safe; coalesces with other pending publishes. The handler runs
  /// on the EDT (or inline when no dispatcher is registered).
  void publish(P item) {
    auto state = state_;
    bool schedule = false;
    {
      std::scoped_lock lock(state->mutex);
      state->buffer.push_back(std::move(item));
      if (!state->drain_scheduled) {
        state->drain_scheduled = true;
        schedule = true;
      }
    }
    if (schedule) {
      rt_.dispatch_to_edt([state] {
        std::vector<P> batch;
        {
          std::scoped_lock lock(state->mutex);
          batch.swap(state->buffer);
          state->drain_scheduled = false;
        }
        if (!batch.empty()) state->handler(std::move(batch));
      });
    }
  }

 private:
  struct State {
    std::mutex mutex;
    std::vector<P> buffer;        // guarded by mutex
    bool drain_scheduled = false; // guarded by mutex
    Handler handler;              // set once at construction
  };

  Runtime& rt_;
  std::shared_ptr<State> state_;
};

}  // namespace parc::ptask
