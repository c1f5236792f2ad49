// Pipelines and progress channels: ordering, type transforms, overlap,
// end-of-stream propagation, stage failure, EDT batch delivery.
#include "ptask/ptask.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <stdexcept>
#include <string>

#include "gui/event_loop.hpp"

namespace parc::ptask {
namespace {

Runtime& test_runtime() {
  static Runtime rt(Runtime::Config{4, {}});
  return rt;
}

TEST(Pipeline, SingleStageMapsAllElements) {
  std::vector<int> inputs{1, 2, 3, 4, 5};
  auto t = pipeline(test_runtime(), inputs, [](int x) { return x * 10; });
  EXPECT_EQ(t.get(), (std::vector<int>{10, 20, 30, 40, 50}));
}

TEST(Pipeline, MultiStageChainsTypes) {
  std::vector<int> inputs{1, 2, 3};
  auto t = pipeline(
      test_runtime(), inputs, [](int x) { return x + 1; },
      [](int x) { return std::to_string(x * 2); },
      [](std::string s) { return s + "!"; });
  EXPECT_EQ(t.get(), (std::vector<std::string>{"4!", "6!", "8!"}));
}

TEST(Pipeline, PreservesOrderForManyElements) {
  std::vector<int> inputs;
  for (int i = 0; i < 2000; ++i) inputs.push_back(i);
  auto t = pipeline(
      test_runtime(), inputs, [](int x) { return x * 3; },
      [](int x) { return x + 1; });
  const auto& out = t.get();
  ASSERT_EQ(out.size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * 3 + 1);
  }
}

TEST(Pipeline, EmptyInputYieldsEmptyOutput) {
  auto t = pipeline(test_runtime(), std::vector<int>{},
                    [](int x) { return x; });
  EXPECT_TRUE(t.get().empty());
}

TEST(Pipeline, StagesOverlapInTime) {
  // Record which elements stage 2 has seen before stage 1 finished all of
  // them: with true pipelining, stage 2 starts before stage 1 drains.
  std::atomic<int> stage1_done{0};
  std::atomic<int> stage2_started_early{0};
  std::vector<int> inputs;
  for (int i = 0; i < 64; ++i) inputs.push_back(i);
  auto t = pipeline(
      test_runtime(), inputs,
      [&](int x) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        stage1_done.fetch_add(1);
        return x;
      },
      [&](int x) {
        if (stage1_done.load() < 64) stage2_started_early.fetch_add(1);
        return x;
      });
  t.get();
  EXPECT_GT(stage2_started_early.load(), 0);
}

TEST(Pipeline, DeepPipelineOnSmallPool) {
  // 6 stages on a 2-worker runtime: helping waits keep it from deadlocking.
  Runtime rt(Runtime::Config{2, {}});
  std::vector<int> inputs{1, 2, 3, 4};
  auto t = pipeline(
      rt, inputs, [](int x) { return x + 1; }, [](int x) { return x + 1; },
      [](int x) { return x + 1; }, [](int x) { return x + 1; },
      [](int x) { return x + 1; }, [](int x) { return x + 1; });
  EXPECT_EQ(t.get(), (std::vector<int>{7, 8, 9, 10}));
}

TEST(Pipeline, MoveOnlyFriendlyPayloads) {
  std::vector<std::string> inputs{"a", "bb", "ccc"};
  auto t = pipeline(test_runtime(), inputs,
                    [](std::string s) { return s.size(); });
  EXPECT_EQ(t.get(), (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Pipeline, ThrowingStageRethrowsFromGet) {
  // The first stage fails mid-stream, with more input left than the edges
  // hold: the failure must stop the feeder and the later stage, and reach
  // get() instead of hanging it.
  std::vector<int> inputs;
  for (int i = 0; i < 2000; ++i) inputs.push_back(i);
  auto t = pipeline(
      test_runtime(), inputs,
      [](int x) {
        if (x == 700) throw std::runtime_error("stage failed");
        return x;
      },
      [](int x) { return x + 1; });
  EXPECT_THROW((void)t.get(), std::runtime_error);
}

/// Returns std::optional and has a flush() member, the two shapes flow
/// reads as a filter or a stateful stage.
struct EvensOrNothing {
  std::optional<int> operator()(int x) const {
    return x % 2 == 0 ? std::optional<int>(x) : std::nullopt;
  }
  std::optional<int> flush() const { return -1; }
};

TEST(Pipeline, OptionalResultIsEmittedAsAValue) {
  // A ptask stage is always a map: nullopt is an element, not a drop, and
  // the flush() member is never called.
  auto t = pipeline(test_runtime(), std::vector<int>{1, 2, 3, 4},
                    EvensOrNothing{});
  EXPECT_EQ(t.get(), (std::vector<std::optional<int>>{std::nullopt, 2,
                                                       std::nullopt, 4}));
}

TEST(ProgressChannel, DeliversEverythingInBatches) {
  gui::EventLoop loop;
  Runtime rt(Runtime::Config{2, {}});
  rt.set_event_dispatcher(loop.dispatcher());
  std::vector<int> received;  // EDT-confined
  std::atomic<int> batches{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    batches.fetch_add(1);
    for (int v : batch) received.push_back(v);
  });
  auto task = run(rt, [&] {
    for (int i = 0; i < 500; ++i) channel.publish(i);
  });
  task.get();
  loop.drain();
  loop.post_and_wait([] {});
  ASSERT_EQ(received.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i);  // order preserved
  }
  // Coalescing: far fewer batches than items.
  EXPECT_LT(batches.load(), 500);
  EXPECT_GE(batches.load(), 1);
  rt.set_event_dispatcher(nullptr);
}

TEST(ProgressChannel, WorksWithoutDispatcher) {
  Runtime rt(Runtime::Config{2, {}});
  std::atomic<int> total{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    for (int v : batch) total.fetch_add(v);
  });
  channel.publish(1);
  channel.publish(2);
  channel.publish(3);
  EXPECT_EQ(total.load(), 6);  // inline delivery, immediate
}

TEST(ProgressChannel, ConcurrentPublishersLoseNothing) {
  gui::EventLoop loop;
  Runtime rt(Runtime::Config{4, {}});
  rt.set_event_dispatcher(loop.dispatcher());
  std::atomic<long> sum{0};
  ProgressChannel<int> channel(rt, [&](std::vector<int> batch) {
    for (int v : batch) sum.fetch_add(v);
  });
  auto t = run_multi(rt, 8, [&](std::size_t) {
    for (int i = 1; i <= 250; ++i) channel.publish(i);
  });
  t.get();
  loop.drain();
  loop.post_and_wait([] {});
  EXPECT_EQ(sum.load(), 8L * 250 * 251 / 2);
  rt.set_event_dispatcher(nullptr);
}

}  // namespace
}  // namespace parc::ptask
