// Property tests over random dependence graphs: for any DAG, run_after must
// execute every node after all of its dependences (observed via a global
// completion counter), exceptions must not break the graph, and cancelling
// a mid-graph node must not corrupt unrelated subgraphs.
#include "ptask/ptask.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "support/rng.hpp"

namespace parc::ptask {
namespace {

Runtime& test_runtime() {
  static Runtime rt(Runtime::Config{4, {}});
  return rt;
}

struct GraphSpec {
  std::vector<std::vector<std::size_t>> deps;  // deps[i] ⊂ {0..i-1}
};

GraphSpec random_dag(std::size_t nodes, double edge_prob, std::uint64_t seed) {
  Rng rng(seed);
  GraphSpec spec;
  spec.deps.resize(nodes);
  for (std::size_t i = 1; i < nodes; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (rng.chance(edge_prob)) spec.deps[i].push_back(j);
    }
  }
  return spec;
}

using GraphParam = std::tuple<std::size_t, double, std::uint64_t>;

class RandomDagExecution : public ::testing::TestWithParam<GraphParam> {};

TEST_P(RandomDagExecution, DependencesAlwaysFinishFirst) {
  const auto [nodes, edge_prob, seed] = GetParam();
  const GraphSpec spec = random_dag(nodes, edge_prob, seed);

  std::atomic<std::uint64_t> clock{0};
  std::vector<std::atomic<std::uint64_t>> finish_stamp(nodes);
  for (auto& f : finish_stamp) f.store(0);

  std::vector<TaskID<void>> tasks(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::vector<std::shared_ptr<TaskStateBase>> dep_states;
    for (std::size_t d : spec.deps[i]) {
      dep_states.push_back(tasks[d].state_base());
    }
    auto body = [&, i] {
      finish_stamp[i].store(clock.fetch_add(1) + 1,
                            std::memory_order_release);
    };
    tasks[i] = detail::spawn<void>(test_runtime(), std::move(body),
                                   std::move(dep_states),
                                   /*interactive=*/false);
  }
  for (auto& t : tasks) t.get();

  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t d : spec.deps[i]) {
      ASSERT_GT(finish_stamp[i].load(), finish_stamp[d].load())
          << "node " << i << " ran before its dependence " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesDensitiesSeeds, RandomDagExecution,
    ::testing::Combine(::testing::Values<std::size_t>(5, 25, 100),
                       ::testing::Values(0.05, 0.3, 0.8),
                       ::testing::Values<std::uint64_t>(1, 2, 3)),
    [](const ::testing::TestParamInfo<GraphParam>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_s" + std::to_string(std::get<2>(info.param));
    });

TEST(DependenceGraph, FailedDependenceStillReleasesDependents) {
  // A dependence that throws still counts as finished: the dependent runs
  // (Parallel Task semantics — inspect the dep yourself if failure matters).
  auto bad = run(test_runtime(), [] { throw std::runtime_error("dep"); });
  std::atomic<bool> ran{false};
  auto next = run_after(test_runtime(), [&] { ran.store(true); }, bad);
  next.get();
  EXPECT_TRUE(ran.load());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(DependenceGraph, CancelledDependenceReleasesDependents) {
  Runtime rt(Runtime::Config{1, {}});
  std::atomic<bool> release{false};
  auto blocker = run(rt, [&] {
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  });
  auto victim = run(rt, [] {});
  auto dependent = run_after(rt, [] { return 7; }, victim);
  victim.cancel();
  release.store(true);
  blocker.get();
  EXPECT_EQ(dependent.get(), 7);
  EXPECT_THROW(victim.get(), TaskCancelled);
}

TEST(DependenceGraph, LongChainCompletesInOrder) {
  constexpr std::size_t kDepth = 500;
  std::vector<TaskID<void>> chain;
  chain.reserve(kDepth);
  std::atomic<std::size_t> next_expected{0};
  std::atomic<bool> order_ok{true};
  chain.push_back(run(test_runtime(), [&] {
    if (next_expected.fetch_add(1) != 0) order_ok.store(false);
  }));
  for (std::size_t i = 1; i < kDepth; ++i) {
    chain.push_back(run_after(
        test_runtime(),
        [&, i] {
          if (next_expected.fetch_add(1) != i) order_ok.store(false);
        },
        chain[i - 1]));
  }
  chain.back().get();
  EXPECT_TRUE(order_ok.load());
  EXPECT_EQ(next_expected.load(), kDepth);
}

TEST(DependenceGraph, WideFanInReleasesOnce) {
  constexpr std::size_t kWidth = 200;
  std::vector<TaskID<int>> sources;
  sources.reserve(kWidth);
  for (std::size_t i = 0; i < kWidth; ++i) {
    sources.push_back(run(test_runtime(), [i] { return static_cast<int>(i); }));
  }
  std::vector<std::shared_ptr<TaskStateBase>> dep_states;
  for (auto& s : sources) dep_states.push_back(s.state_base());
  std::atomic<int> runs{0};
  auto sink = detail::spawn<void>(
      test_runtime(), [&] { runs.fetch_add(1); }, std::move(dep_states),
      false);
  sink.get();
  EXPECT_EQ(runs.load(), 1);
  for (auto& s : sources) EXPECT_TRUE(s.ready());
}

// Task frames own themselves until they are submitted: a chain whose
// handles are dropped as soon as they are spawned still runs every body, in
// order, and frees every frame (the ASan pass's leak check sees a leaked
// frame).
TEST(FrameLifetime, GatedChainWithDroppedHandlesRunsInOrder) {
  constexpr std::size_t kDepth = 10000;
  std::atomic<bool> gate{false};
  std::atomic<std::size_t> next_expected{0};
  std::atomic<bool> order_ok{true};
  TaskID<void> prev = run(test_runtime(), [&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  for (std::size_t i = 0; i < kDepth; ++i) {
    prev = run_after(
        test_runtime(),
        [&, i] {
          if (next_expected.fetch_add(1) != i) order_ok.store(false);
        },
        prev);
  }
  gate.store(true, std::memory_order_release);
  prev.get();
  EXPECT_TRUE(order_ok.load());
  EXPECT_EQ(next_expected.load(), kDepth);
}

// A completing task runs its successors' edges and never touches an edge
// after running it: each successor may run, finish and free its frame (and
// the edge inside it) before the predecessor's completion moves on.
TEST(FrameLifetime, FanOutWithDroppedHandlesRunsEverySuccessorOnce) {
  constexpr std::size_t kWidth = 1000;
  std::atomic<bool> gate{false};
  std::vector<std::atomic<int>> runs(kWidth);
  auto pred = run(test_runtime(), [&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  for (std::size_t i = 0; i < kWidth; ++i) {
    (void)run_after(test_runtime(), [&runs, i] { runs[i].fetch_add(1); },
                    pred);
  }
  gate.store(true, std::memory_order_release);
  pred.get();  // every successor is released before pred's wait returns
  std::size_t done = 0;
  while (done < kWidth) {
    done = 0;
    for (const auto& r : runs) done += r.load() > 0 ? 1 : 0;
    std::this_thread::yield();
  }
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace parc::ptask
