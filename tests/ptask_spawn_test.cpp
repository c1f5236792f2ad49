// Exact allocation gate for the ptask spawn path: a counting operator new
// (only allocations made on the calling thread are counted, the idiom
// bench_sched_overhead uses) measures what run_after costs the spawning
// thread once the runtime is warm.
//
//  - Dependences still pending: the frame comes from the block cache, and
//    the successor is submitted later by the worker completing its last
//    dependence, so spawning makes no allocation beyond the cache's slack
//    (fewer than one batch of 64 blocks per thread).
//  - Dependences already finished: the spawning thread submits the task
//    itself, and the pool's TaskCell for a non-worker submitter is the one
//    allocation left.
#include "ptask/ptask.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocs;
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size == 0 ? 1 : size)
                : std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
}  // namespace

// GCC's heuristic flags free() on pointers from the replacement operator new
// below; the replacement operator delete is free-backed too, so the pairing
// is correct.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace parc::ptask {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kSpawns = 100000;
/// Blocks the cache may still allocate: up to one partial batch per thread
/// (3 workers + the spawning thread) is out of the spawner's reach.
constexpr std::uint64_t kCacheSlack = 64 * (kWorkers + 1);

/// Wait until `ran` bodies have run (acquiring their writes), then until
/// the pool has run `jobs` more jobs than `before`: a job is counted after
/// its closure, and with it the frame reference, is gone.
void wait_done(Runtime& rt, const std::atomic<std::size_t>& ran,
               std::size_t bodies, std::uint64_t before, std::uint64_t jobs) {
  while (ran.load(std::memory_order_acquire) < bodies) {
    std::this_thread::yield();
  }
  while (rt.pool().stats().executed - before < jobs) {
    std::this_thread::yield();
  }
}

/// The counted body: a release increment, so wait_done's acquire load
/// orders every body before the round's stack slots are reused.
auto counting_body(std::atomic<std::size_t>& ran) {
  return [&ran] { ran.fetch_add(1, std::memory_order_release); };
}

/// One round of kSpawns run_after(a, b) while a and b are held at a gate.
/// Returns the heap allocations the spawning loop made; handles are dropped
/// as soon as they are returned.
std::uint64_t pending_round(Runtime& rt) {
  const std::uint64_t executed0 = rt.pool().stats().executed;
  std::atomic<bool> gate{false};
  std::atomic<std::size_t> ran{0};
  auto gated = [&gate] {
    while (!gate.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  auto a = run(rt, gated);
  auto b = run(rt, gated);
  const std::uint64_t before = t_allocs;
  for (std::size_t i = 0; i < kSpawns; ++i) {
    (void)run_after(rt, counting_body(ran), a, b);
  }
  const std::uint64_t allocs = t_allocs - before;
  gate.store(true, std::memory_order_release);
  a.wait();
  b.wait();
  wait_done(rt, ran, kSpawns, executed0, kSpawns + 2);
  EXPECT_EQ(ran.load(), kSpawns);
  return allocs;
}

TEST(SpawnAllocations, PendingDependencesAllocateOnlyCacheSlack) {
  Runtime rt(Runtime::Config{kWorkers, {}});
  (void)pending_round(rt);  // warm: fills the frame cache and cell freelists
  const std::uint64_t allocs = pending_round(rt);
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_LE(allocs, kCacheSlack)
      << kSpawns << " run_after spawns with pending dependences";
}

/// One round of `spawns` run_after(a, b) with a and b finished. The handles
/// stay in `out` until every job has run, so the spawning thread frees the
/// frames itself and the next round takes them back from its own lists.
std::uint64_t finished_round(Runtime& rt, std::size_t spawns,
                             std::vector<TaskID<void>>& out) {
  const std::uint64_t executed0 = rt.pool().stats().executed;
  std::atomic<std::size_t> ran{0};
  auto a = run(rt, counting_body(ran));
  auto b = run(rt, counting_body(ran));
  wait_done(rt, ran, 2, executed0, 2);
  const std::uint64_t before = t_allocs;
  for (std::size_t i = 0; i < spawns; ++i) {
    out.push_back(run_after(rt, counting_body(ran), a, b));
  }
  const std::uint64_t allocs = t_allocs - before;
  wait_done(rt, ran, spawns + 2, executed0, spawns + 2);
  EXPECT_EQ(ran.load(), spawns + 2);
  out.clear();
  return allocs;
}

TEST(SpawnAllocations, FinishedDependencesAllocateOneTaskCellPerSpawn) {
  constexpr std::size_t kRound = 10000;
  Runtime rt(Runtime::Config{kWorkers, {}});
  std::vector<TaskID<void>> handles;
  handles.reserve(kRound);
  (void)finished_round(rt, kRound, handles);  // warm
  const std::uint64_t allocs = finished_round(rt, kRound, handles);
  RecordProperty("allocations", static_cast<int>(allocs));
  EXPECT_EQ(allocs, kRound)
      << "one TaskCell per spawn from a non-worker thread, nothing else";
}

}  // namespace
}  // namespace parc::ptask
