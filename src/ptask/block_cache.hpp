// Fixed-size block cache behind ptask's task frames (spawn.hpp).
//
// Every spawn makes one frame on the spawning thread, and a pool worker
// usually frees it. A plain make_shared pays the general-purpose
// allocator's cross-thread free for that; this cache recycles the blocks
// instead:
//
//  - one cache per block size; sizes are rounded up to whole 64-byte cache
//    lines, and blocks are 64-byte aligned, so two frames never share a line;
//  - a thread allocates from its own free list;
//  - a thread's frees collect in a local batch, and a full batch of kBatch
//    goes onto the size's global stack with one CAS;
//  - a thread whose free list is empty first takes its own partial batch,
//    then the whole global stack with one exchange. No pop ever CASes an
//    interior node, so the stack has no ABA problem;
//  - a miss calls ::operator new, and when a thread exits its lists go to
//    the global stack.
//
// Memory bound: blocks are never returned to the system. The cache holds
// the peak number of live blocks plus, per thread, a partial batch of fewer
// than kBatch and whatever that thread last took from the global stack and
// has not yet handed out. A thread that spawns takes what the threads
// running its tasks freed, so a spawning thread holds the spare blocks.
//
// AddressSanitizer builds poison a cached block, except its link word, and
// unpoison it when it is handed out, so a use-after-free of a recycled frame
// is reported instead of silently reading the next task's frame.
#pragma once

#include <atomic>
#include <cstddef>
#include <new>

#include "support/check.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace parc::ptask::detail {

inline constexpr std::size_t kBlockAlign = 64;

template <std::size_t Size>
class BlockCache {
  static_assert(Size > 0 && Size % kBlockAlign == 0);

 public:
  /// Frees per batch handed to the global stack.
  static constexpr std::size_t kBatch = 64;

  [[nodiscard]] static void* allocate() {
    Lists& l = t_lists;
    Block* b = l.free != nullptr ? l.free : refill(l);
    if (b == nullptr) {
      return ::operator new(Size, std::align_val_t{kBlockAlign});
    }
    l.free = b->next;
    unpoison(b);
    return b;
  }

  static void deallocate(void* p) noexcept {
    Lists& l = t_lists;
    auto* b = static_cast<Block*>(p);
    b->next = l.batch;
    poison(b);
    if (l.batch == nullptr) {
      l.batch_tail = b;
      if (!l.exited) t_exit.armed = true;  // this thread now holds blocks
    }
    l.batch = b;
    if (++l.batch_size == kBatch || l.exited) [[unlikely]] {
      push(l.batch, l.batch_tail);
      l.batch = nullptr;
      l.batch_size = 0;
    }
  }

 private:
  struct Block {
    Block* next;
  };

  /// Trivially destructible and constant-initialised, so the hot paths
  /// reach it without a TLS init guard; ExitHook hands it back.
  struct Lists {
    Block* free = nullptr;
    Block* batch = nullptr;
    Block* batch_tail = nullptr;
    std::size_t batch_size = 0;
    /// Set once the thread's lists went back at exit: later frees (pool
    /// teardown during static destruction) go straight to the global stack.
    bool exited = false;
  };

  struct ExitHook {
    bool armed = false;
    ~ExitHook() {
      if (armed) hand_back(t_lists);
    }
  };

  static Block* refill(Lists& l) noexcept {
    if (l.batch != nullptr) {
      Block* b = l.batch;
      l.batch = nullptr;
      l.batch_size = 0;
      return b;
    }
    // A plain load first: a thread that misses on every allocation (the
    // first round of spawns) must not RMW the line the freeing threads push
    // onto.
    if (l.exited || global_.load(std::memory_order_relaxed) == nullptr) {
      return nullptr;
    }
    Block* b = global_.exchange(nullptr, std::memory_order_acquire);
    if (b != nullptr) t_exit.armed = true;
    return b;
  }

  /// Push the chain head..tail with one successful CAS.
  static void push(Block* head, Block* tail) noexcept {
    Block* old = global_.load(std::memory_order_relaxed);
    do {
      tail->next = old;
    } while (!global_.compare_exchange_weak(old, head,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
  }

  static void hand_back(Lists& l) noexcept {
    if (l.batch != nullptr) push(l.batch, l.batch_tail);
    if (l.free != nullptr) {
      Block* tail = l.free;
      while (tail->next != nullptr) tail = tail->next;
      push(l.free, tail);
    }
    l = Lists{};
    l.exited = true;
  }

  static void poison([[maybe_unused]] Block* b) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(b) + sizeof(Block),
                              Size - sizeof(Block));
#endif
  }

  static void unpoison([[maybe_unused]] Block* b) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(b, Size);
#endif
  }

  static inline std::atomic<Block*> global_{nullptr};
  static constinit inline thread_local Lists t_lists{};
  static inline thread_local ExitHook t_exit;
};

/// Block size for objects of type T: sizeof(T) rounded up to cache lines.
template <typename T>
constexpr std::size_t block_size() noexcept {
  static_assert(alignof(T) <= kBlockAlign,
                "task frames aligned past a cache line are not supported");
  return (sizeof(T) + kBlockAlign - 1) / kBlockAlign * kBlockAlign;
}

/// Stateless allocator over BlockCache, for std::allocate_shared: the frame
/// and its shared_ptr control block share one recycled block. The size is
/// looked up in the member functions, not at class scope, because
/// allocate_shared names the rebound allocator while its control-block type
/// is still incomplete.
template <typename T>
class BlockAllocator {
 public:
  using value_type = T;

  BlockAllocator() = default;
  template <typename U>
  BlockAllocator(const BlockAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    PARC_CHECK(n == 1);
    return static_cast<T*>(BlockCache<block_size<T>()>::allocate());
  }

  void deallocate(T* p, std::size_t) noexcept {
    BlockCache<block_size<T>()>::deallocate(p);
  }

  template <typename U>
  bool operator==(const BlockAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace parc::ptask::detail
