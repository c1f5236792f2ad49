// Queue variants for the project-9 throughput study:
//  - MichaelScottQueue: the classic *two-lock* concurrent queue (Michael &
//    Scott, PODC 1996): head and tail locks, so one enqueuer and one
//    dequeuer never contend.
//  - MpmcRing: Vyukov's bounded lock-free MPMC ring buffer — per-slot
//    sequence numbers, no reclamation problem, the honest lock-free
//    contender (an unbounded lock-free queue would need hazard pointers;
//    CP.100 says don't unless you have to, and we don't).
//
// Both queues carry the flow::Channel lifecycle contract (PR 8):
//  - close() is the graceful end-of-stream: enqueues are rejected,
//    dequeuers drain what is buffered and then see empty-forever. Contract:
//    close() happens-after the last enqueue a producer cares about.
//  - poison() is the error path: the queue closes and buffered elements are
//    discarded and counted (`dropped()`) by the next dequeue.
// Conservation at quiescence: enqueued == dequeued + dropped (the channel
// suites assert it by external count; these queues keep no hot-path
// counters so the project-9 throughput numbers stay honest).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "support/check.hpp"

namespace parc::conc {

template <typename T>
class MichaelScottQueue {
 public:
  MichaelScottQueue() : head_(new Node()), tail_(head_) {}

  ~MichaelScottQueue() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  MichaelScottQueue(const MichaelScottQueue&) = delete;
  MichaelScottQueue& operator=(const MichaelScottQueue&) = delete;

  /// False iff the queue closed (the element is dropped — no consumer is
  /// coming for it). Pre-close callers may ignore the result.
  bool enqueue(T v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    auto* node = new Node(std::move(v));
    std::scoped_lock lock(tail_mutex_);
    if (closed_.load(std::memory_order_acquire)) {
      // Racing close(): reject under the lock so a dequeuer that saw the
      // closed flag cannot miss a late element.
      delete node;
      return false;
    }
    // Release-publish: when the queue is short, head_->next and tail_->next
    // are the same field, and the dequeuer reads it under the *other* lock.
    tail_->next.store(node, std::memory_order_release);
    tail_ = node;
    return true;
  }

  [[nodiscard]] std::optional<T> try_dequeue() {
    std::scoped_lock lock(head_mutex_);
    if (poisoned_.load(std::memory_order_acquire)) {
      discard_locked();
      return std::nullopt;
    }
    Node* first = head_->next.load(std::memory_order_acquire);
    if (first == nullptr) return std::nullopt;
    std::optional<T> out(std::move(*first->value));
    delete head_;
    head_ = first;
    first->value.reset();  // consumed; head_ is now the new dummy
    return out;
  }

  /// Graceful end-of-stream: enqueues rejected, buffered elements drain.
  /// Idempotent; any thread.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  /// Error-path close: buffered elements are discarded and counted as
  /// `dropped()` by the next try_dequeue.
  void poison() noexcept {
    poisoned_.store(true, std::memory_order_release);
    close();
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool empty() const {
    std::scoped_lock lock(head_mutex_);
    return head_->next.load(std::memory_order_acquire) == nullptr;
  }

 private:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::make_unique<T>(std::move(v))) {}
    std::unique_ptr<T> value;
    std::atomic<Node*> next{nullptr};  // written under tail lock, read under
                                       // head lock — cross-lock publication
  };

  void discard_locked() {
    // Caller holds head_mutex_. Drop every buffered node, keeping the
    // dummy-head invariant.
    for (;;) {
      Node* first = head_->next.load(std::memory_order_acquire);
      if (first == nullptr) return;
      delete head_;
      head_ = first;
      first->value.reset();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  mutable std::mutex head_mutex_;  // guards head_
  std::mutex tail_mutex_;          // guards tail_ and tail_->next
  Node* head_;
  Node* tail_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> poisoned_{false};
  std::atomic<std::uint64_t> dropped_{0};
};

template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {
    PARC_CHECK(capacity >= 2);
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  /// Non-blocking; false when full or closed.
  bool try_enqueue(T v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    Slot* slot;
    std::uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::uint64_t seq = slot->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    slot->value = std::move(v);
    slot->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Non-blocking; nullopt when empty (buffered elements still drain after
  /// close(); poison() makes them drop instead).
  [[nodiscard]] std::optional<T> try_dequeue() {
    if (poisoned_.load(std::memory_order_acquire)) {
      while (auto v = dequeue_one()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
      return std::nullopt;
    }
    return dequeue_one();
  }

  /// Graceful end-of-stream: enqueues rejected, buffered elements drain.
  /// Idempotent; any thread.
  void close() noexcept { closed_.store(true, std::memory_order_release); }

  /// Error-path close: buffered elements are discarded and counted as
  /// `dropped()` by the next try_dequeue.
  void poison() noexcept {
    poisoned_.store(true, std::memory_order_release);
    close();
  }

  [[nodiscard]] bool closed() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool poisoned() const noexcept {
    return poisoned_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> sequence;
    T value;
  };

  std::optional<T> dequeue_one() {
    Slot* slot;
    std::uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::uint64_t seq = slot->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq) -
                        static_cast<std::int64_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> out(std::move(slot->value));
    slot->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return out;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<Slot> slots_;
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
  std::atomic<bool> closed_{false};
  std::atomic<bool> poisoned_{false};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace parc::conc
