// Lock-striped hash map: the java.util.concurrent.ConcurrentHashMap
// analogue for the project-9 comparison. Keys hash to one of S independent
// stripes, each its own mutex + bucket map, so disjoint-stripe operations
// proceed in parallel while the per-stripe code stays as simple as the
// coarse-locked baseline.
//
// StripedLruCache below applies the same striping to a bounded LRU result
// cache (the parc::serve substrate): capacity and recency order are
// per-stripe, so a hot stripe can only evict its own keys and two lookups
// on different stripes never contend.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace parc::conc {

template <typename K, typename V, typename Hash = std::hash<K>>
class StripedHashMap {
 public:
  explicit StripedHashMap(std::size_t stripes = 16)
      : stripes_(std::bit_ceil(stripes)), shards_(stripes_) {
    PARC_CHECK(stripes >= 1);
  }

  void put(const K& k, V v) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    s.map[k] = std::move(v);
  }

  [[nodiscard]] std::optional<V> get(const K& k) const {
    const Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    auto it = s.map.find(k);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
  }

  bool erase(const K& k) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    return s.map.erase(k) > 0;
  }

  [[nodiscard]] bool contains(const K& k) const {
    const Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    return s.map.contains(k);
  }

  /// Atomic per-key update (compute-if-absent + transform in one section).
  template <typename F>
  V update(const K& k, V initial, F&& transform) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    auto [it, inserted] = s.map.try_emplace(k, std::move(initial));
    if (!inserted) it->second = transform(it->second);
    return it->second;
  }

  /// Linearizable-per-stripe size: locks every stripe in index order.
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::scoped_lock lock(s.mutex);
      n += s.map.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t stripe_count() const noexcept { return stripes_; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<K, V, Hash> map;  // guarded by mutex
  };

  Shard& shard(const K& k) {
    return shards_[Hash{}(k) & (stripes_ - 1)];
  }
  const Shard& shard(const K& k) const {
    return shards_[Hash{}(k) & (stripes_ - 1)];
  }

  std::size_t stripes_;
  std::vector<Shard> shards_;
};

/// Bounded LRU cache, lock-striped like StripedHashMap: keys hash to one of
/// S stripes, each holding its own mutex, hash index, recency list, and an
/// equal share of the total capacity (so eviction pressure is local to the
/// stripe — a skewed key distribution cannot evict a cold stripe's
/// entries). get() refreshes recency; put() inserts/updates and evicts the
/// stripe's least-recently-used entry when over budget. Hit/miss/evict
/// counters are relaxed atomics, summed by stats(); they are exact after a
/// quiescent point, like the scheduler's Stats contract.
///
/// Entries may carry an absolute expiry stamp (`put(k, v, expire_at_s)` on
/// whatever clock the caller measures time — parc::serve uses scheduled
/// arrival time, so expiry is deterministic). `get(k, now_s)` treats an
/// expired entry as a miss, erases it lazily, and counts it (`expired`).
/// The default overloads (`put(k, v)` / `get(k)`) never expire anything,
/// so existing callers are unchanged.
template <typename K, typename V, typename Hash = std::hash<K>>
class StripedLruCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t updates = 0;     ///< put() of a key already present
    std::uint64_t evictions = 0;
    std::uint64_t expired = 0;     ///< lookups that found a dead entry
                                   ///< (each also counted as a miss)
    std::size_t size = 0;          ///< entries resident right now
  };

  /// `capacity` is the total entry budget, split evenly (ceil) across
  /// stripes; each stripe holds at most ceil(capacity / stripes) entries.
  explicit StripedLruCache(std::size_t capacity, std::size_t stripes = 16)
      : stripes_(std::bit_ceil(stripes)), shards_(stripes_) {
    PARC_CHECK(stripes >= 1);
    PARC_CHECK(capacity >= 1);
    per_stripe_cap_ = (capacity + stripes_ - 1) / stripes_;
  }

  /// Look up `k` as of `now_s`; a live hit moves the entry to the stripe's
  /// most-recent slot. An entry whose expiry has passed is erased and
  /// reported as a miss (plus `expired`). The no-clock overload never sees
  /// expiry (now_s = 0 precedes every positive stamp).
  [[nodiscard]] std::optional<V> get(const K& k) { return get(k, 0.0); }

  [[nodiscard]] std::optional<V> get(const K& k, double now_s) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    auto it = s.index.find(k);
    if (it == s.index.end()) {
      s.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (it->second->expire_s > 0.0 && now_s >= it->second->expire_s) {
      s.order.erase(it->second);
      s.index.erase(it);
      s.expired.fetch_add(1, std::memory_order_relaxed);
      s.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    s.order.splice(s.order.begin(), s.order, it->second);
    s.hits.fetch_add(1, std::memory_order_relaxed);
    return it->second->value;
  }

  /// Insert or overwrite `k`; either way the entry becomes most-recent.
  /// Evicts the stripe's LRU entry when the stripe is over budget.
  /// `expire_at_s` > 0 makes the entry dead to any get() whose clock has
  /// reached it (TTL = expire_at_s − put-time on the caller's clock);
  /// 0 = never expires.
  void put(const K& k, V v) { put(k, std::move(v), 0.0); }

  void put(const K& k, V v, double expire_at_s) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    auto it = s.index.find(k);
    if (it != s.index.end()) {
      it->second->value = std::move(v);
      it->second->expire_s = expire_at_s;
      s.order.splice(s.order.begin(), s.order, it->second);
      s.updates.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.order.emplace_front(Node{k, std::move(v), expire_at_s});
    s.index.emplace(k, s.order.begin());
    s.insertions.fetch_add(1, std::memory_order_relaxed);
    if (s.order.size() > per_stripe_cap_) {
      s.index.erase(s.order.back().key);
      s.order.pop_back();
      s.evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Remove `k` if present (invalidation path).
  bool erase(const K& k) {
    Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    auto it = s.index.find(k);
    if (it == s.index.end()) return false;
    s.order.erase(it->second);
    s.index.erase(it);
    return true;
  }

  [[nodiscard]] bool contains(const K& k) const {
    const Shard& s = shard(k);
    std::scoped_lock lock(s.mutex);
    return s.index.contains(k);
  }

  /// Linearizable-per-stripe size, like StripedHashMap::size().
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      std::scoped_lock lock(s.mutex);
      n += s.order.size();
    }
    return n;
  }

  [[nodiscard]] Stats stats() const {
    Stats out;
    for (const auto& s : shards_) {
      out.hits += s.hits.load(std::memory_order_relaxed);
      out.misses += s.misses.load(std::memory_order_relaxed);
      out.insertions += s.insertions.load(std::memory_order_relaxed);
      out.updates += s.updates.load(std::memory_order_relaxed);
      out.evictions += s.evictions.load(std::memory_order_relaxed);
      out.expired += s.expired.load(std::memory_order_relaxed);
    }
    out.size = size();
    return out;
  }

  [[nodiscard]] std::size_t stripe_count() const noexcept { return stripes_; }
  [[nodiscard]] std::size_t stripe_capacity() const noexcept {
    return per_stripe_cap_;
  }
  /// Total entry budget actually enforced (stripe cap × stripes; ≥ the
  /// constructor's capacity because of the ceil split).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return per_stripe_cap_ * stripes_;
  }

 private:
  struct Node {
    K key;
    V value;
    double expire_s = 0.0;  ///< absolute expiry on the caller's clock; 0 = never
  };

  struct Shard {
    mutable std::mutex mutex;
    // Recency list front = most recent; index maps key → list node. Both
    // guarded by mutex.
    std::list<Node> order;
    std::unordered_map<K, typename std::list<Node>::iterator, Hash> index;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> updates{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> expired{0};
  };

  Shard& shard(const K& k) { return shards_[Hash{}(k) & (stripes_ - 1)]; }
  const Shard& shard(const K& k) const {
    return shards_[Hash{}(k) & (stripes_ - 1)];
  }

  std::size_t stripes_;
  std::size_t per_stripe_cap_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace parc::conc
