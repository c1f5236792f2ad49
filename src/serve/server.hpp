// parc::serve::Server — the serving pipeline on top of the sharded
// work-stealing pool:
//
//   offer() ── admission ── cache ── coalesce ── route ── batch ──▶ pool
//              (deadline +  (striped  (merge      (P2C     (per-shard,
//               priority     LRU,      dup in-     over     one wakeup
//               token        TTL +     flight      healthy  per batch)
//               ladder +     negative  keys)       replicas)
//               queue        entries)
//               bound)
//
//   worker: materialise fault verdict / execute backend replica ──
//           cache.put (TTL) ── router.on_complete ── reply leader + waiters
//
// Request keys hash to a locality shard; a key's cache stripe, coalescer
// stripe and pool shard are all derived from the same composite key, so
// repeated work for one key stays on one domain (warm caches, local
// steals) and two hot keys on different shards never contend.
//
// Replication: each admitted leader is routed to one of N backend replicas
// by the Router (weighted power-of-two-choices over EWMA scores, with
// health-based ejection — see router.hpp). The route and the FaultPlan
// verdict settle at offer() time on the ingress thread, so the whole
// eject/probe/recover sequence is a pure function of the request stream;
// the worker merely materialises the verdict (fail fast, or re-execute
// slow_factor times) and reports the measured latency back.
//
// Threading contract: offer()/flush()/drain() are called by ONE ingress
// thread (the admission controller, router health machine and batcher are
// single-writer by design); execution and completion run concurrently on
// pool workers. All cross-thread counters are atomics — exact after
// drain(), like the pool's own Stats contract.
//
// Latency is measured from Request::arrival_s on the server's clock
// (start() zeroes it): for open-loop runs that is the *scheduled* arrival,
// so queueing delay under overload is charged to the server, not silently
// dropped (no coordinated omission).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "conc/striped_map.hpp"
#include "sched/thread_pool.hpp"
#include "serve/admission.hpp"
#include "serve/backend.hpp"
#include "serve/fault.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "support/clock.hpp"
#include "support/histogram.hpp"

namespace parc::serve {

struct ServerConfig {
  sched::WorkStealingPool::Config pool{};
  AdmissionConfig admission{};
  BackendConfig backend{};
  /// Replica routing + health; router.replicas = 1 degenerates to the
  /// unreplicated pipeline (every request routes to replica 0).
  RouterConfig router{};
  /// Injected degradation windows (empty = healthy run).
  FaultPlan fault_plan{};
  std::size_t cache_capacity = 1ull << 15;
  std::size_t cache_stripes = 16;
  /// Result TTL in seconds of scheduled time (entries expire at
  /// arrival + ttl on the workload clock, so expiry is deterministic).
  /// 0 = results never expire.
  double cache_ttl_s = 0.0;
  /// Negative-cache TTL: a FAILED execution is cached for this long, so a
  /// hot key hammering a dead upstream fails fast at the ingress instead
  /// of re-dispatching every arrival. 0 = failures are never cached.
  double negative_ttl_s = 0.0;
  /// Requests accumulated per shard before the batch is sealed and
  /// submitted (one pool wakeup per batch). flush() seals partial batches.
  std::size_t batch_max = 32;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// How offer() disposed of the request.
  enum class Outcome : std::uint8_t {
    shed,        ///< refused by admission (rate, queue bound, or deadline)
    hit,         ///< answered inline from the result cache (± negative)
    coalesced,   ///< attached to an in-flight computation of the same key
    dispatched,  ///< became the leader of a new computation (batched)
  };

  /// Zero the latency clock. Call once, immediately before the first
  /// offer(); Request::arrival_s values are interpreted on this clock.
  void start() { clock_ = Stopwatch(); }

  /// Current time on the latency clock (closed-loop drivers stamp
  /// arrival_s with this at issue).
  [[nodiscard]] double now_s() const { return clock_.elapsed_s(); }

  /// Ingress: decide, answer or enqueue one request. Single-threaded.
  Outcome offer(const Request& req);

  /// Seal and submit every shard's partial batch. Required before any wait
  /// that expects in_flight() to reach zero — batched-but-unsubmitted
  /// requests count as in flight but are invisible to the pool.
  void flush();

  /// flush(), then cooperatively run pool work until every admitted
  /// request has completed. Exact-counter quiescent point.
  void drain();

  /// Admitted requests not yet completed (includes batched-not-yet-
  /// submitted ones; see flush()).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// Counter snapshot. Conservation invariants, exact after drain():
  ///   offered   == admitted + shed_rate + shed_queue + shed_deadline
  ///   admitted  == hits_inline + negative_hits + coalesced + executed
  ///                + in_flight
  ///   completed + failed == admitted - in_flight
  ///   failed    == negative_hits + failed executions propagated to their
  ///                leader and coalesced waiters
  ///   cache misses at the ingress == executed + coalesced (+ leader
  ///   re-executions after an eviction/expiry races an attach, counted
  ///   once as executed)
  struct Stats {
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed_rate = 0;
    std::uint64_t shed_queue = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t hits_inline = 0;    ///< positive hits at the ingress
    std::uint64_t negative_hits = 0;  ///< cached failures: fail-fast replies
    std::uint64_t coalesced = 0;      ///< merged into an in-flight key
    std::uint64_t executed = 0;       ///< executions (batch leaders)
    std::uint64_t batches = 0;        ///< submit_n calls
    std::uint64_t completed = 0;      ///< successful replies delivered
    std::uint64_t failed = 0;         ///< failed replies delivered
    std::size_t in_flight = 0;
    /// Per-priority admission splits (index = Priority); offered_by sums
    /// to offered, admitted_by to admitted, shed_by to all shed causes.
    std::array<std::uint64_t, kPriorities> offered_by{};
    std::array<std::uint64_t, kPriorities> admitted_by{};
    std::array<std::uint64_t, kPriorities> shed_by{};
    typename conc::StripedLruCache<std::uint64_t, BackendResult>::Stats cache;
    std::uint64_t net_timeouts = 0;
    Router::Stats router;
  };
  [[nodiscard]] Stats stats() const;

  /// Merged completion-latency histogram (seconds), all priorities.
  /// Successful replies only: fail-fast replies (injected faults, negative
  /// hits) would otherwise drag the percentiles *down* while the service
  /// degrades — the classic way a dashboard lies during an outage.
  [[nodiscard]] LogHistogram latency_histogram() const;
  /// Completion-latency histogram for one priority class.
  [[nodiscard]] LogHistogram latency_histogram(Priority p) const;

  [[nodiscard]] sched::WorkStealingPool& pool() noexcept { return *pool_; }
  [[nodiscard]] Backend& backend() noexcept { return backend_; }
  [[nodiscard]] Router& router() noexcept { return router_; }
  [[nodiscard]] const Router& router() const noexcept { return router_; }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }
  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }

  /// The pool shard the composite key routes to (exposed for tests).
  [[nodiscard]] std::size_t shard_of(std::uint64_t ckey) const noexcept;

 private:
  struct ExecItem {
    std::uint64_t ckey = 0;
    RequestKind kind = RequestKind::img;
    std::uint64_t key = 0;
    std::uint64_t leader_id = 0;
    double arrival_s = 0.0;
    std::size_t shard = 0;
    std::size_t replica = 0;        ///< settled at route time
    std::uint32_t slow_factor = 1;  ///< fault verdict: re-execute this often
    bool injected_fail = false;     ///< fault verdict: fail fast, no work
    Priority priority = Priority::normal;
  };
  struct Waiter {
    std::uint64_t id = 0;
    double arrival_s = 0.0;
    Priority priority = Priority::normal;
  };
  struct InFlightNode {
    std::uint64_t leader_id = 0;
    std::vector<Waiter> waiters;
  };
  struct alignas(64) CoalesceStripe {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, InFlightNode> nodes;
  };
  static constexpr std::size_t kLatSlots = 16;
  struct alignas(64) LatencySlot {
    mutable std::mutex mutex;
    /// seconds: 0.1 µs .. 100 s; one histogram per priority class
    std::array<LogHistogram, kPriorities> hist{LogHistogram{1e-7, 1e2},
                                               LogHistogram{1e-7, 1e2},
                                               LogHistogram{1e-7, 1e2}};
  };

  void seal_batch(std::size_t shard);
  void execute_item(const ExecItem& item);
  void complete_one(std::uint64_t id, double arrival_s, Priority priority,
                    bool ok);

  CoalesceStripe& coalesce_stripe(std::uint64_t ckey) noexcept {
    return *coalesce_[ckey * 0x9e3779b97f4a7c15ull >> 32 &
                      (coalesce_.size() - 1)];
  }

  ServerConfig cfg_;
  std::unique_ptr<sched::WorkStealingPool> pool_;
  Backend backend_;
  AdmissionController admission_;
  Router router_;
  conc::StripedLruCache<std::uint64_t, BackendResult> cache_;
  std::vector<std::unique_ptr<CoalesceStripe>> coalesce_;
  // One open batch per pool shard, ingress thread only: offer() appends,
  // seal_batch() submits the whole vector as one submit_n and clears it.
  std::vector<std::vector<ExecItem>> open_batches_;
  std::array<LatencySlot, kLatSlots> latency_;
  Stopwatch clock_;

  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> hits_inline_{0};
  std::atomic<std::uint64_t> negative_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::uint64_t batches_sealed_ = 0;  ///< ingress thread only
};

}  // namespace parc::serve
