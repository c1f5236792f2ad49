// P10: fast web access through concurrent connections — the connection-count
// sweep on the exact virtual-clock model (the paper's "how many connections
// should be opened?"), a latency/bandwidth regime comparison locating the
// knee, and a live ParallelTask run at reduced time scale.
#include "bench_util.hpp"
#include "net/downloader.hpp"

using namespace parc;
using namespace parc::net;

int main() {
  NetParams params;  // 80 ms latency, 256 kB pages, 100 Mbit/s
  const auto pages = make_page_set(1000, params, 2013);

  Table sweep("P10 — connection sweep (1000 pages, virtual-clock model)");
  sweep.columns({"connections", "makespan s", "throughput pages/s",
                 "speedup vs 1", "bandwidth util %"});
  const double t1 = simulate_fetch(pages, 1, params).makespan_s;
  for (std::size_t c : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    const auto r = simulate_fetch(pages, c, params);
    sweep.add_row()
        .cell(static_cast<std::uint64_t>(c))
        .cell(r.makespan_s, 3)
        .cell(r.throughput_pages_s, 1)
        .cell(t1 / r.makespan_s, 2)
        .cell(100.0 * r.bandwidth_utilisation, 1);
  }
  bench::emit(sweep);

  // Regime study: where the knee sits depends on latency x bandwidth.
  Table regimes("P10 — knee location by network regime (makespan s)");
  regimes.columns({"regime", "c=1", "c=8", "c=64", "c=256", "knee"});
  struct Regime {
    const char* name;
    NetParams p;
  };
  std::vector<Regime> regimes_list;
  {
    Regime slow_links{"high latency (300ms), fat pipe", params};
    slow_links.p.mean_latency_s = 0.3;
    regimes_list.push_back(slow_links);
    Regime thin_pipe{"low latency (20ms), thin pipe (8Mbit)", params};
    thin_pipe.p.mean_latency_s = 0.02;
    thin_pipe.p.bandwidth_bps = 1e6;
    regimes_list.push_back(thin_pipe);
    Regime balanced{"80ms, 100Mbit (default)", params};
    regimes_list.push_back(balanced);
  }
  for (const auto& regime : regimes_list) {
    const auto rpages = make_page_set(600, regime.p, 7);
    double prev = simulate_fetch(rpages, 1, regime.p).makespan_s;
    std::size_t knee = 512;
    double t8 = 0, t64 = 0, t256 = 0;
    for (std::size_t c : {8u, 64u, 256u}) {
      const double t = simulate_fetch(rpages, c, regime.p).makespan_s;
      if (c == 8) t8 = t;
      if (c == 64) t64 = t;
      if (c == 256) t256 = t;
    }
    // Knee: first doubling step with < 10% improvement.
    prev = simulate_fetch(rpages, 1, regime.p).makespan_s;
    for (std::size_t c = 2; c <= 512; c *= 2) {
      const double t = simulate_fetch(rpages, c, regime.p).makespan_s;
      if (t > prev * 0.9) {
        knee = c / 2;
        break;
      }
      prev = t;
    }
    regimes.add_row()
        .cell(regime.name)
        .cell(simulate_fetch(rpages, 1, regime.p).makespan_s, 2)
        .cell(t8, 2)
        .cell(t64, 2)
        .cell(t256, 2)
        .cell(static_cast<std::uint64_t>(knee));
  }
  bench::emit(regimes);

  // Per-host connection caps: the "how many connections *per server*"
  // refinement. A Zipf-popular host dominates the page set, so the per-host
  // cap — not the client budget — sets the knee.
  Table hosts("P10 — per-host caps (600 pages over 8 Zipf hosts, 64 client connections)");
  hosts.columns({"per-host cap", "makespan s", "vs uncapped"});
  {
    NetParams hp = params;
    hp.num_hosts = 8;
    const auto hpages = make_page_set(600, hp, 23);
    const double t_uncapped = simulate_fetch(hpages, 64, hp).makespan_s;
    for (std::size_t cap : {0u, 16u, 6u, 2u, 1u}) {
      NetParams capped = hp;
      capped.per_host_cap = cap;
      const double t = simulate_fetch(hpages, 64, capped).makespan_s;
      hosts.add_row()
          .cell(cap == 0 ? std::string("unlimited") : std::to_string(cap))
          .cell(t, 3)
          .cell(t / t_uncapped, 2);
    }
  }
  bench::emit(hosts);

  // Live run through interactive tasks (1/100 time scale).
  ptask::Runtime runtime(ptask::Runtime::Config{2, {}});
  const auto live_pages = make_page_set(80, params, 11);
  SimWebServer server(live_pages, params, 0.01);
  Table live("P10 — live ParallelTask downloader (80 pages, 1/100 time)");
  live.columns({"connections", "wall ms", "speedup vs sequential"});
  const auto seq = download_sequential(server);
  live.add_row().cell("1 (sequential)").cell(seq.wall_ms, 1).cell(1.0, 2);
  for (std::size_t c : {4u, 16u, 64u}) {
    const auto r = download_all(server, c, runtime);
    live.add_row()
        .cell(static_cast<std::uint64_t>(c))
        .cell(r.wall_ms, 1)
        .cell(seq.wall_ms / r.wall_ms, 2);
  }
  bench::emit(live);

  return 0;
}
