// P5: reductions in Pyjama — the builtin scalar set vs the object
// reductions (set-union, map-merge, top-k, histogram) the project added,
// across schedules; result-invariance verdicts; machine-model scaling of a
// reduction's combine tree.
#include "bench_util.hpp"
#include "pj/pj.hpp"
#include "sim/machine.hpp"
#include "support/clock.hpp"

using namespace parc;
using namespace parc::pj;

namespace {

constexpr std::int64_t kN = 2'000'000;

template <typename F>
double time_ms(F&& f) {
  Stopwatch sw;
  f();
  return sw.elapsed_ms();
}

}  // namespace

int main() {
  Table table("P5 — Pyjama reductions (4 threads, 2M indices, 1-core walls)");
  table.columns({"reduction", "kind", "static ms", "dynamic ms", "guided ms",
                 "invariant"});

  auto sweep = [&](const std::string& name, const std::string& kind,
                   auto&& runner, auto&& check) {
    double t_static = 0, t_dynamic = 0, t_guided = 0;
    bool ok = true;
    t_static = time_ms([&] { ok &= check(runner({Schedule::kStatic, 0})); });
    t_dynamic =
        time_ms([&] { ok &= check(runner({Schedule::kDynamic, 4096})); });
    t_guided = time_ms([&] { ok &= check(runner({Schedule::kGuided, 256})); });
    table.add_row()
        .cell(name)
        .cell(kind)
        .cell(t_static, 1)
        .cell(t_dynamic, 1)
        .cell(t_guided, 1)
        .cell(ok ? "yes" : "NO");
  };

  sweep(
      "sum of squares", "builtin",
      [&](ForOptions o) {
        return reduce(
            4, 0, kN, SumReducer<std::int64_t>{},
            [](std::int64_t i, std::int64_t& acc) { acc += i * i; }, o);
      },
      [&](std::int64_t v) {
        // Grouped to stay inside int64: ((n-1)n/2)(2n-1)/3.
        return v == (kN - 1) * kN / 2 * (2 * kN - 1) / 3;
      });

  sweep(
      "min/max pair (min shown)", "builtin",
      [&](ForOptions o) {
        return reduce(
            4, 0, kN, MinReducer<std::int64_t>{},
            [](std::int64_t i, std::int64_t& acc) {
              acc = std::min(acc, (i * 48271) % 1000003);
            },
            o);
      },
      [&](std::int64_t v) { return v >= 0; });

  sweep(
      "set union (mod 10007)", "object",
      [&](ForOptions o) {
        return reduce(
            4, 0, kN, SetUnionReducer<std::int64_t>{},
            [](std::int64_t i, std::set<std::int64_t>& acc) {
              acc.insert(i % 10007);
            },
            o);
      },
      [&](const std::set<std::int64_t>& s) { return s.size() == 10007; });

  sweep(
      "map merge (word counts)", "object",
      [&](ForOptions o) {
        return reduce(
            4, 0, kN, MapMergeReducer<int, std::int64_t>{},
            [](std::int64_t i, std::map<int, std::int64_t>& acc) {
              acc[static_cast<int>(i % 100)] += 1;
            },
            o);
      },
      [&](const std::map<int, std::int64_t>& m) {
        return m.size() == 100 && m.at(0) == kN / 100;
      });

  {
    const TopKReducer<std::int64_t> top10(10);
    sweep(
        "top-10 smallest", "object",
        [&](ForOptions o) {
          return reduce(
              4, 0, kN, top10,
              [&](std::int64_t i, std::vector<std::int64_t>& acc) {
                top10.insert(acc, (i * 48271) % 2147483647);
              },
              o);
        },
        [&](const std::vector<std::int64_t>& v) {
          return v.size() == 10 && std::is_sorted(v.begin(), v.end());
        });
  }

  {
    const HistogramReducer hist(64);
    sweep(
        "histogram (64 bins)", "object",
        [&](ForOptions o) {
          return reduce(
              4, 0, kN, hist,
              [&](std::int64_t i, std::vector<std::uint64_t>& acc) {
                hist.count(acc, static_cast<std::size_t>(i % 64));
              },
              o);
        },
        [&](const std::vector<std::uint64_t>& h) {
          std::uint64_t total = 0;
          for (auto c : h) total += c;
          return total == static_cast<std::uint64_t>(kN);
        });
  }

  bench::emit(table);

  // Scaling shape: a reduction is a fork-join (partials) plus a combine
  // chain on the master — model both parts.
  Table scaling("P5 — reduction scaling (machine model, per-thread partials + serial combine)");
  scaling.columns({"cores", "speedup", "efficiency %"});
  for (std::size_t p : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    sim::TaskDag dag;
    std::vector<sim::TaskDag::NodeId> partials;
    const double work_each = 1.0 / static_cast<double>(p);
    for (std::size_t t = 0; t < p; ++t) {
      partials.push_back(dag.add_task(work_each));
    }
    // Serial combine: cost per partial merge (object reductions pay this).
    dag.add_task(0.002, partials);
    const auto out = sim::simulate(dag, sim::MachineParams{p, 0.0, "r"});
    scaling.add_row()
        .cell(static_cast<std::uint64_t>(p))
        .cell(out.speedup, 2)
        .cell(100.0 * out.efficiency, 1);
  }
  bench::emit(scaling);

  return 0;
}
