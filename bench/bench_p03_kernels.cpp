// P3: computational kernels (FFT, MD, graph, linear algebra, stencil) —
// sequential vs Pyjama with each schedule, correctness cross-checks, and
// machine-model scaling per kernel shape.
#include "bench_util.hpp"
#include "kernels/kernels.hpp"
#include "sim/machine.hpp"
#include "support/clock.hpp"

using namespace parc;
using namespace parc::kernels;

namespace {

struct KernelRow {
  std::string name;
  double seq_ms;
  double pj_static_ms;
  double pj_dynamic_ms;
  double pj_guided_ms;
  bool agrees;
};

template <typename Seq, typename Par, typename Check>
KernelRow measure(const std::string& name, Seq&& seq, Par&& par,
                  Check&& agree) {
  KernelRow row;
  row.name = name;
  Stopwatch sw;
  seq();
  row.seq_ms = sw.elapsed_ms();
  sw.reset();
  par(pj::Schedule::kStatic);
  row.pj_static_ms = sw.elapsed_ms();
  sw.reset();
  par(pj::Schedule::kDynamic);
  row.pj_dynamic_ms = sw.elapsed_ms();
  sw.reset();
  par(pj::Schedule::kGuided);
  row.pj_guided_ms = sw.elapsed_ms();
  row.agrees = agree();
  return row;
}

}  // namespace

int main() {
  Table table("P3 — kernels: sequential vs Pyjama (4 threads), 1-core wall times");
  table.columns({"kernel", "seq ms", "pj static ms", "pj dynamic ms",
                 "pj guided ms", "agrees"});

  std::vector<KernelRow> rows;

  {  // FFT
    auto base = std::vector<Complex>(1 << 16);
    Rng rng(5);
    for (auto& c : base) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    auto seq_out = base;
    std::vector<Complex> par_out;
    rows.push_back(measure(
        "FFT 64k", [&] { fft_seq(seq_out); },
        [&](pj::Schedule s) {
          par_out = base;
          fft_pj(par_out, 4, false, {s, 0});
        },
        [&] {
          double d = 0;
          for (std::size_t i = 0; i < seq_out.size(); ++i) {
            d = std::max(d, std::abs(seq_out[i] - par_out[i]));
          }
          return d < 1e-9;
        }));
  }
  {  // MD
    auto sys_seq = make_md_system(384, 7);
    auto sys_par = make_md_system(384, 7);
    double pe_seq = 0, pe_par = 0;
    rows.push_back(measure(
        "MD forces n=384", [&] { pe_seq = compute_forces_seq(sys_seq); },
        [&](pj::Schedule s) {
          pe_par = compute_forces_pj(sys_par, 4, {s, 8});
        },
        [&] { return std::abs(pe_seq - pe_par) < 1e-9; }));
  }
  {  // Graph: PageRank on a skewed graph (imbalance → schedules matter)
    const auto g = make_skewed_graph(30000, 8.0, 11);
    std::vector<double> pr_seq, pr_par;
    rows.push_back(measure(
        "PageRank 30k skewed", [&] { pr_seq = pagerank_seq(g, 10); },
        [&](pj::Schedule s) { pr_par = pagerank_pj(g, 10, 4, 0.85, {s, 64}); },
        [&] {
          double d = 0;
          for (std::size_t i = 0; i < pr_seq.size(); ++i) {
            d = std::max(d, std::abs(pr_seq[i] - pr_par[i]));
          }
          return d < 1e-9;
        }));
  }
  {  // GEMM
    const auto a = Matrix::random(256, 256, 1);
    const auto b = Matrix::random(256, 256, 2);
    Matrix c_seq, c_par;
    rows.push_back(measure(
        "GEMM 256^3", [&] { c_seq = gemm_seq(a, b); },
        [&](pj::Schedule s) { c_par = gemm_pj(a, b, 4, {s, 8}); },
        [&] { return c_seq.max_abs_diff(c_par) < 1e-9; }));
  }
  {  // Stencil
    auto g_seq = make_heat_grid(256, 256);
    Grid2D g_par;
    rows.push_back(measure(
        "Jacobi 256^2 x50", [&] { jacobi_seq(g_seq, 50); },
        [&](pj::Schedule s) {
          g_par = make_heat_grid(256, 256);
          jacobi_pj(g_par, 50, 4, {s, 4});
        },
        [&] {
          double d = 0;
          for (std::size_t i = 0; i < g_seq.cells.size(); ++i) {
            d = std::max(d, std::abs(g_seq.cells[i] - g_par.cells[i]));
          }
          return d == 0.0;
        }));
  }

  for (const auto& r : rows) {
    table.add_row()
        .cell(r.name)
        .cell(r.seq_ms, 1)
        .cell(r.pj_static_ms, 1)
        .cell(r.pj_dynamic_ms, 1)
        .cell(r.pj_guided_ms, 1)
        .cell(r.agrees ? "yes" : "NO");
  }
  bench::emit(table);

  // Machine-model scaling per kernel shape.
  Table scaling("P3 — kernel-shape scaling on the machine model");
  scaling.columns({"kernel shape", "parallelism (work/span)", "speedup @8",
                   "speedup @16", "speedup @64"});
  struct Shape {
    std::string name;
    sim::TaskDag dag;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"FFT (16 stages x 64k/len groups)",
                    sim::barrier_rounds_dag(16, 256, 1e-5)});
  shapes.push_back(
      {"MD forces (384 rows)", sim::fork_join_dag(std::vector<double>(384, 1e-4))});
  shapes.push_back({"PageRank (10 rounds x row blocks)",
                    sim::barrier_rounds_dag(10, 128, 1e-4)});
  shapes.push_back(
      {"GEMM (256 rows)", sim::fork_join_dag(std::vector<double>(256, 2e-4))});
  for (auto& s : shapes) {
    const auto p8 = sim::simulate(s.dag, sim::parc_8core());
    const auto p16 = sim::simulate(s.dag, sim::parc_16core());
    const auto p64 = sim::simulate(s.dag, sim::parc_64core());
    scaling.add_row()
        .cell(s.name)
        .cell(s.dag.parallelism(), 1)
        .cell(p8.speedup, 2)
        .cell(p16.speedup, 2)
        .cell(p64.speedup, 2);
  }
  bench::emit(scaling);

  return 0;
}
