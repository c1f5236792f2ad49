// FIG2: regenerate Figure 2 — the 12-teaching-week course structure with
// per-week usage codes (IT / A / P / ST), plus the validator verdicts for
// every placement the paper states.
#include "bench_util.hpp"
#include "course/plan.hpp"

using namespace parc;
using namespace parc::course;

int main() {
  const auto plan = softeng751_plan();

  Table weeks("Figure 2 — SoftEng 751 course structure");
  weeks.columns({"week", "use", "notes"});
  for (const auto& w : plan) {
    weeks.row({w.study_break ? "break" : std::to_string(w.number),
               week_use_code(w.uses), w.note});
  }
  bench::emit(weeks);

  const auto checks = validate_plan(plan);
  Table verdicts("Structural checks (each stated in the paper)");
  verdicts.columns({"check", "holds"});
  verdicts.row({"weeks 1-5 are instructor-led teaching",
                checks.first_five_weeks_teaching ? "yes" : "NO"});
  verdicts.row({"Test 1 in week 6", checks.test1_in_week6 ? "yes" : "NO"});
  verdicts.row({"group seminars span weeks 7-10",
                checks.seminars_weeks_7_to_10 ? "yes" : "NO"});
  verdicts.row({"Test 2 in week 11", checks.test2_in_week11 ? "yes" : "NO"});
  verdicts.row({"implementation + report due in week 12",
                checks.final_due_week12 ? "yes" : "NO"});
  verdicts.row({"project development weeks (paper: 8)",
                std::to_string(checks.project_weeks)});
  bench::emit(verdicts);

  return 0;
}
