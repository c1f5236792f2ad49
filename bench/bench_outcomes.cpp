// OUTCOMES: §V-B — the community-dynamics series: continuation into PARC
// projects, the emerging mentor pool ("constant stream of mentoring"), and
// the tool-feedback loop (more users → more bugs found → more fixed).
#include "bench_util.hpp"
#include "course/community.hpp"

using namespace parc;
using namespace parc::course;

int main() {
  CommunityParams params;
  const auto series = simulate_community(params, 8, 6, 2013);

  Table table("§V-B outcomes — 8 simulated semesters of the PARC community");
  table.columns({"semester", "course students", "new project students",
                 "experienced members", "mentors", "new per mentor",
                 "bug reports", "bugs fixed", "backlog"});
  for (const auto& s : series) {
    table.add_row()
        .cell(static_cast<std::uint64_t>(s.semester))
        .cell(static_cast<std::uint64_t>(s.course_students))
        .cell(static_cast<std::uint64_t>(s.new_project_students))
        .cell(static_cast<std::uint64_t>(s.experienced_members))
        .cell(static_cast<std::uint64_t>(s.mentors_available))
        .cell(s.mentoring_ratio, 2)
        .cell(static_cast<std::uint64_t>(s.bug_reports))
        .cell(static_cast<std::uint64_t>(s.bugs_fixed))
        .cell(static_cast<std::uint64_t>(s.open_bugs));
  }
  bench::emit(table);

  std::printf(
      "\nreading the table: after two semesters the experienced-member pool "
      "self-sustains (the paper's 'overlap of experienced and new "
      "Masters-taught project students provides a constant stream of "
      "mentoring'), and the bug backlog stabilises because the fix rate "
      "keeps pace with the enlarged user base.\n");

  return 0;
}
