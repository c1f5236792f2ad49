// FIG1: regenerate Figure 1 — the research-teaching nexus quadrants and
// where every SoftEng 751 activity sits, including the paper's observation
// that research-oriented is the one deliberately uncovered quadrant.
#include <algorithm>

#include "bench_util.hpp"
#include "course/nexus.hpp"

using namespace parc;
using namespace parc::course;

int main() {
  Table quadrants("Figure 1 — research-teaching nexus (emphasis x participation)");
  quadrants.columns({"quadrant", "content emphasis", "student role"});
  quadrants.row({"research-led", "research content", "audience"});
  quadrants.row({"research-oriented", "research processes", "audience"});
  quadrants.row({"research-tutored", "research content", "participants"});
  quadrants.row({"research-based", "research processes", "participants"});
  bench::emit(quadrants);

  Table placement("SoftEng 751 activities placed on the nexus");
  placement.columns({"activity", "quadrant"});
  const auto activities = softeng751_activities();
  for (const auto& a : activities) {
    placement.row({a.name, to_string(a.category())});
  }
  bench::emit(placement);

  Table coverage("Quadrant coverage (paper: research-oriented absent by design)");
  coverage.columns({"quadrant", "covered"});
  const auto covered = covered_categories(activities);
  for (const auto c :
       {NexusCategory::kResearchLed, NexusCategory::kResearchOriented,
        NexusCategory::kResearchTutored, NexusCategory::kResearchBased}) {
    const bool has =
        std::find(covered.begin(), covered.end(), c) != covered.end();
    coverage.row({to_string(c), has ? "yes" : "no (by design)"});
  }
  bench::emit(coverage);

  return 0;
}
