// ASSESS: §III-C assessment schema — weights table, a synthetic 60-student
// cohort pushed through the grade pipeline, and the peer-adjustment effect.
#include <algorithm>

#include "bench_util.hpp"
#include "course/assessment.hpp"
#include "support/rng.hpp"

using namespace parc;
using namespace parc::course;

namespace {

std::vector<StudentRecord> synthetic_cohort(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<StudentRecord> cohort;
  for (std::size_t i = 0; i < n; ++i) {
    StudentRecord s;
    s.id = "student_" + std::to_string(i);
    s.group = i / 3;
    // Ability factor correlates test and project performance.
    const double ability = rng.uniform(0.5, 1.0);
    for (std::size_t c = 0; c < kComponentCount; ++c) {
      s.raw[c] = std::clamp(100.0 * ability + rng.normal(0.0, 8.0), 0.0, 100.0);
    }
    cohort.push_back(std::move(s));
  }
  return cohort;
}

}  // namespace

int main() {
  Table weights("Assessment schema (§III-C)");
  weights.columns({"component", "weight %", "assessed"});
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    const auto comp = static_cast<Component>(c);
    weights.add_row()
        .cell(to_string(comp))
        .cell(kWeights[c], 0)
        .cell(is_group_component(comp) ? "group (peer-adjusted)"
                                       : "individual");
  }
  bench::emit(weights);

  const auto cohort = synthetic_cohort(60, 2013);
  const auto stats = cohort_stats(cohort);
  Table outcome("Synthetic 60-student cohort through the grade pipeline");
  outcome.columns({"metric", "value"});
  outcome.add_row().cell("mean final grade").cell(stats.mean, 1);
  outcome.add_row().cell("stddev").cell(stats.stddev, 1);
  outcome.add_row().cell("min").cell(stats.min, 1);
  outcome.add_row().cell("max").cell(stats.max, 1);
  outcome.add_row()
      .cell("test1 vs implementation correlation")
      .cell(stats.test1_impl_correlation, 2);
  bench::emit(outcome);

  // Peer adjustment: what a 0.8 factor does to a median student.
  Table peer("Peer-evaluation adjustment effect (group components only)");
  peer.columns({"peer factor", "final grade (all raw = 75)"});
  for (double f : {1.0, 0.9, 0.8, 0.6}) {
    StudentRecord s;
    s.raw = {75, 75, 75, 75, 75};
    s.peer_factor = f;
    peer.add_row().cell(f, 2).cell(final_grade(s), 1);
  }
  bench::emit(peer);

  return 0;
}
