// EVAL: §V-A — regenerate the Likert evaluation table (95% / 95% / 92%
// agree-or-strongly-agree) from the seeded cohort model, plus the quoted
// open comments.
#include "bench_util.hpp"
#include "course/evaluation.hpp"

using namespace parc;
using namespace parc::course;

int main() {
  // ~57 respondents ("almost 60 students").
  const auto outcomes = run_survey(softeng751_survey(), 57, 2013);

  Table table("End-of-course summative evaluation (§V-A)");
  table.columns({"question", "SA", "A", "N", "D", "SD", "sampled agree %",
                 "paper %"});
  for (const auto& o : outcomes) {
    table.add_row()
        .cell(o.question)
        .cell(o.counts[0])
        .cell(o.counts[1])
        .cell(o.counts[2])
        .cell(o.counts[3])
        .cell(o.counts[4])
        .cell(o.agree_pct, 1)
        .cell(o.reported_pct, 1);
  }
  bench::emit(table);

  // Large-sample check: the model's expectation matches the paper exactly.
  const auto expectation = run_survey(softeng751_survey(), 200000, 7);
  Table converged("Model expectation (200k samples) vs paper");
  converged.columns({"question", "model %", "paper %"});
  for (const auto& o : expectation) {
    converged.add_row().cell(o.question).cell(o.agree_pct, 2).cell(
        o.reported_pct, 2);
  }
  bench::emit(converged);

  Table comments("Open comments quoted in §V-A");
  comments.columns({"prompt", "comment"});
  for (const auto& c : reported_open_comments()) {
    comments.row({c.prompt, c.comment});
  }
  bench::emit(comments);

  return 0;
}
