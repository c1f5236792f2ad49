// P8: the memory-model table — anomaly incidence and per-operation cost of
// each demonstrator under each fix, i.e. the "what options are available and
// what are their pros/cons" deliverable of the project.
#include <cstdio>

#include "bench_util.hpp"
#include "memmodel/demos.hpp"

using namespace parc;
using namespace parc::memmodel;

int main() {
  Table lost("P8 — lost-update demo (4 threads x 50k increments)");
  lost.columns({"synchronisation", "lost updates", "rate %", "ns/op"});
  for (const auto sync :
       {Sync::kUnsynchronised, Sync::kAtomicRmw, Sync::kMutex,
        Sync::kSeqCst}) {
    const auto r = lost_update_demo(sync, 50000, 4);
    lost.add_row()
        .cell(to_string(sync))
        .cell(r.anomalies)
        .cell(100.0 * r.anomaly_rate(), 3)
        .cell(r.ns_per_op, 1);
  }
  bench::emit(lost);

  Table cta("P8 — check-then-act demo (4 threads over 50k shared slots)");
  cta.columns({"synchronisation", "double claims", "rate %", "ns/op"});
  for (const auto sync :
       {Sync::kUnsynchronised, Sync::kAtomicRmw, Sync::kMutex}) {
    const auto r = check_then_act_demo(sync, 50000, 4);
    cta.add_row()
        .cell(to_string(sync))
        .cell(r.anomalies)
        .cell(100.0 * r.anomaly_rate(), 3)
        .cell(r.ns_per_op, 1);
  }
  bench::emit(cta);

  Table litmus("P8 — store-buffer litmus (SC-forbidden outcome r1=r2=0)");
  litmus.columns({"ordering", "trials", "anomalies", "ns/trial"});
  for (const auto sync : {Sync::kUnsynchronised, Sync::kAcqRel, Sync::kSeqCst}) {
    const auto r = store_buffer_litmus(sync, 30000);
    litmus.add_row()
        .cell(to_string(sync))
        .cell(r.trials)
        .cell(r.anomalies)
        .cell(r.ns_per_op, 1);
  }
  bench::emit(litmus);

  Table pub("P8 — publication demo (writer fills payload, sets flag)");
  pub.columns({"ordering", "trials", "torn reads", "ns/round"});
  for (const auto sync : {Sync::kUnsynchronised, Sync::kAcqRel, Sync::kSeqCst}) {
    const auto r = unsafe_publication_demo(sync, 30000);
    pub.add_row()
        .cell(to_string(sync))
        .cell(r.trials)
        .cell(r.anomalies)
        .cell(r.ns_per_op, 1);
  }
  bench::emit(pub);

  std::printf(
      "\nnotes: lost-update and check-then-act anomalies manifest on any "
      "host (preemption splits the window). The litmus/publication anomalies "
      "need truly concurrent cores and weak ordering; on a 1-core container "
      "both columns read 0 — the cost columns still rank the fixes. seq-cst "
      "is the only ordering that forbids the litmus outcome by "
      "construction.\n");

  return 0;
}
