// P7: PDF searching — granularity study (per-document / per-chunk /
// per-page): wall time, task count, and the interactivity metric (time to
// first / median match delivery), plus machine-model scaling per
// granularity where skewed document sizes make the difference.
#include "bench_util.hpp"
#include "sim/machine.hpp"
#include "support/stats.hpp"
#include "text/text.hpp"

using namespace parc;
using namespace parc::text;

namespace {

ptask::Runtime& runtime() {
  static ptask::Runtime rt(ptask::Runtime::Config{4, {}});
  return rt;
}

std::size_t task_count(const GeneratedPdfLibrary& lib, PdfGranularity g,
                       std::size_t chunk) {
  std::size_t units = 0;
  for (const auto& d : lib.documents) {
    switch (g) {
      case PdfGranularity::kPerDocument: units += 1; break;
      case PdfGranularity::kPerPage: units += d.pages.size(); break;
      case PdfGranularity::kPerChunk:
        units += (d.pages.size() + chunk - 1) / chunk;
        break;
    }
  }
  return units;
}

}  // namespace

int main() {
  PdfLibraryOptions opts;
  opts.num_documents = 96;
  const auto lib = make_pdf_library(opts, 2013);
  std::printf("library: %zu documents, %zu pages total\n",
              lib.documents.size(), lib.total_pages());

  const auto seq = search_pdfs_seq(lib, opts.needle);

  Table table("P7 — PDF search granularity (4 workers)");
  table.columns({"granularity", "tasks", "wall ms", "first match ms",
                 "median match ms", "matches ok"});
  table.add_row()
      .cell("sequential")
      .cell(std::uint64_t{1})
      .cell(seq.wall_ms, 1)
      .cell(seq.delivery_ms.empty() ? 0.0 : seq.delivery_ms.front(), 2)
      .cell(seq.delivery_ms.empty()
                ? 0.0
                : seq.delivery_ms[seq.delivery_ms.size() / 2],
            2)
      .cell("-");
  for (const auto g :
       {PdfGranularity::kPerDocument, PdfGranularity::kPerChunk,
        PdfGranularity::kPerPage}) {
    const auto result = search_pdfs_ptask(lib, opts.needle, g, runtime(), 8);
    table.add_row()
        .cell(to_string(g))
        .cell(static_cast<std::uint64_t>(task_count(lib, g, 8)))
        .cell(result.wall_ms, 1)
        .cell(result.delivery_ms.empty() ? 0.0 : result.delivery_ms.front(), 2)
        .cell(result.delivery_ms.empty()
                  ? 0.0
                  : result.delivery_ms[result.delivery_ms.size() / 2],
              2)
        .cell(result.matches == seq.matches ? "yes" : "NO");
  }
  bench::emit(table);

  // Machine-model comparison: with Pareto page counts, per-document tasks
  // leave the longest document as the straggler; finer granularity fixes it.
  Table scaling("P7 — granularity scaling on the machine model (per-page cost 1)");
  scaling.columns({"granularity", "parallelism", "speedup @4", "speedup @16",
                   "speedup @64"});
  for (const auto g :
       {PdfGranularity::kPerDocument, PdfGranularity::kPerChunk,
        PdfGranularity::kPerPage}) {
    sim::TaskDag dag;
    for (const auto& d : lib.documents) {
      switch (g) {
        case PdfGranularity::kPerDocument:
          dag.add_task(static_cast<double>(d.pages.size()));
          break;
        case PdfGranularity::kPerPage:
          for (std::size_t p = 0; p < d.pages.size(); ++p) dag.add_task(1.0);
          break;
        case PdfGranularity::kPerChunk:
          for (std::size_t p = 0; p < d.pages.size(); p += 8) {
            dag.add_task(static_cast<double>(
                std::min<std::size_t>(8, d.pages.size() - p)));
          }
          break;
      }
    }
    sim::SweepOptions sweep_opts;
    sweep_opts.cores = {4, 16, 64};
    sweep_opts.machine = sim::MachineParams{1, 0.01, "pdf"};
    const sim::SweepTable table = sim::sweep(dag, sweep_opts);
    scaling.add_row()
        .cell(to_string(g))
        .cell(dag.parallelism(), 1)
        .cell(table.speedup_at(4), 2)
        .cell(table.speedup_at(16), 2)
        .cell(table.speedup_at(64), 2);
  }
  bench::emit(scaling);

  return 0;
}
