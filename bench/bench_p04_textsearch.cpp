// P4: search for a string in text files of a folder — sequential vs
// ParallelTask multi-task, literal vs regex, corpus-size sweep, plus the
// interactivity metric: latency until the first result batch reaches the UI.
#include "bench_util.hpp"
#include "gui/gui.hpp"
#include "support/clock.hpp"
#include "text/text.hpp"

using namespace parc;
using namespace parc::text;

namespace {

ptask::Runtime& runtime() {
  static ptask::Runtime rt(ptask::Runtime::Config{4, {}});
  return rt;
}

}  // namespace

int main() {
  Table table("P4 — folder search: sequential vs ParallelTask (4 workers)");
  table.columns({"files", "corpus MB", "matches", "seq ms", "ptask ms",
                 "regex ptask ms", "first batch ms"});
  for (std::size_t files : {128u, 512u, 2048u}) {
    CorpusOptions opts;
    opts.num_files = files;
    const auto gen = make_corpus(opts, 751);

    Stopwatch sw;
    const auto seq = search_corpus_seq(gen.corpus, opts.needle);
    const double t_seq = sw.elapsed_ms();

    std::atomic<double> first_batch_ms{-1.0};
    Stopwatch total;
    const auto par = search_corpus_ptask(
        gen.corpus, opts.needle, runtime(),
        [&](const std::vector<Match>&) {
          double expected = -1.0;
          first_batch_ms.compare_exchange_strong(expected,
                                                 total.elapsed_ms());
        });
    const double t_par = total.elapsed_ms();

    sw.reset();
    const auto re = search_corpus_regex_ptask(gen.corpus, opts.needle,
                                              runtime());
    const double t_regex = sw.elapsed_ms();

    PARC_CHECK(par == seq);
    PARC_CHECK(re == seq);
    table.add_row()
        .cell(static_cast<std::uint64_t>(files))
        .cell(static_cast<double>(gen.corpus.total_bytes()) / 1e6, 1)
        .cell(static_cast<std::uint64_t>(seq.size()))
        .cell(t_seq, 1)
        .cell(t_par, 1)
        .cell(t_regex, 1)
        .cell(first_batch_ms.load(), 2);
  }
  bench::emit(table);

  // Responsiveness: search with UI delivery while probe events arrive.
  CorpusOptions opts;
  opts.num_files = 1024;
  const auto gen = make_corpus(opts, 99);
  Table responsive("P4 — UI responsiveness during a live search");
  responsive.columns({"mode", "search ms", "probe p99 ms", "dropped %"});
  for (const bool on_edt : {true, false}) {
    gui::EventLoop loop;
    gui::ListModel<std::string> results(loop);
    gui::ResponsivenessProbe probe(loop, std::chrono::microseconds(1000));
    Stopwatch sw;
    if (on_edt) {
      // Anti-pattern: the whole search as one EDT event.
      loop.post_and_wait([&] {
        const auto m = search_corpus_seq(gen.corpus, opts.needle);
        for (const auto& match : m) {
          results.append(gen.corpus.files[match.file_index].path);
        }
      });
    } else {
      (void)search_corpus_ptask(
          gen.corpus, opts.needle, runtime(),
          [&](const std::vector<Match>& batch) {
            loop.post([&, batch] {
              for (const auto& match : batch) {
                results.append(gen.corpus.files[match.file_index].path);
              }
            });
          });
      loop.drain();
    }
    const double wall = sw.elapsed_ms();
    probe.stop();
    loop.drain();
    const auto latencies = loop.latency_samples_ms();
    Summary s;
    s.add_all(latencies);
    responsive.add_row()
        .cell(on_edt ? "search on EDT" : "ptask + incremental delivery")
        .cell(wall, 1)
        .cell(s.empty() ? 0.0 : s.percentile(99), 2)
        .cell(100.0 * gui::dropped_frame_fraction(latencies), 1);
  }
  bench::emit(responsive);

  return 0;
}
