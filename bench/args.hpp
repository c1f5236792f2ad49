// Shared CLI flags for bench binaries (and anything else that replays the
// same spellings, e.g. tools/perf_report). Every bench used to hand-roll the
// same strip-the-flag loop; parse() centralises it:
//
//   --json           CI smoke mode: deterministic gates only, smaller sizes,
//                    still writes BENCH_<name>.json.
//   --trace <path>   record the run with parc::obs and write a Chrome
//                    trace-event file (requires -DPARC_TRACE=ON).
//
// Recognised flags are removed from argv so a downstream parser (e.g.
// perf_report's own flags) never sees them; everything else is left in
// place.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace parc::bench {

struct Args {
  bool json = false;
  std::string trace_path;  ///< empty: tracing off
};

/// Parse and strip the shared flags from argv in place. Exits with status 2
/// on a malformed flag (missing value) — a bench invoked wrongly should fail
/// loudly, not run the wrong experiment.
inline Args parse(int& argc, char** argv) {
  Args args;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--json") == 0) {
      args.json = true;
    } else if (std::strcmp(arg, "--trace") == 0) {
      args.trace_path = value("--trace");
    } else {
      argv[out++] = argv[i];  // not ours: keep for the next parser
    }
  }
  argc = out;
  return args;
}

}  // namespace parc::bench
