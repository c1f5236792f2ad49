// parc_bench: fixed-load benchmark of the serve, flow and ptask layers.
//
//   parc_bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//              [--trace-file <out.json>]
//   parc_bench --check <BENCHMARK.json>
//
// Workloads: serve-hot, serve-cold, flow-pipesort, tasks-wavefront (see
// README.md for why each exists). An untraced run (--trace 0) prints the
// end-to-end metrics; a traced run (--trace 1) runs reduced sizes and
// prints the per-layer metrics. Standard output ends with two JSON lines:
// the full report (workload, seed, nproc, metrics, layers, diag; timed
// metrics carry quartiles and a sample count), then the result line
// {"correct", "attempted", "failed", "metrics"}. Any failed correctness
// check exits non-zero and prints neither.
//
// --check runs every workload at 1/20 scale, traced and untraced, and
// verifies that every metric BENCHMARK.json names is printed with its unit
// and a finite value.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"

namespace parc_bench {
namespace {

/// Pools are sized to 3 workers plus the client thread.
constexpr unsigned kMinCpus = 4;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"serve-hot", [](const Options& o) { return run_serve(o, true); }},
    {"serve-cold", [](const Options& o) { return run_serve(o, false); }},
    {"flow-pipesort", run_flow},
    {"tasks-wavefront", run_tasks},
};

/// The per-layer metrics every traced run prints (BENCHMARK.json
/// "per_layer"). A layer a workload leaves idle reads 0. Workload-specific
/// layer timings (exec, queue-wait and ready-wait percentiles) appear in the
/// report line only.
const std::pair<const char*, const char*> kLayerCatalogue[] = {
    {"api.call_ns", "ns"},
    {"api.call_p99_ns", "ns"},
    {"api.busy_share", "ratio"},
    {"serve.hit_share", "ratio"},
    {"serve.coalesce_share", "ratio"},
    {"serve.shed_share", "ratio"},
    {"serve.evictions_per_req", "1/req"},
    {"serve.batch_mean", "req/batch"},
    {"serve.replica_imbalance", "ratio"},
    {"serve.backend_busy_share", "ratio"},
    {"serve.wait_share", "ratio"},
    {"sched.steals_per_1k", "1/1k"},
    {"sched.parks_per_1k", "1/1k"},
    {"sched.steal_fails_per_1k", "1/1k"},
    {"sched.helped_share", "ratio"},
    {"sched.local_push_share", "ratio"},
    {"sched.queue_wait_share", "ratio"},
    {"sched.parked_share", "ratio"},
    {"ptask.busy_share", "ratio"},
    {"ptask.ready_wait_share", "ratio"},
    {"flow.src_producer_blocks_per_1k", "1/1k"},
    {"flow.src_consumer_blocks_per_1k", "1/1k"},
    {"flow.src_producer_blocked_share", "ratio"},
    {"flow.src_consumer_blocked_share", "ratio"},
    {"flow.parks_per_1k", "1/1k"},
    {"flow.stage_blocked_share.runs", "ratio"},
    {"flow.stage_blocked_share.merge0", "ratio"},
    {"flow.stage_blocked_share.merge1", "ratio"},
    {"flow.stage_blocked_share.merge2", "ratio"},
    {"flow.stage_blocked_share.merge3", "ratio"},
    {"flow.stage_blocked_share.merge4", "ratio"},
    {"flow.stage_blocked_share.merge5", "ratio"},
    {"flow.stage_blocked_share.merge6", "ratio"},
    {"flow.stage_blocked_share.merge7", "ratio"},
    {"flow.stage_blocked_share.collect", "ratio"},
    {"obs.trace_overhead_share", "ratio"},
    {"obs.dropped_events", "count"},
};

const Metric* find(const std::vector<Metric>& ms, std::string_view name) {
  for (const Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

Report run(const Options& opt) {
  for (const Workload& w : kWorkloads) {
    if (opt.workload != w.name) continue;
    Report r = w.run(opt);
    if (opt.trace) {
      for (const auto& [name, unit] : kLayerCatalogue) {
        if (find(r.layers, name) == nullptr) r.layer(name, unit, 0.0);
      }
    } else {
      r.diag_value("peak_rss_mb", "MB", peak_rss_mb());
    }
    for (const auto* list : {&r.metrics, &r.layers, &r.diag}) {
      for (const Metric& m : *list) {
        require(std::isfinite(m.value), m.name + " is not finite");
      }
    }
    return r;
  }
  throw UsageError("unknown workload '" + opt.workload + "'");
}

/// The metrics the result line carries: end to end untraced, the layer
/// catalogue traced.
std::vector<Metric> result_metrics(const Report& r, bool trace) {
  if (!trace) return r.metrics;
  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerCatalogue) {
    out.push_back(*find(r.layers, name));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string metric_map(const std::vector<Metric>& ms, bool spread) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit);
    if (spread && m.n > 1) {
      out += ", \"q1\": " + num(m.q1) + ", \"q3\": " + num(m.q3) +
             ", \"n\": " + std::to_string(m.n);
    }
    out += "}";
  }
  return out + "}";
}

void print(const Options& opt, const Report& r) {
  std::cout << "{\"workload\": " << quoted(opt.workload)
            << ", \"seed\": " << opt.seed << ", \"nproc\": " << usable_cpus()
            << ", \"metrics\": " << metric_map(r.metrics, true)
            << ", \"layers\": " << metric_map(r.layers, true)
            << ", \"diag\": " << metric_map(r.diag, true) << "}\n";
  std::cout << "{\"correct\": true, \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": "
            << metric_map(result_metrics(r, opt.trace), false) << "}\n";
  std::cout.flush();
}

// ---------------------------------------------------------------------------
// --check: a minimal JSON reader for BENCHMARK.json.
// ---------------------------------------------------------------------------

/// The parts of a JSON value --check reads: strings, arrays and objects.
/// Numbers and literals are parsed and dropped.
struct Json {
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json& at(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return v;
    }
    throw UsageError("BENCHMARK.json: missing key '" + std::string(key) + "'");
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (i_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw UsageError("BENCHMARK.json: " + what + " at offset " +
                     std::to_string(i_));
  }
  void skip_ws() {
    while (i_ < s_.size() && std::string_view(" \t\r\n").find(s_[i_]) !=
                                 std::string_view::npos) {
      ++i_;
    }
  }
  char peek() {
    skip_ws();
    if (i_ >= s_.size()) fail("unexpected end");
    return s_[i_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  /// After an element: true on ',', false on `close`.
  bool next(char close) {
    const char c = peek();
    ++i_;
    if (c == ',') return true;
    if (c != close) fail(std::string("expected ',' or '") + close + "'");
    return false;
  }
  std::string str() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("unterminated escape");
        c = s_[i_++];
        if (c == 'u') fail("\\u escapes are not supported");
        c = c == 'n' ? '\n' : c == 't' ? '\t' : c;
      }
      out += c;
    }
  }
  Json value() {
    Json v;
    const char c = peek();
    if (c == '{') {
      ++i_;
      if (peek() == '}') {
        ++i_;
        return v;
      }
      do {
        std::string key = str();
        expect(':');
        v.members.emplace_back(std::move(key), value());
      } while (next('}'));
    } else if (c == '[') {
      ++i_;
      if (peek() == ']') {
        ++i_;
        return v;
      }
      do {
        v.items.push_back(value());
      } while (next(']'));
    } else if (c == '"') {
      v.string = str();
    } else {
      for (const std::string_view lit : {"true", "false", "null"}) {
        if (s_.compare(i_, lit.size(), lit) == 0) {
          i_ += lit.size();
          return v;
        }
      }
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      (void)std::strtod(begin, &end);
      if (end == begin) fail("unexpected character");
      i_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  std::string s_;
  std::size_t i_ = 0;
};

Json read_json(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw UsageError("cannot read " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return JsonReader(text.str()).parse();
}

/// Entries of `list` whose (name, unit) is not in `printed` with a finite
/// value.
int count_missing(const Json& list, const std::vector<Metric>& printed,
                  const std::string& workload) {
  int bad = 0;
  for (const Json& entry : list.items) {
    const std::string& name = entry.at("name").string;
    const std::string& unit = entry.at("unit").string;
    const Metric* m = find(printed, name);
    if (m == nullptr || m->unit != unit || !std::isfinite(m->value)) {
      std::fprintf(stderr, "check: %s: %s [%s] %s\n", workload.c_str(),
                   name.c_str(), unit.c_str(),
                   m == nullptr ? "missing" : "wrong unit or not finite");
      ++bad;
    }
  }
  return bad;
}

int check(const std::string& benchmark_json) {
  const Json spec = read_json(benchmark_json);
  int bad = 0;
  for (const Json& w : spec.at("workloads").items) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = w.at("name").string;
      opt.seed = 1;
      opt.seconds = 0.3;
      opt.scale = 0.05;
      opt.trace = trace;
      const Report r = run(opt);
      bad += count_missing(spec.at(trace ? "per_layer" : "end_to_end"),
                           result_metrics(r, trace), opt.workload);
      std::fprintf(stderr, "check: %s %s done\n", opt.workload.c_str(),
                   trace ? "traced" : "untraced");
    }
  }
  std::fprintf(stderr, "check: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

double parse_seconds(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0.0) {
    throw UsageError(flag + " needs a non-negative number");
  }
  return v;
}

int main_impl(int argc, char** argv) {
  Options opt;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw UsageError(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const std::string_view v = value;
      const char* end = v.data() + v.size();
      const auto res = std::from_chars(v.data(), end, opt.seed);
      if (res.ec != std::errc() || res.ptr != end) {
        throw UsageError("--seed needs a non-negative integer");
      }
    } else if (flag == "--seconds") {
      opt.seconds = parse_seconds(flag, value);
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") throw UsageError("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else if (flag == "--check") {
      check_path = value;
    } else {
      throw UsageError("unknown flag " + flag);
    }
  }
  const unsigned cpus = usable_cpus();
  if (cpus < kMinCpus) {
    std::fprintf(stderr,
                 "parc_bench: needs %u CPUs (3 pool workers + the client), "
                 "this process may use %u\n",
                 kMinCpus, cpus);
    return 2;
  }
  if (!check_path.empty()) return check(check_path);
  if (opt.workload.empty()) throw UsageError("--workload is required");
  print(opt, run(opt));
  return 0;
}

}  // namespace
}  // namespace parc_bench

int main(int argc, char** argv) {
  try {
    return parc_bench::main_impl(argc, argv);
  } catch (const parc_bench::CheckFailure& e) {
    std::fprintf(stderr, "parc_bench: correctness check failed: %s\n",
                 e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parc_bench: %s\n", e.what());
    return 2;
  }
}
