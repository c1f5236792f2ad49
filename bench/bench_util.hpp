// Shared scaffolding for bench binaries: every bench prints the regenerated
// paper artifact as Tables, timing any wall-clock column inline with
// support/clock.hpp, and exits 0 once its gates pass. A bench that wants its
// numbers machine-readable fills a JsonReport alongside the table; the
// written BENCH_<name>.json is what CI archives and regression tooling
// diffs.
#pragma once

#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "args.hpp"
#include "support/table.hpp"

namespace parc::bench {

/// Print the artifact table to stdout (the regenerated figure/table).
inline void emit(const Table& table) { table.print(std::cout); }

/// Machine-readable companion to the printed table: per-case ns/op plus
/// free-form config key/values, written as BENCH_<name>.json in the working
/// directory. The format is deliberately flat so a five-line script can diff
/// two runs:
///
///   {"bench": "sched_overhead",
///    "config": {"workers": "1"},
///    "cases": [{"name": "cell_cycle", "ns_per_op": 7.1}, ...]}
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  JsonReport& config(std::string key, std::string value) {
    config_.emplace_back(std::move(key), std::move(value));
    return *this;
  }

  JsonReport& add(std::string case_name, double ns_per_op) {
    cases_.emplace_back(std::move(case_name), ns_per_op);
    return *this;
  }

  /// Write BENCH_<name>.json; prints the path so run logs say where it went.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    os << "{\"bench\": \"" << escaped(name_) << "\",\n \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << escaped(config_[i].first)
         << "\": \"" << escaped(config_[i].second) << '"';
    }
    os << "},\n \"cases\": [";
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      os << (i == 0 ? "" : ",") << "\n  {\"name\": \""
         << escaped(cases_[i].first) << "\", \"ns_per_op\": "
         << cases_[i].second << '}';
    }
    os << "\n ]}\n";
    std::cout << "wrote " << path << '\n';
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';  // control chars have no business in bench names
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> cases_;
};

}  // namespace parc::bench
