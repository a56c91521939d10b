// Shared helpers for the Table 1 benchmark binaries.
//
// Every bench prints paper-style tables: a sweep of clique sizes with the
// measured round counts, followed by a log-log exponent fit compared with
// the paper's asymptotic bound. Round counts come from the simulator's
// exact schedule accounting (see src/clique/), never from formulas.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/fit.hpp"
#include "util/table.hpp"

namespace cca::bench {

/// Monotonic nanosecond timestamp for wall-clock measurements.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Machine-readable perf record, opt-in via `--json` on any bench binary.
/// Collected rows are written to BENCH_<name>.json in the working directory
/// so the perf trajectory across PRs can be diffed and plotted.
class JsonReport {
 public:
  JsonReport(const std::string& name, int argc, char** argv) : name_(name) {
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--json") enabled_ = true;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record one measured configuration: the clique (padded) size, the exact
  /// simulated rounds, and the measured wall-clock per operation.
  void add(const std::string& label, long long clique_n, long long rounds,
           std::int64_t wall_ns_per_op) {
    rows_.push_back({label, clique_n, rounds, wall_ns_per_op});
  }

  /// Attach a free-form finding to the report (written as a "notes" array);
  /// used to record profiling conclusions next to the numbers they explain.
  void note(std::string text) { notes_.push_back(std::move(text)); }

  /// Write BENCH_<name>.json (no-op unless --json was passed).
  void write() const {
    if (!enabled_) return;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n", name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const auto& r = rows_[i];
      std::fprintf(f,
                   "    {\"label\": \"%s\", \"clique_n\": %lld, "
                   "\"rounds\": %lld, \"wall_ns_per_op\": %lld}%s\n",
                   r.label.c_str(), r.clique_n, r.rounds,
                   static_cast<long long>(r.wall_ns_per_op),
                   i + 1 < rows_.size() ? "," : "");
    }
    if (notes_.empty()) {
      std::fprintf(f, "  ]\n}\n");
    } else {
      std::fprintf(f, "  ],\n  \"notes\": [\n");
      for (std::size_t i = 0; i < notes_.size(); ++i) {
        std::string escaped;
        for (const char c : notes_[i]) {
          if (c == '"' || c == '\\') escaped.push_back('\\');
          escaped.push_back(c);
        }
        std::fprintf(f, "    \"%s\"%s\n", escaped.c_str(),
                     i + 1 < notes_.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
    }
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  struct Row {
    std::string label;
    long long clique_n;
    long long rounds;
    std::int64_t wall_ns_per_op;
  };
  std::string name_;
  bool enabled_ = false;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
};

/// True when `flag` (e.g. "--steps") was passed on the command line.
inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == flag) return true;
  return false;
}

/// Exit with status 2, printing the accepted flags, when argv holds an
/// argument that is neither one of `accepted` nor starts with one of the
/// internal `prefixes`. A typo such as `--smok` must not silently run the
/// full sweep.
inline void require_known_flags(
    int argc, char** argv, std::initializer_list<std::string_view> accepted,
    std::initializer_list<std::string_view> prefixes = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (std::find(accepted.begin(), accepted.end(), arg) != accepted.end())
      continue;
    if (std::any_of(prefixes.begin(), prefixes.end(),
                    [&](std::string_view p) { return arg.starts_with(p); }))
      continue;
    std::fprintf(stderr, "%s: unknown flag '%s'; accepted:", argv[0],
                 argv[i]);
    if (accepted.size() == 0) std::fprintf(stderr, " (none)");
    for (const auto flag : accepted)
      std::fprintf(stderr, " %.*s", static_cast<int>(flag.size()), flag.data());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

struct Series {
  std::string name;
  std::vector<double> n;
  std::vector<double> rounds;

  void add(double n_value, double rounds_value) {
    n.push_back(n_value);
    rounds.push_back(rounds_value);
  }
};

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Print a fitted exponent line: "name: rounds ~ a * n^c (R^2) vs paper n^p".
inline void print_fit(const Series& s, const std::string& paper_bound) {
  if (s.n.size() < 2) return;
  const auto f = fit_power_law(s.n, s.rounds);
  std::printf("%-28s measured rounds ~ %.2f * n^%.3f  (R^2 = %.3f)   paper: %s\n",
              s.name.c_str(), f.coefficient, f.exponent, f.r_squared,
              paper_bound.c_str());
}

/// Print several series against a shared n column.
inline void print_series_table(const std::vector<Series>& series) {
  if (series.empty() || series[0].n.empty()) return;
  std::vector<std::string> headers{"n"};
  for (const auto& s : series) headers.push_back(s.name + " rounds");
  Table t(headers);
  for (std::size_t i = 0; i < series[0].n.size(); ++i) {
    std::vector<std::string> row{fmt_int(static_cast<long long>(series[0].n[i]))};
    for (const auto& s : series)
      row.push_back(i < s.rounds.size()
                        ? fmt_int(static_cast<long long>(s.rounds[i]))
                        : "-");
    t.add_row(std::move(row));
  }
  std::fputs(t.to_string().c_str(), stdout);
}

}  // namespace cca::bench
