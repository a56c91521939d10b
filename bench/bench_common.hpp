// Shared helpers for the Table 1 benchmark binaries.
//
// Every bench prints paper-style tables: a sweep of clique sizes with the
// measured round counts, followed by a log-log exponent fit compared with
// the paper's asymptotic bound. Round counts come from the simulator's
// exact schedule accounting (see src/clique/), never from formulas.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "clique/network.hpp"
#include "clique/transport.hpp"
#include "util/fit.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace cca::bench {

/// Monotonic nanosecond timestamp for wall-clock measurements.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `text` with JSON string escapes applied to quotes and backslashes.
inline std::string json_escape(std::string_view text) {
  std::string escaped;
  for (const char c : text) {
    if (c == '"' || c == '\\') escaped.push_back('\\');
    escaped.push_back(c);
  }
  return escaped;
}

/// Machine-readable perf record, opt-in via `--json` on any bench binary.
/// Collected rows are written to BENCH_<name>.json in the working directory
/// so the perf trajectory across PRs can be diffed and plotted. Every file
/// opens with a "host" object naming what the rows ran on: the core count,
/// the parallel_for worker count, the compiler and the build flavour.
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
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    write_host(f);
    std::fprintf(f, "  \"rows\": [\n");
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
      for (std::size_t i = 0; i < notes_.size(); ++i)
        std::fprintf(f, "    \"%s\"%s\n", json_escape(notes_[i]).c_str(),
                     i + 1 < notes_.size() ? "," : "");
      std::fprintf(f, "  ]\n}\n");
    }
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  }

 private:
  static void write_host(std::FILE* f) {
#ifdef NDEBUG
    constexpr bool ndebug = true;
#else
    constexpr bool ndebug = false;
#endif
#ifdef CCA_SANITIZE
    constexpr bool sanitize = true;
#else
    constexpr bool sanitize = false;
#endif
#ifdef CCA_CHECKED
    constexpr bool checked = true;
#else
    constexpr bool checked = false;
#endif
#ifdef __clang__
    constexpr const char* compiler = __VERSION__;  // names Clang itself
#else
    constexpr const char* compiler = "GCC " __VERSION__;
#endif
    const auto flag = [](bool on) { return on ? "true" : "false"; };
    std::fprintf(f,
                 "  \"host\": {\"hardware_concurrency\": %u, "
                 "\"parallel_workers\": %d, \"compiler\": \"%s\", "
                 "\"ndebug\": %s, \"cca_sanitize\": %s, "
                 "\"cca_checked\": %s},\n",
                 std::thread::hardware_concurrency(), parallel_workers(),
                 json_escape(compiler).c_str(), flag(ndebug),
                 flag(sanitize), flag(checked));
  }

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

/// One delivered superstep as a SuperstepRecorder saw it.
struct SuperstepRecord {
  /// The canonical demand list the transport handed Network to route.
  std::vector<clique::Demand> demands;
  /// now_ns() of the first staging call since the previous deliver(), or 0
  /// when nothing was staged.
  std::int64_t first_stage_ns = 0;
  std::int64_t deliver_begin_ns = 0;  ///< entry into Transport::deliver
  std::int64_t deliver_end_ns = 0;    ///< return from Transport::deliver
  /// The attached Network's stats().schedule_wall_ns at deliver entry: the
  /// scheduling of every earlier superstep (Network routes a superstep
  /// after its Transport::deliver returns). 0 when no Network is attached.
  std::int64_t schedule_wall_ns = 0;
};

/// Observing Transport decorator: forwards every call to an in-process
/// ArenaTransport and records each deliver(). It neither changes nor
/// reorders a staged word, so a Network built over it charges exactly what
/// Network(n) charges. Bench folds read the records offline: the oblivious
/// relays over the demand lists (bench_ablation) and the per-superstep wall
/// split (bench_mm --steps). Staging may run under parallel_for, so the
/// first-stage time is one relaxed atomic set by compare-exchange.
class SuperstepRecorder final : public clique::Transport {
 public:
  explicit SuperstepRecorder(int n) : inner_(n) {}

  /// The Network whose schedule_wall_ns each record samples.
  void attach(const clique::Network& net) noexcept { net_ = &net; }
  [[nodiscard]] const std::vector<SuperstepRecord>& records() const noexcept {
    return records_;
  }

  [[nodiscard]] int n() const noexcept override { return inner_.n(); }
  void send(clique::NodeId src, clique::NodeId dst, clique::Word w) override {
    mark_stage();
    inner_.send(src, dst, w);
  }
  void send_words(clique::NodeId src, clique::NodeId dst,
                  std::span<const clique::Word> ws) override {
    mark_stage();
    inner_.send_words(src, dst, ws);
  }
  [[nodiscard]] std::span<clique::Word> stage(clique::NodeId src,
                                              clique::NodeId dst,
                                              std::size_t nwords) override {
    mark_stage();
    return inner_.stage(src, dst, nwords);
  }
  [[nodiscard]] std::vector<clique::StagedPair> staged_snapshot()
      const override {
    return inner_.staged_snapshot();
  }
  [[nodiscard]] std::vector<clique::Demand> staged_meta() override {
    return inner_.staged_meta();
  }
  void discard_staged() override { inner_.discard_staged(); }
  clique::DeliverySummary deliver() override {
    SuperstepRecord rec;
    rec.deliver_begin_ns = now_ns();
    rec.first_stage_ns = first_stage_ns_.exchange(0, std::memory_order_relaxed);
    if (net_ != nullptr) rec.schedule_wall_ns = net_->stats().schedule_wall_ns;
    auto sum = inner_.deliver();
    rec.deliver_end_ns = now_ns();
    rec.demands = sum.demands;
    records_.push_back(std::move(rec));
    return sum;
  }
  [[nodiscard]] std::span<const clique::Word> inbox(
      clique::NodeId dst, clique::NodeId src) const override {
    return inner_.inbox(dst, src);
  }
  [[nodiscard]] std::vector<clique::Word> take_inbox(
      clique::NodeId dst, clique::NodeId src) override {
    return inner_.take_inbox(dst, src);
  }
  [[nodiscard]] std::uint64_t stage_generation(
      clique::NodeId src) const override {
    return inner_.stage_generation(src);
  }
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept override {
    return inner_.inbox_generation();
  }

 private:
  void mark_stage() {
    if (first_stage_ns_.load(std::memory_order_relaxed) != 0) return;
    std::int64_t unset = 0;
    first_stage_ns_.compare_exchange_strong(unset, now_ns(),
                                            std::memory_order_relaxed);
  }

  clique::ArenaTransport inner_;
  const clique::Network* net_ = nullptr;
  std::atomic<std::int64_t> first_stage_ns_{0};
  std::vector<SuperstepRecord> records_;
};

}  // namespace cca::bench
