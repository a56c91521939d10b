// The program behind the repository benchmark (see benchmark/README.md).
//
// One process runs one workload as a closed loop with one client: K = 4
// inputs generated from --seed (input i from seed * 1000 + i), one warm-up
// solve per input, then solves round-robin over the inputs until --seconds
// have passed. Every solve's output is checked against the centralized
// references (graph/reference.hpp), and its deterministic TrafficStats
// against the input's first solve (over sockets: against an in-process
// oracle). The process prints one JSON object on stdout; benchmark/run.py
// turns the per-solve samples into metrics.
//
// Layer timing is taken from outside the library: --trace installs a
// TimedTransport decorator through clique::TransportScope on every other
// solve, timing each Transport::deliver and allgather_blocks call as a
// child span of the solve. The untraced solves of the same run give the
// tracing overhead.
//
//   cca_bench --selftest
//   cca_bench --workload W --seed S --seconds T [--trace] [--setup-only]
//             [--trace-file F] [--rank R --nprocs P --port-base B]
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "clique/network.hpp"
#include "clique/socket_transport.hpp"
#include "clique/transport.hpp"
#include "core/apsp.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "util/parallel.hpp"

// Set by benchmark/CMakeLists.txt; recorded in every result.
#ifndef CCA_BENCH_BUILD_TYPE
#define CCA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef CCA_BENCH_COMPILER
#define CCA_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace cca;
using namespace cca::core;

constexpr int kInputs = 4;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock epoch time, comparable across processes: run.py measures
/// set-up from the moment it spawned the process to the first timed solve.
std::int64_t epoch_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded at the Transport boundary.
// ---------------------------------------------------------------------------

/// Per-solve totals of the transport spans.
struct TransportTotals {
  std::int64_t deliver_ns = 0;
  std::int64_t deliver_calls = 0;
  std::int64_t allgather_ns = 0;
  std::int64_t allgather_calls = 0;
};

/// In-memory span store. Children (transport.deliver, transport.allgather)
/// carry the id of the solve that caused them; the solve span is the root.
/// Totals accumulate for every traced solve; full spans are kept for the
/// first kKeptSolves traced solves only, so a trace file of a many-superstep
/// workload stays small enough to open.
class SpanRecorder {
 public:
  void begin_solve(int id) {
    solve_ = id;
    totals_ = {};
    keep_ = kept_solves_ < kKeptSolves;
  }

  void record_deliver(std::int64_t start, std::int64_t end) {
    totals_.deliver_ns += end - start;
    ++totals_.deliver_calls;
    if (keep_) spans_.push_back({"transport.deliver", start, end, solve_});
  }

  void record_allgather(std::int64_t start, std::int64_t end) {
    totals_.allgather_ns += end - start;
    ++totals_.allgather_calls;
    if (keep_) spans_.push_back({"transport.allgather", start, end, solve_});
  }

  void end_solve(std::int64_t start, std::int64_t end) {
    if (!keep_) return;
    spans_.push_back({"solve", start, end, solve_});
    ++kept_solves_;
  }

  [[nodiscard]] const TransportTotals& totals() const { return totals_; }

  /// Chrome trace-event JSON (Perfetto, chrome://tracing): complete events
  /// on one track per rank, so children nest under their solve.
  void write_chrome(const std::string& path, int rank) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("cannot write trace file " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"solve\":%d}}",
                   i == 0 ? "" : ",", s.name, rank,
                   static_cast<double>(s.start - t0) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, s.solve);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0)
      throw std::runtime_error("cannot write trace file " + path);
  }

 private:
  static constexpr int kKeptSolves = 8;

  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int solve;
  };

  std::vector<Span> spans_;
  TransportTotals totals_;
  int solve_ = -1;
  int kept_solves_ = 0;
  bool keep_ = false;
};

/// Transport decorator that forwards every virtual to the wrapped backend
/// and times deliver() and allgather_blocks(). Forwarding owned(),
/// staged_meta(), allgather_blocks() and the generations matters: the base
/// class defaults would silently make a sharded backend look like it owns
/// the whole clique (--selftest guards this).
class TimedTransport final : public clique::Transport {
 public:
  TimedTransport(std::unique_ptr<clique::Transport> inner, SpanRecorder& rec)
      : inner_(std::move(inner)), rec_(rec) {}

  [[nodiscard]] int n() const noexcept override { return inner_->n(); }
  void send(clique::NodeId src, clique::NodeId dst, clique::Word w) override {
    inner_->send(src, dst, w);
  }
  void send_words(clique::NodeId src, clique::NodeId dst,
                  std::span<const clique::Word> ws) override {
    inner_->send_words(src, dst, ws);
  }
  [[nodiscard]] std::span<clique::Word> stage(clique::NodeId src,
                                              clique::NodeId dst,
                                              std::size_t nwords) override {
    return inner_->stage(src, dst, nwords);
  }
  [[nodiscard]] std::vector<clique::StagedPair> staged_snapshot()
      const override {
    return inner_->staged_snapshot();
  }
  [[nodiscard]] std::vector<clique::Demand> staged_meta() override {
    return inner_->staged_meta();
  }
  void discard_staged() override { inner_->discard_staged(); }
  clique::DeliverySummary deliver() override {
    const auto t0 = now_ns();
    auto sum = inner_->deliver();
    rec_.record_deliver(t0, now_ns());
    return sum;
  }
  [[nodiscard]] std::span<const clique::Word> inbox(
      clique::NodeId dst, clique::NodeId src) const override {
    return inner_->inbox(dst, src);
  }
  [[nodiscard]] std::vector<clique::Word> take_inbox(
      clique::NodeId dst, clique::NodeId src) override {
    return inner_->take_inbox(dst, src);
  }
  [[nodiscard]] std::uint64_t stage_generation(
      clique::NodeId src) const override {
    return inner_->stage_generation(src);
  }
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept override {
    return inner_->inbox_generation();
  }
  [[nodiscard]] clique::NodeSpan owned() const noexcept override {
    return inner_->owned();
  }
  void allgather_blocks(std::span<clique::Word> data,
                        std::span<const std::size_t> offsets) override {
    const auto t0 = now_ns();
    inner_->allgather_blocks(data, offsets);
    rec_.record_allgather(t0, now_ns());
  }

 private:
  std::unique_ptr<clique::Transport> inner_;
  SpanRecorder& rec_;
};

/// Factory for TransportScope: the in-process arena when `mesh` is null,
/// otherwise the socket backend over `mesh`, wrapped in a TimedTransport
/// when `rec` is given.
clique::TransportScope::Factory make_factory(
    std::shared_ptr<clique::SocketMesh> mesh, SpanRecorder* rec) {
  auto inner = mesh ? clique::SocketTransport::factory(mesh)
                    : clique::TransportScope::Factory(
                          [](int n) -> std::unique_ptr<clique::Transport> {
                            return std::make_unique<clique::ArenaTransport>(n);
                          });
  if (rec == nullptr) return inner;
  return [inner, rec](int n) -> std::unique_ptr<clique::Transport> {
    return std::make_unique<TimedTransport>(inner(n), *rec);
  };
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The deterministic outcome of one solve: pinned per input.
struct Pinned {
  clique::TrafficStats traffic;
  std::int64_t dispatch_sparse = 0;
  std::int64_t dispatch_dense = 0;
  std::int64_t trials = 0;
};

std::string stats_mismatch(const Pinned& got, const Pinned& want) {
  const auto& a = got.traffic;
  const auto& b = want.traffic;
  const struct {
    const char* name;
    std::int64_t got, want;
  } fields[] = {
      {"rounds", a.rounds, b.rounds},
      {"bound_rounds", a.bound_rounds, b.bound_rounds},
      {"supersteps", a.supersteps, b.supersteps},
      {"total_words", a.total_words, b.total_words},
      {"max_node_send", a.max_node_send, b.max_node_send},
      {"max_node_recv", a.max_node_recv, b.max_node_recv},
      {"schedule_hits", a.schedule_hits, b.schedule_hits},
      {"schedule_misses", a.schedule_misses, b.schedule_misses},
      {"faults_injected", a.faults_injected, b.faults_injected},
      {"retransmit_rounds", a.retransmit_rounds, b.retransmit_rounds},
      {"retransmit_words", a.retransmit_words, b.retransmit_words},
      {"dispatch_sparse", got.dispatch_sparse, want.dispatch_sparse},
      {"dispatch_dense", got.dispatch_dense, want.dispatch_dense},
      {"trials", got.trials, want.trials},
  };
  for (const auto& f : fields)
    if (f.got != f.want)
      return std::string(f.name) + " " + std::to_string(f.got) + " != " +
             std::to_string(f.want);
  return {};
}

/// One workload: inputs, references, and a run/check pair per solve. Only
/// run() is timed; check() verifies the output of the latest run(i) and
/// returns an empty string when it is correct.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void make_inputs(std::uint64_t seed) = 0;
  virtual void make_references() = 0;
  virtual void run(int i) = 0;
  [[nodiscard]] virtual std::string check(int i) const = 0;
  [[nodiscard]] virtual Pinned pinned() const = 0;
  /// The pin every solve of input i must reproduce when set up front (the
  /// in-process oracle of a sharded run); otherwise the first solve pins it.
  [[nodiscard]] virtual std::optional<Pinned> oracle(int i) const {
    (void)i;
    return std::nullopt;
  }
};

/// Exact APSP with routing tables (Cor. 6) on directed G(n, 0.3) with
/// weights in [1, 200]. The squaring loop stops at the first power of two
/// covering the longest shortest path in hops; at n = 216 that is 5
/// squarings for every one of 200 sampled seeds with this weight range,
/// while weights in [1, 50] needed 4 on a fifth of them. Equal work per
/// input keeps solve time and rounds comparable across seeds. `rows` is the
/// row range this process owns; under sockets only owned rows are
/// authoritative and an in-process oracle pins the stats.
class ApspWorkload final : public Workload {
 public:
  ApspWorkload(int n, clique::NodeSpan rows, bool with_oracle)
      : n_(n), rows_(rows), with_oracle_(with_oracle) {}

  void make_inputs(std::uint64_t seed) override {
    for (int i = 0; i < kInputs; ++i)
      graphs_.push_back(random_weighted_graph(
          n_, 0.3, 1, 200, seed * 1000 + static_cast<std::uint64_t>(i),
          /*directed=*/true));
  }

  void make_references() override {
    for (const auto& g : graphs_) {
      refs_.push_back(ref_apsp(g));
      if (!with_oracle_) continue;
      // In-process oracle on the arena: no ambient scope is live here.
      const auto out = apsp_semiring(g);
      if (out.dist != refs_.back())
        throw std::runtime_error("in-process oracle disagrees with ref_apsp");
      oracles_.push_back(pin(out));
    }
  }

  void run(int i) override {
    out_ = apsp_semiring(graphs_[static_cast<std::size_t>(i)]);
  }

  [[nodiscard]] std::string check(int i) const override {
    const Graph& g = graphs_[static_cast<std::size_t>(i)];
    const auto& ref = refs_[static_cast<std::size_t>(i)];
    const int hi = std::min(rows_.end, n_);
    for (int u = rows_.begin; u < hi; ++u)
      for (int v = 0; v < n_; ++v) {
        const auto d = out_.dist(u, v);
        if (d != ref(u, v))
          return "dist(" + std::to_string(u) + "," + std::to_string(v) +
                 ") != ref_apsp";
        // next_hop must be the first arc of a shortest u -> v path.
        const int h = out_.next_hop(u, v);
        const bool reachable = u != v && !MinPlusSemiring::is_inf(d);
        const bool on_path = reachable && h >= 0 && h < n_ &&
                             g.has_arc(u, h) &&
                             g.arc_weight(u, h) + ref(h, v) == d;
        if (reachable ? !on_path : h != -1)
          return "next_hop(" + std::to_string(u) + "," + std::to_string(v) +
                 ") is not on a shortest path";
      }
    return {};
  }

  [[nodiscard]] Pinned pinned() const override { return pin(out_); }

  [[nodiscard]] std::optional<Pinned> oracle(int i) const override {
    if (!with_oracle_) return std::nullopt;
    return oracles_[static_cast<std::size_t>(i)];
  }

 private:
  static Pinned pin(const ApspOutcome& out) {
    Pinned p;
    p.traffic = out.traffic;
    for (const auto c : out.engine_trace)
      ++(c == AutoEngineChoice::Sparse ? p.dispatch_sparse : p.dispatch_dense);
    return p;
  }

  int n_;
  clique::NodeSpan rows_;
  bool with_oracle_;
  std::vector<Graph> graphs_;
  std::vector<Matrix<std::int64_t>> refs_;
  std::vector<Pinned> oracles_;
  ApspOutcome out_;
};

/// Triangle counting (Cor. 2) on G(n, p): one dense product on a fresh
/// clique per solve.
class TrianglesWorkload final : public Workload {
 public:
  explicit TrianglesWorkload(int n) : n_(n) {}

  void make_inputs(std::uint64_t seed) override {
    for (int i = 0; i < kInputs; ++i)
      graphs_.push_back(gnp_random_graph(
          n_, 0.3, seed * 1000 + static_cast<std::uint64_t>(i)));
  }

  void make_references() override {
    for (const auto& g : graphs_) refs_.push_back(ref_count_triangles(g));
  }

  void run(int i) override {
    out_ = count_triangles_cc(graphs_[static_cast<std::size_t>(i)]);
  }

  [[nodiscard]] std::string check(int i) const override {
    const auto want = refs_[static_cast<std::size_t>(i)];
    if (out_.count == want) return {};
    return "triangle count " + std::to_string(out_.count) +
           " != ref_count_triangles " + std::to_string(want);
  }

  [[nodiscard]] Pinned pinned() const override {
    Pinned p;
    p.traffic = out_.traffic;
    return p;
  }

 private:
  int n_;
  std::vector<Graph> graphs_;
  std::vector<std::int64_t> refs_;
  CountOutcome out_;
};

/// Colour-coding k-cycle detection (Thm. 3) on a planted-cycle graph. How
/// many colourings a solve tries is luck (1 to 8 at noise 0.1), and it
/// would swing solve time between seeds far more than any host change. So
/// set-up picks, per input, the first colouring seed whose first colouring
/// already finds a cycle, and every solve runs exactly one trial. Noise 0.3
/// gives enough k-cycles that the first candidate seed almost always works.
class KCycleWorkload final : public Workload {
 public:
  KCycleWorkload(int n, int k, double noise) : n_(n), k_(k), noise_(noise) {}

  void make_inputs(std::uint64_t seed) override {
    for (int i = 0; i < kInputs; ++i)
      graphs_.push_back(planted_cycle_graph(
          n_, k_, noise_, seed * 1000 + static_cast<std::uint64_t>(i)));
    base_seed_ = seed;
  }

  void make_references() override {
    for (int i = 0; i < kInputs; ++i) {
      const Graph& g = graphs_[static_cast<std::size_t>(i)];
      if (!ref_has_k_cycle(g, k_))
        throw std::runtime_error("planted input has no k-cycle");
      const std::uint64_t first =
          (base_seed_ * 1000 + static_cast<std::uint64_t>(i)) * 1000;
      for (std::uint64_t s = first;; ++s) {
        if (s == first + 64)
          throw std::runtime_error("no one-trial colouring seed found");
        if (detect_k_cycle_cc(g, k_, s, /*max_trials=*/1).found) {
          seeds_.push_back(s);
          break;
        }
      }
    }
  }

  void run(int i) override {
    const auto ix = static_cast<std::size_t>(i);
    out_ = detect_k_cycle_cc(graphs_[ix], k_, seeds_[ix]);
  }

  [[nodiscard]] std::string check(int) const override {
    return out_.found ? std::string{} : std::string("planted cycle not found");
  }

  [[nodiscard]] Pinned pinned() const override {
    Pinned p;
    p.traffic = out_.traffic;
    p.trials = out_.trials;
    return p;
  }

 private:
  int n_;
  int k_;
  double noise_;
  std::uint64_t base_seed_ = 0;
  std::vector<std::uint64_t> seeds_;
  std::vector<Graph> graphs_;
  DetectOutcome out_;
};

// ---------------------------------------------------------------------------
// Closed-loop harness
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string trace_file;
  int rank = 0;
  int nprocs = 1;
  int port_base = 0;
};

struct Sample {
  int input;
  bool traced;
  std::int64_t solve_ns;
  std::int64_t sched_ns;
  TransportTotals transport;
  bool ok;
};

/// Rank 0 decides whether another solve runs; every rank learns it over
/// the mesh, so all ranks run the same solve count.
bool agree_to_continue(clique::SocketMesh& mesh, bool go) {
  std::byte out{static_cast<unsigned char>(go ? 1 : 0)};
  std::byte in{0};
  const std::span<const std::byte> o(&out, 1);
  const std::span<std::byte> r(&in, 1);
  if (mesh.rank() == 0) {
    for (int q = 1; q < mesh.nprocs(); ++q) mesh.exchange(q, o, r);
    return go;
  }
  mesh.exchange(0, o, r);
  return in != std::byte{0};
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "apsp-dense")
    return std::make_unique<ApspWorkload>(216, clique::NodeSpan{0, 216},
                                          /*with_oracle=*/false);
  if (o.workload == "apsp-socket")
    return std::make_unique<ApspWorkload>(
        216, clique::shard_span(semiring_clique_size(216), o.nprocs, o.rank),
        /*with_oracle=*/true);
  if (o.workload == "triangles-cold")
    return std::make_unique<TrianglesWorkload>(343);
  if (o.workload == "kcycle-small")
    return std::make_unique<KCycleWorkload>(24, 5, 0.3);
  throw std::invalid_argument("unknown workload " + o.workload);
}

void append_i64s(std::string& s, std::initializer_list<std::int64_t> vs) {
  s += '[';
  bool first = true;
  for (const auto v : vs) {
    if (!first) s += ',';
    s += std::to_string(v);
    first = false;
  }
  s += ']';
}

int run_workload(const Options& o) {
  auto w = make_workload(o);
  SpanRecorder rec;

  const auto ms_since = [](std::int64_t t0) {
    return static_cast<double>(now_ns() - t0) / 1e6;
  };
  std::shared_ptr<clique::SocketMesh> mesh;
  auto t = now_ns();
  if (o.nprocs > 1)
    mesh = clique::SocketMesh::connect_tcp(o.rank, o.nprocs, o.port_base);
  const auto connected_epoch = epoch_ns();
  const double connect_ms = ms_since(t);

  t = now_ns();
  w->make_inputs(o.seed);
  const double inputs_ms = ms_since(t);
  t = now_ns();
  w->make_references();
  const double reference_ms = ms_since(t);

  std::optional<clique::TransportScope> socket_scope;
  if (mesh) socket_scope.emplace(make_factory(mesh, nullptr));
  const auto timed_factory = make_factory(mesh, &rec);

  std::vector<std::optional<Pinned>> pins;
  for (int i = 0; i < kInputs; ++i) pins.push_back(w->oracle(i));
  std::int64_t failed = 0;
  int reported = 0;
  // Checks the latest solve of input i and returns whether it was right.
  const auto verify = [&](int i) {
    auto err = w->check(i);
    const auto got = w->pinned();
    auto& pin = pins[static_cast<std::size_t>(i)];
    if (err.empty() && pin) err = stats_mismatch(got, *pin);
    if (!pin) pin = got;
    if (err.empty()) return true;
    if (reported++ < 5)
      std::fprintf(stderr, "cca_bench[%s rank %d]: input %d: %s\n",
                   o.workload.c_str(), o.rank, i, err.c_str());
    ++failed;
    return false;
  };

  t = now_ns();
  for (int i = 0; i < kInputs; ++i) {
    w->run(i);
    verify(i);
  }
  const double warmup_ms = ms_since(t);
  const auto ready_epoch = epoch_ns();

  std::vector<Sample> samples;
  if (!o.setup_only) {
    const auto begin = now_ns();
    const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
    for (int s = 0;; ++s) {
      bool go = now_ns() - begin < budget;
      if (mesh) go = agree_to_continue(*mesh, go);
      if (!go) break;
      const int i = s % kInputs;
      const bool traced = o.trace && s % 2 == 1;
      std::optional<clique::TransportScope> timed;
      if (traced) {
        timed.emplace(timed_factory);
        rec.begin_solve(s);
      }
      const auto t0 = now_ns();
      w->run(i);
      const auto t1 = now_ns();
      if (traced) rec.end_solve(t0, t1);
      timed.reset();
      const bool ok = verify(i);
      samples.push_back({i, traced, t1 - t0,
                         w->pinned().traffic.schedule_wall_ns,
                         traced ? rec.totals() : TransportTotals{}, ok});
    }
  }
  socket_scope.reset();
  if (!o.trace_file.empty()) rec.write_chrome(o.trace_file, o.rank);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  std::string js = "{\"workload\":\"" + o.workload + "\"";
  js += ",\"rank\":" + std::to_string(o.rank);
  js += ",\"nprocs\":" + std::to_string(o.nprocs);
  js += ",\"workers\":" + std::to_string(parallel_workers());
  js += ",\"build_type\":\"" CCA_BENCH_BUILD_TYPE "\"";
  js += ",\"compiler\":\"" CCA_BENCH_COMPILER "\"";
  js += ",\"connected_epoch_ns\":" + std::to_string(connected_epoch);
  js += ",\"ready_epoch_ns\":" + std::to_string(ready_epoch);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                ",\"setup_ms\":{\"connect\":%.6f,\"inputs\":%.6f,"
                "\"reference\":%.6f,\"warmup\":%.6f}",
                connect_ms, inputs_ms, reference_ms, warmup_ms);
  js += buf;
  js += ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss);
  js += ",\"failed\":" + std::to_string(failed);
  // Per input: rounds, bound_rounds, supersteps, total_words, max_node_send,
  // max_node_recv, schedule_hits, schedule_misses, dispatch_sparse,
  // dispatch_dense, trials.
  js += ",\"inputs\":[";
  for (int i = 0; i < kInputs; ++i) {
    const Pinned& p = *pins[static_cast<std::size_t>(i)];
    const auto& tr = p.traffic;
    if (i > 0) js += ',';
    append_i64s(js, {tr.rounds, tr.bound_rounds, tr.supersteps, tr.total_words,
                     tr.max_node_send, tr.max_node_recv, tr.schedule_hits,
                     tr.schedule_misses, p.dispatch_sparse, p.dispatch_dense,
                     p.trials});
  }
  // Per solve: input, traced, solve_ns, sched_ns, deliver_ns, deliver_calls,
  // allgather_ns, allgather_calls, ok.
  js += "],\"solves\":[";
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const auto& s = samples[k];
    if (k > 0) js += ',';
    append_i64s(js, {s.input, s.traced, s.solve_ns, s.sched_ns,
                     s.transport.deliver_ns, s.transport.deliver_calls,
                     s.transport.allgather_ns, s.transport.allgather_calls,
                     s.ok});
  }
  js += "]}";
  std::printf("%s\n", js.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: the decorator must be invisible to the library.
// ---------------------------------------------------------------------------

int g_selftest_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "cca_bench --selftest: FAIL: %s\n", what.c_str());
  ++g_selftest_failures;
}

void expect_same(const Pinned& got, const Pinned& want, const std::string& what) {
  const auto err = stats_mismatch(got, want);
  expect(err.empty(), what + ": " + err);
}

Pinned pin_traffic(const clique::TrafficStats& t) {
  Pinned p;
  p.traffic = t;
  return p;
}

/// Runs `body` with and without the TimedTransport over the arena and
/// returns the recorder's deliver count, for the caller to compare the two
/// outcomes.
template <typename Body>
std::int64_t traced_arena(Body&& body) {
  SpanRecorder rec;
  clique::TransportScope scope(make_factory(nullptr, &rec));
  rec.begin_solve(0);
  body();
  return rec.totals().deliver_calls;
}

void selftest_arena() {
  const auto g = random_weighted_graph(27, 0.3, 1, 50, 11, /*directed=*/true);
  const auto plain = apsp_semiring(g);
  ApspOutcome timed;
  const auto calls = traced_arena([&] { timed = apsp_semiring(g); });
  expect(timed.dist == plain.dist && timed.next_hop == plain.next_hop,
         "apsp n=27 outputs");
  expect(timed.engine_trace == plain.engine_trace, "apsp n=27 engine trace");
  expect_same(pin_traffic(timed.traffic), pin_traffic(plain.traffic),
              "apsp n=27 stats");
  expect(calls == plain.traffic.supersteps, "apsp n=27 deliver spans");

  const auto tg = gnp_random_graph(27, 0.3, 12);
  const auto tplain = count_triangles_cc(tg);
  CountOutcome ttimed;
  traced_arena([&] { ttimed = count_triangles_cc(tg); });
  expect(ttimed.count == tplain.count, "triangles n=27 count");
  expect_same(pin_traffic(ttimed.traffic), pin_traffic(tplain.traffic),
              "triangles n=27 stats");

  const auto kg = planted_cycle_graph(12, 5, 0.1, 13);
  const auto kplain = detect_k_cycle_cc(kg, 5, 13);
  DetectOutcome ktimed;
  traced_arena([&] { ktimed = detect_k_cycle_cc(kg, 5, 13); });
  expect(ktimed.found == kplain.found && ktimed.trials == kplain.trials,
         "kcycle n=12 outcome");
  expect_same(pin_traffic(ktimed.traffic), pin_traffic(kplain.traffic),
              "kcycle n=12 stats");
}

/// P = 2 over a socketpair, one thread per rank: plain and timed socket
/// runs must both reproduce the in-process oracle on their owned rows.
void selftest_socket() {
  const int n = 27;
  const auto g = random_weighted_graph(n, 0.3, 1, 50, 14, /*directed=*/true);
  const auto oracle = apsp_semiring(g);

  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
    throw std::runtime_error("socketpair failed");
  std::shared_ptr<clique::SocketMesh> meshes[2] = {
      std::make_shared<clique::SocketMesh>(0, 2, std::vector<int>{-1, sv[0]}),
      std::make_shared<clique::SocketMesh>(1, 2, std::vector<int>{sv[1], -1})};

  std::string errors[2];
  const auto rank_body = [&](int r) {
    try {
      for (const bool traced : {false, true}) {
        SpanRecorder rec;
        clique::TransportScope scope(
            make_factory(meshes[r], traced ? &rec : nullptr));
        rec.begin_solve(0);
        const auto got = apsp_semiring(g);
        const auto own = clique::shard_span(semiring_clique_size(n), 2, r);
        bool rows_match = true;
        for (int u = own.begin; u < std::min(own.end, n); ++u)
          for (int v = 0; v < n; ++v)
            rows_match = rows_match && got.dist(u, v) == oracle.dist(u, v) &&
                         got.next_hop(u, v) == oracle.next_hop(u, v);
        if (!rows_match) errors[r] += " owned rows differ;";
        if (got.engine_trace != oracle.engine_trace)
          errors[r] += " engine trace;";
        const auto err = stats_mismatch(pin_traffic(got.traffic),
                                        pin_traffic(oracle.traffic));
        if (!err.empty()) errors[r] += " " + err + ";";
        if (traced && (rec.totals().deliver_calls != got.traffic.supersteps ||
                       rec.totals().allgather_calls == 0))
          errors[r] += " transport spans missing;";
      }
    } catch (const std::exception& e) {
      errors[r] += std::string(" ") + e.what();
    }
  };
  std::thread t1([&] { rank_body(1); });
  rank_body(0);
  t1.join();
  for (int r = 0; r < 2; ++r)
    expect(errors[r].empty(),
           "socket P=2 n=27 rank " + std::to_string(r) + ":" + errors[r]);
}

int selftest() {
  selftest_arena();
  selftest_socket();
  if (g_selftest_failures > 0) return 1;
  std::printf("cca_bench --selftest: OK (apsp n=27, triangles n=27, "
              "kcycle n=12, socket P=2 n=27)\n");
  return 0;
}

[[noreturn]] void usage_fail(const std::string& msg) {
  std::fprintf(stderr,
               "cca_bench: %s\n"
               "usage: cca_bench --selftest\n"
               "       cca_bench --workload W --seed S --seconds T [--trace] "
               "[--setup-only] [--trace-file F]\n"
               "                 [--rank R --nprocs P --port-base B]\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage_fail(a + " needs a value");
      return argv[++i];
    };
    if (a == "--selftest")
      self = true;
    else if (a == "--workload")
      o.workload = need();
    else if (a == "--seed")
      o.seed = std::strtoull(need().c_str(), nullptr, 10);
    else if (a == "--seconds")
      o.seconds = std::atof(need().c_str());
    else if (a == "--trace")
      o.trace = true;
    else if (a == "--setup-only")
      o.setup_only = true;
    else if (a == "--trace-file")
      o.trace_file = need();
    else if (a == "--rank")
      o.rank = std::atoi(need().c_str());
    else if (a == "--nprocs")
      o.nprocs = std::atoi(need().c_str());
    else if (a == "--port-base")
      o.port_base = std::atoi(need().c_str());
    else
      usage_fail("unknown flag " + a);
  }
  try {
    if (self) return selftest();
    if (o.workload.empty()) usage_fail("--workload required");
    if (o.nprocs < 1 || o.rank < 0 || o.rank >= o.nprocs)
      usage_fail("--rank/--nprocs out of range");
    if (o.nprocs > 1 && o.port_base <= 0)
      usage_fail("--port-base required with --nprocs > 1");
    if (!(o.seconds > 0)) usage_fail("--seconds must be positive");
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cca_bench[%s rank %d]: FATAL: %s\n",
                 o.workload.c_str(), o.rank, e.what());
    return 3;
  }
}
