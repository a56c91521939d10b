// Table 1 APSP rows: exact weighted (Corollary 6), unweighted undirected
// via Seidel (Corollary 7), (1+o(1))-approximate weighted (Theorem 9), and
// the naive learn-everything baseline.
//
// `--json` writes BENCH_apsp.json (label, clique_n, rounds, wall ns/op) so
// the perf trajectory of the APSP path is tracked per PR alongside
// BENCH_mm.json; `--smoke` restricts to tiny sizes for the CI smoke step.
#include <cstdio>
#include <limits>
#include <utility>

#include "bench_common.hpp"
#include "clique/fault.hpp"
#include "core/apsp.hpp"
#include "core/baseline.hpp"
#include "graph/generators.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

}  // namespace

namespace {

char choice_letter(AutoEngineChoice c) {
  switch (c) {
    case AutoEngineChoice::Sparse: return 'S';
    case AutoEngineChoice::Semiring3D: return '3';
    case AutoEngineChoice::Fast: return 'F';
    case AutoEngineChoice::Naive: return 'N';
  }
  return '?';
}

void print_trace(const std::vector<AutoEngineChoice>& trace) {
  std::printf("trace=[");
  for (std::size_t i = 0; i < trace.size(); ++i)
    std::printf("%s%c", i ? " " : "", choice_letter(trace[i]));
  std::printf("]");
}

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(
      argc, argv, {"--json", "--smoke", "--sparse", "--faults"});
  cca::bench::JsonReport json("apsp", argc, argv);
  const bool smoke = cca::bench::has_flag(argc, argv, "--smoke");

  cca::bench::print_header(
      "Sparsity-adaptive APSP: per-iteration nnz dispatch vs fixed 3D "
      "(sparse inputs, nnz ~ 8n)");
  // The tentpole series: apsp_semiring's Auto path re-plans every squaring
  // from the CURRENT iterate's finite-entry announcement, so the first
  // squarings of a sparse graph run the sparse engine and the dispatcher
  // flips to a locked dense engine once squaring has densified the
  // distance matrix (the per-iteration trace below; S = sparse, 3 = dense
  // 3D). Rounds must be strictly below the fixed Semiring3D path at these
  // densities, with element-identical distances and routing tables
  // (test_sparse.cpp pins the flip, test_traffic_regression the stats).
  {
    Series aut{"auto (per-iter dispatch)", {}, {}};
    Series fix{"fixed Semiring3D", {}, {}};
    const std::vector<int> sparse_sizes =
        smoke ? std::vector<int>{27, 64} : std::vector<int>{27, 64, 125, 216};
    // One untimed warmup then min-of-3 timed reps per engine: single-op
    // cold measurements on this series fluctuate +-15% (allocator and page
    // warmup dominate the first run), which previously made the committed
    // wall columns irreproducible. Rounds are deterministic — asserted
    // identical across reps.
    const int kReps = 3;
    auto measure = [&](const Graph& g, MmKind kind) {
      auto best = apsp_semiring(g, kind);  // warmup (untimed)
      std::int64_t min_wall = std::numeric_limits<std::int64_t>::max();
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = cca::bench::now_ns();
        auto res = apsp_semiring(g, kind);
        const auto t1 = cca::bench::now_ns();
        CCA_ASSERT(res.traffic.rounds == best.traffic.rounds);
        if (t1 - t0 < min_wall) {
          min_wall = t1 - t0;
          best = std::move(res);
        }
      }
      return std::pair{std::move(best), min_wall};
    };
    for (const int n : sparse_sizes) {
      const auto g = random_weighted_graph(n, 8.0 / n, 1, 50,
                                           5 + static_cast<std::uint64_t>(n));
      const auto [ra, wa] = measure(g, MmKind::Auto);
      const auto [rf, wf] = measure(g, MmKind::Semiring3D);
      json.add("apsp_auto_sparse", n, ra.traffic.rounds, wa);
      json.add("apsp_3d_sparse", n, rf.traffic.rounds, wf);
      aut.add(n, static_cast<double>(ra.traffic.rounds));
      fix.add(n, static_cast<double>(rf.traffic.rounds));
      // sched = host ns inside the relay scheduler (TrafficStats::
      // schedule_wall_ns); hits/misses = schedule-cache counters. The pair
      // of sched columns is the wall-clock story of this series: planning
      // cost is what separated auto from 3d before the parallel split,
      // demand quantisation and message alignment.
      std::printf(
          "  n=%3d  auto=%5lld (%6.2f ms, sched %5.2f, hit %lld/%lld)  "
          "3d=%5lld (%6.2f ms, sched %5.2f)  ",
          n, static_cast<long long>(ra.traffic.rounds),
          static_cast<double>(wa) * 1e-6,
          static_cast<double>(ra.traffic.schedule_wall_ns) * 1e-6,
          static_cast<long long>(ra.traffic.schedule_hits),
          static_cast<long long>(ra.traffic.schedule_hits +
                                 ra.traffic.schedule_misses),
          static_cast<long long>(rf.traffic.rounds),
          static_cast<double>(wf) * 1e-6,
          static_cast<double>(rf.traffic.schedule_wall_ns) * 1e-6);
      print_trace(ra.engine_trace);
      std::printf("\n");
    }
    cca::bench::print_series_table({aut, fix});

    // Power-law (Chung-Lu) inputs: the heavy-tailed degree profile the
    // sparse engine's sqrt-capped worker groups absorb.
    Series plaw{"auto on power-law", {}, {}};
    const std::vector<int> plaw_sizes =
        smoke ? std::vector<int>{64} : std::vector<int>{64, 125, 216};
    for (const int n : plaw_sizes) {
      const auto g = power_law_graph(n, 3 * n, 2.2,
                                     7 + static_cast<std::uint64_t>(n));
      const auto t0 = cca::bench::now_ns();
      const auto r = apsp_semiring(g);
      const auto t1 = cca::bench::now_ns();
      json.add("apsp_auto_plaw", n, r.traffic.rounds, t1 - t0);
      plaw.add(n, static_cast<double>(r.traffic.rounds));
      std::printf("  n=%3d  auto=%5lld  ", n,
                  static_cast<long long>(r.traffic.rounds));
      print_trace(r.engine_trace);
      std::printf("\n");
    }
    cca::bench::print_series_table({plaw});
  }

  // --sparse: density sweep at fixed n — where does the ITERATED workload
  // stop profiting from per-iteration dispatch? Source of the README
  // "Choosing an MmKind" crossover table; diagnostic only (no json rows).
  if (cca::bench::has_flag(argc, argv, "--sparse")) {
    const int n = 216;
    std::printf("\nper-iteration dispatch crossover at n=%d (m = avg "
                "edges/node):\n", n);
    std::printf("  %6s  %8s  %8s  %6s  trace\n", "m/n", "auto", "3d", "win");
    for (const double mpn : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
      const auto g = random_weighted_graph(n, 2.0 * mpn / n, 1, 50, 9);
      const auto ra = apsp_semiring(g);
      const auto rf = apsp_semiring(g, MmKind::Semiring3D);
      std::printf("  %6.1f  %8lld  %8lld  %5.2fx  ", mpn,
                  static_cast<long long>(ra.traffic.rounds),
                  static_cast<long long>(rf.traffic.rounds),
                  static_cast<double>(rf.traffic.rounds) /
                      static_cast<double>(ra.traffic.rounds));
      print_trace(ra.engine_trace);
      std::printf("\n");
    }
    std::printf("(--sparse is a diagnostic mode; json rows are unchanged)\n");
  }

  cca::bench::print_header(
      "Table 1: weighted directed APSP (Corollary 6, semiring squaring)");
  Series exact{"semiring APSP", {}, {}};
  Series naive{"naive learn-all", {}, {}};
  const std::vector<int> exact_sizes =
      smoke ? std::vector<int>{27} : std::vector<int>{27, 64, 125, 216};
  for (const int n : exact_sizes) {
    const auto g = random_weighted_graph(n, 0.3, 1, 50,
                                         3 + static_cast<std::uint64_t>(n),
                                         /*directed=*/true);
    const auto t0 = cca::bench::now_ns();
    const auto r = apsp_semiring(g);
    const auto t1 = cca::bench::now_ns();
    json.add("apsp_semiring", n, r.traffic.rounds, t1 - t0);
    exact.add(n, static_cast<double>(r.traffic.rounds));
    naive.add(n, static_cast<double>(apsp_naive_learn(g).traffic.rounds));
  }
  cca::bench::print_series_table({exact, naive});
  cca::bench::print_fit(exact, "O(n^{1/3} log n)");
  cca::bench::print_fit(naive, "O(m/n) = O(n) dense");

  cca::bench::print_header(
      "Lemma 19: distance-bounded APSP (ring embedding, iterated squaring)");
  // The iterated dp_ring_embedded squarings stage byte-identical traffic
  // shapes, so this series is dominated by how fast the router schedules a
  // repeated shape — the schedule cache's target workload.
  Series bounded{"bounded APSP (M=8)", {}, {}};
  const std::vector<int> bounded_sizes =
      smoke ? std::vector<int>{16} : std::vector<int>{16, 25, 49};
  for (const int n : bounded_sizes) {
    const auto g = random_weighted_graph(n, 0.4, 1, 4,
                                         5 + static_cast<std::uint64_t>(n),
                                         /*directed=*/false);
    const auto t0 = cca::bench::now_ns();
    const auto r = apsp_bounded(g, /*m_bound=*/8);
    const auto t1 = cca::bench::now_ns();
    json.add("apsp_bounded", n, r.traffic.rounds, t1 - t0);
    bounded.add(n, static_cast<double>(r.traffic.rounds));
  }
  cca::bench::print_series_table({bounded});
  cca::bench::print_fit(bounded, "O(M n^rho log n)");

  cca::bench::print_header(
      "Table 1: unweighted undirected APSP (Corollary 7, Seidel)");
  Series seidel{"Seidel", {}, {}};
  const std::vector<int> seidel_sizes =
      smoke ? std::vector<int>{36} : std::vector<int>{36, 64, 121, 196};
  for (const int n : seidel_sizes) {
    const auto g = gnp_random_graph(n, 3.0 / n, 11 + static_cast<std::uint64_t>(n));
    const auto t0 = cca::bench::now_ns();
    const auto r = apsp_seidel(g);
    const auto t1 = cca::bench::now_ns();
    json.add("apsp_seidel", n, r.traffic.rounds, t1 - t0);
    seidel.add(n, static_cast<double>(r.traffic.rounds));
  }
  cca::bench::print_series_table({seidel});
  cca::bench::print_fit(seidel, "O~(n^rho) (rho = 0.288 implemented)");

  cca::bench::print_header(
      "Table 1: (1+o(1))-approximate APSP (Theorem 9) — rounds vs delta, "
      "measured error");
  const int n_apx = 36;
  const auto g = random_weighted_graph(n_apx, 0.3, 1, 400, 21, true);
  const auto truth = apsp_semiring(g);
  const std::vector<double> deltas =
      smoke ? std::vector<double>{0.5} : std::vector<double>{0.5, 0.25, 0.1};
  for (const double delta : deltas) {
    const auto t0 = cca::bench::now_ns();
    const auto approx = apsp_approx(g, delta);
    const auto t1 = cca::bench::now_ns();
    double worst = 1.0;
    for (int u = 0; u < n_apx; ++u)
      for (int v = 0; v < n_apx; ++v)
        if (truth.dist(u, v) > 0 &&
            truth.dist(u, v) < 1000000000LL)
          worst = std::max(worst, static_cast<double>(approx.dist(u, v)) /
                                      static_cast<double>(truth.dist(u, v)));
    std::printf("  delta=%.2f  rounds=%6lld  worst measured ratio=%.4f\n",
                delta, static_cast<long long>(approx.traffic.rounds), worst);
    char label[32];
    std::snprintf(label, sizeof label, "apsp_approx_d%02d",
                  static_cast<int>(delta * 100));
    json.add(label, n_apx, approx.traffic.rounds, t1 - t0);
  }
  std::printf("(ratio must stay below (1+delta)^ceil(log2 n); smaller delta "
              "costs ~1/delta^2 more rounds — Lemma 20's trade-off)\n");

  // --faults: the fault-tolerance overhead story. The SAME inputs as the
  // apsp_semiring series run under a fixed seeded fault mix; the distances
  // must come out bit-identical (recovery is exact, never approximate), so
  // the only thing this series measures is the PRICE of integrity: checksum
  // trailers, verification rounds, and charged retransmissions. The
  // fault-free rows above are emitted before any plan is installed and stay
  // bit-identical whether or not this flag is passed.
  if (cca::bench::has_flag(argc, argv, "--faults")) {
    cca::bench::print_header(
        "Fault-tolerant data plane: exact APSP under drop 5% / corrupt 5% / "
        "duplicate 2% (bit-identical distances, charged recovery)");
    Series faulty{"APSP under fault mix", {}, {}};
    clique::FaultPlan plan;
    plan.seed = 0xfa17;
    plan.drop_prob = 0.05;
    plan.corrupt_prob = 0.05;
    plan.duplicate_prob = 0.02;
    const std::vector<int> fault_sizes =
        smoke ? std::vector<int>{27} : std::vector<int>{27, 64, 125};
    for (const int n : fault_sizes) {
      const auto gf = random_weighted_graph(
          n, 0.3, 1, 50, 3 + static_cast<std::uint64_t>(n), /*directed=*/true);
      const auto clean = apsp_semiring(gf);
      clique::FaultScope scope(plan);
      const auto t0 = cca::bench::now_ns();
      const auto r = apsp_semiring(gf);
      const auto t1 = cca::bench::now_ns();
      CCA_ASSERT(r.dist == clean.dist);  // never a silent wrong answer
      json.add("apsp_fault_mix", n, r.traffic.rounds, t1 - t0);
      faulty.add(n, static_cast<double>(r.traffic.rounds));
      std::printf(
          "  n=%3d  rounds=%6lld (clean %6lld, %.2fx)  faults=%4lld  "
          "retrans=%5lld rounds / %7lld words  recovery=%6.2f ms\n", n,
          static_cast<long long>(r.traffic.rounds),
          static_cast<long long>(clean.traffic.rounds),
          static_cast<double>(r.traffic.rounds) /
              static_cast<double>(clean.traffic.rounds),
          static_cast<long long>(r.traffic.faults_injected),
          static_cast<long long>(r.traffic.retransmit_rounds),
          static_cast<long long>(r.traffic.retransmit_words),
          static_cast<double>(r.traffic.recovery_wall_ns) * 1e-6);
    }
    cca::bench::print_series_table({faulty});
    json.note(
        "fault series (PR 7): apsp_fault_mix reruns the apsp_semiring "
        "inputs under a seeded FaultPlan (drop 5%, corrupt 2-of-coin 5%, "
        "duplicate 2%) through the hardened data plane: SplitMix64 frame "
        "checksums, one verification round per superstep, and bounded "
        "retransmission charged into rounds/retransmit_rounds. Distances "
        "are asserted bit-identical to the fault-free run — the row "
        "measures the integrity overhead, not an approximation.");
  }
  json.note(
      "per-iteration dispatch (PR 5): apsp_semiring defaults to MmKind::Auto "
      "— every squaring re-plans from the current iterate's finite-entry "
      "announcement, runs sparse until squaring densifies the matrix, then "
      "locks the dense engine (hysteresis, no further announcements). The "
      "apsp_auto_sparse vs apsp_3d_sparse rows pin the win at nnz ~ 8n; the "
      "remaining series also moved vs PR 4 because the convergence-vote "
      "bugfix stops the squaring loop at the fixed point instead of running "
      "all log n iterations, and apsp_bounded/apsp_approx/apsp_seidel now "
      "dispatch per iteration too.");
  json.note(
      "scheduler wall-clock (PR 6): the sparse-series wall columns are now "
      "min-of-3 after one warmup (cold single-op walls fluctuated +-15%). "
      "The auto-vs-3d wall gap closed from 3.6x at n=216 to parity: the "
      "dispatcher evaluates dense candidates first and aborts sparse plans "
      "against the concrete dense cost with per-phase volume lower bounds, "
      "and the sparse distribute/contribute messages align to 4 (contribute "
      "8 from n >= 200) words so the Euler split's identical-halves "
      "collapse prunes the first levels of every aligned phase. Rounds "
      "moved only by the charged padding (auto still wins every sparse row "
      "from n = 64 up; n = 27 keeps its documented +-1-round exception). "
      "The remaining n = 64 auto wall premium (~1 ms/op) is structural: "
      "rounds-first dispatch must pick sparse at 17-vs-24 rounds, and the "
      "sparse plan's Euler split + execution costs more host time than the "
      "dense engine's cached schedule at that size.");
  json.note(
      "schedule-cache finding (PR 3): every iterated-squaring workload here "
      "stages byte-identical demand shapes per iteration, so the Koenig "
      "Euler-split runs once per shape and replays from the cache. Measured "
      "against the PR 2 baselines on one machine, with bit-identical "
      "rounds: apsp_semiring 1.9-3.8x wall (1.2x at the small n=64 point "
      "where scheduling was not dominant), apsp_seidel 1.5-4.7x, "
      "apsp_approx 4.7-6.3x, apsp_bounded 1.6-2.6x vs the pre-cache "
      "library.");
  json.write();
  return 0;
}
