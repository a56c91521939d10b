// Table 1 rows "triangle counting", "4-cycle counting", "4-cycle detection":
// this-work engines vs prior-work baselines, rounds vs n.
//
// Paper bounds: counting O(n^rho) (prior: Dolev et al. O(n^{1/3})),
// 4-cycle detection O(1) (prior: O~(n^{1/2}) via Dolev subgraph detection).
#include <cstdio>

#include "bench_common.hpp"
#include "core/baseline.hpp"
#include "core/counting.hpp"
#include "core/four_cycle.hpp"
#include "graph/generators.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  cca::bench::print_header("Table 1: triangle / 4-cycle counting rounds");

  Series tri_fast{"triangles fast", {}, {}};
  Series tri_semi{"triangles 3D (prior)", {}, {}};
  Series c4_fast{"4-cycles fast", {}, {}};
  Series c5_fast{"5-cycles fast", {}, {}};
  for (const int n : {27, 64, 125, 216, 343}) {
    const auto g = gnp_random_graph(n, 8.0 / n, 7 + static_cast<std::uint64_t>(n));
    tri_fast.add(n, static_cast<double>(count_triangles_cc(g, MmKind::Fast).traffic.rounds));
    tri_semi.add(n, static_cast<double>(
                        count_triangles_cc(g, MmKind::Semiring3D).traffic.rounds));
    c4_fast.add(n, static_cast<double>(count_4cycles_cc(g, MmKind::Fast).traffic.rounds));
    c5_fast.add(n, static_cast<double>(count_5cycles_cc(g, MmKind::Fast).traffic.rounds));
  }
  cca::bench::print_series_table({tri_fast, tri_semi, c4_fast, c5_fast});
  cca::bench::print_fit(tri_fast, "O(n^rho), rho = 0.288 implemented (0.158 w/ Le Gall)");
  cca::bench::print_fit(tri_semi, "O(n^{1/3}) (Dolev et al. partition = 3D semiring)");
  cca::bench::print_fit(c4_fast, "O(n^rho)");
  cca::bench::print_fit(c5_fast, "O(n^rho) (two products; k=5 trace formula)");

  cca::bench::print_header(
      "Table 1: 4-cycle DETECTION — Theorem 4 O(1) vs counting vs Dolev prior");

  Series det_const{"Thm 4 detector", {}, {}};
  Series det_dolev{"Dolev k=4 (prior)", {}, {}};
  Series det_count{"via counting", {}, {}};
  for (const int n : {64, 128, 256, 512}) {
    // Sparse worst case for the detector: no early exit.
    const auto g = gnp_random_graph(n, 2.5 / n, 11 + static_cast<std::uint64_t>(n));
    det_const.add(n, static_cast<double>(detect_4cycle_const(g).traffic.rounds));
    det_dolev.add(n, static_cast<double>(detect_k_cycle_dolev(g, 4).traffic.rounds));
    det_count.add(n, static_cast<double>(count_4cycles_cc(g).traffic.rounds));
  }
  cca::bench::print_series_table({det_const, det_dolev, det_count});
  cca::bench::print_fit(det_const, "O(1)  <- must be flat");
  cca::bench::print_fit(det_dolev, "O~(n^{1/2}) (prior work)");
  cca::bench::print_fit(det_count, "O(n^rho)");

  std::printf("\nDense instances (phase-1 pigeonhole shortcut of Theorem 4):\n");
  for (const int n : {64, 256}) {
    const auto g = gnp_random_graph(n, 0.5, 3);
    const auto r = detect_4cycle_const(g);
    std::printf("  n=%4d dense: found=%d rounds=%lld\n", n, r.found ? 1 : 0,
                static_cast<long long>(r.traffic.rounds));
  }

  cca::bench::print_header(
      "Sparse workloads: triangle counting with the nnz-adaptive engine");

  // Power-law graphs at ~2n edges — the regime real social workloads live
  // in, where the dense engines pay their full n^rho regardless while the
  // Auto engine's announcement routes everything through the sparse path.
  Series spa_auto{"auto (sparse path)", {}, {}};
  Series spa_fast{"fast (dense)", {}, {}};
  Series spa_semi{"3D (dense)", {}, {}};
  for (const int n : {27, 64, 125, 216, 343}) {
    const auto g = power_law_graph(n, 2 * static_cast<std::int64_t>(n), 2.3,
                                   31 + static_cast<std::uint64_t>(n));
    spa_auto.add(n, static_cast<double>(
                        count_triangles_cc(g, MmKind::Auto).traffic.rounds));
    spa_fast.add(n, static_cast<double>(
                        count_triangles_cc(g, MmKind::Fast).traffic.rounds));
    spa_semi.add(n, static_cast<double>(
                        count_triangles_cc(g, MmKind::Semiring3D).traffic.rounds));
  }
  cca::bench::print_series_table({spa_auto, spa_fast, spa_semi});
  cca::bench::print_fit(spa_auto, "near-flat: rounds follow nnz, not n");
  cca::bench::print_fit(spa_fast, "O(n^rho) regardless of density");
  cca::bench::print_fit(spa_semi, "O(n^{1/3}) regardless of density");

  std::printf(
      "\nMedium density (p = 0.05): the prior baseline's cost grows with the "
      "edge volume while Theorem 4 stays flat:\n");
  Series med_const{"Thm 4", {}, {}};
  Series med_dolev{"Dolev k=4", {}, {}};
  for (const int n : {64, 128, 256, 512}) {
    const auto g = gnp_random_graph(n, 0.05, 21 + static_cast<std::uint64_t>(n));
    med_const.add(n, static_cast<double>(detect_4cycle_const(g).traffic.rounds));
    med_dolev.add(n, static_cast<double>(detect_k_cycle_dolev(g, 4).traffic.rounds));
  }
  cca::bench::print_series_table({med_const, med_dolev});
  cca::bench::print_fit(med_const, "O(1)");
  cca::bench::print_fit(med_dolev, "grows with m k^2 q^{k-2} / n");
  return 0;
}
