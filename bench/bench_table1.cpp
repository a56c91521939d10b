// The aggregate Table 1 reproduction: one row per paper entry, with the
// paper's asymptotic bound, the bound for the implemented sigma (Strassen),
// and the measured exponent / rounds from a small sweep. The per-topic
// binaries (bench_mm, bench_subgraph, ...) print the full sweeps behind
// these summaries.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "clique/network.hpp"
#include "core/apsp.hpp"
#include "core/baseline.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/four_cycle.hpp"
#include "core/girth.hpp"
#include "core/mm_dense.hpp"
#include "graph/generators.hpp"
#include "matrix/codec.hpp"
#include "util/fit.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace cca;
using namespace cca::core;

Matrix<std::int64_t> random_matrix(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(0, 100);
  return m;
}

std::string fit_cell(const std::vector<double>& ns,
                     const std::vector<double>& rounds) {
  const auto f = fit_power_law(ns, rounds);
  char buf[64];
  std::snprintf(buf, sizeof buf, "n^%.2f", f.exponent);
  return buf;
}

/// "n^B (sched n^S)": B fits the schedule-independent per-node volume
/// bound, S the measured Koenig-relay schedule (see clique/network.hpp).
std::string fit_cell2(const std::vector<double>& ns,
                      const std::vector<double>& bound,
                      const std::vector<double>& sched) {
  const auto fb = fit_power_law(ns, bound);
  const auto fs = fit_power_law(ns, sched);
  char buf[80];
  std::snprintf(buf, sizeof buf, "n^%.2f (sched n^%.2f)", fb.exponent,
                fs.exponent);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  std::printf("Reproduction of Table 1 (PODC 2015): measured on the exact-\n"
              "accounting clique simulator; fast engine = Strassen tensor\n"
              "(sigma = log2 7 = 2.807, so implemented rho = 0.288; the\n"
              "paper's 0.158 assumes omega < 2.3729).\n");

  Table t({"problem", "paper (this work)", "implemented bound", "measured",
           "prior work (implemented)"});

  {  // Matrix multiplication, semiring.
    std::vector<double> ns, rs, bs;
    for (const int n : {27, 64, 125, 216, 343, 512}) {
      clique::Network net(n);
      const IntRing ring;
      const I64Codec codec;
      (void)mm_semiring_3d(net, ring, codec, random_matrix(n, 1),
                           random_matrix(n, 2));
      ns.push_back(n);
      rs.push_back(static_cast<double>(net.stats().rounds));
      bs.push_back(static_cast<double>(net.stats().bound_rounds));
    }
    t.add_row({"MM (semiring)", "O(n^{1/3})", "O(n^{1/3})",
               fit_cell2(ns, bs, rs), "-"});
  }

  {  // Matrix multiplication, ring (matched-depth family).
    std::vector<double> ns, rs, bs;
    for (const auto& [n, depth] :
         std::initializer_list<std::pair<int, int>>{{7, 1}, {49, 2}, {343, 3}}) {
      const auto plan = plan_fast_mm(n, depth);
      clique::Network net(plan.clique_n);
      const IntRing ring;
      const I64Codec codec;
      const auto alg = tensor_power(strassen_algorithm(), depth);
      (void)mm_fast_bilinear(
          net, ring, codec, alg,
          pad_matrix(random_matrix(n, 1), plan.clique_n, std::int64_t{0}),
          pad_matrix(random_matrix(n, 2), plan.clique_n, std::int64_t{0}));
      ns.push_back(plan.clique_n);
      rs.push_back(static_cast<double>(net.stats().rounds));
      bs.push_back(static_cast<double>(net.stats().bound_rounds));
    }
    t.add_row({"MM (ring)", "O(n^{0.158})", "O(n^{0.288})",
               fit_cell2(ns, bs, rs), "O(n^{0.373}) [25] (not impl.)"});
  }

  {  // Triangle counting.
    std::vector<double> ns, rs, bs, ps;
    for (const int n : {27, 64, 125, 216}) {
      const auto g = gnp_random_graph(n, 8.0 / n, 3);
      ns.push_back(n);
      const auto fast = count_triangles_cc(g, MmKind::Fast);
      rs.push_back(static_cast<double>(fast.traffic.rounds));
      bs.push_back(static_cast<double>(fast.traffic.bound_rounds));
      ps.push_back(static_cast<double>(
          count_triangles_cc(g, MmKind::Semiring3D).traffic.bound_rounds));
    }
    t.add_row({"triangle counting", "O(n^{0.158})", "O(n^{0.288})",
               fit_cell2(ns, bs, rs), fit_cell(ns, ps) + " (3D partition [24])"});
  }

  {  // 4-cycle detection (Theorem 4) vs Dolev baseline.
    std::int64_t r64 = 0, r512 = 0;
    std::vector<double> ns, ds;
    for (const int n : {64, 128, 256, 512}) {
      const auto g = gnp_random_graph(n, 2.5 / n, 4);
      const auto r = detect_4cycle_const(g).traffic.rounds;
      if (n == 64) r64 = r;
      if (n == 512) r512 = r;
      if (n <= 256) {
        ns.push_back(n);
        ds.push_back(static_cast<double>(detect_k_cycle_dolev(g, 4).traffic.rounds));
      }
    }
    char cell[64];
    std::snprintf(cell, sizeof cell, "%lld @64 -> %lld @512 (flat)",
                  static_cast<long long>(r64), static_cast<long long>(r512));
    t.add_row({"4-cycle detection", "O(1)", "O(1)", cell,
               fit_cell(ns, ds) + " (Dolev [24])"});
  }

  {  // 4-cycle counting.
    std::vector<double> ns, rs, bs;
    for (const int n : {27, 64, 125, 216}) {
      const auto g = gnp_random_graph(n, 8.0 / n, 5);
      ns.push_back(n);
      const auto r = count_4cycles_cc(g);
      rs.push_back(static_cast<double>(r.traffic.rounds));
      bs.push_back(static_cast<double>(r.traffic.bound_rounds));
    }
    t.add_row({"4-cycle counting", "O(n^{0.158})", "O(n^{0.288})",
               fit_cell2(ns, bs, rs), "O~(n^{1/2}) [24]"});
  }

  {  // k-cycle detection (k = 5), fixed trial budget.
    std::vector<double> ns, rs, bs, ds;
    for (const int n : {32, 64, 128}) {
      const auto g = planted_cycle_graph(n, 5, 2.0 / n, 6);
      ns.push_back(n);
      const auto r = detect_k_cycle_cc(g, 5, 9, /*max_trials=*/2);
      rs.push_back(static_cast<double>(r.traffic.rounds));
      bs.push_back(static_cast<double>(r.traffic.bound_rounds));
      ds.push_back(static_cast<double>(detect_k_cycle_dolev(g, 5).traffic.rounds));
    }
    t.add_row({"k-cycle detection (k=5)", "2^{O(k)} n^{0.158} log n",
               "2^{O(k)} n^{0.288} log n", fit_cell2(ns, bs, rs),
               fit_cell(ns, ds) + " (n^{1-2/k} [24])"});
  }

  {  // Girth, dense undirected (detection path).
    std::vector<double> ns, rs, bs;
    for (const int n : {64, 125, 216, 343}) {
      const auto g = gnp_random_graph(n, 0.4, 7);
      ns.push_back(n);
      const auto r = girth_undirected_cc(g, 8);
      rs.push_back(static_cast<double>(r.traffic.rounds));
      bs.push_back(static_cast<double>(r.traffic.bound_rounds));
    }
    t.add_row({"girth (undirected)", "O~(n^{0.158})", "O~(n^{0.288})",
               fit_cell2(ns, bs, rs), "- (first algorithm)"});
  }

  {  // Weighted directed APSP, exact.
    std::vector<double> ns, rs, bs, nv;
    for (const int n : {27, 64, 125, 216}) {
      const auto g = random_weighted_graph(n, 0.3, 1, 50, 9, true);
      ns.push_back(n);
      const auto r = apsp_semiring(g);
      rs.push_back(static_cast<double>(r.traffic.rounds));
      bs.push_back(static_cast<double>(r.traffic.bound_rounds));
      nv.push_back(static_cast<double>(apsp_naive_learn(g).traffic.rounds));
    }
    t.add_row({"weighted dir. APSP", "O(n^{1/3} log n)", "O(n^{1/3} log n)",
               fit_cell2(ns, bs, rs), fit_cell(ns, nv) + " (naive)"});
  }

  {  // APSP with weighted diameter U.
    const auto small = random_weighted_graph(25, 0.4, 1, 2, 10);
    const auto large = random_weighted_graph(25, 0.4, 16, 32, 10);
    const auto rs = apsp_small_diameter(small).traffic.rounds;
    const auto rl = apsp_small_diameter(large).traffic.rounds;
    char cell[64];
    std::snprintf(cell, sizeof cell, "%lldx rounds for ~16x U",
                  static_cast<long long>(rl / std::max<std::int64_t>(1, rs)));
    t.add_row({"APSP, weighted diam. U", "O(U n^{0.158})", "O(U n^{0.288})",
               cell, "-"});
  }

  {  // Approximate APSP.
    const auto g = random_weighted_graph(36, 0.3, 1, 400, 11, true);
    const auto exact = apsp_semiring(g);
    const auto approx = apsp_approx(g, 0.25);
    double worst = 1.0;
    for (int u = 0; u < 36; ++u)
      for (int v = 0; v < 36; ++v)
        if (exact.dist(u, v) > 0 && exact.dist(u, v) < (1LL << 40))
          worst = std::max(worst, static_cast<double>(approx.dist(u, v)) /
                                      static_cast<double>(exact.dist(u, v)));
    char cell[64];
    std::snprintf(cell, sizeof cell, "ratio %.3f @ delta=.25", worst);
    t.add_row({"APSP (1+o(1))-approx", "O(n^{0.158+o(1)})", "O(n^{0.288+o(1)})",
               cell, "O~(n^{1/2}) 2-approx [57] (not impl.)"});
  }

  {  // Unweighted undirected APSP (Seidel).
    std::vector<double> ns, rs, bs;
    for (const int n : {36, 64, 121, 196}) {
      const auto g = gnp_random_graph(n, 3.0 / n, 12);
      ns.push_back(n);
      const auto r = apsp_seidel(g);
      rs.push_back(static_cast<double>(r.traffic.rounds));
      bs.push_back(static_cast<double>(r.traffic.bound_rounds));
    }
    t.add_row({"unweighted undir. APSP", "O~(n^{0.158})", "O~(n^{0.288})",
               fit_cell2(ns, bs, rs), "O~(n^{1/2}) 2-approx [57] (not impl.)"});
  }

  std::fputs(t.to_string().c_str(), stdout);
  return 0;
}
