// Table 1 row "k-cycle detection": colour-coding (Theorem 3, 2^{O(k)} n^rho
// log n) vs the Dolev et al. prior bound O~(n^{1-2/k}).
//
// Two views: (a) rounds vs n at fixed k — the n^rho vs n^{1-2/k} exponents;
// (b) rounds vs k at fixed n — the 2^{O(k)} trial/product blow-up of
// colour-coding against the IMPROVING exponent of the prior work, i.e. the
// trade-off Table 1 encodes.
#include <cstdio>

#include "bench_common.hpp"
#include "core/baseline.hpp"
#include "core/color_coding.hpp"
#include "graph/generators.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  cca::bench::print_header(
      "Table 1: k-cycle detection — colour-coding vs Dolev baseline (k = 5)");

  // Per-colouring cost (Lemma 11): a planted cycle is found after a
  // seed-dependent number of trials; to compare scaling in n we charge a
  // fixed trial budget of 4 colourings for every size.
  const int k = 5;
  const int trials = 4;
  Series cc{"colour-coding (4 trials)", {}, {}};
  Series dolev{"Dolev prior", {}, {}};
  for (const int n : {32, 64, 128, 256}) {
    const auto g = planted_cycle_graph(n, k, 2.0 / n, 3 + static_cast<std::uint64_t>(n));
    const auto r = detect_k_cycle_cc(g, k, 1234, trials);
    cc.add(n, static_cast<double>(r.traffic.rounds));
    const auto d = detect_k_cycle_dolev(g, k);
    dolev.add(n, static_cast<double>(d.traffic.rounds));
  }
  cca::bench::print_series_table({cc, dolev});
  cca::bench::print_fit(cc, "O(n^rho) per trial batch (rho = 0.288 implemented)");
  cca::bench::print_fit(dolev, "O~(n^{1-2/k}) = O~(n^0.6) at k = 5");

  cca::bench::print_header("k-sweep at n = 64: the 2^{O(k)} factor");
  std::printf("%-4s %-26s %-22s\n", "k", "colour-coding (1 trial)", "Dolev baseline");
  for (const int kk : {3, 4, 5, 6, 7}) {
    const auto g = planted_cycle_graph(64, kk, 0.03, 17 + static_cast<std::uint64_t>(kk));
    const auto r = detect_k_cycle_cc(g, kk, 99, 1);
    const auto d = detect_k_cycle_dolev(g, kk);
    std::printf("%-4d %-26lld %-22lld\n", kk,
                static_cast<long long>(r.traffic.rounds),
                static_cast<long long>(d.traffic.rounds));
  }
  std::printf("\ncolour-coding rounds grow ~3^k per trial (subset products);\n"
              "the Dolev baseline improves with k (exponent 1-2/k) until its\n"
              "group unions degenerate at small n — exactly Table 1's trade-off.\n");
  return 0;
}
