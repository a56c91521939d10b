// Table 1 row "weighted diameter U: O(U n^rho)" (Corollary 8):
// rounds vs the weighted diameter U at fixed n — the linear-in-U shape —
// against the U-independent approximate algorithm (Theorem 9).
#include <cstdio>

#include "bench_common.hpp"
#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  cca::bench::print_header(
      "Table 1: exact APSP by weighted diameter (Corollary 8) — U sweep at "
      "n = 25");

  const int n = 25;
  Series exact{"Cor. 8 exact", {}, {}};
  Series approx{"Thm 9 approx (d=0.25)", {}, {}};
  std::printf("%-10s %-10s %-16s %-16s\n", "weights", "U", "Cor.8 rounds",
              "approx rounds");
  for (const std::int64_t w : {1, 2, 4, 8, 16, 32}) {
    const auto g = random_weighted_graph(n, 0.4, w, 2 * w,
                                         5 + static_cast<std::uint64_t>(w));
    const auto u = ref_weighted_diameter(g);
    const auto e = apsp_small_diameter(g);
    const auto a = apsp_approx(g, 0.25);
    std::printf("[%2lld,%3lld]  %-10lld %-16lld %-16lld\n",
                static_cast<long long>(w), static_cast<long long>(2 * w),
                static_cast<long long>(u),
                static_cast<long long>(e.traffic.rounds),
                static_cast<long long>(a.traffic.rounds));
    exact.add(static_cast<double>(u), static_cast<double>(e.traffic.rounds));
    approx.add(static_cast<double>(u), static_cast<double>(a.traffic.rounds));
  }
  // Here the fit is in U, not n.
  {
    const auto f = fit_power_law(exact.n, exact.rounds);
    std::printf("\nCor. 8: rounds ~ %.2f * U^%.3f (R^2 = %.3f); paper: linear in U\n",
                f.coefficient, f.exponent, f.r_squared);
    const auto fa = fit_power_law(approx.n, approx.rounds);
    std::printf("Thm 9:  rounds ~ %.2f * U^%.3f (R^2 = %.3f); paper: U enters "
                "only through log M\n",
                fa.coefficient, fa.exponent, fa.r_squared);
  }
  std::printf("\nThe crossover (approx cheaper than exact once U is large) is "
              "the motivation for Theorem 9.\n");
  return 0;
}
