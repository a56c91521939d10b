// Table 1 row "girth": Theorem 15 (undirected) and Corollary 16 (directed).
// Paper bound: O~(n^rho); first non-trivial girth algorithm in this model.
#include <cstdio>

#include "bench_common.hpp"
#include "core/girth.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  cca::bench::print_header("Table 1: girth (undirected, Theorem 15)");

  // Sparse family: the Lemma 14 dichotomy takes the learn-the-graph path
  // at cost O(m/n) = O(1) for constant average degree.
  Series sparse{"sparse (m ~ 2n)", {}, {}};
  for (const int n : {64, 128, 256, 512}) {
    const auto g = gnp_random_graph(n, 4.0 / n, 5 + static_cast<std::uint64_t>(n));
    const auto r = girth_undirected_cc(g, 77);
    sparse.add(n, static_cast<double>(r.traffic.rounds));
    std::printf("  n=%4d girth=%lld sparse-path=%d rounds=%lld\n", n,
                static_cast<long long>(r.girth), r.used_sparse_path ? 1 : 0,
                static_cast<long long>(r.traffic.rounds));
  }
  cca::bench::print_fit(sparse, "O(m/n) = O(1) for constant degree");

  // Dense family: girth <= l guaranteed; exact detection paths fire.
  std::printf("\nDense family (p = 0.4): detection path, girth 3 or 4\n");
  Series dense{"dense (p = 0.4)", {}, {}};
  for (const int n : {64, 125, 216, 343}) {
    const auto g = gnp_random_graph(n, 0.4, 9 + static_cast<std::uint64_t>(n));
    const auto r = girth_undirected_cc(g, 78);
    dense.add(n, static_cast<double>(r.traffic.rounds));
    std::printf("  n=%4d girth=%lld sparse-path=%d rounds=%lld\n", n,
                static_cast<long long>(r.girth), r.used_sparse_path ? 1 : 0,
                static_cast<long long>(r.traffic.rounds));
  }
  cca::bench::print_fit(dense, "O~(n^rho) (rho = 0.288 implemented)");

  cca::bench::print_header("Table 1: girth (directed, Corollary 16)");
  // Identical planted girth 6 at every n: a 6-cycle on nodes [0,6) plus
  // acyclic (low -> high) noise arcs on [6, n) only, which cannot create
  // shorter cycles. The doubling + binary-search product counts are then
  // the same for every n and the fit isolates the per-product cost.
  Series directed{"directed girth", {}, {}};
  Series directed_bound{"directed girth (bound)", {}, {}};
  for (const int n : {32, 64, 128, 216}) {
    auto g = Graph::directed(n);
    for (int i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
    Rng rng(13 + static_cast<std::uint64_t>(n));
    for (int u = 6; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (rng.chance(2, static_cast<std::uint64_t>(n))) g.add_edge(u, v);
    const auto r = girth_directed_cc(g);
    directed.add(n, static_cast<double>(r.traffic.rounds));
    directed_bound.add(n, static_cast<double>(r.traffic.bound_rounds));
    std::printf("  n=%4d girth=%lld rounds=%lld (lower bound %lld)\n", n,
                static_cast<long long>(r.girth),
                static_cast<long long>(r.traffic.rounds),
                static_cast<long long>(r.traffic.bound_rounds));
  }
  cca::bench::print_fit(directed, "O~(n^rho) (O(log n) Boolean products)");
  cca::bench::print_fit(directed_bound, "same, schedule-independent bound");
  return 0;
}
