// Sparse-workload walkthrough: triangle counting on a power-law graph with
// the nnz-adaptive multiplication engine.
//
// Real graph workloads are sparse — a social graph on a million nodes has
// tens of edges per node, not thousands — and their degree profiles are
// heavy-tailed. The dense engines of Table 1 charge their full n^rho rounds
// regardless; the sparse engine announces the nonzero profile in one round
// and pays rounds that follow the edge volume instead. MmKind::Auto makes
// the choice per product from the announced counts, so the SAME application
// code serves both regimes, and a mid-algorithm densification (A^2 of a
// sparse graph can be dense) simply flips the dispatch.
//
// Build with -DCCA_BUILD_EXAMPLES=ON; run from anywhere.
#include <cstdio>

#include "clique/network.hpp"
#include "core/counting.hpp"
#include "core/engine.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"

int main() {
  using namespace cca;
  using core::MmKind;

  const int n = 216;
  const auto g = power_law_graph(n, 3 * n, 2.3, 42);
  std::printf("power-law graph: n=%d, m=%lld (avg degree %.1f)\n", n,
              static_cast<long long>(g.num_edges()),
              2.0 * static_cast<double>(g.num_edges()) / n);

  const auto want = ref_count_triangles(g);
  std::printf("reference triangle count: %lld\n\n",
              static_cast<long long>(want));

  for (const auto kind :
       {MmKind::Auto, MmKind::Fast, MmKind::Semiring3D, MmKind::Naive}) {
    const char* name = kind == MmKind::Auto         ? "auto (nnz dispatch)"
                       : kind == MmKind::Fast       ? "fast bilinear"
                       : kind == MmKind::Semiring3D ? "semiring 3D"
                                                    : "naive broadcast";
    const auto r = core::count_triangles_cc(g, kind);
    std::printf("  %-20s count=%lld  rounds=%6lld  words=%9lld%s\n", name,
                static_cast<long long>(r.count),
                static_cast<long long>(r.traffic.rounds),
                static_cast<long long>(r.traffic.total_words),
                r.count == want ? "" : "  <-- WRONG");
  }

  // The same dispatch, driven directly: the sparse engine wins while the
  // input is sparse, and hands over to the dense 3D engine as the matrix
  // fills in (A^2 of a sparse graph is much denser than A).
  std::printf("\ndirect dispatch on A and on A^2 (n=%d clique):\n", n);
  const auto a = g.adjacency();
  const IntRing ring;
  const I64Codec codec;
  clique::Network net(n);
  // One context per product: each trace records the engine its call ran,
  // and neither call inherits the other's densification lock.
  core::MmDispatchContext first, second;
  const auto a2 = core::mm_semiring_auto(net, ring, codec, a, a, &first);
  std::printf("  A * A   : %s, cumulative rounds %lld\n",
              first.trace.back() == core::AutoEngineChoice::Sparse ? "sparse"
                                                                   : "dense",
              static_cast<long long>(net.stats().rounds));
  (void)core::mm_semiring_auto(net, ring, codec, a2, a2, &second);
  std::printf("  A^2*A^2 : %s, cumulative rounds %lld\n",
              second.trace.back() == core::AutoEngineChoice::Sparse ? "sparse"
                                                                    : "dense",
              static_cast<long long>(net.stats().rounds));
  return 0;
}
