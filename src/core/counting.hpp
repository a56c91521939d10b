// Triangle and 4-cycle counting on the congested clique (Corollary 2).
//
// Both counts come from trace formulas on powers of the adjacency matrix
// (Itai–Rodeh for triangles, Alon–Yuster–Zwick for 4-cycles):
//
//   undirected: #C3 = tr(A^3)/6,  #C4 = (tr(A^4) - sum_v(2 deg^2 - deg))/8
//   directed:   #C3 = tr(A^3)/3,  #C4 = (tr(A^4) - sum_v(2 delta^2 - delta))/4
//
// where delta(v) counts the 2-cycles through v. One distributed matrix
// product computes A^2; tr(A^3) = sum_{uv} A^2[u,v] A[v,u] and
// tr(A^4) = sum_{uv} A^2[u,v] A^2[v,u] then need only a transpose superstep
// (O(1) rounds) and a partial-sum broadcast — so the total cost is one
// product: O(n^rho) rounds with the fast engine.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"

namespace cca::core {

struct CountOutcome {
  std::int64_t count = 0;
  clique::TrafficStats traffic;  ///< rounds and word counts consumed
};

/// Outcome of a multi-query counting batch: per-graph counts plus the
/// SHARED network's total cost (strictly below the sum of independent runs
/// whenever the single-graph supersteps leave link capacity idle).
struct BatchCountOutcome {
  std::vector<std::int64_t> counts;
  clique::TrafficStats traffic;
};

/// Triangle counts for B graphs at once — the one triangle-counting body,
/// of which count_triangles_cc is the batch of one. All B products A_b^2
/// run through shared supersteps (IntMmEngine::multiply_batch) on one
/// clique padded for the largest graph; then each graph pays its own
/// partial-sum broadcast (1 round), plus a transpose superstep when it is
/// directed. Directed and undirected graphs may mix, and sharded runs are
/// supported (each rank sums its owned rows). Counts are identical to
/// per-graph runs.
[[nodiscard]] BatchCountOutcome count_triangles_cc_batch(
    std::span<const Graph> gs, MmKind kind = MmKind::Auto, int depth = -1);

/// Number of triangles (3-cliques / directed 3-cycles) of g, computed on a
/// padded clique with the chosen engine. `depth` forces the Strassen tensor
/// power for MmKind::Fast (-1 = auto). The batch-of-one instance of
/// count_triangles_cc_batch.
[[nodiscard]] CountOutcome count_triangles_cc(const Graph& g,
                                              MmKind kind = MmKind::Auto,
                                              int depth = -1);

/// Number of simple 4-cycles (directed 4-cycles for digraphs).
[[nodiscard]] CountOutcome count_4cycles_cc(const Graph& g,
                                            MmKind kind = MmKind::Auto,
                                            int depth = -1);

/// Number of simple 5-cycles in an UNDIRECTED graph. The paper notes that
/// the Alon–Yuster–Zwick trace formulas extend to k in {5,6,7}; this is
/// the k = 5 instance:
///
///   #C5 = ( tr(A^5) - 5 tr(A^3) - 5 sum_v (deg(v)-2) (A^3)_vv ) / 10.
///
/// Two distributed products (A^2, then A^3 = A^2 A); tr(A^5) =
/// sum_{u,v} A^2[u,v] A^3[u,v] is local per row for symmetric A, and the
/// diagonal/degree terms are local — so the cost stays O(n^rho).
[[nodiscard]] CountOutcome count_5cycles_cc(const Graph& g,
                                            MmKind kind = MmKind::Auto,
                                            int depth = -1);

}  // namespace cca::core
