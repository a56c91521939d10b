// All-pairs shortest paths on the congested clique (paper Section 3.3).
//
//  * apsp_semiring       — Corollary 6: iterated min-plus squaring with the
//                          3D semiring algorithm; O(n^{1/3} log n) rounds.
//                          Produces distances AND routing tables (next hops)
//                          through the witness-carrying semiring product.
//  * apsp_seidel         — Corollary 7: exact unweighted undirected APSP by
//                          Seidel's recursion over fast Boolean/integer
//                          products; O~(n^rho) rounds.
//  * apsp_bounded        — Lemma 19: distances up to M via the Lemma 18
//                          ring embedding; O(M n^rho log n) rounds.
//  * apsp_small_diameter — Corollary 8: doubling search over the weighted
//                          diameter U; O~(U n^rho) rounds.
//  * apsp_approx         — Theorem 9: (1+delta)^ceil(log2 n)-approximate
//                          weighted APSP through the Lemma 20 approximate
//                          products; with the delta SCHEDULE delta(n) =
//                          o(1/log n) — apsp_approx_auto implements
//                          delta(n) = 1/ceil(log2 n)^2 — the accumulated
//                          factor is 1 + O(1/log n) = 1 + o(1), which is
//                          how Theorem 9's headline bound is realised.
//  * apsp_semiring_batch — multi-query engine: B graphs' exact APSP through
//                          SHARED supersteps (batched witness-carrying
//                          min-plus squarings; one routing schedule per
//                          superstep serves the whole batch). The one
//                          Corollary 6 body: apsp_semiring is its batch of
//                          one.
//
// All variants return distances indexed by the original graph's nodes;
// padding to admissible clique sizes is internal. Unreachable pairs hold
// MinPlusSemiring::kInf.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"

namespace cca::core {

struct ApspOutcome {
  Matrix<std::int64_t> dist;
  /// next_hop(u,v) = first node after u on a shortest u->v path; -1 when
  /// v is unreachable or u == v. Only filled by variants documented to
  /// build routing tables (empty matrix otherwise).
  Matrix<int> next_hop;
  clique::TrafficStats traffic;
  /// Per-multiplication engine choices of the nnz-adaptive dispatcher, in
  /// call order (empty for fixed-engine runs). For the iterated squarings
  /// the densification flip — sparse rounds while the iterate is mostly
  /// infinite, dense once squaring has filled it in — is the first
  /// Sparse -> dense transition; bench_apsp --sparse prints it.
  std::vector<AutoEngineChoice> engine_trace;
};

/// Corollary 6: exact APSP for directed graphs with integer weights
/// (negative weights allowed when no negative cycle exists). Builds routing
/// tables. O(n^{1/3} log n) rounds worst case; each squaring goes through
/// the witness-carrying product and a 1-round convergence vote exits the
/// loop as soon as the iterate stops improving (min-plus squaring is
/// monotone, so a fixed point stays fixed — the fixed iteration count of
/// the seed kept squaring an idempotent matrix).
///
/// `kind` selects the per-squaring engine: MmKind::Auto (default)
/// re-dispatches EVERY iteration from the current iterate's finite-entry
/// announcement — sparse graphs pay sparse rounds until squaring densifies
/// the distance matrix, then the dispatch context's hysteresis locks the
/// dense 3D engine (see MmDispatchContext; the choices land in
/// ApspOutcome::engine_trace). MmKind::Semiring3D forces the fixed dense
/// path of the seed. Distances and routing tables are element-identical
/// either way. Dense iterations replay cached Koenig schedules (the
/// shapes repeat), so the schedule cache still collapses the Euler split.
/// The batch-of-one instance of apsp_semiring_batch.
[[nodiscard]] ApspOutcome apsp_semiring(const Graph& g,
                                        MmKind kind = MmKind::Auto);

/// Multi-query exact APSP: the outcomes of apsp_semiring(gs[i]) for B
/// graphs (padded to one shared clique), with every squaring iteration
/// batched through shared supersteps. `traffic` holds the whole batch's
/// cost — strictly below the sum of B independent runs whenever the
/// single-graph supersteps leave link capacity idle. Distances and routing
/// tables are element-identical to the per-graph runs.
struct ApspBatchOutcome {
  std::vector<Matrix<std::int64_t>> dist;
  std::vector<Matrix<int>> next_hop;
  clique::TrafficStats traffic;
  /// Shared per-iteration engine choices (one entry per batched squaring).
  std::vector<AutoEngineChoice> engine_trace;
};
[[nodiscard]] ApspBatchOutcome apsp_semiring_batch(std::span<const Graph> gs,
                                                   MmKind kind = MmKind::Auto);

/// Corollary 7: exact APSP for unweighted undirected graphs via Seidel's
/// algorithm; distances only. O~(n^rho) rounds. The default Auto engine
/// threads one dispatch context through every level's products, so sparse
/// adjacency levels run the sparse engine and the recursion's densifying
/// squarings flip to a locked dense engine (ApspOutcome::engine_trace).
[[nodiscard]] ApspOutcome apsp_seidel(const Graph& g,
                                      MmKind kind = MmKind::Auto,
                                      int depth = -1);

/// Lemma 19: distances up to `m_bound` (larger distances become inf) for
/// non-negative integer weights. O(M n^rho log n) rounds.
[[nodiscard]] ApspOutcome apsp_bounded(const Graph& g, std::int64_t m_bound,
                                       int depth = -1);

/// Corollary 8: exact APSP for positive integer weights by doubling the
/// distance bound until every reachable pair is covered.
[[nodiscard]] ApspOutcome apsp_small_diameter(const Graph& g, int depth = -1);

/// Theorem 9 core: approximate APSP for non-negative integer weights with
/// an EXPLICIT per-product error parameter. The implemented guarantee is
///
///   d(u,v) <= dist(u,v) <= (1 + delta)^ceil(log2 n) * d(u,v)
///
/// — each of the ceil(log2 n) squarings goes through a Lemma 20
/// (1+delta)-approximate product, and the factors compound. A FIXED delta
/// therefore does NOT give (1+o(1)); that headline bound needs the delta
/// schedule delta(n) = o(1/log n) (see apsp_approx_auto), under which
/// (1+delta)^ceil(log2 n) = 1 + O(delta log n) -> 1. test_apsp.cpp asserts
/// the implemented bound on adversarial (exponentially spread) weights.
[[nodiscard]] ApspOutcome apsp_approx(const Graph& g, double delta,
                                      int depth = -1);

/// Theorem 9 as stated — (1+o(1))-approximate APSP — via the concrete
/// delta schedule delta(n) = 1/ceil(log2 n)^2: the accumulated error
/// (1 + 1/log^2 n)^ceil(log2 n) <= e^{1/log n} = 1 + o(1). Rounds grow by
/// the usual Lemma 20 factor O(log^2(1/delta)/delta) relative to a
/// constant-delta run.
[[nodiscard]] ApspOutcome apsp_approx_auto(const Graph& g, int depth = -1);

/// Build a next-hop routing table for ANY exact distance matrix (produced
/// by any of the APSP variants): ONE witnessed distance product W * D
/// yields, for every pair, a neighbour w of u with W(u,w) + D(w,v) =
/// D(u,v) — an optimal first hop. This is how Section 3.3 attaches routing
/// tables to the fast (witness-less) products via Section 3.4 witnesses.
/// `traffic` (optional) receives the rounds consumed.
[[nodiscard]] Matrix<int> routing_table_from_distances(
    const Graph& g, const Matrix<std::int64_t>& dist,
    clique::TrafficStats* traffic = nullptr);

}  // namespace cca::core
