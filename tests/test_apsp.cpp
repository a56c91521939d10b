// Tests for the APSP suite (Section 3.3): semiring squaring with routing
// tables, Seidel, bounded distances, diameter doubling, and approximation.
#include <gtest/gtest.h>

#include <cmath>

#include "core/apsp.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/semiring.hpp"

namespace cca::core {
namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

/// Follow next_hop pointers from u to v; returns the traversed weight or
/// kInf on breakage. Validates that the routing table actually routes.
std::int64_t walk_route(const Graph& g, const Matrix<int>& next, int u,
                        int v) {
  if (u == v) return 0;
  std::int64_t total = 0;
  int cur = u;
  for (int hops = 0; hops <= g.n(); ++hops) {
    const int nxt = next(cur, v);
    if (nxt < 0 || !g.has_arc(cur, nxt)) return kInf;
    total += g.arc_weight(cur, nxt);
    cur = nxt;
    if (cur == v) return total;
  }
  return kInf;  // looped
}

struct ApspCase {
  int n;
  double p;
  bool directed;
  std::int64_t min_w;
  std::int64_t max_w;
  std::uint64_t seed;
};

class SemiringApspSweep : public ::testing::TestWithParam<ApspCase> {};

TEST_P(SemiringApspSweep, DistancesMatchFloydWarshall) {
  const auto c = GetParam();
  const auto g = random_weighted_graph(c.n, c.p, c.min_w, c.max_w, c.seed,
                                       c.directed);
  const auto got = apsp_semiring(g);
  EXPECT_EQ(got.dist, ref_apsp(g));
}

TEST_P(SemiringApspSweep, RoutingTablesRouteOptimally) {
  const auto c = GetParam();
  const auto g = random_weighted_graph(c.n, c.p, c.min_w, c.max_w, c.seed,
                                       c.directed);
  const auto got = apsp_semiring(g);
  for (int u = 0; u < c.n; ++u)
    for (int v = 0; v < c.n; ++v) {
      if (u == v) continue;
      if (got.dist(u, v) >= kInf) {
        EXPECT_EQ(got.next_hop(u, v), -1);
        continue;
      }
      EXPECT_EQ(walk_route(g, got.next_hop, u, v), got.dist(u, v))
          << u << "->" << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, SemiringApspSweep,
    ::testing::Values(ApspCase{10, 0.3, false, 1, 9, 1},
                      ApspCase{20, 0.2, false, 1, 50, 2},
                      ApspCase{27, 0.15, true, 1, 20, 3},
                      ApspCase{16, 0.3, true, 1, 5, 4},
                      ApspCase{24, 0.5, false, 1, 100, 5}));

TEST(ApspSemiring, NegativeWeightsOnDag) {
  const auto g = random_weighted_dag(14, 0.3, -5, 10, 7);
  const auto got = apsp_semiring(g);
  EXPECT_EQ(got.dist, ref_apsp(g));
}

TEST(ApspSemiring, NegativeWeightsThroughSparseAutoPath) {
  // Negative-weight regression for the nnz-adaptive path (the companion of
  // apsp_approx's unsigned row-maximum audit): a SPARSE negative-weight DAG
  // forces the first squarings onto the sparse witness engine, whose codec
  // bit-casts entries — negative distances must survive the wire format,
  // and the routing tables must still route optimally.
  const auto g = random_weighted_dag(24, 0.08, -5, 10, 17);
  const auto got = apsp_semiring(g);
  EXPECT_EQ(got.dist, ref_apsp(g));
  ASSERT_FALSE(got.engine_trace.empty());
  EXPECT_EQ(got.engine_trace[0], AutoEngineChoice::Sparse);
  for (int u = 0; u < g.n(); ++u)
    for (int v = 0; v < g.n(); ++v) {
      if (u == v || got.dist(u, v) >= kInf) continue;
      EXPECT_EQ(walk_route(g, got.next_hop, u, v), got.dist(u, v))
          << u << "->" << v;
    }
  // Element-identical to the fixed dense path, witnesses included.
  const auto fixed = apsp_semiring(g, MmKind::Semiring3D);
  EXPECT_EQ(got.dist, fixed.dist);
  EXPECT_EQ(got.next_hop, fixed.next_hop);
}

TEST(ApspSemiring, SparseAutoBeats3dAt216WithIdenticalResults) {
  // The PR acceptance shape: n = 216 (a cube — no padding), nnz ~ 8n
  // finite off-diagonal entries (m = 4n undirected edges). The Auto path
  // must run STRICTLY fewer total rounds than the fixed Semiring3D path,
  // with element-identical distances and routing tables that route.
  const int n = 216;
  const auto g = random_sparse_graph(n, 4 * n, 33);
  const auto auto_r = apsp_semiring(g);
  const auto fixed_r = apsp_semiring(g, MmKind::Semiring3D);
  EXPECT_LT(auto_r.traffic.rounds, fixed_r.traffic.rounds);
  EXPECT_EQ(auto_r.dist, fixed_r.dist);
  EXPECT_EQ(auto_r.next_hop, fixed_r.next_hop);
  ASSERT_FALSE(auto_r.engine_trace.empty());
  EXPECT_EQ(auto_r.engine_trace[0], AutoEngineChoice::Sparse);
  // Routing tables must actually route (sampled: the full n^2 walk is the
  // per-pair sweep above at small n; here every 7th pair keeps it fast).
  for (int u = 0; u < n; u += 7)
    for (int v = 0; v < n; ++v) {
      if (u == v || auto_r.dist(u, v) >= kInf) continue;
      EXPECT_EQ(walk_route(g, auto_r.next_hop, u, v), auto_r.dist(u, v))
          << u << "->" << v;
    }
}

TEST(ApspSemiring, ConvergenceVoteExitsAfterFirstIdempotentSquaring) {
  // Unit-weight complete graph: the weight matrix is already the distance
  // matrix, so the FIRST squaring improves nothing and the convergence
  // vote must end the loop — the seed ran all squaring_iterations(n)
  // squarings on the idempotent iterate.
  const int n = 20;
  auto g = Graph::undirected(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v, 1);
  const auto r = apsp_semiring(g);
  EXPECT_EQ(r.dist, ref_apsp(g));
  EXPECT_EQ(r.engine_trace.size(), 1u);  // one squaring, then the exit vote
  const auto fixed = apsp_semiring(g, MmKind::Semiring3D);
  EXPECT_EQ(fixed.dist, r.dist);
  EXPECT_EQ(fixed.traffic.supersteps, 2);  // the single squaring's 2 steps
}

TEST(ApspSemiring, DisconnectedPairsInfinity) {
  auto g = Graph::undirected(8);
  g.add_edge(0, 1, 3);
  g.add_edge(2, 3, 4);
  const auto got = apsp_semiring(g);
  EXPECT_EQ(got.dist(0, 1), 3);
  EXPECT_EQ(got.dist(0, 2), kInf);
  EXPECT_EQ(got.next_hop(0, 2), -1);
}

TEST(ApspSemiring, TrivialSizes) {
  EXPECT_EQ(apsp_semiring(Graph::undirected(1)).dist(0, 0), 0);
  auto g2 = Graph::undirected(2);
  g2.add_edge(0, 1, 9);
  const auto r = apsp_semiring(g2);
  EXPECT_EQ(r.dist(0, 1), 9);
  EXPECT_EQ(r.next_hop(0, 1), 1);
}

class SeidelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeidelSweep, MatchesBfsDistances) {
  const auto seed = GetParam();
  const auto g = gnp_random_graph(26, 0.12, seed);
  const auto got = apsp_seidel(g);
  EXPECT_EQ(got.dist, ref_bfs_apsp(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeidelSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ApspSeidel, StructuredGraphs) {
  // Long path: recursion depth log(diameter).
  const auto path = path_graph(30);
  EXPECT_EQ(apsp_seidel(path).dist, ref_bfs_apsp(path));
  const auto ring = cycle_graph(24);
  EXPECT_EQ(apsp_seidel(ring).dist, ref_bfs_apsp(ring));
  // Disconnected graph: infinities across components.
  auto two = Graph::undirected(10);
  two.add_edge(0, 1);
  two.add_edge(5, 6);
  const auto got = apsp_seidel(two);
  EXPECT_EQ(got.dist(0, 1), 1);
  EXPECT_EQ(got.dist(1, 5), kInf);
}

TEST(ApspSeidel, SemiringEngineAgrees) {
  const auto g = gnp_random_graph(20, 0.15, 31);
  EXPECT_EQ(apsp_seidel(g, MmKind::Semiring3D).dist, ref_bfs_apsp(g));
}

TEST(ApspBounded, CutsOffAtM) {
  const auto g = path_graph(12);  // unit weights, distances 0..11
  const auto got = apsp_bounded(g, 4);
  const auto want = ref_apsp(g);
  for (int u = 0; u < 12; ++u)
    for (int v = 0; v < 12; ++v) {
      if (want(u, v) <= 4)
        EXPECT_EQ(got.dist(u, v), want(u, v)) << u << "," << v;
      else
        EXPECT_EQ(got.dist(u, v), kInf) << u << "," << v;
    }
}

class BoundedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedSweep, ExactWithinBound) {
  const auto seed = GetParam();
  const auto g = random_weighted_graph(18, 0.25, 1, 4, seed);
  const std::int64_t m_bound = 12;
  const auto got = apsp_bounded(g, m_bound);
  const auto want = ref_apsp(g);
  for (int u = 0; u < 18; ++u)
    for (int v = 0; v < 18; ++v) {
      if (want(u, v) <= m_bound)
        EXPECT_EQ(got.dist(u, v), want(u, v));
      else
        EXPECT_GE(got.dist(u, v), kInf);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundedSweep, ::testing::Values(1, 2, 3, 4));

class SmallDiameterSweep : public ::testing::TestWithParam<ApspCase> {};

TEST_P(SmallDiameterSweep, ExactForAllReachablePairs) {
  const auto c = GetParam();
  const auto g = random_weighted_graph(c.n, c.p, c.min_w, c.max_w, c.seed,
                                       c.directed);
  const auto got = apsp_small_diameter(g);
  EXPECT_EQ(got.dist, ref_apsp(g));
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, SmallDiameterSweep,
    ::testing::Values(ApspCase{12, 0.4, false, 1, 3, 11},
                      ApspCase{16, 0.3, true, 1, 4, 12},
                      ApspCase{16, 0.25, false, 2, 6, 13}));

TEST(ApspSmallDiameter, RoundsGrowWithDiameter) {
  // Corollary 8: cost scales with the weighted diameter U.
  const auto small_u = random_weighted_graph(16, 0.5, 1, 2, 5);
  const auto large_u = random_weighted_graph(16, 0.5, 30, 40, 5);
  const auto r_small = apsp_small_diameter(small_u);
  const auto r_large = apsp_small_diameter(large_u);
  EXPECT_EQ(r_small.dist, ref_apsp(small_u));
  EXPECT_EQ(r_large.dist, ref_apsp(large_u));
  EXPECT_GT(r_large.traffic.rounds, 2 * r_small.traffic.rounds);
}

struct ApproxCase {
  int n;
  double p;
  std::int64_t max_w;
  double delta;
  std::uint64_t seed;
};

class ApproxSweep : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(ApproxSweep, WithinGuaranteedRatio) {
  const auto c = GetParam();
  const auto g =
      random_weighted_graph(c.n, c.p, 1, c.max_w, c.seed, /*directed=*/true);
  const auto got = apsp_approx(g, c.delta);
  const auto want = ref_apsp(g);
  const int iters = static_cast<int>(
      std::ceil(std::log2(std::max(2.0, static_cast<double>(c.n) - 1))));
  const double ratio = std::pow(1.0 + c.delta, iters) + 1e-9;
  for (int u = 0; u < c.n; ++u)
    for (int v = 0; v < c.n; ++v) {
      if (want(u, v) >= kInf) {
        EXPECT_GE(got.dist(u, v), kInf);
        continue;
      }
      EXPECT_GE(got.dist(u, v), want(u, v)) << u << "," << v;
      EXPECT_LE(static_cast<double>(got.dist(u, v)),
                static_cast<double>(want(u, v)) * ratio + 1e-9)
          << u << "," << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ApproxSweep,
    ::testing::Values(ApproxCase{12, 0.3, 50, 0.2, 1},
                      ApproxCase{16, 0.25, 1000, 0.3, 2},
                      ApproxCase{16, 0.2, 100000, 0.5, 3},
                      ApproxCase{20, 0.3, 9, 0.1, 4}));

TEST(ApspApprox, ImplementedBoundHoldsOnAdversarialWeights) {
  // The contract is d <= dist <= (1+delta)^ceil(log2 n) d — NOT (1+delta),
  // and a fixed delta is NOT (1+o(1)): each squaring compounds a Lemma 20
  // factor. Adversarial instance: exponentially spread weights (3^i defeats
  // any alignment with the (1+delta)^i scaling grid) on a directed chain,
  // plus barely-longer shortcuts that tempt the scaled products into
  // swapping optimal paths, plus a tiny-weight back mesh mixing magnitudes
  // in one product.
  const int n = 14;
  auto g = Graph::directed(n);
  std::int64_t w = 1;
  for (int i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1, w);
    w *= 3;
  }
  std::int64_t acc = 1;
  for (int i = 0; i + 2 < n; ++i) {
    // shortcut barely longer than the two chain hops it replaces
    g.add_edge(i, i + 2, acc + 3 * acc + 1);
    acc *= 3;
  }
  for (int i = 2; i < n; ++i) g.add_edge(i, i % 2, 1);  // tiny back edges
  const auto want = ref_apsp(g);

  for (const double delta : {0.5, 0.25, 0.1}) {
    const auto got = apsp_approx(g, delta);
    const int iters = static_cast<int>(
        std::ceil(std::log2(std::max(2.0, static_cast<double>(n) - 1))));
    const double ratio = std::pow(1.0 + delta, iters) + 1e-9;
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v) {
        if (want(u, v) >= kInf) {
          EXPECT_GE(got.dist(u, v), kInf);
          continue;
        }
        EXPECT_GE(got.dist(u, v), want(u, v))
            << "delta=" << delta << " " << u << "," << v;
        EXPECT_LE(static_cast<double>(got.dist(u, v)),
                  static_cast<double>(want(u, v)) * ratio + 1e-9)
            << "delta=" << delta << " " << u << "," << v;
      }
  }
}

TEST(ApspApprox, AutoDeltaScheduleIsNearExact) {
  // apsp_approx_auto's delta(n) = 1/ceil(log2 n)^2 must keep the TOTAL
  // compounded error (1+delta)^ceil(log2 n) <= e^{1/log2 n} — for n = 16
  // that is at most e^{1/4} ~ 1.284, and it shrinks as n grows (the
  // (1+o(1)) schedule of Theorem 9).
  const int n = 16;
  const auto g = random_weighted_graph(n, 0.3, 1, 100000, 23,
                                       /*directed=*/true);
  const auto got = apsp_approx_auto(g);
  const auto want = ref_apsp(g);
  const double cap = std::exp(0.25) + 1e-9;
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) {
      if (want(u, v) >= kInf) continue;
      EXPECT_GE(got.dist(u, v), want(u, v));
      EXPECT_LE(static_cast<double>(got.dist(u, v)),
                static_cast<double>(want(u, v)) * cap)
          << u << "," << v;
    }
}

TEST(ApspApprox, LargeWeightsCheaperThanExactEmbedding) {
  // The whole point of Theorem 9: with big weights, approximation is far
  // cheaper than the exact Lemma 19 embedding whose cost scales with M.
  const auto g = random_weighted_graph(16, 0.4, 500, 1000, 9);
  const auto approx = apsp_approx(g, 0.25);
  const auto exact = apsp_small_diameter(g);
  EXPECT_LT(approx.traffic.rounds, exact.traffic.rounds / 4);
}

TEST(ApspApprox, UnweightedGraphStillSane) {
  const auto g = gnp_random_graph(16, 0.3, 17);
  const auto got = apsp_approx(g, 0.3);
  const auto want = ref_bfs_apsp(g);
  for (int u = 0; u < 16; ++u)
    for (int v = 0; v < 16; ++v)
      if (want(u, v) < kInf) {
        EXPECT_GE(got.dist(u, v), want(u, v));
      }
}

}  // namespace
}  // namespace cca::core
