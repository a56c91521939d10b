// Edge-case and failure-injection coverage across the public API:
// degenerate sizes, extreme parameters, disconnected and adversarial
// inputs, and the contracts that hold at the boundaries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "core/apsp.hpp"
#include "core/baseline.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/distance_product.hpp"
#include "core/engine.hpp"
#include "core/four_cycle.hpp"
#include "core/girth.hpp"
#include "core/mm_dense.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "util/rng.hpp"

namespace cca::core {
namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

// ---------------------------------------------------------------------------
// Degenerate clique sizes.
// ---------------------------------------------------------------------------

TEST(EdgeCases, SingleNodeCliqueEverywhere) {
  const auto g1 = Graph::undirected(1);
  EXPECT_EQ(count_triangles_cc(g1).count, 0);
  EXPECT_EQ(count_4cycles_cc(g1).count, 0);
  EXPECT_EQ(count_5cycles_cc(g1).count, 0);
  EXPECT_FALSE(detect_4cycle_const(g1).found);
  EXPECT_EQ(girth_undirected_cc(g1, 1).girth, kInf);
  EXPECT_EQ(apsp_semiring(g1).dist(0, 0), 0);
  EXPECT_EQ(apsp_seidel(g1).dist(0, 0), 0);
  EXPECT_EQ(apsp_approx(g1, 0.5).dist(0, 0), 0);
}

TEST(EdgeCases, TwoNodeGraphs) {
  auto g = Graph::undirected(2);
  g.add_edge(0, 1, 7);
  EXPECT_EQ(apsp_semiring(g).dist(0, 1), 7);
  EXPECT_EQ(apsp_small_diameter(g).dist(1, 0), 7);
  EXPECT_EQ(girth_undirected_cc(g, 1).girth, kInf);
  auto d = Graph::directed(2);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  EXPECT_EQ(girth_directed_cc(d).girth, 2);
}

TEST(EdgeCases, EmptyEdgeSets) {
  const auto g = Graph::undirected(16);
  EXPECT_EQ(count_triangles_cc(g).count, 0);
  EXPECT_FALSE(detect_4cycle_const(g).found);
  const auto apsp = apsp_semiring(g);
  for (int u = 0; u < 16; ++u)
    for (int v = 0; v < 16; ++v)
      EXPECT_EQ(apsp.dist(u, v), u == v ? 0 : kInf);
  EXPECT_EQ(girth_undirected_cc(g, 2).girth, kInf);
}

// ---------------------------------------------------------------------------
// Zero matrices and identity through the distributed engines.
// ---------------------------------------------------------------------------

TEST(EdgeCases, ZeroAndIdentityMatrices) {
  const int n = 27;
  const IntRing ring;
  const I64Codec codec;
  clique::Network net(n);
  const Matrix<std::int64_t> zero(n, n, 0);
  const auto id = identity(ring, n);
  EXPECT_EQ(mm_semiring_3d(net, ring, codec, zero, zero), zero);
  EXPECT_EQ(mm_semiring_3d(net, ring, codec, id, id), id);
  Rng rng(3);
  Matrix<std::int64_t> a(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a(i, j) = rng.next_in(-5, 5);
  EXPECT_EQ(mm_semiring_3d(net, ring, codec, a, id), a);
  EXPECT_EQ(mm_semiring_3d(net, ring, codec, id, a), a);
}

TEST(EdgeCases, AllInfinityDistanceProduct) {
  const int n = 8;
  clique::Network net(n);
  const Matrix<std::int64_t> inf(n, n, kInf);
  const auto p = dp_semiring(net, inf, inf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) EXPECT_GE(p(i, j), kInf);
  const auto [dist, wit] = dp_semiring_witness(net, inf, inf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) EXPECT_EQ(wit(i, j), -1);
}

// ---------------------------------------------------------------------------
// Extreme parameters.
// ---------------------------------------------------------------------------

TEST(EdgeCases, ApproxWithHugeDelta) {
  // delta = 4: scaled entries collapse to a couple of values; the sandwich
  // bound must still hold.
  const auto g = random_weighted_graph(12, 0.4, 1, 100, 5);
  const auto got = apsp_approx(g, 4.0);
  const auto want = ref_apsp(g);
  const double ratio = std::pow(5.0, 4.0) + 1;  // (1+4)^{ceil(log2 11)}
  for (int u = 0; u < 12; ++u)
    for (int v = 0; v < 12; ++v) {
      if (want(u, v) >= kInf) continue;
      EXPECT_GE(got.dist(u, v), want(u, v));
      EXPECT_LE(static_cast<double>(got.dist(u, v)),
                static_cast<double>(want(u, v)) * ratio);
    }
}

TEST(EdgeCases, ApproxWithSmallDeltaIsNearlyExact) {
  const auto g = random_weighted_graph(10, 0.5, 1, 20, 6);
  const auto got = apsp_approx(g, 0.05);
  const auto want = ref_apsp(g);
  for (int u = 0; u < 10; ++u)
    for (int v = 0; v < 10; ++v) {
      if (want(u, v) >= kInf) continue;
      EXPECT_LE(static_cast<double>(got.dist(u, v)),
                1.25 * static_cast<double>(want(u, v)));
    }
}

TEST(EdgeCases, BoundedApspWithZeroBound) {
  // m_bound = 0: only 0-weight self-distances survive.
  const auto g = random_weighted_graph(9, 0.4, 1, 5, 7);
  const auto got = apsp_bounded(g, 0);
  for (int u = 0; u < 9; ++u)
    for (int v = 0; v < 9; ++v)
      EXPECT_EQ(got.dist(u, v), u == v ? 0 : kInf);
}

TEST(EdgeCases, RingEmbeddedZeroBound) {
  const int n = 4;
  const auto alg = tensor_power(strassen_algorithm(), 0);
  clique::Network net(n);
  Matrix<std::int64_t> a(n, n, kInf);
  for (int i = 0; i < n; ++i) a(i, i) = 0;
  const auto p = dp_ring_embedded(net, alg, a, a, 0);
  for (int i = 0; i < n; ++i) EXPECT_EQ(p(i, i), 0);
  EXPECT_EQ(p(0, 1), kInf);
}

// ---------------------------------------------------------------------------
// Structured adversarial graphs.
// ---------------------------------------------------------------------------

TEST(EdgeCases, StarGraphHasNoCycles) {
  auto star = Graph::undirected(40);
  for (int v = 1; v < 40; ++v) star.add_edge(0, v);
  EXPECT_FALSE(detect_4cycle_const(star).found);
  EXPECT_EQ(girth_undirected_cc(star, 3).girth, kInf);
  EXPECT_EQ(count_triangles_cc(star).count, 0);
  // Star distances: hub 1, leaf-leaf 2.
  const auto apsp = apsp_seidel(star);
  EXPECT_EQ(apsp.dist(0, 5), 1);
  EXPECT_EQ(apsp.dist(3, 7), 2);
}

TEST(EdgeCases, SeidelOnDiameterOneAndTwo) {
  // Complete graph: one recursion level (G == G^2).
  const auto k = complete_graph(16);
  EXPECT_EQ(apsp_seidel(k).dist, ref_bfs_apsp(k));
  // Long even/odd paths stress the parity reconstruction of Lemma 17.
  EXPECT_EQ(apsp_seidel(path_graph(17)).dist, ref_bfs_apsp(path_graph(17)));
  EXPECT_EQ(apsp_seidel(path_graph(18)).dist, ref_bfs_apsp(path_graph(18)));
}

TEST(EdgeCases, FourCycleDetectorAtThresholdSizes) {
  // n = 31 (fallback) and n = 32 (tiling path) must agree on the same
  // structure.
  for (const int n : {31, 32, 33}) {
    auto g = cycle_graph(n);
    EXPECT_FALSE(detect_4cycle_const(g).found) << n;
    // Add a chord creating a 4-cycle: 0-1-2-3 + 0-3.
    g.add_edge(0, 3);
    EXPECT_TRUE(detect_4cycle_const(g).found) << n;
  }
}

TEST(EdgeCases, GirthOnTwoTriangleComponents) {
  auto g = Graph::undirected(64);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(10, 11);
  g.add_edge(11, 12);
  g.add_edge(12, 10);
  EXPECT_EQ(girth_undirected_cc(g, 4).girth, 3);
  EXPECT_EQ(ref_girth(g), 3);
}

TEST(EdgeCases, ApspLargeWeightsNoOverflow) {
  auto g = Graph::directed(8);
  const std::int64_t big = std::int64_t{1} << 40;
  for (int v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, big);
  const auto got = apsp_semiring(g);
  EXPECT_EQ(got.dist(0, 7), 7 * big);
  EXPECT_EQ(got.dist(7, 0), kInf);
}

// ---------------------------------------------------------------------------
// Primitives at the boundaries.
// ---------------------------------------------------------------------------

TEST(EdgeCases, DisseminateEmptyAndSingleton) {
  clique::Network net(5);
  std::vector<std::vector<clique::Word>> empty(5);
  EXPECT_TRUE(clique::disseminate(net, empty).empty());
  std::vector<std::vector<clique::Word>> one(5);
  one[3] = {42};
  const auto all = clique::disseminate(net, one);
  EXPECT_EQ(all, (std::vector<clique::Word>{42}));
}

TEST(EdgeCases, EngineCliqueSizesMonotone) {
  for (const auto kind :
       {MmKind::Fast, MmKind::Semiring3D, MmKind::Naive}) {
    int prev = 1;
    for (int n = 1; n <= 200; n += 13) {
      const IntMmEngine e(kind, n);
      EXPECT_GE(e.clique_n(), n);
      EXPECT_GE(e.clique_n(), prev - 130);  // loosely monotone in n
      prev = e.clique_n();
    }
  }
}

// ---------------------------------------------------------------------------
// A caller's bad graph is user input: every entry point rejects it with a
// typed InvalidArgument (never an abort, whatever the contract mode).
// ---------------------------------------------------------------------------

TEST(EdgeCases, BadGraphArgumentsThrowInvalidArgument) {
  const auto und = cycle_graph(6);
  const auto dir = cycle_graph(6, /*directed=*/true);
  EXPECT_THROW((void)count_5cycles_cc(dir), InvalidArgument);
  EXPECT_THROW((void)girth_undirected_cc(dir, 1), InvalidArgument);
  EXPECT_THROW((void)girth_undirected_cc(und, 1, MmKind::Auto, -1, 0),
               InvalidArgument);
  EXPECT_THROW((void)girth_directed_cc(und), InvalidArgument);
  EXPECT_THROW((void)detect_4cycle_const(dir), InvalidArgument);
  EXPECT_THROW((void)detect_k_cycle_dolev(und, 2), InvalidArgument);
  EXPECT_THROW((void)detect_k_cycle_cc(und, 2, 1), InvalidArgument);
  const IntMmEngine engine(MmKind::Semiring3D, 6);
  clique::Network net(engine.clique_n());
  const auto a =
      pad_matrix(und.adjacency(), engine.clique_n(), std::int64_t{0});
  EXPECT_THROW((void)detect_colourful_cycle(net, engine, a, und,
                                            std::vector<int>(5, 0), 3),
               InvalidArgument);
  // An empty graph reaches IntMmEngine's n >= 1 check, alone or batched.
  const auto empty = Graph::undirected(0);
  EXPECT_THROW((void)count_triangles_cc(empty), InvalidArgument);
  EXPECT_THROW(
      (void)count_triangles_cc_batch(std::span<const Graph>(&empty, 1)),
      InvalidArgument);
}

TEST(EdgeCases, PlanFastMmHugeDepthStillLegal) {
  // depth 4 forces m = 2401 products; the plan must inflate the clique.
  const auto p = plan_fast_mm(10, 4);
  EXPECT_GE(p.clique_n, p.m);
  EXPECT_EQ(isqrt(p.clique_n) % p.d, 0);
}

}  // namespace
}  // namespace cca::core
