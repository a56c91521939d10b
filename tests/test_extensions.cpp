// Tests for the extension features beyond the paper's headline results:
// 5-cycle counting (the k in {5,6,7} remark after Corollary 2), witness-
// based routing tables for arbitrary APSP variants, bit-packed Boolean
// transport (the "/ log n" factors), witnesses over the fast product, and
// the broadcast congested clique (Corollary 24).
#include <gtest/gtest.h>

#include "clique/broadcast.hpp"
#include "clique/network.hpp"
#include "core/apsp.hpp"
#include "core/counting.hpp"
#include "core/distance_product.hpp"
#include "core/mm_dense.hpp"
#include "core/witness.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "util/rng.hpp"

namespace cca::core {
namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

// ---------------------------------------------------------------------------
// 5-cycle counting.
// ---------------------------------------------------------------------------

TEST(FiveCycles, StructuredGraphs) {
  EXPECT_EQ(count_5cycles_cc(cycle_graph(5)).count, 1);
  EXPECT_EQ(count_5cycles_cc(cycle_graph(6)).count, 0);
  EXPECT_EQ(count_5cycles_cc(complete_graph(5)).count, 12);   // 5!/(5*2)
  EXPECT_EQ(count_5cycles_cc(petersen_graph()).count, 12);    // classic
  EXPECT_EQ(count_5cycles_cc(complete_bipartite(4, 4)).count, 0);
  EXPECT_EQ(count_5cycles_cc(binary_tree(14)).count, 0);
  EXPECT_EQ(count_5cycles_cc(grid_graph(4, 4)).count, 0);
}

class FiveCycleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FiveCycleSweep, MatchesReferenceOnRandomGraphs) {
  const auto seed = GetParam();
  const auto g = gnp_random_graph(18, 0.3, seed);
  EXPECT_EQ(count_5cycles_cc(g).count, ref_count_5cycles(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FiveCycleSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(FiveCycles, EnginesAgree) {
  const auto g = gnp_random_graph(20, 0.25, 9);
  const auto want = ref_count_5cycles(g);
  EXPECT_EQ(count_5cycles_cc(g, MmKind::Fast).count, want);
  EXPECT_EQ(count_5cycles_cc(g, MmKind::Semiring3D).count, want);
  EXPECT_EQ(count_5cycles_cc(g, MmKind::Naive).count, want);
}

TEST(FiveCycles, ReferenceCrossCheckAgainstEigenvalueInstances) {
  // K6: #C5 = C(6,5) * 12 = 72 (each 5-subset is a K5 with 12 cycles).
  EXPECT_EQ(ref_count_5cycles(complete_graph(6)), 72);
  EXPECT_EQ(count_5cycles_cc(complete_graph(6)).count, 72);
}

// ---------------------------------------------------------------------------
// Routing tables from arbitrary distance matrices.
// ---------------------------------------------------------------------------

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
  return kInf;
}

TEST(RoutingFromDistances, SeidelDistancesYieldOptimalRoutes) {
  const auto g = gnp_random_graph(22, 0.15, 4);
  const auto apsp = apsp_seidel(g);  // distances only
  clique::TrafficStats traffic;
  const auto next = routing_table_from_distances(g, apsp.dist, &traffic);
  EXPECT_GT(traffic.rounds, 0);
  for (int u = 0; u < g.n(); ++u)
    for (int v = 0; v < g.n(); ++v) {
      if (u == v) continue;
      if (apsp.dist(u, v) >= kInf) {
        EXPECT_EQ(next(u, v), -1);
        continue;
      }
      EXPECT_EQ(walk_route(g, next, u, v), apsp.dist(u, v)) << u << "," << v;
    }
}

TEST(RoutingFromDistances, WorksForWeightedDiameterVariant) {
  const auto g = random_weighted_graph(16, 0.35, 1, 5, 8, /*directed=*/true);
  const auto apsp = apsp_small_diameter(g);  // fast path, no witnesses
  const auto next = routing_table_from_distances(g, apsp.dist, nullptr);
  for (int u = 0; u < g.n(); ++u)
    for (int v = 0; v < g.n(); ++v) {
      if (u == v || apsp.dist(u, v) >= kInf) continue;
      EXPECT_EQ(walk_route(g, next, u, v), apsp.dist(u, v)) << u << "," << v;
    }
}

// ---------------------------------------------------------------------------
// Bit-packed Boolean transport.
// ---------------------------------------------------------------------------

TEST(PackedBoolean, SameProductFarFewerRounds) {
  const int n = 216;
  Rng rng(5);
  Matrix<std::uint8_t> a(n, n, 0);
  Matrix<std::uint8_t> b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.chance(1, 3) ? 1 : 0;
      b(i, j) = rng.chance(1, 3) ? 1 : 0;
    }
  const BoolSemiring sr;

  std::int64_t unpacked_rounds = 0;
  Matrix<std::uint8_t> unpacked;
  {
    clique::Network net(n);
    unpacked = mm_semiring_3d(net, sr, ByteCodec{}, a, b);
    unpacked_rounds = net.stats().rounds;
  }
  std::int64_t packed_rounds = 0;
  Matrix<std::uint8_t> packed;
  {
    clique::Network net(n);
    packed = mm_semiring_3d(net, sr, PackedBoolCodec{}, a, b);
    packed_rounds = net.stats().rounds;
  }
  EXPECT_EQ(packed, unpacked);
  EXPECT_EQ(packed, multiply(sr, a, b));
  // 64 entries per word: block sizes here are 36 entries -> 1 word, so the
  // saving is ~36x; assert at least 10x.
  EXPECT_LT(10 * packed_rounds, unpacked_rounds);
}

TEST(PackedBoolean, WorksInFastBilinearToo) {
  // Boolean OR-AND is not a ring, but 0/1 integer matrices over Z with a
  // packed-bit STEP-1/7 codec would change values; instead check packing
  // on the semiring path at another size and keep the ring path unpacked.
  const int n = 27;
  Rng rng(6);
  Matrix<std::uint8_t> a(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a(i, j) = rng.chance(1, 2) ? 1 : 0;
  const BoolSemiring sr;
  clique::Network net1(n);
  clique::Network net2(n);
  EXPECT_EQ(mm_semiring_3d(net1, sr, PackedBoolCodec{}, a, a),
            mm_semiring_3d(net2, sr, ByteCodec{}, a, a));
  EXPECT_LE(net1.stats().rounds, net2.stats().rounds);
}

// ---------------------------------------------------------------------------
// Witnesses over the fast (ring-embedded) oracle — Lemma 21 end-to-end.
// ---------------------------------------------------------------------------

TEST(WitnessOverFastOracle, FindsValidWitnesses) {
  const int n = 16;
  const std::int64_t m_bound = 20;
  const auto plan = plan_fast_mm(n, 1);
  ASSERT_EQ(plan.clique_n, n);
  const auto alg = tensor_power(strassen_algorithm(), 1);
  clique::Network net(n);

  Rng rng(7);
  Matrix<std::int64_t> s(n, n, kInf), t(n, n, kInf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (!rng.chance(1, 4)) s(i, j) = rng.next_in(0, m_bound);
      if (!rng.chance(1, 4)) t(i, j) = rng.next_in(0, m_bound);
    }

  const DpOracle oracle = [&](const Matrix<std::int64_t>& x,
                              const Matrix<std::int64_t>& y) {
    // Restricted inputs keep entries within {0..M} u {inf}; the product is
    // bounded by 2M, which the embedding reports exactly.
    return dp_ring_embedded(net, alg, x, y, m_bound);
  };
  const auto p = oracle(s, t);
  const MinPlusSemiring sr;
  ASSERT_EQ(p, multiply(sr, s, t));

  const auto w = dp_witnesses(net, s, t, p, oracle, 99, 4);
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v) {
      if (p(u, v) >= kInf) continue;
      ASSERT_GE(w(u, v), 0) << u << "," << v;
      EXPECT_EQ(s(u, w(u, v)) + t(w(u, v), v), p(u, v));
    }
}

// ---------------------------------------------------------------------------
// Broadcast congested clique (Corollary 24).
// ---------------------------------------------------------------------------

TEST(BroadcastClique, DeliverChargesMaxQueue) {
  clique::BroadcastNetwork net(4);
  net.broadcast(0, 1);
  net.broadcast(0, 2);
  net.broadcast(3, 7);
  net.deliver();
  EXPECT_EQ(net.rounds(), 2);
  EXPECT_EQ(net.heard_from(0).size(), 2u);
  EXPECT_EQ(net.heard_from(3).size(), 1u);
  EXPECT_TRUE(net.heard_from(1).empty());
}

TEST(BroadcastClique, MmIsLinearWhileUnicastIsSublinear) {
  for (const int n : {27, 64, 125}) {
    EXPECT_EQ(clique::broadcast_mm_rounds(n), 2 * n);
    clique::Network net(n);
    const IntRing ring;
    const I64Codec codec;
    Matrix<std::int64_t> a(n, n, 1);
    (void)mm_semiring_3d(net, ring, codec, a, a);
    EXPECT_LT(net.stats().rounds, 2 * n);  // unicast beats broadcast
  }
}

}  // namespace
}  // namespace cca::core
