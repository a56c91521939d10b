// Tests for distance products: exact semiring, witnessed, ring-embedded
// (Lemma 18), and approximate (Lemma 20).
#include <gtest/gtest.h>

#include <cmath>

#include "clique/network.hpp"
#include "core/distance_product.hpp"
#include "core/mm_dense.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca::core {
namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

Matrix<std::int64_t> random_bounded(int n, std::int64_t max_v,
                                    std::uint64_t seed, int inf_one_in = 4) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, kInf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (!rng.chance(1, static_cast<std::uint64_t>(inf_one_in)))
        m(i, j) = rng.next_in(0, max_v);
  return m;
}

TEST(DpSemiring, MatchesLocalMinPlus) {
  const MinPlusSemiring sr;
  for (const int n : {8, 27, 64}) {
    clique::Network net(n);
    const auto a = random_bounded(n, 40, 3 + static_cast<std::uint64_t>(n));
    const auto b = random_bounded(n, 40, 4 + static_cast<std::uint64_t>(n));
    EXPECT_EQ(dp_semiring(net, a, b), multiply(sr, a, b)) << n;
  }
}

TEST(DpSemiringWitness, DistanceAndWitnessValid) {
  const MinPlusSemiring sr;
  for (const int n : {8, 27}) {
    clique::Network net(n);
    const auto a = random_bounded(n, 30, 5 + static_cast<std::uint64_t>(n));
    const auto b = random_bounded(n, 30, 6 + static_cast<std::uint64_t>(n));
    const auto [dist, wit] = dp_semiring_witness(net, a, b);
    EXPECT_EQ(dist, multiply(sr, a, b));
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v) {
        if (dist(u, v) >= kInf) {
          EXPECT_EQ(wit(u, v), -1);
          continue;
        }
        const int k = wit(u, v);
        ASSERT_GE(k, 0);
        ASSERT_LT(k, n);
        EXPECT_EQ(a(u, k) + b(k, v), dist(u, v));
      }
  }
}

TEST(DpSemiringWitness, CostsTwiceThePlainProduct) {
  const int n = 27;
  std::int64_t plain = 0;
  std::int64_t witnessed = 0;
  {
    clique::Network net(n);
    (void)dp_semiring(net, random_bounded(n, 9, 1), random_bounded(n, 9, 2));
    plain = net.stats().rounds;
  }
  {
    clique::Network net(n);
    (void)dp_semiring_witness(net, random_bounded(n, 9, 1),
                              random_bounded(n, 9, 2));
    witnessed = net.stats().rounds;
  }
  EXPECT_GE(witnessed, plain);
  EXPECT_LE(witnessed, 3 * plain);
}

class RingEmbeddedSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(RingEmbeddedSweep, MatchesExactProductUpTo2M) {
  const auto m_bound = GetParam();
  const int n = 16;
  const auto plan = plan_fast_mm(n, 1);
  const auto alg = tensor_power(strassen_algorithm(), 1);
  clique::Network net(plan.clique_n);
  auto a = random_bounded(n, m_bound, 7 + static_cast<std::uint64_t>(m_bound));
  auto b = random_bounded(n, m_bound, 8 + static_cast<std::uint64_t>(m_bound));
  a = pad_matrix(a, plan.clique_n, kInf);
  b = pad_matrix(b, plan.clique_n, kInf);
  const auto got = dp_ring_embedded(net, alg, a, b, m_bound);
  const MinPlusSemiring sr;
  const auto want = multiply(sr, a, b);
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RingEmbeddedSweep,
                         ::testing::Values(0, 1, 2, 5, 9, 17));

TEST(RingEmbedded, EntriesAboveBoundBecomeInfinite) {
  const int n = 4;
  const auto alg = tensor_power(strassen_algorithm(), 1);
  const auto plan = plan_fast_mm(n, 1);
  clique::Network net(plan.clique_n);
  Matrix<std::int64_t> a(plan.clique_n, plan.clique_n, kInf);
  a(0, 1) = 100;  // above m_bound: treated as infinity
  a(1, 2) = 1;
  const auto got = dp_ring_embedded(net, alg, a, a, 5);
  EXPECT_EQ(got(0, 2), kInf);
}

TEST(RingEmbedded, RoundsScaleWithM) {
  // Lemma 18's O(M n^rho): doubling M should roughly double the rounds.
  const int n = 16;
  const auto alg = tensor_power(strassen_algorithm(), 1);
  const auto plan = plan_fast_mm(n, 1);
  std::int64_t rounds_small = 0;
  std::int64_t rounds_large = 0;
  {
    clique::Network net(plan.clique_n);
    (void)dp_ring_embedded(net, alg,
                           pad_matrix(random_bounded(n, 4, 1), plan.clique_n, kInf),
                           pad_matrix(random_bounded(n, 4, 2), plan.clique_n, kInf),
                           4);
    rounds_small = net.stats().rounds;
  }
  {
    clique::Network net(plan.clique_n);
    (void)dp_ring_embedded(net, alg,
                           pad_matrix(random_bounded(n, 16, 1), plan.clique_n, kInf),
                           pad_matrix(random_bounded(n, 16, 2), plan.clique_n, kInf),
                           16);
    rounds_large = net.stats().rounds;
  }
  EXPECT_GT(rounds_large, 2 * rounds_small);
  EXPECT_LT(rounds_large, 8 * rounds_small);
}

class ApproxSweep : public ::testing::TestWithParam<double> {};

TEST_P(ApproxSweep, SandwichBoundHolds) {
  const double delta = GetParam();
  const int n = 16;
  const std::int64_t m_bound = 200;
  const auto alg = tensor_power(strassen_algorithm(), 1);
  const auto plan = plan_fast_mm(n, 1);
  clique::Network net(plan.clique_n);
  const auto a =
      pad_matrix(random_bounded(n, m_bound, 21), plan.clique_n, kInf);
  const auto b =
      pad_matrix(random_bounded(n, m_bound, 22), plan.clique_n, kInf);
  const auto approx = dp_approx(net, alg, a, b, m_bound, delta);
  const MinPlusSemiring sr;
  const auto exact = multiply(sr, a, b);
  for (int u = 0; u < plan.clique_n; ++u)
    for (int v = 0; v < plan.clique_n; ++v) {
      if (exact(u, v) >= kInf) {
        EXPECT_GE(approx(u, v), kInf);
        continue;
      }
      EXPECT_GE(approx(u, v), exact(u, v)) << u << "," << v;
      const double ceiling =
          (1.0 + delta) * static_cast<double>(exact(u, v)) + 1e-6;
      EXPECT_LE(static_cast<double>(approx(u, v)), ceiling) << u << "," << v;
    }
}

INSTANTIATE_TEST_SUITE_P(Deltas, ApproxSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0));

TEST(Approx, ZeroEntriesStayExact) {
  const int n = 4;
  const auto alg = tensor_power(strassen_algorithm(), 0);
  const auto plan = plan_fast_mm(n, 0);
  clique::Network net(plan.clique_n);
  Matrix<std::int64_t> a(plan.clique_n, plan.clique_n, kInf);
  for (int i = 0; i < plan.clique_n; ++i) a(i, i) = 0;
  a(0, 1) = 3;
  const auto approx = dp_approx(net, alg, a, a, 3, 0.5);
  EXPECT_EQ(approx(0, 0), 0);
  EXPECT_EQ(approx(0, 1), 3);  // 3 = 0 + 3 exactly representable at level 0
}

}  // namespace
}  // namespace cca::core
