// Property-based tests: algebraic laws of the semirings, conservation and
// ordering invariants of the network accounting, and cross-engine
// consistency on randomized inputs.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "clique/network.hpp"
#include "clique/routing.hpp"
#include "core/engine.hpp"
#include "core/mm_dense.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "matrix/poly.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

// ---------------------------------------------------------------------------
// Semiring laws on random values.
// ---------------------------------------------------------------------------

template <Semiring S, typename Gen>
void check_semiring_laws(const S& s, Gen&& gen, int trials) {
  for (int t = 0; t < trials; ++t) {
    const auto a = gen();
    const auto b = gen();
    const auto c = gen();
    // Additive commutative monoid with identity zero.
    EXPECT_EQ(s.add(a, b), s.add(b, a));
    EXPECT_EQ(s.add(s.add(a, b), c), s.add(a, s.add(b, c)));
    EXPECT_EQ(s.add(a, s.zero()), a);
    // Multiplicative monoid with identity one.
    EXPECT_EQ(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)));
    EXPECT_EQ(s.mul(a, s.one()), a);
    EXPECT_EQ(s.mul(s.one(), a), a);
    // Distributivity.
    EXPECT_EQ(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)));
    EXPECT_EQ(s.mul(s.add(a, b), c), s.add(s.mul(a, c), s.mul(b, c)));
    // Zero annihilates.
    EXPECT_EQ(s.mul(a, s.zero()), s.zero());
    EXPECT_EQ(s.mul(s.zero(), a), s.zero());
  }
}

TEST(SemiringLaws, IntRing) {
  Rng rng(1);
  const IntRing s;
  check_semiring_laws(s, [&] { return rng.next_in(-50, 50); }, 200);
}

TEST(SemiringLaws, MinPlus) {
  Rng rng(2);
  const MinPlusSemiring s;
  check_semiring_laws(
      s,
      [&]() -> std::int64_t {
        return rng.chance(1, 5) ? MinPlusSemiring::kInf : rng.next_in(0, 1000);
      },
      200);
}

TEST(SemiringLaws, Boolean) {
  Rng rng(3);
  const BoolSemiring s;
  check_semiring_laws(
      s,
      [&]() -> std::uint8_t { return rng.chance(1, 2) ? 1 : 0; }, 64);
}

TEST(SemiringLaws, PolyRingZ_X_mod_X5) {
  Rng rng(4);
  const PolyRing s{5};
  auto gen = [&] {
    CappedPoly p(5);
    for (int d = 0; d < 5; ++d)
      if (rng.chance(1, 2)) p.coeff(d) = rng.next_in(-9, 9);
    return p;
  };
  check_semiring_laws(s, gen, 100);
}

// ---------------------------------------------------------------------------
// Network accounting invariants.
// ---------------------------------------------------------------------------

TEST(NetworkInvariants, BoundNeverExceedsMeasuredRounds) {
  // Per superstep, the volume bound Network charges sits below the rounds
  // of every discipline on the delivered demand list: the Koenig rounds the
  // network charged, and the direct and hashed-relay rounds of that list.
  Rng rng(7);
  clique::Network net(16);
  for (int superstep = 0; superstep < 15; ++superstep) {
    std::map<std::pair<int, int>, std::int64_t> words;
    for (int i = 0; i < 200; ++i) {
      const int s = static_cast<int>(rng.next_below(16));
      const int d = static_cast<int>(rng.next_below(16));
      net.send(s, d, rng.next());
      if (s != d) ++words[{s, d}];
    }
    std::vector<clique::Demand> demands;  // canonical (src, dst) order
    for (const auto& [pair, w] : words)
      demands.push_back({pair.first, pair.second, w});
    const auto before = net.stats();
    net.deliver();
    const auto step = net.stats() - before;
    EXPECT_EQ(step.rounds, clique::rounds_koenig_relay(16, demands));
    EXPECT_LE(step.bound_rounds, step.rounds);
    EXPECT_LE(step.bound_rounds, clique::rounds_direct(16, demands));
    EXPECT_LE(step.bound_rounds, clique::rounds_hash_relay(16, demands));
  }
  EXPECT_LE(net.stats().bound_rounds, net.stats().rounds);
}

TEST(NetworkInvariants, WordConservation) {
  // Everything staged (to others) arrives somewhere, exactly once.
  Rng rng(8);
  clique::Network net(10);
  std::int64_t staged = 0;
  for (int i = 0; i < 300; ++i) {
    const int s = static_cast<int>(rng.next_below(10));
    const int d = static_cast<int>(rng.next_below(10));
    net.send(s, d, static_cast<clique::Word>(i));
    if (s != d) ++staged;
  }
  net.deliver();
  EXPECT_EQ(net.stats().total_words, staged);
  std::int64_t received = 0;
  for (int d = 0; d < 10; ++d)
    for (int s = 0; s < 10; ++s)
      if (s != d) received += static_cast<std::int64_t>(net.inbox(d, s).size());
  EXPECT_EQ(received, staged);
}

TEST(NetworkInvariants, MmBoundTracksSchedule) {
  // For the MM algorithms the measured Koenig schedule stays within a
  // small constant of the per-node volume bound at every size.
  const IntRing ring;
  const I64Codec codec;
  Rng rng(9);
  for (const int n : {27, 64, 125}) {
    clique::Network net(n);
    Matrix<std::int64_t> a(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) = rng.next_in(0, 5);
    (void)cca::core::mm_semiring_3d(net, ring, codec, a, a);
    EXPECT_LE(net.stats().bound_rounds, net.stats().rounds) << n;
    EXPECT_LE(net.stats().rounds, 4 * net.stats().bound_rounds) << n;
  }
}

// ---------------------------------------------------------------------------
// Cross-engine consistency on random instances.
// ---------------------------------------------------------------------------

class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, AllEnginesComputeTheSameProduct) {
  Rng rng(GetParam());
  const int n = 20 + static_cast<int>(rng.next_below(30));
  Matrix<std::int64_t> a(n, n, 0);
  Matrix<std::int64_t> b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.next_in(-20, 20);
      b(i, j) = rng.next_in(-20, 20);
    }
  const IntRing ring;
  const auto want = multiply(ring, a, b);

  for (const auto kind : {cca::core::MmKind::Fast,
                          cca::core::MmKind::Semiring3D,
                          cca::core::MmKind::Naive}) {
    const cca::core::IntMmEngine engine(kind, n);
    clique::Network net(engine.clique_n());
    const auto pa =
        cca::core::pad_matrix(a, engine.clique_n(), std::int64_t{0});
    const auto pb =
        cca::core::pad_matrix(b, engine.clique_n(), std::int64_t{0});
    const auto got = engine.multiply(net, pa, pb);
    EXPECT_EQ(got.block(0, 0, n, n), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace cca
