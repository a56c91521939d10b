// Equivalence tests for the specialized node-local kernels: bit-packed
// Boolean multiply, the blocked min-plus and integer products, and the
// packed-key witness min-plus product must agree entry-for-entry with the
// schoolbook multiply() over the corresponding semiring. The witness
// kernel is compiled once per x86-64 ISA level (CCA_ISA_CLONES in
// kernels.cpp), so its tests check the clone the host's CPU resolves to.
#include <gtest/gtest.h>

#include <limits>

#include "matrix/kernels.hpp"
#include "matrix/matrix.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

Matrix<std::uint8_t> random_bool_matrix(int rows, int cols, double density,
                                        Rng& rng) {
  Matrix<std::uint8_t> m(rows, cols, 0);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      m(i, j) = rng.next_double() < density ? 1 : 0;
  return m;
}

Matrix<std::int64_t> random_minplus_matrix(int rows, int cols,
                                           double inf_density, Rng& rng) {
  Matrix<std::int64_t> m(rows, cols, 0);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      m(i, j) = rng.next_double() < inf_density ? MinPlusSemiring::kInf
                                                : rng.next_in(-50, 1000);
  return m;
}

TEST(BoolPackedKernel, MatchesSchoolbookOnRandomSquare) {
  Rng rng(7);
  const BoolSemiring sr;
  for (const int n : {1, 2, 17, 63, 64, 65, 100}) {
    for (const double density : {0.05, 0.5, 0.95}) {
      const auto a = random_bool_matrix(n, n, density, rng);
      const auto b = random_bool_matrix(n, n, density, rng);
      EXPECT_EQ(multiply_bool_packed(a, b), multiply(sr, a, b))
          << "n=" << n << " density=" << density;
    }
  }
}

TEST(BoolPackedKernel, MatchesSchoolbookOnRectangles) {
  Rng rng(8);
  const BoolSemiring sr;
  const struct {
    int n, k, m;
  } shapes[] = {{3, 70, 5}, {65, 2, 130}, {1, 128, 1}, {20, 1, 64}};
  for (const auto& s : shapes) {
    const auto a = random_bool_matrix(s.n, s.k, 0.3, rng);
    const auto b = random_bool_matrix(s.k, s.m, 0.3, rng);
    EXPECT_EQ(multiply_bool_packed(a, b), multiply(sr, a, b));
  }
}

TEST(BoolPackedKernel, LocalMultiplyDispatchesToPackedKernel) {
  Rng rng(9);
  const BoolSemiring sr;
  const auto a = random_bool_matrix(40, 40, 0.4, rng);
  const auto b = random_bool_matrix(40, 40, 0.4, rng);
  EXPECT_EQ(local_multiply(sr, a, b), multiply(sr, a, b));
}

TEST(MinPlusBlockedKernel, MatchesSchoolbookOnRandomSquare) {
  Rng rng(10);
  const MinPlusSemiring sr;
  for (const int n : {1, 2, 16, 63, 64, 65, 90}) {
    for (const double inf_density : {0.0, 0.3, 0.9}) {
      const auto a = random_minplus_matrix(n, n, inf_density, rng);
      const auto b = random_minplus_matrix(n, n, inf_density, rng);
      EXPECT_EQ(multiply_minplus_blocked(a, b), multiply(sr, a, b))
          << "n=" << n << " inf_density=" << inf_density;
    }
  }
}

TEST(MinPlusBlockedKernel, NegativeEntriesDoNotBeatInfinity) {
  // Regression guard for the saturation rule: a finite-but-negative left
  // entry combined with an infinite right entry must yield infinity, not
  // (negative + kInf).
  const MinPlusSemiring sr;
  Matrix<std::int64_t> a(2, 2, 0);
  a(0, 0) = -40;
  a(0, 1) = -7;
  Matrix<std::int64_t> b(2, 2, MinPlusSemiring::kInf);
  b(1, 1) = 3;
  const auto expect = multiply(sr, a, b);
  const auto got = multiply_minplus_blocked(a, b);
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(MinPlusSemiring::is_inf(got(0, 0)));
  EXPECT_EQ(got(0, 1), -4);
}

TEST(MinPlusBlockedKernel, LocalMultiplyDispatchesToBlockedKernel) {
  Rng rng(11);
  const MinPlusSemiring sr;
  const auto a = random_minplus_matrix(33, 33, 0.2, rng);
  const auto b = random_minplus_matrix(33, 33, 0.2, rng);
  EXPECT_EQ(local_multiply(sr, a, b), multiply(sr, a, b));
}

Matrix<std::int64_t> random_int_matrix(int rows, int cols, Rng& rng) {
  Matrix<std::int64_t> m(rows, cols, 0);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j) m(i, j) = rng.next_in(-1000, 1000);
  return m;
}

TEST(I64BlockedKernel, MatchesSchoolbookOnRandomSquare) {
  Rng rng(13);
  const IntRing ring;
  for (const int n : {1, 2, 3, 4, 5, 16, 63, 64, 65, 100}) {
    const auto a = random_int_matrix(n, n, rng);
    const auto b = random_int_matrix(n, n, rng);
    EXPECT_EQ(multiply_i64_blocked(a, b), multiply(ring, a, b)) << "n=" << n;
  }
}

TEST(I64BlockedKernel, MatchesSchoolbookOnRectangles) {
  Rng rng(14);
  const IntRing ring;
  const struct {
    int n, k, m;
  } shapes[] = {{3, 70, 5}, {65, 2, 130}, {1, 128, 1}, {20, 1, 64}, {7, 7, 3}};
  for (const auto& s : shapes) {
    const auto a = random_int_matrix(s.n, s.k, rng);
    const auto b = random_int_matrix(s.k, s.m, rng);
    EXPECT_EQ(multiply_i64_blocked(a, b), multiply(ring, a, b))
        << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(I64BlockedKernel, SparseAndZeroInputs) {
  const IntRing ring;
  Matrix<std::int64_t> a(8, 8, 0);
  Matrix<std::int64_t> b(8, 8, 0);
  a(0, 3) = -7;
  a(7, 7) = 11;
  b(3, 5) = 9;
  b(7, 0) = -2;
  EXPECT_EQ(multiply_i64_blocked(a, b), multiply(ring, a, b));
  const Matrix<std::int64_t> z(5, 5, 0);
  EXPECT_EQ(multiply_i64_blocked(z, z), multiply(ring, z, z));
}

TEST(I64BlockedKernel, LocalMultiplyDispatchesToBlockedKernel) {
  Rng rng(15);
  const IntRing ring;
  const auto a = random_int_matrix(37, 37, rng);
  const auto b = random_int_matrix(37, 37, rng);
  EXPECT_EQ(local_multiply(ring, a, b), multiply(ring, a, b));
  EXPECT_EQ(local_multiply(ring, a, b), multiply_i64_blocked(a, b));
}

// ---------------------------------------------------------------------------
// Witness min-plus: multiply_witness_minplus vs multiply(WitnessMinPlus).
// ---------------------------------------------------------------------------

constexpr std::int64_t kWInf = WitnessMinPlus::kInf;

struct WitnessInputs {
  std::int64_t d_lo = -50;
  std::int64_t d_hi = 1000;
  double inf_density = 0.0;
};

/// Left operand as the dp lift builds it: every entry, finite or not,
/// carries its column index as witness, so infinite entries are {kInf, j}.
Matrix<WDist> random_witness_left(int rows, int cols, const WitnessInputs& in,
                                  Rng& rng) {
  Matrix<WDist> m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      m(i, j) = {rng.next_double() < in.inf_density
                     ? kWInf
                     : rng.next_in(in.d_lo, in.d_hi),
                 j};
  return m;
}

/// Right operand: witness-less finite entries; infinite entries carry a
/// random planted witness (B's witness never reaches the output).
Matrix<WDist> random_witness_right(int rows, int cols, const WitnessInputs& in,
                                   Rng& rng) {
  Matrix<WDist> m(rows, cols);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < cols; ++j)
      m(i, j) = rng.next_double() < in.inf_density
                    ? WDist{kWInf, rng.next_in(-1, 40)}
                    : WDist{rng.next_in(in.d_lo, in.d_hi), -1};
  return m;
}

TEST(WitnessMinPlusKernel, MatchesSchoolbookOnRandomSquare) {
  Rng rng(16);
  const WitnessMinPlus sr;
  for (const int n : {1, 2, 3, 4, 5, 7, 17, 36, 37, 63, 64, 65}) {
    for (const double inf_density : {0.0, 0.3, 0.9}) {
      const WitnessInputs in{-50, 1000, inf_density};
      const auto a = random_witness_left(n, n, in, rng);
      const auto b = random_witness_right(n, n, in, rng);
      ASSERT_TRUE(in_witness_key_domain(a, b));
      EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
          << "n=" << n << " inf_density=" << inf_density;
    }
  }
}

TEST(WitnessMinPlusKernel, MatchesSchoolbookOnRectangles) {
  Rng rng(17);
  const WitnessMinPlus sr;
  // Output widths 5, 130, 1, 63, 3, 38: none a multiple of the 4-column
  // register tile, so the padded lanes of the last panel are exercised.
  const struct {
    int n, k, m;
  } shapes[] = {{3, 70, 5},  {65, 2, 130}, {1, 128, 1},
                {20, 1, 63}, {7, 7, 3},    {36, 36, 38}};
  for (const auto& s : shapes) {
    const WitnessInputs in{-50, 1000, 0.2};
    const auto a = random_witness_left(s.n, s.k, in, rng);
    const auto b = random_witness_right(s.k, s.m, in, rng);
    EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
        << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(WitnessMinPlusKernel, TieHeavyInputsKeepTheSmallestWitness) {
  // Distances in [0, 2] make nearly every output a tie between many
  // summation indices with distinct witnesses; the lexicographic add must
  // keep the smallest witness. Witnesses are shuffled so the smallest is
  // not simply the first index.
  Rng rng(18);
  const WitnessMinPlus sr;
  for (const int n : {6, 33, 40}) {
    const WitnessInputs in{0, 2, 0.1};
    auto a = random_witness_left(n, n, in, rng);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (a(i, j).d < kWInf) a(i, j).w = rng.next_in(-1, 3 * n);
    const auto b = random_witness_right(n, n, in, rng);
    const auto want = multiply(sr, a, b);
    EXPECT_EQ(multiply_witness_minplus(a, b), want) << "n=" << n;
    int ties = 0;  // outputs attained by two or more distinct witnesses
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        int hits = 0;
        for (int r = 0; r < n; ++r)
          if (sr.mul(a(i, r), b(r, j)).d == want(i, j).d) ++hits;
        ties += hits >= 2 ? 1 : 0;
      }
    EXPECT_GT(ties, n * n / 2) << "n=" << n;
  }
}

TEST(WitnessMinPlusKernel, NegativeWeights) {
  Rng rng(19);
  const WitnessMinPlus sr;
  for (const int n : {5, 36, 45}) {
    for (const double inf_density : {0.0, 0.5}) {
      const WitnessInputs in{-1000, 20, inf_density};
      const auto a = random_witness_left(n, n, in, rng);
      const auto b = random_witness_right(n, n, in, rng);
      EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
          << "n=" << n << " inf_density=" << inf_density;
    }
  }
  // A negative left entry against an infinite right entry must stay
  // infinite, and so must a negative right entry against {kInf, j}.
  Matrix<WDist> a(1, 2);
  a(0, 0) = {-40, 0};
  a(0, 1) = {kWInf, 1};
  Matrix<WDist> b(2, 2);
  b(0, 0) = {kWInf, 5};
  b(1, 0) = {-900, -1};
  b(0, 1) = {3, -1};
  b(1, 1) = {-900, -1};
  const auto got = multiply_witness_minplus(a, b);
  EXPECT_EQ(got, multiply(sr, a, b));
  EXPECT_EQ(got(0, 0), sr.zero());
  EXPECT_EQ(got(0, 1), (WDist{-37, 0}));
}

TEST(WitnessMinPlusKernel, InfinitiesOnBothSides) {
  const WitnessMinPlus sr;
  // Every infinite spelling: the exact zero, {kInf, j} with planted
  // witnesses (including witnesses outside the packed range, which only
  // finite entries must respect), and distances above kInf.
  const WDist infs[] = {sr.zero(),
                        {kWInf, 3},
                        {kWInf, -7},
                        {kWInf, std::numeric_limits<std::int64_t>::max()},
                        {kWInf + 5, 2},
                        {std::numeric_limits<std::int64_t>::max(), 0}};
  Rng rng(20);
  for (const int n : {4, 9, 36}) {
    for (const double inf_density : {0.5, 0.95, 1.0}) {
      const WitnessInputs in{-60, 60, 0.0};
      auto a = random_witness_left(n, n, in, rng);
      auto b = random_witness_right(n, n, in, rng);
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          if (rng.next_double() < inf_density)
            a(i, j) = infs[rng.next_below(std::size(infs))];
          if (rng.next_double() < inf_density)
            b(i, j) = infs[rng.next_below(std::size(infs))];
        }
      ASSERT_TRUE(in_witness_key_domain(a, b));
      EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
          << "n=" << n << " inf_density=" << inf_density;
    }
  }
}

TEST(WitnessMinPlusKernel, KeysAtTheDomainEdges) {
  const WitnessMinPlus sr;
  constexpr std::int64_t kD = kWitnessKeyMaxAbsD;
  constexpr std::int64_t kW = kWitnessKeyMaxWitness;
  const std::int64_t ds[] = {-kD, -kD + 1, -1, 0, 1, kD - 1, kD};
  const std::int64_t ws[] = {-1, 0, kW - 1, kW};
  Rng rng(21);
  for (const int n : {3, 8, 21}) {
    Matrix<WDist> a(n, n), b(n, n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        a(i, j) = {ds[rng.next_below(std::size(ds))],
                   ws[rng.next_below(std::size(ws))]};
        b(i, j) = {ds[rng.next_below(std::size(ds))], -1};
        if (rng.chance(1, 5)) a(i, j) = {kWInf, kW + 1};
        if (rng.chance(1, 5)) b(i, j) = sr.zero();
      }
    ASSERT_TRUE(in_witness_key_domain(a, b));
    EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
        << "n=" << n;
  }
  // The extreme sums by hand: -D + -D keeps witness kW, and +D + +D with
  // witness -1 still unpacks as finite.
  Matrix<WDist> a(2, 1), b(1, 2);
  a(0, 0) = {-kD, kW};
  a(1, 0) = {kD, -1};
  b(0, 0) = {-kD, -1};
  b(0, 1) = {kD, -1};
  const auto got = multiply_witness_minplus(a, b);
  EXPECT_EQ(got, multiply(sr, a, b));
  EXPECT_EQ(got(0, 0), (WDist{-2 * kD, kW}));
  EXPECT_EQ(got(1, 1), (WDist{2 * kD, -1}));
}

TEST(WitnessMinPlusKernel, OutOfDomainEntriesTakeTheFallback) {
  const WitnessMinPlus sr;
  constexpr std::int64_t kD = kWitnessKeyMaxAbsD;
  constexpr std::int64_t kW = kWitnessKeyMaxWitness;
  Rng rng(22);
  const WitnessInputs in{-50, 50, 0.2};
  // One offending entry per case; everything else packs.
  const struct {
    bool left;
    WDist e;
  } cases[] = {{true, {kD + 1, 0}},       {true, {-kD - 1, 0}},
               {false, {kD + 1, -1}},     {false, {-kD - 1, -1}},
               {true, {5, kW + 1}},       {true, {5, -2}},
               {true, {kWInf - 1, 0}},    {false, {kWInf - 1, -1}},
               {true, {-kWInf + 1, 0}},   {false, {-kWInf + 1, -1}}};
  for (const auto& c : cases) {
    auto a = random_witness_left(9, 9, in, rng);
    auto b = random_witness_right(9, 9, in, rng);
    ASSERT_TRUE(in_witness_key_domain(a, b));
    (c.left ? a : b)(4, 4) = c.e;
    EXPECT_FALSE(in_witness_key_domain(a, b)) << c.e.d << "," << c.e.w;
    EXPECT_EQ(multiply_witness_minplus(a, b), multiply(sr, a, b))
        << c.e.d << "," << c.e.w;
  }
  // Large finite distances whose packed keys would overflow must come out
  // exactly as multiply() says: a sum past kInf loses to the initial
  // {kInf, -1}, while a sum of exactly kInf with a witness below -1 wins
  // that tie.
  Matrix<WDist> a(1, 2), b(2, 1);
  a(0, 0) = {kWInf - 10, -5};
  a(0, 1) = {kWInf / 2, 4};
  b(0, 0) = {10, -1};
  b(1, 0) = {kWInf / 2 + 2, -1};
  const auto got = multiply_witness_minplus(a, b);
  EXPECT_EQ(got, multiply(sr, a, b));
  EXPECT_EQ(got(0, 0), (WDist{kWInf, -5}));
}

TEST(WitnessMinPlusKernel, LocalMultiplyDispatchesToPackedKernel) {
  Rng rng(23);
  const WitnessMinPlus sr;
  const WitnessInputs in{-50, 1000, 0.2};
  const auto a = random_witness_left(36, 36, in, rng);
  const auto b = random_witness_right(36, 36, in, rng);
  EXPECT_EQ(local_multiply(sr, a, b), multiply(sr, a, b));
  EXPECT_EQ(local_multiply(sr, a, b), multiply_witness_minplus(a, b));
}

/// A semiring with no kernel specialization (xor as addition, and as
/// multiplication over 64-bit masks) — exercises the generic fallback.
/// Zero contract: 0 & x == 0 for every mask.
struct XorAndSemiring {
  using Value = std::uint64_t;
  [[nodiscard]] Value zero() const noexcept { return 0; }
  [[nodiscard]] Value one() const noexcept { return ~Value{0}; }
  [[nodiscard]] Value add(Value a, Value b) const noexcept { return a ^ b; }
  [[nodiscard]] Value mul(Value a, Value b) const noexcept { return a & b; }
};

TEST(LocalMultiply, GenericSemiringFallsBackToSchoolbook) {
  Rng rng(12);
  const XorAndSemiring sr;
  Matrix<std::uint64_t> a(10, 10, 0);
  Matrix<std::uint64_t> b(10, 10, 0);
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j) {
      a(i, j) = rng.next();
      b(i, j) = rng.next();
    }
  EXPECT_EQ(local_multiply(sr, a, b), multiply(sr, a, b));
}

}  // namespace
}  // namespace cca
