// Unit tests for the matrix algebra substrate: containers, semirings,
// Strassen, capped polynomials, codecs.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "matrix/codec.hpp"
#include "matrix/matrix.hpp"
#include "matrix/ops.hpp"
#include "matrix/poly.hpp"
#include "matrix/semiring.hpp"
#include "matrix/strassen.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

Matrix<std::int64_t> random_matrix(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(r, c, 0);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j) m(i, j) = rng.next_in(-100, 100);
  return m;
}

TEST(MatrixContainer, BlockAndPasteRoundTrip) {
  const auto m = random_matrix(6, 8, 1);
  const auto b = m.block(1, 2, 3, 4);
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 4);
  EXPECT_EQ(b(0, 0), m(1, 2));
  Matrix<std::int64_t> copy(6, 8, 0);
  copy.paste(1, 2, b);
  EXPECT_EQ(copy(2, 3), m(2, 3));
  EXPECT_EQ(copy(0, 0), 0);
}

TEST(MatrixContainer, ResizedPadsAndCrops) {
  const auto m = random_matrix(3, 3, 2);
  const auto grown = m.resized(5, 5, -1);
  EXPECT_EQ(grown(4, 4), -1);
  EXPECT_EQ(grown(2, 2), m(2, 2));
  const auto cropped = grown.resized(2, 2, 0);
  EXPECT_EQ(cropped(1, 1), m(1, 1));
}

TEST(MatrixContainer, TransposeInvolution) {
  const auto m = random_matrix(4, 7, 3);
  EXPECT_EQ(m.transposed().transposed(), m);
}

TEST(Ops, IdentityIsMultiplicativeUnit) {
  const IntRing ring;
  const auto m = random_matrix(9, 9, 4);
  const auto id = identity(ring, 9);
  EXPECT_EQ(multiply(ring, m, id), m);
  EXPECT_EQ(multiply(ring, id, m), m);
}

TEST(Ops, MultiplyMatchesManualSmallCase) {
  const IntRing ring;
  Matrix<std::int64_t> a(2, 2, 0), b(2, 2, 0);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  const auto p = multiply(ring, a, b);
  EXPECT_EQ(p(0, 0), 19);
  EXPECT_EQ(p(0, 1), 22);
  EXPECT_EQ(p(1, 0), 43);
  EXPECT_EQ(p(1, 1), 50);
}

TEST(Ops, MinPlusProductIsShortestTwoHop) {
  const MinPlusSemiring sr;
  const auto inf = MinPlusSemiring::kInf;
  Matrix<std::int64_t> w(3, 3, inf);
  for (int i = 0; i < 3; ++i) w(i, i) = 0;
  w(0, 1) = 2;
  w(1, 2) = 3;
  const auto w2 = multiply(sr, w, w);
  EXPECT_EQ(w2(0, 2), 5);
  EXPECT_EQ(w2(2, 0), inf);
}

TEST(Ops, PowerBySquaring) {
  const IntRing ring;
  const auto m = random_matrix(5, 5, 6);
  auto manual = identity(ring, 5);
  for (int i = 0; i < 5; ++i) manual = multiply(ring, manual, m);
  EXPECT_EQ(power(ring, m, 5), manual);
  EXPECT_EQ(power(ring, m, 0), identity(ring, 5));
}

TEST(Ops, TraceSumsDiagonal) {
  const IntRing ring;
  Matrix<std::int64_t> m(3, 3, 9);
  m(0, 0) = 1; m(1, 1) = 2; m(2, 2) = 3;
  EXPECT_EQ(trace(ring, m), 6);
}

// ---------------------------------------------------------------------------
// Zero-skip soundness audit. multiply() skips left operands equal to
// zero(), and the sparse engine drops zero entries from the wire; both are
// sound only because zero() is a two-sided multiplicative annihilator in
// every semiring (the documented Semiring contract). The reference below
// evaluates EVERY term, skip-free; the randomized suites pin equivalence
// for each semiring, with the adversarial mixes the contract calls out —
// negative weights against infinities in the tropical semirings, where a
// mul that wrapped (inf + w < inf for w < 0) would corrupt exactly the
// skipped terms.
// ---------------------------------------------------------------------------

template <typename S>
Matrix<typename S::Value> multiply_no_skip(const S& s,
                                           const Matrix<typename S::Value>& a,
                                           const Matrix<typename S::Value>& b) {
  Matrix<typename S::Value> out(a.rows(), b.cols(), s.zero());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < b.cols(); ++j)
      for (int k = 0; k < a.cols(); ++k)
        out(i, j) = s.add(out(i, j), s.mul(a(i, k), b(k, j)));
  return out;
}

TEST(ZeroSkipAudit, ZeroAnnihilatesInEverySemiring) {
  const IntRing zint;
  EXPECT_EQ(zint.mul(zint.zero(), -7), zint.zero());
  EXPECT_EQ(zint.mul(-7, zint.zero()), zint.zero());
  const BoolSemiring zb;
  EXPECT_EQ(zb.mul(zb.zero(), 1), zb.zero());
  EXPECT_EQ(zb.mul(1, zb.zero()), zb.zero());
  // The contract's named hazard: saturating min-plus with NEGATIVE weights.
  // mul(-w, inf) must be inf, not the wrapped inf - w (which would compare
  // less than infinity and win mins it has no business winning).
  const MinPlusSemiring zm;
  for (const std::int64_t w : {-1000, -1, 0, 1, 1000}) {
    EXPECT_EQ(zm.mul(w, zm.zero()), zm.zero());
    EXPECT_EQ(zm.mul(zm.zero(), w), zm.zero());
  }
  const PolyRing zp{5};
  EXPECT_EQ(zp.mul(zp.zero(), CappedPoly::monomial(5, 2)), zp.zero());
  EXPECT_EQ(zp.mul(CappedPoly::monomial(5, 2), zp.zero()), zp.zero());
  // The witness semiring dp_semiring_witness multiplies under: {inf, w}
  // carries a planted witness and compares UNEQUAL to zero, yet must still
  // annihilate through mul.
  const WitnessMinPlus zw;
  const WDist lifted_inf{MinPlusSemiring::kInf, 7};
  EXPECT_NE(lifted_inf, zw.zero());
  EXPECT_EQ(zw.mul(lifted_inf, zw.one()), zw.zero());
  EXPECT_EQ(zw.mul(zw.one(), lifted_inf), zw.zero());
  EXPECT_EQ(zw.mul(zw.zero(), WDist{-5, 3}), zw.zero());
  EXPECT_EQ(zw.mul(WDist{-5, 3}, zw.zero()), zw.zero());
}

TEST(ZeroSkipAudit, IntRingSkipEquivalence) {
  const IntRing ring;
  Rng rng(601);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    Matrix<std::int64_t> a(n, n, 0), b(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (rng.chance(1, 2)) a(i, j) = rng.next_in(-100, 100);
        if (rng.chance(1, 2)) b(i, j) = rng.next_in(-100, 100);
      }
    EXPECT_EQ(multiply(ring, a, b), multiply_no_skip(ring, a, b));
  }
}

TEST(ZeroSkipAudit, MinPlusSkipEquivalenceWithNegativeWeights) {
  const MinPlusSemiring sr;
  constexpr auto inf = MinPlusSemiring::kInf;
  Rng rng(602);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    Matrix<std::int64_t> a(n, n, inf), b(n, n, inf);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (rng.chance(2, 3)) a(i, j) = rng.next_in(-50, 50);
        if (rng.chance(2, 3)) b(i, j) = rng.next_in(-50, 50);
      }
    EXPECT_EQ(multiply(sr, a, b), multiply_no_skip(sr, a, b));
  }
}

TEST(ZeroSkipAudit, BooleanSkipEquivalence) {
  const BoolSemiring sr;
  Rng rng(603);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(16));
    Matrix<std::uint8_t> a(n, n, 0), b(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        a(i, j) = rng.chance(1, 3) ? 1 : 0;
        b(i, j) = rng.chance(1, 3) ? 1 : 0;
      }
    EXPECT_EQ(multiply(sr, a, b), multiply_no_skip(sr, a, b));
  }
}

TEST(ZeroSkipAudit, WitnessMinPlusSkipEquivalence) {
  const WitnessMinPlus sr;
  constexpr auto inf = MinPlusSemiring::kInf;
  Rng rng(604);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(10));
    Matrix<WDist> a(n, n, sr.zero());
    Matrix<WDist> b(n, n, sr.zero());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        // The dp lift plants witness j on EVERY S entry, finite or not, so
        // infinite entries with non-(-1) witnesses are realistic inputs.
        a(i, j) = {rng.chance(2, 3) ? rng.next_in(-40, 40) : inf, j};
        if (rng.chance(2, 3)) b(i, j) = {rng.next_in(-40, 40), -1};
      }
    EXPECT_EQ(multiply(sr, a, b), multiply_no_skip(sr, a, b));
  }
}

TEST(ZeroSkipAudit, PolyRingSkipEquivalence) {
  const PolyRing ring{6};
  Rng rng(605);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(8));
    Matrix<CappedPoly> a(n, n, ring.zero()), b(n, n, ring.zero());
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        if (rng.chance(1, 2))
          a(i, j) = CappedPoly::monomial(6, static_cast<int>(rng.next_below(6)));
        if (rng.chance(1, 2))
          b(i, j) = CappedPoly::monomial(6, static_cast<int>(rng.next_below(6)));
      }
    EXPECT_EQ(multiply(ring, a, b), multiply_no_skip(ring, a, b));
  }
}

TEST(Semirings, MinPlusLaws) {
  const MinPlusSemiring s;
  const auto inf = MinPlusSemiring::kInf;
  EXPECT_EQ(s.add(5, inf), 5);
  EXPECT_EQ(s.mul(5, inf), inf);
  EXPECT_EQ(s.mul(inf, inf), inf);
  EXPECT_EQ(s.add(s.zero(), 7), 7);
  EXPECT_EQ(s.mul(s.one(), 7), 7);
  EXPECT_TRUE(MinPlusSemiring::is_inf(inf));
  EXPECT_FALSE(MinPlusSemiring::is_inf(0));
}

TEST(Semirings, WitnessAddIsLexicographicMin) {
  // add must pick the lexicographically smaller (d, w) pair, keeping the
  // left operand on a full tie. Every pair is tried in both orders.
  const WitnessMinPlus s;
  const auto inf = WitnessMinPlus::kInf;
  const std::vector<std::pair<WDist, WDist>> table = {
      {{3, 1}, {3, 2}},       // equal d, w decides
      {{3, 7}, {3, -1}},      // equal d, the witness-free entry wins
      {{3, 4}, {3, 4}},       // full tie
      {{2, 9}, {5, 0}},       // d decides before w
      {{inf, -1}, {4, 2}},    // the zero loses to any finite entry
      {{inf, -1}, {inf, 3}},  // the zero against a planted infinite entry
      {{-6, 2}, {-2, 0}},     // negative d
      {{-3, 5}, {-3, 1}},     // negative d, equal
      {{-1, 0}, {inf, -1}},
  };
  auto lexicographic = [](const WDist& a, const WDist& b) {
    return std::pair(b.d, b.w) < std::pair(a.d, a.w) ? b : a;
  };
  for (const auto& [x, y] : table) {
    EXPECT_EQ(s.add(x, y), lexicographic(x, y))
        << "{" << x.d << "," << x.w << "} + {" << y.d << "," << y.w << "}";
    EXPECT_EQ(s.add(y, x), lexicographic(y, x))
        << "{" << y.d << "," << y.w << "} + {" << x.d << "," << x.w << "}";
  }
}

TEST(Semirings, BooleanLaws) {
  const BoolSemiring s;
  EXPECT_EQ(s.add(0, 1), 1);
  EXPECT_EQ(s.mul(1, 1), 1);
  EXPECT_EQ(s.mul(1, 0), 0);
  EXPECT_EQ(s.zero(), 0);
  EXPECT_EQ(s.one(), 1);
}

class StrassenSizes : public ::testing::TestWithParam<int> {};

TEST_P(StrassenSizes, MatchesSchoolbook) {
  const int n = GetParam();
  const IntRing ring;
  const auto a = random_matrix(n, n, 10 + static_cast<std::uint64_t>(n));
  const auto b = random_matrix(n, n, 20 + static_cast<std::uint64_t>(n));
  EXPECT_EQ(strassen_multiply(ring, a, b, 4), multiply(ring, a, b));
}

INSTANTIATE_TEST_SUITE_P(Sizes, StrassenSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16, 31, 64, 100));

TEST(Strassen, CutoffDoesNotChangeResult) {
  const IntRing ring;
  const auto a = random_matrix(33, 33, 77);
  const auto b = random_matrix(33, 33, 78);
  EXPECT_EQ(strassen_multiply(ring, a, b, 1),
            strassen_multiply(ring, a, b, 64));
}

TEST(Poly, MonomialAndMinDegree) {
  const auto p = CappedPoly::monomial(5, 3);
  EXPECT_EQ(p.min_degree(), 3);
  EXPECT_EQ(p.coeff(3), 1);
  EXPECT_EQ(CappedPoly(5).min_degree(), -1);
  // Degrees at or above the cap truncate to zero.
  EXPECT_EQ(CappedPoly::monomial(5, 7).min_degree(), -1);
}

TEST(Poly, RingLaws) {
  const PolyRing r{6};
  const auto x2 = CappedPoly::monomial(6, 2);
  const auto x3 = CappedPoly::monomial(6, 3);
  EXPECT_EQ(r.mul(x2, x3), CappedPoly::monomial(6, 5));
  EXPECT_EQ(r.mul(x3, x3), CappedPoly(6));  // degree 6 truncated
  EXPECT_EQ(r.add(x2, r.sub(r.zero(), x2)), r.zero());
  EXPECT_EQ(r.mul(r.one(), x3), x3);
}

TEST(Poly, ConvolutionCoefficients) {
  const PolyRing r{4};
  // (1 + x)(1 + x) = 1 + 2x + x^2.
  CappedPoly p(4);
  p.coeff(0) = 1;
  p.coeff(1) = 1;
  const auto q = r.mul(p, p);
  EXPECT_EQ(q.coeff(0), 1);
  EXPECT_EQ(q.coeff(1), 2);
  EXPECT_EQ(q.coeff(2), 1);
  EXPECT_EQ(q.coeff(3), 0);
}

TEST(Poly, MinPlusEmbeddingHomomorphism) {
  // X^a * X^b = X^{a+b}: the Lemma 18 embedding turns min-plus mul into
  // polynomial multiplication.
  const PolyRing r{11};
  const auto pa = CappedPoly::monomial(11, 4);
  const auto pb = CappedPoly::monomial(11, 5);
  EXPECT_EQ(r.mul(pa, pb).min_degree(), 9);
  // Addition of candidates = min via lowest surviving degree.
  const auto sum = r.add(pa, pb);
  EXPECT_EQ(sum.min_degree(), 4);
}

TEST(Codecs, I64RoundTrip) {
  const I64Codec c;
  const std::vector<std::int64_t> vals{0, -5, MinPlusSemiring::kInf,
                                       std::int64_t{1} << 60};
  std::vector<EncodedWord> buf;
  c.encode_block(vals, buf);
  EXPECT_EQ(buf.size(), c.words_for(vals.size()));
  EXPECT_EQ(c.decode_block(buf.data(), vals.size()), vals);
}

TEST(Codecs, ByteRoundTrip) {
  const ByteCodec c;
  const std::vector<std::uint8_t> vals{1, 0, 1, 1};
  std::vector<EncodedWord> buf;
  c.encode_block(vals, buf);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(c.decode_block(buf.data(), vals.size()), vals);
}

TEST(Codecs, PackedBoolRoundTripAndWidth) {
  const PackedBoolCodec c;
  // 64 entries fit one word, 65 need two — the "/ log n" packing.
  EXPECT_EQ(c.words_for(64), 1u);
  EXPECT_EQ(c.words_for(65), 2u);
  EXPECT_EQ(c.words_for(0), 0u);
  Rng rng(3);
  std::vector<std::uint8_t> vals(130);
  for (auto& v : vals) v = rng.chance(1, 2) ? 1 : 0;
  std::vector<EncodedWord> buf;
  c.encode_block(vals, buf);
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(c.decode_block(buf.data(), vals.size()), vals);
}

TEST(Codecs, PackedBoolAppendsAfterExistingWords) {
  const PackedBoolCodec c;
  std::vector<EncodedWord> buf{0xdeadbeef};
  c.encode_block({1, 0, 1}, buf);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf[0], 0xdeadbeefu);
  EXPECT_EQ(c.decode_block(buf.data() + 1, 3),
            (std::vector<std::uint8_t>{1, 0, 1}));
}

TEST(Codecs, PolyRoundTripAndWidth) {
  const PolyCodec c{7};
  EXPECT_EQ(c.words_for(1), 7u);
  EXPECT_EQ(c.words_for(3), 21u);
  CappedPoly p(7);
  p.coeff(0) = -3;
  p.coeff(6) = 12345;
  CappedPoly q(7);
  q.coeff(2) = 9;
  std::vector<EncodedWord> buf;
  c.encode_block({p, q}, buf);
  ASSERT_EQ(buf.size(), 14u);
  const auto back = c.decode_block(buf.data(), 2);
  EXPECT_EQ(back[0], p);
  EXPECT_EQ(back[1], q);
}

}  // namespace
}  // namespace cca
