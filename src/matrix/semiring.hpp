// Semiring and ring structures for matrix algebra.
//
// The paper's algorithms are generic over the algebra: the 3D algorithm of
// Section 2.1 works over any semiring (Theorem 1 part 1) and the bilinear
// scheme of Section 2.2 needs a ring (Lemma 10). The applications use
//   * the integer ring          — cycle counting (Corollary 2), Seidel,
//   * the Boolean semiring      — reachability, colour-coding, girth,
//   * the min-plus semiring     — distance products / APSP (Section 3.3),
//   * witness min-plus          — distance products with witnesses, the
//                                 squarings behind exact APSP (Cor. 6),
//   * capped polynomial rings   — the Lemma 18 embedding (see poly.hpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>

namespace cca {

/// Semantic contract (beyond the syntactic requirements below): add is
/// associative and commutative with identity zero(), mul is associative
/// with identity one() and distributes over add, and zero() is a TWO-SIDED
/// MULTIPLICATIVE ANNIHILATOR: mul(zero(), x) == mul(x, zero()) == zero()
/// for every representable x — including values outside the "canonical"
/// range (a saturating min-plus mul must return infinity for
/// mul(finite, inf) even when the finite operand is negative, never the
/// wrapped sum inf + w). The annihilator law is load-bearing, not a
/// nicety: the schoolbook multiply() skips zero left operands
/// (ops.hpp:multiply), and the sparse engine (mm_semiring_sparse) drops
/// zero entries from the wire entirely, so a semiring whose zero fails to
/// annihilate would make those paths disagree with the no-skip sum.
/// tests/test_matrix.cpp pins the law and the skip/no-skip equivalence for
/// every semiring in the repo, with adversarial negative-weight and
/// infinity mixes for the tropical ones.
template <typename S>
concept Semiring = requires(const S s, typename S::Value a, typename S::Value b) {
  typename S::Value;
  { s.zero() } -> std::same_as<typename S::Value>;
  { s.one() } -> std::same_as<typename S::Value>;
  { s.add(a, b) } -> std::same_as<typename S::Value>;
  { s.mul(a, b) } -> std::same_as<typename S::Value>;
};

template <typename S>
concept Ring = Semiring<S> && requires(const S s, typename S::Value a,
                                       typename S::Value b) {
  { s.sub(a, b) } -> std::same_as<typename S::Value>;
};

/// The ring (Z, +, *) on 64-bit integers. Zero contract: the literal 0
/// annihilates products exactly (tests/test_matrix.cpp ZeroSkipAudit).
struct IntRing {
  using Value = std::int64_t;
  [[nodiscard]] Value zero() const noexcept { return 0; }
  [[nodiscard]] Value one() const noexcept { return 1; }
  [[nodiscard]] Value add(Value a, Value b) const noexcept { return a + b; }
  [[nodiscard]] Value sub(Value a, Value b) const noexcept { return a - b; }
  [[nodiscard]] Value mul(Value a, Value b) const noexcept { return a * b; }
};

/// The Boolean semiring ({0,1}, or, and). Value is a byte, not bool, to keep
/// Matrix<Value> free of vector<bool> proxy issues. Zero contract:
/// 0 & x == 0 for every byte (tests/test_matrix.cpp ZeroSkipAudit).
struct BoolSemiring {
  using Value = std::uint8_t;
  [[nodiscard]] Value zero() const noexcept { return 0; }
  [[nodiscard]] Value one() const noexcept { return 1; }
  [[nodiscard]] Value add(Value a, Value b) const noexcept {
    return static_cast<Value>(a | b);
  }
  [[nodiscard]] Value mul(Value a, Value b) const noexcept {
    return static_cast<Value>(a & b);
  }
};

/// The min-plus (tropical) semiring on 64-bit integers with +infinity.
/// "zero" is +infinity (identity of min), "one" is 0 (identity of +).
/// Zero contract: mul saturates at kInf for ANY operand — negative weights
/// included, never the wrapped sum inf + w (tests/test_matrix.cpp
/// ZeroSkipAudit pins the adversarial mixes).
struct MinPlusSemiring {
  using Value = std::int64_t;
  /// Sentinel infinity; small enough that inf + inf does not overflow.
  static constexpr Value kInf = std::numeric_limits<Value>::max() / 4;

  [[nodiscard]] Value zero() const noexcept { return kInf; }
  [[nodiscard]] Value one() const noexcept { return 0; }
  [[nodiscard]] Value add(Value a, Value b) const noexcept {
    return a < b ? a : b;
  }
  [[nodiscard]] Value mul(Value a, Value b) const noexcept {
    if (a >= kInf || b >= kInf) return kInf;
    return a + b;
  }
  [[nodiscard]] static bool is_inf(Value a) noexcept { return a >= kInf; }
};

/// Min-plus value carrying the summation index that attained it. The pair
/// (distance, witness) ordered lexicographically is a bona fide semiring:
/// add = lexicographic min, mul = (d1 + d2, left witness). The distance
/// products behind exact APSP (Section 3.3) plant the column index of the
/// S-side entry as its witness at lift time.
struct WDist {
  std::int64_t d = MinPlusSemiring::kInf;
  std::int64_t w = -1;
  friend bool operator==(const WDist&, const WDist&) = default;
};

/// The witness-carrying min-plus semiring over WDist. Zero contract:
/// {kInf, -1} annihilates mul even against {kInf, w} values carrying a
/// planted witness (which compare UNEQUAL to zero) — pinned in
/// tests/test_matrix.cpp ZeroSkipAudit.
struct WitnessMinPlus {
  using Value = WDist;
  static constexpr std::int64_t kInf = MinPlusSemiring::kInf;

  [[nodiscard]] Value zero() const noexcept { return {kInf, -1}; }
  [[nodiscard]] Value one() const noexcept { return {0, -1}; }
  /// Lexicographic min as one select, not two data-dependent branches
  /// (the 3D engine's Step-4 combine calls this once per output entry):
  /// b wins only when strictly smaller, so ties keep a.
  [[nodiscard]] Value add(const Value& a, const Value& b) const noexcept {
    const bool take_b = b.d < a.d || (b.d == a.d && b.w < a.w);
    return take_b ? b : a;
  }
  [[nodiscard]] Value mul(const Value& a, const Value& b) const noexcept {
    if (a.d >= kInf || b.d >= kInf) return {kInf, -1};
    return {a.d + b.d, a.w};
  }
};

static_assert(Ring<IntRing>);
static_assert(Semiring<BoolSemiring>);
static_assert(Semiring<MinPlusSemiring>);
static_assert(Semiring<WitnessMinPlus>);

/// The semiring element c·1 for c >= 0 (c additions of one(), done ONCE per
/// coefficient). By distributivity c·x = (c·1)·x in any semiring, so an
/// integer coefficient applies as one multiply-accumulate per entry instead
/// of |c| repeated additions per entry. Shared by the bilinear coefficient
/// machinery (apply_bilinear, mm_fast_bilinear Steps 2/6).
template <Semiring S>
[[nodiscard]] typename S::Value scalar_of(const S& s, std::int64_t c) {
  auto acc = s.zero();
  for (std::int64_t i = 0; i < c; ++i) acc = s.add(acc, s.one());
  return acc;
}

}  // namespace cca
