// Specialized node-local multiplication kernels.
//
// The distributed algorithms' supersteps interleave communication (charged
// in rounds) with free local computation; the local products are the
// wall-clock hot spots of the simulator. local_multiply() dispatches on the
// semiring: the Boolean semiring runs a bit-packed kernel (64 adjacency
// entries per machine word, OR-accumulated row-wise — the same word-level
// trick the PackedBoolCodec uses on the wire), the min-plus semiring runs a
// cache-blocked tropical kernel, the integer ring runs a transposed-B
// blocked dot-product kernel, the witness min-plus semiring runs a
// packed-key kernel (each (distance, witness) pair is one int64 whose
// integer order is the lexicographic order, so the add is a branch-free
// min), and every other algebra falls back to the generic schoolbook
// multiply() from ops.hpp.
//
// All kernels are EXACTLY result-equivalent to multiply(s, a, b): Boolean
// OR/AND, min/plus and the lexicographic min are associative and
// commutative, so reassociating the accumulation cannot change any output
// entry. Round accounting is untouched — these run strictly between
// supersteps.
//
// Under GCC on x86-64 Linux the witness kernel is compiled once per ISA
// level (x86-64-v4, x86-64-v3 and the baseline; CCA_ISA_CLONES in
// kernels.cpp), and the loader binds it to the best clone the CPU
// supports. The clones are the same integer code, so which one runs never
// changes a result; the AVX-512 clone keeps the 2x4 tile in vector
// min/add instructions instead of scalar conditional moves.
//
// To add a kernel specialization for a new semiring: implement the kernel,
// add a non-template local_multiply overload for the semiring type (overload
// resolution prefers it over the generic template), and extend the
// equivalence tests in tests/test_kernels.cpp with random-input comparisons
// against multiply().
#pragma once

#include <cstdint>
#include <limits>

#include "matrix/matrix.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"

namespace cca {

/// Boolean matrix product via bit-packing: rows of `b` are packed 64
/// columns per word; row i of the output is the OR of the packed rows
/// selected by the nonzero entries of row i of `a`. Result-identical to
/// multiply(BoolSemiring{}, a, b) at ~64 entries per word-op for CANONICAL
/// inputs (every entry 0 or 1 — what the graph adjacencies and codecs
/// produce). Non-canonical bytes would diverge: the semiring's bitwise AND
/// distinguishes 2&1 == 0 from "both nonzero", the packed kernel does not.
[[nodiscard]] Matrix<std::uint8_t> multiply_bool_packed(
    const Matrix<std::uint8_t>& a, const Matrix<std::uint8_t>& b);

/// Min-plus (tropical) matrix product with cache blocking over the
/// contraction dimension and +infinity clamping that mirrors
/// MinPlusSemiring::mul's saturation. Result-identical to
/// multiply(MinPlusSemiring{}, a, b).
[[nodiscard]] Matrix<std::int64_t> multiply_minplus_blocked(
    const Matrix<std::int64_t>& a, const Matrix<std::int64_t>& b);

/// Integer-ring (Z, +, *) matrix product: B is transposed once into a
/// contiguous scratch so every inner loop is a dot product over two
/// contiguous rows, tiled 4 output columns at a time to keep four
/// accumulators live. Two's-complement + and * are associative and
/// commutative, so the result is bit-identical to multiply(IntRing{}, a, b)
/// regardless of accumulation order. This is the node-local kernel of the
/// fast bilinear path (Section 2.2) and of the integer products behind
/// cycle counting.
[[nodiscard]] Matrix<std::int64_t> multiply_i64_blocked(
    const Matrix<std::int64_t>& a, const Matrix<std::int64_t>& b);

/// Packed-key layout of multiply_witness_minplus: a finite entry {d, w}
/// becomes the key d * 2^kWitnessKeyShift + (w + 1). The fast path's
/// domain — every finite entry of either operand has
/// |d| <= kWitnessKeyMaxAbsD, every finite entry of the left operand has
/// -1 <= w <= kWitnessKeyMaxWitness — keeps every key sum exact in int64
/// and keeps sums that involve an infinite entry strictly above every
/// finite sum (derivation in kernels.cpp).
inline constexpr int kWitnessKeyShift = 32;
inline constexpr std::int64_t kWitnessKeyMaxWitness =
    (std::int64_t{1} << kWitnessKeyShift) - 2;
inline constexpr std::int64_t kWitnessKeyMaxAbsD =
    (((std::numeric_limits<std::int64_t>::max() / 2) >> kWitnessKeyShift) -
     1) /
    3;

/// Witness min-plus product (the Step-2 block product of every witnessed
/// distance product behind exact APSP). The lexicographic add becomes an
/// integer min over packed keys, and a right entry contributes
/// d_b * 2^kWitnessKeyShift, which carries the left witness exactly as
/// WitnessMinPlus::mul does. B is packed once into column panels so the
/// inner loop keeps a tile of output columns in registers and updates them
/// with selects, not branches. Inputs outside the packed domain (see
/// in_witness_key_domain; checked while packing, O(n^2) per call) take the
/// generic multiply().
/// Element-identical to multiply(WitnessMinPlus{}, a, b) on every input.
[[nodiscard]] Matrix<WDist> multiply_witness_minplus(const Matrix<WDist>& a,
                                                     const Matrix<WDist>& b);

/// Whether multiply_witness_minplus(a, b) takes its packed-key path: every
/// finite entry (d < kInf) of a and b has |d| <= kWitnessKeyMaxAbsD, and
/// every finite entry of a has -1 <= w <= kWitnessKeyMaxWitness.
[[nodiscard]] bool in_witness_key_domain(const Matrix<WDist>& a,
                                         const Matrix<WDist>& b);

/// Semiring-dispatched local product: specialized kernel when one exists,
/// generic multiply() otherwise.
template <Semiring S>
[[nodiscard]] Matrix<typename S::Value> local_multiply(
    const S& s, const Matrix<typename S::Value>& a,
    const Matrix<typename S::Value>& b) {
  return multiply(s, a, b);
}

[[nodiscard]] inline Matrix<std::uint8_t> local_multiply(
    const BoolSemiring&, const Matrix<std::uint8_t>& a,
    const Matrix<std::uint8_t>& b) {
  return multiply_bool_packed(a, b);
}

[[nodiscard]] inline Matrix<std::int64_t> local_multiply(
    const MinPlusSemiring&, const Matrix<std::int64_t>& a,
    const Matrix<std::int64_t>& b) {
  return multiply_minplus_blocked(a, b);
}

[[nodiscard]] inline Matrix<WDist> local_multiply(
    const WitnessMinPlus&, const Matrix<WDist>& a, const Matrix<WDist>& b) {
  return multiply_witness_minplus(a, b);
}

[[nodiscard]] inline Matrix<std::int64_t> local_multiply(
    const IntRing&, const Matrix<std::int64_t>& a,
    const Matrix<std::int64_t>& b) {
  return multiply_i64_blocked(a, b);
}

}  // namespace cca
