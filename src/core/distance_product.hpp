// Distance (min-plus / tropical) products on the congested clique
// (paper Section 3.3).
//
//  * dp_semiring          — exact product via the 3D semiring algorithm.
//  * dp_semiring_witness  — same, also returning a witness matrix Q with
//                           P[u,v] = S[u,Q[u,v]] + T[Q[u,v],v] (the "easily
//                           modified to produce witnesses" of Section 3.3).
//  * dp_ring_embedded     — Lemma 18: embeds the product into the ring
//                           Z[X]/X^{2M+1} and runs the FAST multiplication;
//                           O(M n^rho) rounds.
//  * dp_approx            — Lemma 20: a (1+delta)-approximate product from
//                           O(log_{1+delta} M) scaled exact products with
//                           O(1/delta)-bounded entries.
//
// Distances use MinPlusSemiring::kInf as infinity throughout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "matrix/bilinear.hpp"
#include "matrix/matrix.hpp"
#include "matrix/semiring.hpp"

namespace cca::core {

struct MmDispatchContext;  // core/engine.hpp — iterated-dispatch state

/// Exact distance product P = S * T (min-plus) in O(n^{1/3}) rounds.
/// Requires net.n() == dimension of S, T and a perfect cube.
[[nodiscard]] Matrix<std::int64_t> dp_semiring(clique::Network& net,
                                               const Matrix<std::int64_t>& s,
                                               const Matrix<std::int64_t>& t);

struct WitnessedProduct {
  Matrix<std::int64_t> dist;
  /// witness(u,v) = k with dist(u,v) = S(u,k) + T(k,v); -1 if dist is inf.
  Matrix<int> witness;
};

/// Exact distance product with witnesses (entries cost two words).
[[nodiscard]] WitnessedProduct dp_semiring_witness(
    clique::Network& net, const Matrix<std::int64_t>& s,
    const Matrix<std::int64_t>& t);

/// Witness-carrying distance product via the fixed sparse engine — the
/// sparse engine lifted to the min-plus-with-witness semiring, whose zero
/// {inf, -1} is an additive identity AND two-sided annihilator (infinite
/// entries lift to exactly that zero), so finite entries are the nonzeros
/// and rounds scale with the finite-entry volume. Distances AND witnesses are
/// element-identical to dp_semiring_witness: the lexicographic witness add
/// is a total-order min, so no merge order can change the chosen witness —
/// but callers should rely only on the documented witness contract
/// (dist(u,v) = S(u,Q(u,v)) + T(Q(u,v),v)), which is what the tests
/// assert. Any net.n() == dimension is admissible.
[[nodiscard]] WitnessedProduct dp_semiring_witness_sparse(
    clique::Network& net, const Matrix<std::int64_t>& s,
    const Matrix<std::int64_t>& t);

/// B independent witnessed distance products through SHARED supersteps
/// (mm_semiring_3d_batch under the witness-carrying semiring): one routing
/// schedule per superstep serves the whole batch. Results are
/// element-identical to B sequential dp_semiring_witness calls. This is the
/// engine under the multi-query APSP path (apsp_semiring_batch).
[[nodiscard]] std::vector<WitnessedProduct> dp_semiring_witness_batch(
    clique::Network& net, std::span<const Matrix<std::int64_t>> ss,
    std::span<const Matrix<std::int64_t>> ts);

/// Batched nnz-adaptive witnessed products through SHARED supersteps
/// (mm_semiring_auto_batch under the witness semiring): the per-row
/// finite counts are announced through one charged broadcast per product
/// (B rounds, no staged superstep), then either the batched sparse engine
/// or the batched 3D engine runs the whole batch. Element-identical to B
/// dp_semiring_witness calls; the engine under apsp_semiring_batch. `ctx`
/// (optional) carries the densification hysteresis and engine trace across
/// iterated squarings: sparse rounds while the iterates are mostly
/// infinite, a single flip to the dense engine once they fill in.
[[nodiscard]] std::vector<WitnessedProduct> dp_semiring_witness_batch_auto(
    clique::Network& net, std::span<const Matrix<std::int64_t>> ss,
    std::span<const Matrix<std::int64_t>> ts,
    MmDispatchContext* ctx = nullptr);

/// Lemma 18: distance product of matrices with entries in {0,...,M} u {inf}
/// via the polynomial-ring embedding and the fast bilinear multiplication.
/// Entries greater than M (other than inf) are treated as inf.
/// Requires an admissible net for `alg` (see mm_fast_bilinear).
///
/// With `ctx` the embedded product goes through the nnz-adaptive
/// dispatcher instead of the fixed bilinear engine: zero polynomials (=
/// infinite distances) are the ring zeros, so a mostly-infinite iterate
/// pays sparse rounds until it densifies, with the context's hysteresis
/// across calls — the hook behind apsp_bounded / apsp_approx. ctx ==
/// nullptr keeps the historical fixed-engine path bit-identical.
[[nodiscard]] Matrix<std::int64_t> dp_ring_embedded(
    clique::Network& net, const BilinearAlgorithm& alg,
    const Matrix<std::int64_t>& s, const Matrix<std::int64_t>& t,
    std::int64_t m_bound, MmDispatchContext* ctx = nullptr);

/// Lemma 20: matrix P~ with P <= P~ <= (1+delta) P entrywise, where
/// P = S * T, for entries in {0,...,M} u {inf}. Uses
/// O(log_{1+delta} M) calls to dp_ring_embedded with entry bound O(1/delta).
/// `ctx` (optional) threads the per-product nnz dispatch through every
/// level's embedded product (admission windows widen level over level, so
/// the hysteresis stays monotone).
[[nodiscard]] Matrix<std::int64_t> dp_approx(clique::Network& net,
                                             const BilinearAlgorithm& alg,
                                             const Matrix<std::int64_t>& s,
                                             const Matrix<std::int64_t>& t,
                                             std::int64_t m_bound,
                                             double delta,
                                             MmDispatchContext* ctx = nullptr);

}  // namespace cca::core
