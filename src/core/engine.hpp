// Dispatcher over the matrix-multiplication engines of Table 1: fast
// bilinear (Section 2.2), semiring 3D (Section 2.1), the naive
// full-broadcast baseline, and the nnz-adaptive Auto dispatch that adds the
// sparse engine. The graph applications (cycles, girth, APSP) are written
// against this interface so each can be benchmarked with either the paper's
// algorithm or the prior-work/baseline engine.
//
// Only engine-facing types live here. The engine bodies are in
// core/mm_dense.hpp, core/mm_sparse.hpp and core/mm.hpp, which no other
// header includes (lint_contracts.py's header-layering rule).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "clique/network.hpp"
#include "matrix/bilinear.hpp"
#include "matrix/codec.hpp"
#include "matrix/matrix.hpp"
#include "util/contracts.hpp"

namespace cca::core {

enum class MmKind {
  Fast,         ///< Section 2.2 with a Strassen tensor power (O(n^{0.288}))
  Semiring3D,   ///< Section 2.1 (O(n^{1/3}))
  Naive,        ///< everyone learns everything (O(n))
  /// nnz-adaptive dispatch: one announcement round per product (a charged
  /// broadcast of the per-row nonzero counts), then whichever of the
  /// sparse engine / Semiring3D / Fast (when the padded clique admits it) /
  /// Naive has the fewest planned rounds for the ANNOUNCED nonzero counts
  /// runs (see mm_semiring_auto_batch; a batch of B > 1 products chooses
  /// between the batched sparse and 3D engines). The sparse choice reuses
  /// the announcement as its own step 0, so sparse inputs cost exactly
  /// mm_semiring_sparse(_batch); dense inputs cost the best dense engine
  /// plus the announcement.
  Auto,
};

/// Which engine the Auto dispatcher (mm_semiring_auto_batch) selected.
enum class AutoEngineChoice { Sparse, Semiring3D, Fast, Naive };

/// Persistent dispatch state for ITERATED multiplications on one network
/// (APSP squarings, Seidel levels, girth's Boolean doubling, bounded /
/// approximate distance iterations): carries the densification hysteresis
/// and a per-call engine trace across calls to mm_semiring_auto(_batch)
/// (and the IntMmEngine wrappers that forward it).
///
/// Hysteresis: these workloads square an iterate whose nonzero pattern only
/// ever GROWS (min-plus squaring and Boolean doubling are monotone in the
/// pattern; the approximate products' admission windows widen level over
/// level), so once a dense engine plans fewer rounds than the sparse plan
/// it keeps winning. Every node derives that verdict from the same
/// announcements, so from the next call on the planner stops re-announcing
/// and replays the locked dense choice directly — locked iterations charge
/// exactly the dense engine's rounds, with NO announcement round. `trace`
/// records one entry per call, naming the engine that ran; the
/// densification flip is the first Sparse -> dense transition (bench_apsp
/// --sparse prints it, and test_sparse.cpp pins the flip index on a
/// power-law input).
struct MmDispatchContext {
  bool dense_locked = false;  ///< a dense engine has won once — stay dense
  AutoEngineChoice locked_choice = AutoEngineChoice::Semiring3D;
  std::vector<AutoEngineChoice> trace;  ///< per-call engine choices
};

/// Pad a square matrix to dimension `to`, filling new cells with `fill`
/// (use the semiring zero so padded rows/columns stay inert).
template <typename V>
[[nodiscard]] Matrix<V> pad_matrix(const Matrix<V>& m, int to, V fill) {
  CCA_EXPECTS(to >= m.rows() && m.rows() == m.cols());
  return m.resized(to, to, std::move(fill));
}

/// The (semiring, codec) pairs src/ multiplies with, expanded as
/// X(EXTERN, S, Codec): each engine header declares its bodies `extern
/// template` for them and its .cpp compiles them once. Any other pair
/// instantiates implicitly from the header definitions.
#define CCA_MM_PRODUCTION_PAIRS(X, EXTERN)  \
  X(EXTERN, IntRing, I64Codec)              \
  X(EXTERN, MinPlusSemiring, I64Codec)      \
  X(EXTERN, WitnessMinPlus, WDistCodec)     \
  X(EXTERN, PolyRing, PolyCodec)

namespace detail {

/// The batch contract every engine checks: B = as.size() == bs.size() >= 1
/// operand pairs, all n x n.
template <typename V>
void expect_batch_shapes(int n, std::span<const Matrix<V>> as,
                         std::span<const Matrix<V>> bs) {
  CCA_EXPECTS(!as.empty() && bs.size() == as.size());
  for (std::size_t b = 0; b < as.size(); ++b) {
    CCA_EXPECTS(as[b].rows() == n && as[b].cols() == n);
    CCA_EXPECTS(bs[b].rows() == n && bs[b].cols() == n);
  }
}

/// The products of a one-node clique: nothing moves, node 0 multiplies its
/// 1 x 1 operands locally.
template <typename S>
[[nodiscard]] std::vector<Matrix<typename S::Value>> one_node_products(
    const S& sr, std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs) {
  std::vector<Matrix<typename S::Value>> out;
  out.reserve(as.size());
  for (std::size_t b = 0; b < as.size(); ++b)
    out.emplace_back(1, 1, sr.mul(as[b](0, 0), bs[b](0, 0)));
  return out;
}

}  // namespace detail

/// Engine for integer (ring) products of n x n matrices on a clique.
/// Construction fixes the padded clique size; `multiply` then runs products
/// of that padded dimension.
class IntMmEngine {
 public:
  /// `n` is the problem dimension; `depth` forces the Strassen tensor power
  /// for MmKind::Fast (-1 = automatic, the paper's "fix d so m(d) = n").
  IntMmEngine(MmKind kind, int n, int depth = -1);

  [[nodiscard]] MmKind kind() const noexcept { return kind_; }
  /// Admissible clique (and padded matrix) dimension.
  [[nodiscard]] int clique_n() const noexcept { return clique_n_; }
  /// The engine's round exponent sigma-derived rho (for girth's threshold).
  /// Auto reports its density-independent worst case, 1/3: whatever the
  /// announced nnz, it never plans more rounds than Semiring3D plus the one
  /// announcement round, and the sparse dispatch can only improve on that —
  /// so girth's ell = ceil(2 + 2/rho) threshold stays valid as stated.
  [[nodiscard]] double rho() const noexcept;

  /// Product of clique_n() x clique_n() integer matrices. `ctx` (optional,
  /// Auto only) threads the per-iteration dispatch state of an ITERATED
  /// caller (Seidel levels, girth doubling, APSP squarings) through
  /// mm_semiring_auto: each call re-plans from the CURRENT iterate's nnz
  /// announcement, and the context's hysteresis stops re-announcing once a
  /// dense engine has won (see MmDispatchContext). The batch-of-one
  /// instance of multiply_batch.
  [[nodiscard]] Matrix<std::int64_t> multiply(
      clique::Network& net, const Matrix<std::int64_t>& a,
      const Matrix<std::int64_t>& b, MmDispatchContext* ctx = nullptr) const;

  /// B independent products as[i] * bs[i] through SHARED supersteps (the
  /// multi-instance engine: one routing schedule per superstep carries all
  /// B per-pair messages concatenated). Results are element-identical to B
  /// sequential multiply() calls; for the Fast and Semiring3D kinds the
  /// batch costs strictly fewer total rounds than the B sequential calls
  /// whenever their supersteps leave link capacity idle. The Naive kind has
  /// no shared superstep to exploit (every broadcast already saturates all
  /// links) and degrades to the sequential loop.
  [[nodiscard]] std::vector<Matrix<std::int64_t>> multiply_batch(
      clique::Network& net, std::span<const Matrix<std::int64_t>> as,
      std::span<const Matrix<std::int64_t>> bs,
      MmDispatchContext* ctx = nullptr) const;

 private:
  MmKind kind_;
  int clique_n_;
  BilinearAlgorithm alg_;   // used by MmKind::Fast and Auto's fast candidate
  bool fast_ok_ = false;    // Auto: alg_ is admissible at clique_n_
};

}  // namespace cca::core
