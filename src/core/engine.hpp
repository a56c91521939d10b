// Dispatcher over the three matrix-multiplication engines of Table 1:
// fast bilinear (Section 2.2), semiring 3D (Section 2.1), and the naive
// full-broadcast baseline. The graph applications (cycles, girth, APSP) are
// written against this interface so each can be benchmarked with either the
// paper's algorithm or the prior-work/baseline engine.
#pragma once

#include <span>
#include <vector>

#include "clique/network.hpp"
#include "core/mm.hpp"
#include "matrix/bilinear.hpp"
#include "matrix/codec.hpp"
#include "matrix/matrix.hpp"

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
  /// dense engine has won (see MmDispatchContext).
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
