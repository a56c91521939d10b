#include "core/engine.hpp"

#include "clique/fault.hpp"
#include "core/mm.hpp"

namespace cca::core {

IntMmEngine::IntMmEngine(MmKind kind, int n, int depth) : kind_(kind) {
  CCA_VALIDATE(n >= 1, "matrix dimension n must be >= 1");
  switch (kind_) {
    case MmKind::Fast: {
      const FastPlan plan =
          depth >= 0 ? plan_fast_mm(n, depth) : plan_fast_mm_auto(n);
      clique_n_ = plan.clique_n;
      alg_ = tensor_power(strassen_algorithm(), plan.depth);
      break;
    }
    case MmKind::Semiring3D:
      clique_n_ = semiring_clique_size(n);
      break;
    case MmKind::Naive:
      clique_n_ = n;
      break;
    case MmKind::Auto: {
      // The sparse engine admits any n; Semiring3D needs a cube, so the
      // padded clique is the cube and the Fast engine joins the candidate
      // set only when that cube happens to be admissible for a nontrivial
      // tensor power (e.g. 64 = 4^3 = 8^2 with d = 4 | 8).
      clique_n_ = semiring_clique_size(n);
      const FastPlan plan = plan_fast_mm_auto(clique_n_);
      if (plan.depth >= 1 && plan.clique_n == clique_n_) {
        alg_ = tensor_power(strassen_algorithm(), plan.depth);
        fast_ok_ = true;
      }
      break;
    }
  }
}

double IntMmEngine::rho() const noexcept {
  switch (kind_) {
    case MmKind::Fast:
      return 1.0 - 2.0 / alg_.sigma();
    case MmKind::Semiring3D:
    case MmKind::Auto:  // density-independent worst case (see engine.hpp)
      return 1.0 / 3.0;
    case MmKind::Naive:
      return 1.0;
  }
  return 1.0;
}

Matrix<std::int64_t> IntMmEngine::multiply(clique::Network& net,
                                           const Matrix<std::int64_t>& a,
                                           const Matrix<std::int64_t>& b,
                                           MmDispatchContext* ctx) const {
  auto res = multiply_batch(net, std::span<const Matrix<std::int64_t>>(&a, 1),
                            std::span<const Matrix<std::int64_t>>(&b, 1), ctx);
  return std::move(res.front());
}

std::vector<Matrix<std::int64_t>> IntMmEngine::multiply_batch(
    clique::Network& net, std::span<const Matrix<std::int64_t>> as,
    std::span<const Matrix<std::int64_t>> bs,
    MmDispatchContext* ctx) const {
  CCA_EXPECTS(net.n() == clique_n_);
  CCA_VALIDATE(!as.empty() && as.size() == bs.size(),
               "batch operands must be non-empty and of equal length");
  for (std::size_t b = 0; b < as.size(); ++b) {
    CCA_VALIDATE(as[b].rows() == as[b].cols() &&
                     bs[b].rows() == bs[b].cols(),
                 "batch matrices must be square");
    CCA_VALIDATE(as[b].rows() == clique_n_ && bs[b].rows() == clique_n_,
                 "batch matrix dimensions must match the engine's clique "
                 "size");
  }
  const IntRing ring;
  const I64Codec codec;
  // A batch is a pure protocol over the captured inputs, so a crash mid
  // batch (typed PeerFailure from a hardened deliver) simply re-runs it
  // after charged liveness votes — this hardens every engine built on
  // multiply(_batch): Seidel APSP, triangle/cycle counting, girth, color
  // coding.
  return clique::with_peer_recovery(net, [&] {
    switch (kind_) {
      case MmKind::Fast:
        return mm_fast_bilinear_batch(net, ring, codec, alg_, as, bs);
      case MmKind::Semiring3D:
        return mm_semiring_3d_batch(net, ring, codec, as, bs);
      case MmKind::Naive: {
        std::vector<Matrix<std::int64_t>> out;
        out.reserve(as.size());
        for (std::size_t b = 0; b < as.size(); ++b)
          out.push_back(
              mm_naive_broadcast(net, ring, codec, as[b], bs[b]));
        return out;
      }
      case MmKind::Auto:
        // The bilinear candidate is full-ownership-only (its coefficient
        // combination reads every node's blocks), so a sharded dispatch
        // drops it — every rank plans the same candidate set either way.
        return mm_semiring_auto_batch(
            net, ring, codec, as, bs, ctx,
            fast_ok_ && net.owns_all() ? &alg_ : nullptr);
    }
    return std::vector<Matrix<std::int64_t>>{};
  });
}

}  // namespace cca::core
