#include "core/distance_product.hpp"

#include <cmath>
#include <span>

#include "core/mm.hpp"
#include "matrix/codec.hpp"
#include "matrix/poly.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::core {

namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

/// Lift S entries to carry their column index as witness. Infinite entries
/// lift to the EXACT semiring zero {kInf, -1} — not {kInf, j} — so the
/// sparse engine's pattern scan (and the Auto dispatcher's announcement)
/// sees them as zeros. Element-identical to the historical lift: every
/// product term passes through mul, which annihilates any d >= kInf to
/// {kInf, -1} before it can reach an output entry.
Matrix<WDist> lift_with_witness(const Matrix<std::int64_t>& m) {
  const int n = m.rows();
  Matrix<WDist> out(n, n);
  parallel_for(0, n, [&](int i) {
    for (int j = 0; j < n; ++j)
      out(i, j) = {m(i, j), m(i, j) >= kInf ? -1 : j};
  });
  return out;
}

/// Lift T entries witness-less ({d, -1}); infinite entries are the exact
/// semiring zero.
Matrix<WDist> lift_plain(const Matrix<std::int64_t>& m) {
  const int n = m.rows();
  Matrix<WDist> out(n, n);
  parallel_for(0, n, [&](int i) {
    for (int j = 0; j < n; ++j) out(i, j) = {m(i, j), -1};
  });
  return out;
}

/// Project a witness-semiring product back to (distances, witnesses).
WitnessedProduct unpack_witnessed(const Matrix<WDist>& prod) {
  const int n = prod.rows();
  WitnessedProduct o{Matrix<std::int64_t>(n, n, kInf), Matrix<int>(n, n, -1)};
  parallel_for(0, n, [&](int i) {
    for (int j = 0; j < n; ++j) {
      o.dist(i, j) = prod(i, j).d >= kInf ? kInf : prod(i, j).d;
      o.witness(i, j) =
          prod(i, j).d >= kInf ? -1 : static_cast<int>(prod(i, j).w);
    }
  });
  return o;
}

/// B witnessed distance products through one batched witness-semiring
/// engine call: lift every operand pair (S entries carry their column index
/// as witness, T entries none — node-local row transforms on the worker
/// group), run `engine` on the lifted batch, and project each product back.
template <typename Engine>
std::vector<WitnessedProduct> witnessed_batch(
    std::span<const Matrix<std::int64_t>> ss,
    std::span<const Matrix<std::int64_t>> ts, Engine&& engine) {
  const std::size_t batch = ss.size();
  CCA_EXPECTS(batch >= 1);
  detail::expect_batch_shapes(ss[0].rows(), ss, ts);
  std::vector<Matrix<WDist>> ws(batch), wt(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    ws[b] = lift_with_witness(ss[b]);
    wt[b] = lift_plain(ts[b]);
  }
  const auto prods = engine(std::span<const Matrix<WDist>>(ws),
                            std::span<const Matrix<WDist>>(wt));
  std::vector<WitnessedProduct> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b)
    out.push_back(unpack_witnessed(prods[b]));
  return out;
}

}  // namespace

Matrix<std::int64_t> dp_semiring(clique::Network& net,
                                 const Matrix<std::int64_t>& s,
                                 const Matrix<std::int64_t>& t) {
  return mm_semiring_3d(net, MinPlusSemiring{}, I64Codec{}, s, t);
}

WitnessedProduct dp_semiring_witness_sparse(clique::Network& net,
                                            const Matrix<std::int64_t>& s,
                                            const Matrix<std::int64_t>& t) {
  return unpack_witnessed(mm_semiring_sparse(net, WitnessMinPlus{},
                                             WDistCodec{}, lift_with_witness(s),
                                             lift_plain(t)));
}

std::vector<WitnessedProduct> dp_semiring_witness_batch_auto(
    clique::Network& net, std::span<const Matrix<std::int64_t>> ss,
    std::span<const Matrix<std::int64_t>> ts, MmDispatchContext* ctx) {
  return witnessed_batch(ss, ts, [&](auto ws, auto wt) {
    return mm_semiring_auto_batch(net, WitnessMinPlus{}, WDistCodec{}, ws, wt,
                                  ctx);
  });
}

WitnessedProduct dp_semiring_witness(clique::Network& net,
                                     const Matrix<std::int64_t>& s,
                                     const Matrix<std::int64_t>& t) {
  auto res = dp_semiring_witness_batch(
      net, std::span<const Matrix<std::int64_t>>(&s, 1),
      std::span<const Matrix<std::int64_t>>(&t, 1));
  return std::move(res.front());
}

std::vector<WitnessedProduct> dp_semiring_witness_batch(
    clique::Network& net, std::span<const Matrix<std::int64_t>> ss,
    std::span<const Matrix<std::int64_t>> ts) {
  return witnessed_batch(ss, ts, [&](auto ws, auto wt) {
    return mm_semiring_3d_batch(net, WitnessMinPlus{}, WDistCodec{}, ws, wt);
  });
}

Matrix<std::int64_t> dp_ring_embedded(clique::Network& net,
                                      const BilinearAlgorithm& alg,
                                      const Matrix<std::int64_t>& s,
                                      const Matrix<std::int64_t>& t,
                                      std::int64_t m_bound,
                                      MmDispatchContext* ctx) {
  CCA_EXPECTS(m_bound >= 0);
  const int n = s.rows();
  CCA_EXPECTS(s.cols() == n && t.rows() == n && t.cols() == n);
  const int cap = static_cast<int>(2 * m_bound + 1);
  const PolyRing ring{cap};
  const PolyCodec codec{cap};

  // Entry w in {0..M} becomes X^w; everything else becomes 0 (= infinity).
  // Both the lift and the min-degree extraction are node-local row work.
  auto embed = [&](const Matrix<std::int64_t>& src) {
    Matrix<CappedPoly> out(n, n, ring.zero());
    parallel_for(0, n, [&](int i) {
      for (int j = 0; j < n; ++j) {
        const auto v = src(i, j);
        if (v >= 0 && v <= m_bound)
          out(i, j) = CappedPoly::monomial(cap, static_cast<int>(v));
      }
    });
    return out;
  };

  // ctx routes the embedded product through the nnz-adaptive dispatcher
  // (zero polynomials — infinite distances — are the ring zeros, so a
  // mostly-infinite iterate pays sparse rounds); ctx == nullptr keeps the
  // historical fixed bilinear engine bit-identical. The bilinear candidate
  // is full-ownership-only, so a sharded dispatch drops it from the
  // candidate set — every rank plans over the same candidates either way.
  const auto es = embed(s);
  const auto et = embed(t);
  const auto prod =
      ctx != nullptr
          ? mm_semiring_auto(net, ring, codec, es, et, ctx,
                             net.owns_all() ? &alg : nullptr)
          : mm_fast_bilinear(net, ring, codec, alg, es, et);

  Matrix<std::int64_t> out(n, n, kInf);
  parallel_for(0, n, [&](int i) {
    for (int j = 0; j < n; ++j) {
      const int deg = prod(i, j).min_degree();
      if (deg >= 0) out(i, j) = deg;
    }
  });
  return out;
}

Matrix<std::int64_t> dp_approx(clique::Network& net,
                               const BilinearAlgorithm& alg,
                               const Matrix<std::int64_t>& s,
                               const Matrix<std::int64_t>& t,
                               std::int64_t m_bound, double delta,
                               MmDispatchContext* ctx) {
  CCA_EXPECTS(delta > 0);
  CCA_EXPECTS(m_bound >= 0);
  const int n = s.rows();
  CCA_EXPECTS(s.cols() == n && t.rows() == n && t.cols() == n);

  // Scaled entries are bounded by ceil(2(1+delta)/delta) (Lemma 20).
  const auto scaled_bound =
      static_cast<std::int64_t>(std::ceil(2.0 * (1.0 + delta) / delta));

  // ceil(v / base^i) with monotone adjustment against floating error:
  // returns the least q with q * base^i >= v under the same double rounding
  // used everywhere else, so the Lemma 20 inequalities hold as evaluated.
  auto scale_up = [](std::int64_t v, double p) {
    auto q = static_cast<std::int64_t>(
        std::ceil(static_cast<double>(v) / p));
    while (q > 0 && static_cast<double>(q - 1) * p >= static_cast<double>(v))
      --q;
    while (static_cast<double>(q) * p < static_cast<double>(v)) ++q;
    return q;
  };

  const int levels =
      m_bound <= 1
          ? 1
          : static_cast<int>(std::ceil(std::log(static_cast<double>(m_bound)) /
                                       std::log1p(delta))) +
                1;

  Matrix<std::int64_t> best(n, n, kInf);
  for (int i = 0; i < levels; ++i) {
    const double p = std::pow(1.0 + delta, i);
    const double admit = 2.0 * std::pow(1.0 + delta, i + 1) / delta;
    auto build = [&](const Matrix<std::int64_t>& src) {
      Matrix<std::int64_t> out(n, n, kInf);
      for (int a = 0; a < n; ++a)
        for (int b = 0; b < n; ++b) {
          const auto v = src(a, b);
          if (v >= kInf || static_cast<double>(v) > admit) continue;
          out(a, b) = scale_up(v, p);
          CCA_ASSERT(out(a, b) <= scaled_bound);
        }
      return out;
    };
    const auto pi =
        dp_ring_embedded(net, alg, build(s), build(t), scaled_bound, ctx);
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b) {
        if (pi(a, b) >= kInf) continue;
        const auto unscaled = static_cast<std::int64_t>(
            std::floor(static_cast<double>(pi(a, b)) * p));
        if (unscaled < best(a, b)) best(a, b) = unscaled;
      }
  }
  return best;
}

}  // namespace cca::core
