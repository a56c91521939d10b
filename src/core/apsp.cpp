#include "core/apsp.hpp"

#include <algorithm>
#include <functional>

#include "clique/fault.hpp"
#include "clique/primitives.hpp"
#include "core/distance_product.hpp"
#include "core/mm_dense.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"

namespace cca::core {

namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

/// Squarings needed so that paths of up to n-1 edges are covered.
int squaring_iterations(int n) {
  int iters = 0;
  std::int64_t hops = 1;
  while (hops < n - 1) {
    hops *= 2;
    ++iters;
  }
  return iters;
}

ApspOutcome make_trivial(const Graph& g) {
  ApspOutcome out;
  const int n = g.n();
  out.dist = Matrix<std::int64_t>(n, n, kInf);
  out.next_hop = Matrix<int>(n, n, -1);
  for (int v = 0; v < n; ++v) out.dist(v, v) = 0;
  return out;
}

}  // namespace

ApspOutcome apsp_semiring(const Graph& g, MmKind kind) {
  auto res = apsp_semiring_batch(std::span<const Graph>(&g, 1), kind);
  return {std::move(res.dist.front()), std::move(res.next_hop.front()),
          res.traffic, std::move(res.engine_trace)};
}

ApspBatchOutcome apsp_semiring_batch(std::span<const Graph> gs,
                                     MmKind kind) {
  CCA_VALIDATE(kind == MmKind::Auto || kind == MmKind::Semiring3D,
               "apsp_semiring(_batch) supports MmKind::Auto and "
               "MmKind::Semiring3D");
  const std::size_t batch = gs.size();
  CCA_VALIDATE(batch >= 1, "batch must contain at least one graph");
  ApspBatchOutcome out;
  int max_n = 1;
  for (const auto& g : gs) max_n = std::max(max_n, g.n());
  if (max_n <= 1) {
    for (const auto& g : gs) {
      auto t = make_trivial(g);
      out.dist.push_back(std::move(t.dist));
      out.next_hop.push_back(std::move(t.next_hop));
    }
    return out;
  }

  const int big = semiring_clique_size(max_n);
  clique::Network net(big);
  // Sharded execution (an ambient TransportScope made the internal Network
  // a proper shard): both engines read and write only owned rows, so the
  // iteration is self-consistent — Auto's nnz census announces owned rows
  // and rebuilds the non-owned pattern rows as common knowledge, so every
  // rank reaches the identical dispatch (non-owned iterate rows are the
  // semiring zero after the first squaring, exactly what the census
  // repairs). Each rank scans only its owned rows of every member's
  // iterate, and the convergence vote below derives its exit from the
  // BROADCAST flags, so every rank exits the same iteration. On return
  // only the owned rows of each dist/next_hop are authoritative.
  const clique::NodeSpan own = net.owned();

  // Padded per-graph state; graphs smaller than max_n simply carry inert
  // infinite rows. Extra squarings past a small graph's own log n are
  // no-ops (its min-plus matrix is already idempotent), so one shared
  // iteration count is exact for every graph.
  std::vector<Matrix<std::int64_t>> d(batch);
  std::vector<Matrix<int>> next(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    d[b] = pad_matrix(gs[b].weight_matrix(), big, kInf);
    next[b] = Matrix<int>(gs[b].n(), gs[b].n(), -1);
    for (int u = 0; u < gs[b].n(); ++u)
      for (const auto& [v, w] : gs[b].out_arcs(u)) {
        (void)w;
        next[b](u, v) = v;
      }
  }

  // Upper bound on the squarings ever needed; the convergence vote below
  // exits as soon as every iterate stops improving. The dispatch context
  // carries the per-iteration nnz dispatch (Auto): sparse rounds while the
  // iterates are mostly infinite, a locked dense engine once they fill in.
  const int iters = squaring_iterations(max_n);
  MmDispatchContext ctx;
  for (int it = 0; it < iters; ++it) {
    // One batched witness-carrying squaring: every graph's (d, d) product
    // rides the same two supersteps (nnz-dispatched as a batch under
    // Auto), and the schedule cache replays the Koenig schedule across
    // iterations.
    // Crash recovery: a squaring that dies mid-protocol (typed PeerFailure
    // out of a hardened deliver) restarts from the CURRENT iterates after
    // charged liveness votes — sound because min-plus squaring is
    // idempotent, so re-squaring an iterate never overshoots the fixpoint.
    auto sq = clique::with_peer_recovery(net, [&] {
      return kind == MmKind::Auto
                 ? dp_semiring_witness_batch_auto(
                       net, std::span<const Matrix<std::int64_t>>(d),
                       std::span<const Matrix<std::int64_t>>(d), &ctx)
                 : dp_semiring_witness_batch(
                       net, std::span<const Matrix<std::int64_t>>(d),
                       std::span<const Matrix<std::int64_t>>(d));
    });
    // Node u adopts the improvements of its rows of every member's iterate
    // and reports whether any entry improved. Entries outside each real
    // n x n corner are inert (padded rows are all-infinite), so scanning
    // the real rows is exact.
    auto adopt_row = [&](int u) {
      bool improved = false;
      for (std::size_t b = 0; b < batch; ++b) {
        const int n = gs[b].n();
        if (u >= n) continue;
        const auto& [d2, q] = sq[b];
        for (int v = 0; v < n; ++v) {
          if (d2(u, v) >= d[b](u, v)) continue;
          improved = true;
          const int w = q(u, v);
          CCA_ASSERT(w >= 0 && w < n && w != u);
          // The witness w splits the improved path; its first hop is
          // already known at node u (routing-table invariant of Section
          // 3.3).
          next[b](u, v) = next[b](u, w);
        }
      }
      return improved;
    };
    // Convergence vote, charged for real like agree_on_seed: every node
    // announces "did any entry of my rows improve" (one word per link, 1
    // round) and everyone exits together when no graph's iterate improved
    // — min-plus squaring is monotone, so a fixed point stays fixed.
    // Members that converge earlier ride along unchanged (squaring is
    // idempotent past convergence), the same shared-iteration-count
    // argument as the padding above. Once the hop bound is reached there
    // is nothing to decide, and the rows are adopted without a vote.
    bool improved = false;
    if (it + 1 < iters)
      improved =
          clique::broadcast_reduce(net, adopt_row, std::bit_or<>()) != 0;
    else
      for (int u = own.begin; u < own.end; ++u) adopt_row(u);
    for (std::size_t b = 0; b < batch; ++b) d[b] = std::move(sq[b].dist);
    if (!improved) break;
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const int n = gs[b].n();
    out.dist.push_back(d[b].block(0, 0, n, n));
    out.next_hop.push_back(std::move(next[b]));
    for (int v = 0; v < n; ++v) CCA_ENSURES(out.dist.back()(v, v) >= 0);
  }
  out.traffic = net.stats();
  out.engine_trace = std::move(ctx.trace);
  return out;
}

ApspOutcome apsp_seidel(const Graph& g, MmKind kind, int depth) {
  CCA_VALIDATE(!g.is_directed(), "apsp_seidel requires an undirected graph");
  const int n = g.n();
  if (n <= 1) return make_trivial(g);

  const IntMmEngine engine(kind, n, depth);
  const int big = engine.clique_n();
  clique::Network net(big);
  // Node u computes only its own rows of every level's matrices, so under
  // a sharded transport each rank scans its owned rows, which are exactly
  // the authoritative rows of each product. The two cross-row facts a
  // level needs, stability and the degrees, arrive by broadcast, so every
  // rank takes the same recursion path. On return only the owned rows of
  // dist are authoritative.
  const clique::NodeSpan own = net.owned();

  // Recursive Seidel over 0/1 adjacency matrices (padded nodes isolated).
  // Distances use kInf for disconnected pairs; squared-graph stabilisation
  // replaces the paper's connectivity assumption. One dispatch context
  // serves every level's products: the downward squarings densify the
  // adjacency monotonically, and by the time the upward D2 * A products
  // run the iterate is dense, so the hysteresis lock is already in place.
  MmDispatchContext ctx;
  auto seidel = [&](auto&& self, const Matrix<std::int64_t>& a,
                    int depth_guard) -> Matrix<std::int64_t> {
    CCA_EXPECTS(depth_guard < 2 * ilog2(std::max(2, n)) + 4);

    // Adjacency of G^2: A2 = A*A over Z, then boolean OR with A (local).
    // Each node forms its row of C and reports whether it differs from its
    // row of A; one broadcast ORs the flags.
    const auto a2 = engine.multiply(net, a, a, &ctx);
    Matrix<std::int64_t> c(big, big, 0);
    auto form_row = [&](int i) {
      bool changed = false;
      for (int j = 0; j < big; ++j) {
        c(i, j) = (i != j && (a(i, j) != 0 || a2(i, j) != 0)) ? 1 : 0;
        if (c(i, j) != a(i, j)) changed = true;
      }
      return changed;
    };
    const bool stable =
        clique::broadcast_reduce(net, form_row, std::bit_or<>()) == 0;

    if (stable) {
      Matrix<std::int64_t> d(big, big, kInf);
      for (int i = own.begin; i < own.end; ++i)
        for (int j = 0; j < big; ++j) {
          if (i == j)
            d(i, j) = 0;
          else if (a(i, j) != 0)
            d(i, j) = 1;
        }
      return d;
    }

    const auto d2 = self(self, c, depth_guard + 1);

    // Lemma 17: S = D2 * A over the integers (infinite entries of D2 are
    // replaced by 0, which is sound: they pair only with A[k,v] = 0 for v
    // in the same component as u).
    Matrix<std::int64_t> d2z(big, big, 0);
    for (int i = own.begin; i < own.end; ++i)
      for (int j = 0; j < big; ++j)
        if (d2(i, j) < kInf) d2z(i, j) = d2(i, j);
    const auto s = engine.multiply(net, d2z, a, &ctx);

    // One broadcast round teaches every node all degrees of this level. A
    // is symmetric, so node v's row sum is its degree.
    std::vector<clique::Word> deg(static_cast<std::size_t>(big), 0);
    for (int v = own.begin; v < own.end; ++v) {
      std::int64_t dv = 0;
      for (int u = 0; u < big; ++u) dv += a(v, u);
      deg[static_cast<std::size_t>(v)] = static_cast<clique::Word>(dv);
    }
    deg = clique::broadcast_all(net, std::move(deg));

    Matrix<std::int64_t> d(big, big, kInf);
    for (int u = own.begin; u < own.end; ++u)
      for (int v = 0; v < big; ++v) {
        if (u == v) {
          d(u, v) = 0;
          continue;
        }
        if (d2(u, v) >= kInf) continue;  // different components
        const auto duv2 = d2(u, v);
        const auto deg_v =
            static_cast<std::int64_t>(deg[static_cast<std::size_t>(v)]);
        d(u, v) = (s(u, v) >= duv2 * deg_v) ? 2 * duv2 : 2 * duv2 - 1;
      }
    return d;
  };

  const auto a = pad_matrix(g.adjacency(), big, std::int64_t{0});
  const auto dist = seidel(seidel, a, 0);

  ApspOutcome out;
  out.dist = dist.block(0, 0, n, n);
  out.traffic = net.stats();
  out.engine_trace = std::move(ctx.trace);
  return out;
}

namespace {

/// Lemma 19 core: iterated bounded squaring on an existing clique. `ctx`
/// (optional) routes every embedded product through the nnz-adaptive
/// dispatcher — the clamped iterate densifies monotonically, so the
/// context's hysteresis is sound across the squarings.
Matrix<std::int64_t> bounded_squaring(clique::Network& net,
                                      const BilinearAlgorithm& alg,
                                      Matrix<std::int64_t> d, int n,
                                      std::int64_t m_bound,
                                      MmDispatchContext* ctx = nullptr) {
  auto clamp = [&](Matrix<std::int64_t>& x) {
    for (int i = 0; i < x.rows(); ++i)
      for (int j = 0; j < x.cols(); ++j)
        if (x(i, j) > m_bound) x(i, j) = kInf;
  };
  clamp(d);
  const int iters = squaring_iterations(n);
  for (int it = 0; it < iters; ++it) {
    d = dp_ring_embedded(net, alg, d, d, m_bound, ctx);
    clamp(d);
  }
  return d;
}

}  // namespace

ApspOutcome apsp_bounded(const Graph& g, std::int64_t m_bound, int depth) {
  CCA_VALIDATE(m_bound >= 0, "distance bound M must be >= 0");
  const int n = g.n();
  if (n <= 1) return make_trivial(g);
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      (void)v;
      CCA_VALIDATE(w >= 0, "apsp_bounded requires non-negative weights");
    }

  const FastPlan plan =
      depth >= 0 ? plan_fast_mm(n, depth) : plan_fast_mm_auto(n);
  const auto alg = tensor_power(strassen_algorithm(), plan.depth);
  clique::Network net(plan.clique_n);
  // Sharded execution rides the nnz-adaptive dispatcher inside
  // dp_ring_embedded (the ctx below routes every embedded product through
  // it), which drops the full-ownership bilinear candidate when sharded;
  // on return only the owned rows of dist are authoritative (the clamp is
  // elementwise, so garbage non-owned rows stay inert).

  const auto w0 = pad_matrix(g.weight_matrix(), plan.clique_n, kInf);
  MmDispatchContext ctx;
  const auto d = bounded_squaring(net, alg, w0, n, m_bound, &ctx);

  ApspOutcome out;
  out.dist = d.block(0, 0, n, n);
  out.traffic = net.stats();
  out.engine_trace = std::move(ctx.trace);
  return out;
}

ApspOutcome apsp_small_diameter(const Graph& g, int depth) {
  const int n = g.n();
  if (n <= 1) return make_trivial(g);
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      (void)v;
      // Corollary 8: positive integer weights.
      CCA_VALIDATE(w >= 1,
                   "apsp_small_diameter requires positive integer weights");
    }

  const FastPlan plan =
      depth >= 0 ? plan_fast_mm(n, depth) : plan_fast_mm_auto(n);
  const auto alg = tensor_power(strassen_algorithm(), plan.depth);
  const int big = plan.clique_n;
  clique::Network net(big);
  // Genuinely full-ownership: both the reachability closure and the
  // ctx-less bounded squarings run the fixed bilinear engine directly,
  // and the completeness check scans the full distance iterate.
  clique::require_full_ownership(
      net, "apsp_small_diameter",
      "use apsp_bounded or apsp_semiring for sharded runs");

  // (1) Reachability closure by Boolean squaring (entries clamped to 0/1).
  const IntRing ring;
  const I64Codec codec;
  Matrix<std::int64_t> reach = pad_matrix(g.adjacency(), big, std::int64_t{0});
  for (int v = 0; v < big; ++v) reach(v, v) = 1;
  for (int it = 0; it < squaring_iterations(n) + 1; ++it) {
    auto r2 = mm_fast_bilinear(net, ring, codec, alg, reach, reach);
    for (int i = 0; i < big; ++i)
      for (int j = 0; j < big; ++j) reach(i, j) = r2(i, j) != 0 ? 1 : 0;
  }

  // (2)+(3) Guess U, compute distances up to U, check completeness (one
  // flag broadcast per guess), and double until every reachable pair is
  // covered.
  const auto w0 = pad_matrix(g.weight_matrix(), big, kInf);
  std::int64_t u_guess = 1;
  for (;;) {
    const auto d = bounded_squaring(net, alg, w0, n, u_guess);
    // Each node flags a reachable node still at infinite distance; one
    // broadcast ORs the flags.
    auto incomplete_row = [&](int a) {
      if (a >= n) return false;
      for (int b = 0; b < n; ++b)
        if (reach(a, b) != 0 && d(a, b) >= kInf) return true;
      return false;
    };
    const bool complete =
        clique::broadcast_reduce(net, incomplete_row, std::bit_or<>()) == 0;
    if (complete) {
      ApspOutcome out;
      out.dist = d.block(0, 0, n, n);
      out.traffic = net.stats();
      return out;
    }
    u_guess *= 2;
    CCA_ASSERT(u_guess <= static_cast<std::int64_t>(n) * (std::int64_t{1} << 40));
  }
}

ApspOutcome apsp_approx(const Graph& g, double delta, int depth) {
  CCA_VALIDATE(delta > 0, "approximation parameter delta must be > 0");
  const int n = g.n();
  if (n <= 1) return make_trivial(g);
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      (void)v;
      CCA_VALIDATE(w >= 0, "apsp_approx requires non-negative weights");
    }

  const FastPlan plan =
      depth >= 0 ? plan_fast_mm(n, depth) : plan_fast_mm_auto(n);
  const auto alg = tensor_power(strassen_algorithm(), plan.depth);
  clique::Network net(plan.clique_n);
  // Sharded execution mirrors apsp_bounded: the ctx routes every level's
  // embedded product through the nnz-adaptive dispatcher (bilinear
  // candidate dropped when sharded), the maximum below folds only owned
  // rows, and dp_approx's admission scans skip infinite entries — so the
  // garbage non-owned rows of the iterate never feed a decision. On return
  // only the owned rows of dist are authoritative.

  auto d = pad_matrix(g.weight_matrix(), plan.clique_n, kInf);
  const int iters = squaring_iterations(n);
  // One context across all iterations AND approximation levels: the
  // admission windows widen level over level and the distances only
  // decrease iteration over iteration, so the embedded products' nonzero
  // patterns grow monotonically — the hysteresis precondition.
  MmDispatchContext ctx;
  // One broadcast round per iteration teaches every node the global
  // maximum finite entry: each node contributes its row maximum. The
  // maxima travel as unsigned Words, which is exact only for non-negative
  // entries; the entry contract (w >= 0 on every arc) keeps every finite
  // entry of every iterate non-negative, and the assert pins that per
  // entry. Negative-weight APSP goes through apsp_semiring, whose witness
  // codec bit-casts entries instead (regression in test_apsp.cpp).
  auto row_max_finite = [&](int u) {
    std::int64_t row_max = 0;
    if (u < n)
      for (int v = 0; v < d.cols(); ++v)
        if (d(u, v) < kInf) {
          CCA_ASSERT(d(u, v) >= 0);
          row_max = std::max(row_max, d(u, v));
        }
    return row_max;
  };
  const auto max_word = [](clique::Word x, clique::Word y) {
    return std::max(x, y);
  };
  for (int it = 0; it < iters; ++it) {
    const auto m_cur = static_cast<std::int64_t>(
        clique::broadcast_reduce(net, row_max_finite, max_word));
    d = dp_approx(net, alg, d, d, m_cur, delta, &ctx);
  }

  ApspOutcome out;
  out.dist = d.block(0, 0, n, n);
  out.traffic = net.stats();
  out.engine_trace = std::move(ctx.trace);
  return out;
}

ApspOutcome apsp_approx_auto(const Graph& g, int depth) {
  // The (1+o(1)) delta schedule: delta(n) = 1/ceil(log2 n)^2 gives
  // (1 + delta)^ceil(log2 n) <= exp(1/ceil(log2 n)) = 1 + o(1).
  const int log_n = ilog2(std::max(2, g.n() - 1)) + 1;
  const double delta = 1.0 / (static_cast<double>(log_n) * log_n);
  return apsp_approx(g, delta, depth);
}

Matrix<int> routing_table_from_distances(const Graph& g,
                                         const Matrix<std::int64_t>& dist,
                                         clique::TrafficStats* traffic) {
  const int n = g.n();
  CCA_VALIDATE(dist.rows() == n && dist.cols() == n,
               "distance matrix dimensions must match the graph");
  Matrix<int> next(n, n, -1);
  if (n <= 1) return next;

  const int big = semiring_clique_size(n);
  clique::Network net(big);
  // Sharded execution: `dist` must be replicated on every rank (it is an
  // INPUT, exactly like the graph); the witness product then fills only
  // owned rows, so the verification scan and the table below cover the
  // owned range — on return only the owned rows of `next` are
  // authoritative.
  const clique::NodeSpan own = net.owned();

  // W with an infinite diagonal: the witness of min_w W(u,w) + D(w,v) is
  // then a genuine outgoing arc, i.e. a valid first hop.
  auto w = pad_matrix(g.weight_matrix(), big, kInf);
  for (int v = 0; v < n; ++v) w(v, v) = kInf;
  const auto d = pad_matrix(dist, big, kInf);

  const auto [prod, wit] = clique::with_peer_recovery(
      net, [&] { return dp_semiring_witness(net, w, d); });
  for (int u = own.begin; u < std::min(own.end, n); ++u)
    for (int v = 0; v < n; ++v) {
      if (u == v || dist(u, v) >= kInf) continue;
      // A true distance matrix satisfies prod == dist off the diagonal.
      CCA_ASSERT(prod(u, v) == dist(u, v));
      next(u, v) = wit(u, v);
    }
  if (traffic != nullptr) *traffic = net.stats();
  return next;
}

}  // namespace cca::core
