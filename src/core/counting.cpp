#include "core/counting.hpp"

#include <algorithm>
#include <functional>

#include "clique/primitives.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::core {

namespace {

/// Transpose the real n x n corner of a row-distributed matrix: node v sends
/// entry (v, u) to node u. O(n) words per node, so O(1) rounds by relay.
Matrix<std::int64_t> transpose_distributed(clique::Network& net, int n,
                                           const Matrix<std::int64_t>& m) {
  Matrix<std::int64_t> out(n, n, 0);
  if (net.n() == 1) {
    out(0, 0) = m(0, 0);
    return out;
  }
  // Parallel staged encode over senders (each v owns its outbox); the
  // receive side reads distinct output rows per node. Both walks cover
  // only the OWNED shard (everything in-process): only owned source rows
  // of m are authoritative, and only owned destinations' inboxes are
  // filled — the returned transpose is authoritative on owned rows.
  const clique::NodeSpan own = net.owned();
  const int end = std::min(own.end, n);
  // Work estimate: one word per owned row entry, on either side of the
  // superstep.
  const auto rows = static_cast<std::size_t>(std::max(end - own.begin, 0));
  const std::size_t words = rows * static_cast<std::size_t>(n);
  parallel_for(own.begin, end, words, [&](int v) {
    for (int u = 0; u < n; ++u) {
      const auto span = net.stage(v, u, 1);
      span[0] = static_cast<clique::Word>(m(v, u));
    }
  });
  net.deliver();
  parallel_for(own.begin, end, words, [&](int u) {
    for (int v = 0; v < n; ++v) {
      const auto in = net.inbox(u, v);
      CCA_ASSERT(in.size() == 1);
      out(u, v) = static_cast<std::int64_t>(in[0]);
    }
  });
  return out;
}

}  // namespace

CountOutcome count_triangles_cc(const Graph& g, MmKind kind, int depth) {
  auto res = count_triangles_cc_batch(std::span<const Graph>(&g, 1), kind,
                                      depth);
  return {res.counts.front(), res.traffic};
}

BatchCountOutcome count_triangles_cc_batch(std::span<const Graph> gs,
                                           MmKind kind, int depth) {
  const std::size_t batch = gs.size();
  CCA_VALIDATE(batch >= 1, "batch must contain at least one graph");
  // max_n starts at 0 so an all-empty batch reaches IntMmEngine's n >= 1
  // check instead of silently padding to one node.
  int max_n = 0;
  for (const auto& g : gs) max_n = std::max(max_n, g.n());
  const IntMmEngine engine(kind, max_n, depth);
  const int big = engine.clique_n();
  clique::Network net(big);

  // All B squarings A_b^2 through shared supersteps on the one padded
  // clique (smaller graphs ride along with inert zero rows).
  std::vector<Matrix<std::int64_t>> as;
  as.reserve(batch);
  for (const auto& g : gs)
    as.push_back(pad_matrix(g.adjacency(), big, std::int64_t{0}));
  const auto a2s = engine.multiply_batch(
      net, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(as));

  BatchCountOutcome out;
  out.counts.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const Graph& g = gs[b];
    const int n = g.n();
    const auto& a2 = a2s[b];
    // tr(A^3) = sum_{u,v} A^2[u,v] A[v,u]; undirected graphs have A
    // symmetric so A[v,u] is already node u's local data, digraphs need a
    // transpose superstep of their own.
    const auto at =
        g.is_directed()
            ? transpose_distributed(net, big, as[b]).block(0, 0, n, n)
            : g.adjacency();
    // Node u contributes its row's partial sum and one broadcast sums
    // them (under sharding the owned rows are the authoritative slice of
    // A^2).
    const auto tr = static_cast<std::int64_t>(clique::broadcast_reduce(
        net,
        [&](int u) {
          std::int64_t acc = 0;
          if (u < n)
            for (int v = 0; v < n; ++v) acc += a2(u, v) * at(u, v);
          return acc;
        },
        std::plus<>()));
    const std::int64_t divisor = g.is_directed() ? 3 : 6;
    CCA_ASSERT(tr % divisor == 0);
    out.counts.push_back(tr / divisor);
  }
  out.traffic = net.stats();
  return out;
}

CountOutcome count_4cycles_cc(const Graph& g, MmKind kind, int depth) {
  const int n = g.n();
  const IntMmEngine engine(kind, n, depth);
  const int big = engine.clique_n();
  clique::Network net(big);

  const auto a = pad_matrix(g.adjacency(), big, std::int64_t{0});
  const auto a2 = engine.multiply(net, a, a);

  // tr(A^4) = sum_{u,v} A^2[u,v] A^2[v,u]: one transpose superstep of the
  // real corner of A^2 (padded rows/columns of A^2 are zero).
  const auto a2t = transpose_distributed(net, big, a2).block(0, 0, n, n);

  const auto tr = static_cast<std::int64_t>(clique::broadcast_reduce(
      net,
      [&](int u) {
        std::int64_t acc = 0;
        if (u < n)
          for (int v = 0; v < n; ++v) acc += a2(u, v) * a2t(u, v);
        return acc;
      },
      std::plus<>()));

  // Correction term: deg(v) for undirected graphs, the number of 2-cycles
  // delta(v) for digraphs — both local knowledge; one broadcast to sum.
  const auto corr_sum = static_cast<std::int64_t>(clique::broadcast_reduce(
      net,
      [&](int v) {
        std::int64_t dv = 0;
        if (v >= n) return dv;
        if (g.is_directed()) {
          for (const auto& [u, w] : g.out_arcs(v)) {
            (void)w;
            if (g.has_arc(u, v)) ++dv;
          }
        } else {
          dv = g.out_degree(v);
        }
        return 2 * dv * dv - dv;
      },
      std::plus<>()));

  const std::int64_t divisor = g.is_directed() ? 4 : 8;
  CCA_ASSERT((tr - corr_sum) % divisor == 0);
  return {(tr - corr_sum) / divisor, net.stats()};
}

CountOutcome count_5cycles_cc(const Graph& g, MmKind kind, int depth) {
  CCA_VALIDATE(!g.is_directed(),
               "count_5cycles_cc requires an undirected graph");
  const int n = g.n();
  const IntMmEngine engine(kind, n, depth);
  const int big = engine.clique_n();
  clique::Network net(big);

  const auto a = pad_matrix(g.adjacency(), big, std::int64_t{0});
  // One dispatch context over both products: A^2's pattern contains every
  // length-2 reachability, so if A * A already went dense the A^2 * A
  // product replays the locked engine with no second announcement.
  MmDispatchContext ctx;
  const auto a2 = engine.multiply(net, a, a, &ctx);
  const auto a3 = engine.multiply(net, a2, a, &ctx);

  // For symmetric A, A^3 is symmetric, so tr(A^5) = sum_{u,v} A^2[u,v]
  // A^3[v,u] = sum_{u,v} A^2[u,v] A^3[u,v] needs no transpose: node u owns
  // row u of both factors. The correction terms use (A^3)_uu and deg(u),
  // both local to node u.
  const auto tr5 = static_cast<std::int64_t>(clique::broadcast_reduce(
      net,
      [&](int u) {
        std::int64_t acc = 0;
        if (u < n)
          for (int v = 0; v < n; ++v) acc += a2(u, v) * a3(u, v);
        return acc;
      },
      std::plus<>()));
  const auto tr3 = static_cast<std::int64_t>(clique::broadcast_reduce(
      net, [&](int u) { return u < n ? a3(u, u) : 0; }, std::plus<>()));
  const auto corr = static_cast<std::int64_t>(clique::broadcast_reduce(
      net,
      [&](int u) {
        return u < n ? (g.out_degree(u) - 2) * a3(u, u) : 0;
      },
      std::plus<>()));

  const auto numerator = tr5 - 5 * tr3 - 5 * corr;
  CCA_ASSERT(numerator % 10 == 0);
  return {numerator / 10, net.stats()};
}

}  // namespace cca::core
