#include "core/girth.hpp"

#include <cmath>
#include <functional>

#include "clique/broadcast.hpp"
#include "clique/primitives.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/four_cycle.hpp"
#include "graph/reference.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace cca::core {

namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

clique::Word pack_pair(int a, int b) {
  return (static_cast<clique::Word>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

/// Learn the whole graph at every node and compute the girth locally.
/// Cost: O(m/n) rounds through the dissemination primitive.
std::int64_t girth_by_learning(clique::Network& net, const Graph& g) {
  const int n = g.n();
  std::vector<std::vector<clique::Word>> per_node(
      static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      (void)w;
      if (g.is_directed() || u < v)
        per_node[static_cast<std::size_t>(u)].push_back(pack_pair(u, v));
    }
  const auto edges = clique::disseminate(net, per_node);
  auto learned = g.is_directed() ? Graph::directed(n) : Graph::undirected(n);
  for (const auto w : edges) {
    const int u = static_cast<int>(w >> 32);
    const int v = static_cast<int>(w & 0xffffffffu);
    learned.add_edge(u, v);
  }
  return ref_girth(learned);
}

}  // namespace

GirthOutcome girth_undirected_cc(const Graph& g, std::uint64_t seed,
                                 MmKind kind, int depth, int trial_factor) {
  CCA_VALIDATE(!g.is_directed(),
               "girth_undirected_cc requires an undirected graph");
  CCA_VALIDATE(trial_factor >= 1, "trial_factor must be >= 1");
  const int n = g.n();

  GirthOutcome out;
  clique::TrafficStats total{};

  // Every node learns all degrees (1 round) and hence the edge count.
  std::int64_t m = 0;
  {
    clique::Network net(std::max(1, n));
    const auto degree_sum = clique::broadcast_reduce(
        net, [&](int v) { return v < n ? g.out_degree(v) : 0; },
        std::plus<>());
    m = static_cast<std::int64_t>(degree_sum) / 2;
    total = net.stats();
  }

  // Sparse/dense dichotomy at l = ceil(2 + 2/rho) (Theorem 15). rho comes
  // from the engine actually in use, so the threshold adapts to the
  // implemented sigma (Strassen by default) exactly as the theorem requires.
  // The threshold is Theorem 15's uniform n^{1 + 2/l} form. The former
  // 1.0 + 1.0 / (ell / 2) evaluated ell / 2 under INTEGER division, i.e.
  // n^{1 + 1/floor(l/2)} — for EVEN l the two coincide, but for odd l
  // (the Fast engine's l = 9) the floor form kept a wider sparse side
  // (n^{1.25} vs n^{1+2/9}). That is the classical girth-(l+1) Moore
  // bound, so graphs in the gap band COULD still be learned within the
  // stated budget; the theorem's dichotomy, however, is stated at
  // n^{1+2/l}, and above it the dense path must be taken for the round
  // bound to follow from the detection cascade alone (the k <= l cascade
  // plus the learning fallback stays exact for any girth, so the choice
  // of threshold never affects answers). test_girth.cpp pins an odd-l
  // band instance whose dichotomy choice flips to dense.
  const double rho = IntMmEngine(kind, std::max(1, n), depth).rho();
  const int ell = static_cast<int>(std::ceil(2.0 + 2.0 / rho));
  const double threshold =
      std::pow(static_cast<double>(std::max(1, n)), 1.0 + 2.0 / ell) + n;

  if (static_cast<double>(m) <= threshold || n < 3) {
    clique::Network net(std::max(1, n));
    out.girth = girth_by_learning(net, g);
    out.used_sparse_path = true;
    total += net.stats();
    out.traffic = total;
    return out;
  }

  // Dense: the girth is at most ell; detect cycles of length 3, 4, ..., ell.
  // The per-k Monte Carlo seeds derive from one shared seed, agreed in a
  // real broadcast round (this charge was previously missing entirely: the
  // trials consumed `seed` with no round, word, or superstep accounted).
  Rng rng([&] {
    clique::Network net(std::max(1, n));
    const auto agreed = clique::agree_on_seed(net, 0, seed);
    total += net.stats();
    return agreed;
  }());
  for (int k = 3; k <= ell; ++k) {
    bool found = false;
    clique::TrafficStats s{};
    if (k == 3) {
      const auto r = count_triangles_cc(g, kind, depth);
      found = r.count > 0;
      s = r.traffic;
    } else if (k == 4) {
      const auto r = detect_4cycle_const(g);
      found = r.found;
      s = r.traffic;
    } else {
      const double bound = std::exp(k) * std::log(static_cast<double>(n));
      const int trials =
          trial_factor * static_cast<int>(std::ceil(bound));
      const auto r = detect_k_cycle_cc(g, k, rng.next(), trials, kind, depth);
      found = r.found;
      s = r.traffic;
    }
    total += s;
    if (found) {
      out.girth = k;
      out.traffic = total;
      return out;
    }
  }

  // All detections missed (possible only through Monte Carlo failure at
  // k >= 5): fall back to learning the graph so the answer stays correct.
  clique::Network net(std::max(1, n));
  out.girth = girth_by_learning(net, g);
  out.used_sparse_path = true;
  total += net.stats();
  out.traffic = total;
  return out;
}

GirthOutcome girth_directed_cc(const Graph& g, MmKind kind, int depth) {
  CCA_VALIDATE(g.is_directed(), "girth_directed_cc requires a directed graph");
  const int n = g.n();
  GirthOutcome out;
  if (n == 0) {
    out.girth = kInf;
    return out;
  }

  const IntMmEngine engine(kind, std::max(1, n), depth);
  const int big = engine.clique_n();
  clique::Network net(big);

  const auto a = pad_matrix(g.adjacency(), big, std::int64_t{0});

  // One dispatch context across the doubling and binary-search products:
  // B^(i) reachability only grows, so under MmKind::Auto the early sparse
  // powers pay sparse rounds and the densified ones replay a locked dense
  // engine (see MmDispatchContext).
  MmDispatchContext ctx;

  // Has some node a closed walk? Each node checks its own diagonal entry
  // and the flags are OR-combined in one broadcast round. The loop exits
  // and the search branches below test the broadcast OR, never a scan of
  // the local matrix: under sharding only owned rows are valid, and ranks
  // that decided on their own rows would stage different supersteps.
  auto any_diag = [&](const Matrix<std::int64_t>& b) {
    return clique::broadcast_reduce(
               net, [&](int v) { return v < n && b(v, v) != 0; },
               std::bit_or<>()) != 0;
  };

  auto bool_mul_or_a = [&](const Matrix<std::int64_t>& x,
                           const Matrix<std::int64_t>& y) {
    auto p = engine.multiply(net, x, y, &ctx);
    for (int i = 0; i < big; ++i)
      for (int j = 0; j < big; ++j)
        p(i, j) = (p(i, j) != 0 || a(i, j) != 0) ? 1 : 0;
    return p;
  };

  // Doubling phase: B^(1), B^(2), B^(4), ... until a diagonal hit.
  // B^(i)[u,v] = 1 iff there is a path of length 1..i from u to v.
  std::vector<Matrix<std::int64_t>> powers;  // powers[t] = B^(2^t)
  powers.push_back(a);
  std::int64_t reach = 1;
  if (any_diag(a)) {
    // Girth is 2 at minimum length... a has zero diagonal (no self-loops),
    // so this cannot trigger; kept for matrices with loops.
    out.girth = 1;
    out.traffic = net.stats();
    return out;
  }
  while (reach < n) {
    auto next = bool_mul_or_a(powers.back(), powers.back());
    reach *= 2;
    const bool hit = any_diag(next);
    powers.push_back(std::move(next));
    if (hit) break;
  }
  if (!any_diag(powers.back())) {
    out.girth = kInf;  // acyclic
    out.traffic = net.stats();
    return out;
  }

  // Binary search: girth in (reach/2, reach]. Maintain B^(lo) with no
  // diagonal hit and add saved powers of two from high to low.
  std::int64_t lo = reach / 2;
  Matrix<std::int64_t> blo =
      lo == 0 ? Matrix<std::int64_t>() : powers[static_cast<std::size_t>(
                                             ilog2(lo))];
  for (int t = static_cast<int>(powers.size()) - 2; t >= 0; --t) {
    const auto step = std::int64_t{1} << t;
    if (lo + step >= reach) continue;  // candidate >= known-hit bound
    Matrix<std::int64_t> cand =
        lo == 0 ? powers[static_cast<std::size_t>(t)]
                : bool_mul_or_a(blo, powers[static_cast<std::size_t>(t)]);
    if (!any_diag(cand)) {
      lo += step;
      blo = std::move(cand);
    }
  }
  out.girth = lo + 1;
  out.traffic = net.stats();
  return out;
}

}  // namespace cca::core
