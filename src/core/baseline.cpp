#include "core/baseline.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "clique/primitives.hpp"
#include "graph/reference.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"

namespace cca::core {

namespace {

clique::Word pack_pair(int a, int b) {
  return (static_cast<clique::Word>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

}  // namespace

BaselineDetectOutcome detect_k_cycle_dolev(const Graph& g, int k) {
  const int n = g.n();
  CCA_VALIDATE(k >= (g.is_directed() ? 2 : 3),
               "k must be >= 3 (>= 2 for directed graphs)");
  if (k > n || n == 0) return {false, {}};

  clique::Network net(std::max(1, n));
  // Genuinely full-ownership: every holder and tuple node stages from and
  // reads inboxes of the whole node range.
  clique::require_full_ownership(net, "detect_k_cycle_dolev",
                                 "use detect_k_cycle_cc for sharded runs");

  // q groups of size ceil(n/q); q = floor(n^{1/k}) keeps q^k <= n tuples.
  int q = static_cast<int>(
      std::floor(std::pow(static_cast<double>(n), 1.0 / k)));
  q = std::max(1, q);
  while (ipow(q, k) > n) --q;  // guard floating-point edge cases
  const int group_size = static_cast<int>(ceil_div(n, q));
  auto group_of = [&](int v) { return std::min(q - 1, v / group_size); };
  const auto tuples = static_cast<int>(ipow(q, k));

  // Which tuples contain a given (unordered) pair of groups? Precomputed
  // identically at every node from public quantities.
  std::vector<std::vector<int>> tuples_of_pair(
      static_cast<std::size_t>(q) * static_cast<std::size_t>(q));
  for (int t = 0; t < tuples; ++t) {
    std::vector<char> has(static_cast<std::size_t>(q), 0);
    int rest = t;
    for (int slot = 0; slot < k; ++slot) {
      has[static_cast<std::size_t>(rest % q)] = 1;
      rest /= q;
    }
    for (int a = 0; a < q; ++a) {
      if (!has[static_cast<std::size_t>(a)]) continue;
      for (int b = a; b < q; ++b)
        if (has[static_cast<std::size_t>(b)])
          tuples_of_pair[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(q) +
                         static_cast<std::size_t>(b)]
              .push_back(t);
    }
  }

  // Phase 0: balance the edge list over the clique (edge j -> holder j mod
  // n), after a one-round count announcement for the global offsets.
  std::vector<std::vector<clique::Word>> held(static_cast<std::size_t>(n));
  {
    std::vector<clique::Word> counts(static_cast<std::size_t>(n), 0);
    for (int u = 0; u < n; ++u) {
      std::int64_t cnt = 0;
      for (const auto& [v, w] : g.out_arcs(u)) {
        (void)w;
        if (g.is_directed() || u < v) ++cnt;
      }
      counts[static_cast<std::size_t>(u)] = static_cast<clique::Word>(cnt);
    }
    // lint:allow(discarded-broadcast): full ownership; offsets come from g.
    (void)clique::broadcast_all(net, std::move(counts));

    std::int64_t index = 0;
    for (int u = 0; u < n; ++u)
      for (const auto& [v, w] : g.out_arcs(u)) {
        (void)w;
        if (!g.is_directed() && u >= v) continue;
        net.send(u, static_cast<int>(index % n), pack_pair(u, v));
        ++index;
      }
    net.deliver();
    for (int h = 0; h < n; ++h)
      for (int src = 0; src < n; ++src) {
        auto words = net.take_inbox(h, src);
        auto& bucket = held[static_cast<std::size_t>(h)];
        bucket.insert(bucket.end(), words.begin(), words.end());
      }
  }

  // Phase 1: each holder forwards every held edge to the tuple nodes whose
  // group union contains both endpoints' groups.
  for (int h = 0; h < n; ++h)
    for (const auto word : held[static_cast<std::size_t>(h)]) {
      const int u = static_cast<int>(word >> 32);
      const int v = static_cast<int>(word & 0xffffffffu);
      int ga = group_of(u);
      int gb = group_of(v);
      if (ga > gb) std::swap(ga, gb);
      for (const int t : tuples_of_pair[static_cast<std::size_t>(ga) *
                                            static_cast<std::size_t>(q) +
                                        static_cast<std::size_t>(gb)])
        net.send(h, t, word);
    }
  net.deliver();

  // Phase 2 (local): every tuple node searches its learned subgraph.
  bool found = false;
  for (int t = 0; t < tuples && !found; ++t) {
    std::vector<std::pair<int, int>> edges;
    for (int src = 0; src < n; ++src) {
      for (const auto word : net.inbox(t, src))
        edges.emplace_back(static_cast<int>(word >> 32),
                           static_cast<int>(word & 0xffffffffu));
    }
    if (edges.empty()) continue;
    // Remap vertex ids compactly.
    std::vector<int> ids;
    for (const auto& [u, v] : edges) {
      ids.push_back(u);
      ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    auto local_id = [&](int v) {
      return static_cast<int>(
          std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
    };
    auto sub = g.is_directed()
                   ? Graph::directed(static_cast<int>(ids.size()))
                   : Graph::undirected(static_cast<int>(ids.size()));
    for (const auto& [u, v] : edges) sub.add_edge(local_id(u), local_id(v));
    if (ref_has_k_cycle(sub, k)) found = true;
  }
  // One broadcast round ORs the tuple nodes' flags.
  net.charge_rounds(1);

  return {found, net.stats()};
}

ApspOutcome apsp_naive_learn(const Graph& g) {
  const int n = g.n();
  ApspOutcome out;
  if (n == 0) return out;
  clique::Network net(n);

  // Every node contributes its arcs (with weights: two words per arc);
  // dissemination teaches the entire weighted graph to everyone.
  std::vector<std::vector<clique::Word>> per_node(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      if (!g.is_directed() && u >= v) continue;
      per_node[static_cast<std::size_t>(u)].push_back(pack_pair(u, v));
      per_node[static_cast<std::size_t>(u)].push_back(
          static_cast<clique::Word>(w));
    }
  const auto words = clique::disseminate(net, per_node);
  auto learned = g.is_directed() ? Graph::directed(n) : Graph::undirected(n);
  for (std::size_t i = 0; i + 1 < words.size(); i += 2) {
    const int u = static_cast<int>(words[i] >> 32);
    const int v = static_cast<int>(words[i] & 0xffffffffu);
    learned.add_edge(u, v, static_cast<std::int64_t>(words[i + 1]));
  }
  out.dist = ref_apsp(learned);
  out.traffic = net.stats();
  return out;
}

}  // namespace cca::core
