#include "core/four_cycle.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_map>

#include "clique/primitives.hpp"
#include "util/analysis.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace cca::core {

namespace {

clique::Word pack_pair(int a, int b) {
  return (static_cast<clique::Word>(static_cast<std::uint32_t>(a)) << 32) |
         static_cast<std::uint32_t>(b);
}

std::pair<int, int> unpack_pair(clique::Word w) {
  return {static_cast<int>(w >> 32),
          static_cast<int>(w & 0xffffffffu)};
}

/// Buddy allocator over the k x k square: blocks are power-of-two aligned
/// sub-squares; allocating in non-increasing size order never fragments.
class BuddyAllocator {
 public:
  explicit BuddyAllocator(int k) : k_(k) {
    CCA_EXPECTS(k >= 1 && (k & (k - 1)) == 0);
    free_.resize(static_cast<std::size_t>(ilog2(k)) + 1);
    free_[static_cast<std::size_t>(ilog2(k))].push_back({0, 0});
  }

  /// Allocate an aligned size x size block (size a power of two <= k).
  [[nodiscard]] std::pair<int, int> allocate(int size) {
    const auto level = static_cast<std::size_t>(ilog2(size));
    CCA_EXPECTS(size >= 1 && (size & (size - 1)) == 0 && size <= k_);
    auto split_level = level;
    while (split_level < free_.size() && free_[split_level].empty())
      ++split_level;
    CCA_EXPECTS(split_level < free_.size());  // capacity proven by Lemma 12
    while (split_level > level) {
      const auto [r, c] = free_[split_level].back();
      free_[split_level].pop_back();
      const int half = 1 << (split_level - 1);
      free_[split_level - 1].push_back({r, c});
      free_[split_level - 1].push_back({r, c + half});
      free_[split_level - 1].push_back({r + half, c});
      free_[split_level - 1].push_back({r + half, c + half});
      --split_level;
    }
    const auto block = free_[level].back();
    free_[level].pop_back();
    return block;
  }

 private:
  int k_;
  std::vector<std::vector<std::pair<int, int>>> free_;
};

}  // namespace

std::vector<Tile> lemma12_tiling(const std::vector<std::int64_t>& degrees,
                                 int n) {
  CCA_EXPECTS(static_cast<int>(degrees.size()) == n);
  CCA_EXPECTS(n >= 8);
  const int k = static_cast<int>(floor_pow2(n));

  struct Request {
    int y;
    int size;
  };
  std::vector<Request> requests;
  for (int y = 0; y < n; ++y) {
    const auto deg = degrees[static_cast<std::size_t>(y)];
    CCA_EXPECTS(deg >= 0);
    if (deg == 0) continue;
    // f(y) = deg/4 rounded down to a power of two, at least 1; then
    // f(y) >= deg/8 and sum f^2 <= n + sum deg^2/16 < n + n^2/8 <= k^2.
    const auto f = static_cast<int>(floor_pow2(std::max<std::int64_t>(
        1, deg / 4)));
    requests.push_back({y, f});
  }
  std::sort(requests.begin(), requests.end(), [](const Request& a,
                                                 const Request& b) {
    if (a.size != b.size) return a.size > b.size;
    return a.y < b.y;
  });

  BuddyAllocator alloc(k);
  std::vector<Tile> tiles;
  tiles.reserve(requests.size());
  for (const auto& req : requests) {
    const auto [r, c] = alloc.allocate(req.size);
    tiles.push_back({req.y, r, c, req.size});
  }
  std::sort(tiles.begin(), tiles.end(),
            [](const Tile& a, const Tile& b) { return a.y < b.y; });
  return tiles;
}

namespace {

/// Fallback for tiny cliques: every node learns the whole graph (O(1)
/// rounds at bounded n) and checks for a 4-cycle locally.
FourCycleOutcome detect_small(const Graph& g) {
  const int n = g.n();
  clique::Network net(n);
  std::vector<std::vector<clique::Word>> per_node(
      static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u)
    for (const auto& [v, w] : g.out_arcs(u)) {
      (void)w;
      if (u < v)
        per_node[static_cast<std::size_t>(u)].push_back(pack_pair(u, v));
    }
  const auto edges = clique::disseminate(net, per_node);

  // Codegree check on the learned graph.
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (const auto w : edges) {
    const auto [u, v] = unpack_pair(w);
    adj[static_cast<std::size_t>(u)].push_back(v);
    adj[static_cast<std::size_t>(v)].push_back(u);
  }
  for (int u = 0; u < n; ++u)
    for (int w = u + 1; w < n; ++w) {
      int codeg = 0;
      for (const int x : adj[static_cast<std::size_t>(u)])
        if (x != w &&
            std::find(adj[static_cast<std::size_t>(w)].begin(),
                      adj[static_cast<std::size_t>(w)].end(),
                      x) != adj[static_cast<std::size_t>(w)].end())
          ++codeg;
      if (codeg >= 2) return {true, net.stats()};
    }
  return {false, net.stats()};
}

}  // namespace

FourCycleOutcome detect_4cycle_const(const Graph& g) {
  CCA_VALIDATE(!g.is_directed(),
               "detect_4cycle_const requires an undirected graph");
  const int n = g.n();
  if (n < 32) return detect_small(g);

  clique::Network net(n);
  // Genuinely full-ownership: the Lemma-12 tile relay stages from
  // tile-local sources and reads every node's inbox.
  clique::require_full_ownership(net, "detect_4cycle_const",
                                 "no sharded equivalent exists");

  // Round 1: every node broadcasts its degree.
  std::vector<clique::Word> deg_words(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    deg_words[static_cast<std::size_t>(v)] =
        static_cast<clique::Word>(g.out_degree(v));
  const auto deg_all = clique::broadcast_all(net, std::move(deg_words));
  std::vector<std::int64_t> deg(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v)
    deg[static_cast<std::size_t>(v)] =
        static_cast<std::int64_t>(deg_all[static_cast<std::size_t>(v)]);

  // Phase 1: |P(x,*,*)| = sum_{y in N(x)} deg(y); >= 2n-1 forces a 4-cycle.
  // One broadcast round ORs the per-node overflow flags.
  auto overflows = [&](int x) {
    std::int64_t walks = 0;
    for (const auto& [y, w] : g.out_arcs(x)) {
      (void)w;
      walks += deg[static_cast<std::size_t>(y)];
    }
    return walks >= 2 * static_cast<std::int64_t>(n) - 1;
  };
  if (clique::broadcast_reduce(net, overflows, std::bit_or<>()) != 0)
    return {true, net.stats()};

  // Phase 2: Lemma 12 tiling (computed identically at every node).
  const auto tiles = lemma12_tiling(deg, n);
  std::vector<int> tile_of(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < tiles.size(); ++i)
    tile_of[static_cast<std::size_t>(tiles[i].y)] = static_cast<int>(i);

  // Sorted neighbour lists define the deterministic chunking: chunk i of
  // N(y) is the index range [i*deg/f, (i+1)*deg/f), of size at most 8.
  auto sorted_neighbours = [&](int y) {
    std::vector<int> nb;
    nb.reserve(g.out_arcs(y).size());
    for (const auto& [v, w] : g.out_arcs(y)) {
      (void)w;
      nb.push_back(v);
    }
    std::sort(nb.begin(), nb.end());
    return nb;
  };
  auto chunk_range = [&](std::int64_t degree, int f, int i) {
    const auto lo = static_cast<std::int64_t>(i) * degree / f;
    const auto hi = static_cast<std::int64_t>(i + 1) * degree / f;
    return std::pair<int, int>{static_cast<int>(lo), static_cast<int>(hi)};
  };

  // Step 1: y scatters chunk i of N(y) to tile-row node A(y)[i] = row0 + i.
  // Each tile has a distinct owner y (the sender), so tiles stage in
  // parallel; chunk words write straight into the staged span.
  parallel_for(0, static_cast<int>(tiles.size()), [&](int ti) {
    const auto& t = tiles[static_cast<std::size_t>(ti)];
    const auto nb = sorted_neighbours(t.y);
    for (int i = 0; i < t.size; ++i) {
      const auto [lo, hi] =
          chunk_range(static_cast<std::int64_t>(nb.size()), t.size, i);
      if (lo == hi) continue;
      // t.y is this tile's unique owner (tiles partition the y sources —
      // see the Step 1 comment above), so per-iteration src disjointness
      // holds without src == ti.
      // lint:allow(parallel-staging-src): tiles partition the y sources
      const auto span = net.stage(t.y, t.row0 + i,
                                  static_cast<std::size_t>(hi - lo));
      for (int idx = lo; idx < hi; ++idx)
        span[static_cast<std::size_t>(idx - lo)] =
            static_cast<clique::Word>(nb[static_cast<std::size_t>(idx)]);
    }
  });
  net.deliver();

  // Step 2: tile-row node a forwards its chunk of N(y) to every tile-column
  // node b in B(y); at most one tile covers any ordered pair (a, b), so
  // every link carries at most 8 words — delivered directly. The inbox
  // views stay valid while staging (only deliver() rebuilds the arena), so
  // a forwards zero-copy from its inbox span, in parallel over senders a.
  // The lease revalidates that invariant at each use under analysis
  // checking (and is a plain span read otherwise).
  parallel_for(0, n, [&](int a) {
    for (const auto& t : tiles) {
      if (a < t.row0 || a >= t.row0 + t.size) continue;
      const analysis::InboxLease<clique::Network> words(net, a, t.y);
      for (int b = t.col0; b < t.col0 + t.size; ++b)
        // lint:allow(full-range-staging): owns_all() validated at entry.
        net.send_words(a, b, words.span());
    }
  });
  net.deliver(clique::Router::Direct);

  // Step 3 (local) + final gather: b reassembles N(y) for its tiles, forms
  // W(y,b) = N(y) x {y} x NB(y,b), and routes each 2-walk (x, y, z) to x.
  // Senders b are distinct per iteration, so the loop runs parallel.
  parallel_for(0, n, [&](int b) {
    for (const auto& t : tiles) {
      if (b < t.col0 || b >= t.col0 + t.size) continue;
      // Chunks arrive from a = row0..row0+size-1 in rank order.
      std::vector<int> ny;
      ny.reserve(static_cast<std::size_t>(deg[static_cast<std::size_t>(t.y)]));
      for (int i = 0; i < t.size; ++i) {
        const auto words = net.inbox(b, t.row0 + i);
        for (const auto w : words) ny.push_back(static_cast<int>(w));
      }
      CCA_ASSERT(static_cast<std::int64_t>(ny.size()) ==
                 deg[static_cast<std::size_t>(t.y)]);
      const int j = b - t.col0;
      const auto [lo, hi] =
          chunk_range(static_cast<std::int64_t>(ny.size()), t.size, j);
      for (int zi = lo; zi < hi; ++zi) {
        const int z = ny[static_cast<std::size_t>(zi)];
        for (const int x : ny)
          // lint:allow(full-range-staging): owns_all() validated at entry.
          net.send(b, x, pack_pair(t.y, z));
      }
    }
  });
  net.deliver();

  // Step 4: x scans its gathered P(x,*,*) for a repeated endpoint z != x;
  // one broadcast round ORs the per-node flags.
  std::vector<int> count(static_cast<std::size_t>(n), 0);
  auto repeats = [&](int x) {
    bool repeated = false;
    std::vector<int> touched;
    for (int b = 0; b < n; ++b) {
      for (const auto w : net.inbox(x, b)) {
        const auto [y, z] = unpack_pair(w);
        (void)y;
        if (z == x) continue;
        if (++count[static_cast<std::size_t>(z)] == 2) repeated = true;
        touched.push_back(z);
      }
    }
    for (const int z : touched) count[static_cast<std::size_t>(z)] = 0;
    return repeated;
  };
  const bool found =
      clique::broadcast_reduce(net, repeats, std::bit_or<>()) != 0;
  return {found, net.stats()};
}

}  // namespace cca::core
