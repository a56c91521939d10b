#include "core/color_coding.hpp"

#include <cmath>
#include <functional>
#include <map>

#include "clique/broadcast.hpp"
#include "clique/primitives.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace cca::core {

namespace {

int popcount(unsigned mask) { return __builtin_popcount(mask); }

class ColourfulPathFinder {
 public:
  ColourfulPathFinder(clique::Network& net, const IntMmEngine& engine,
                      const Matrix<std::int64_t>& a,
                      const std::vector<int>& colour)
      : net_(net), engine_(engine), a_(a), colour_(colour) {}

  /// C^(X): Boolean matrix of colourful |X|-vertex paths (as 0/1 integers).
  const Matrix<std::int64_t>& paths(unsigned mask) {
    if (const auto it = memo_.find(mask); it != memo_.end()) return it->second;
    const int big = net_.n();
    Matrix<std::int64_t> c(big, big, 0);
    if (popcount(mask) == 1) {
      const int colour_bit = __builtin_ctz(mask);
      for (int v = 0; v < static_cast<int>(colour_.size()); ++v)
        if (colour_[static_cast<std::size_t>(v)] == colour_bit) c(v, v) = 1;
    } else {
      const int half = (popcount(mask) + 1) / 2;
      // Enumerate submasks Y of `mask` with |Y| = ceil(|X|/2).
      for (unsigned y = mask; y > 0; y = (y - 1) & mask) {
        if (popcount(y) != half) continue;
        const auto& left = paths(y);
        const auto& right = paths(mask ^ y);
        auto la = engine_.multiply(net_, left, a_);
        auto lar = engine_.multiply(net_, la, right);
        for (int i = 0; i < big; ++i)
          for (int j = 0; j < big; ++j)
            if (lar(i, j) != 0) c(i, j) = 1;
      }
    }
    return memo_.emplace(mask, std::move(c)).first->second;
  }

 private:
  clique::Network& net_;
  const IntMmEngine& engine_;
  const Matrix<std::int64_t>& a_;
  const std::vector<int>& colour_;
  std::map<unsigned, Matrix<std::int64_t>> memo_;
};

}  // namespace

bool detect_colourful_cycle(clique::Network& net, const IntMmEngine& engine,
                            const Matrix<std::int64_t>& a, const Graph& g,
                            const std::vector<int>& colour, int k) {
  CCA_EXPECTS(k >= 2 && k <= 20);
  CCA_VALIDATE(static_cast<int>(colour.size()) == g.n(),
               "the colouring must give every node of g a colour");
  CCA_EXPECTS(net.n() == engine.clique_n());
  const unsigned full = (1u << k) - 1;
  ColourfulPathFinder finder(net, engine, a, colour);
  const auto& c = finder.paths(full);

  // Close the cycle: node u knows its in-arcs, so checking C[u,v] && (v,u)
  // in E is local; one broadcast round ORs the per-node flags.
  const int n = g.n();
  auto closes_cycle = [&](int u) {
    if (u >= n) return false;
    for (const auto& [v, w] : g.in_arcs(u)) {
      (void)w;
      if (c(u, v) != 0) return true;
    }
    return false;
  };
  return clique::broadcast_reduce(net, closes_cycle, std::bit_or<>()) != 0;
}

DetectOutcome detect_k_cycle_cc(const Graph& g, int k, std::uint64_t seed,
                                int max_trials, MmKind kind, int depth) {
  const int n = g.n();
  CCA_VALIDATE(k >= (g.is_directed() ? 2 : 3),
               "k must be >= 3 (>= 2 for directed graphs)");
  const IntMmEngine engine(kind, n, depth);
  clique::Network net(engine.clique_n());

  if (k > n) return {false, 0, net.stats()};

  const auto a = pad_matrix(g.adjacency(), engine.clique_n(), std::int64_t{0});

  if (max_trials < 0) {
    const double bound =
        std::exp(k) * std::log(std::max(2.0, static_cast<double>(n)));
    max_trials = static_cast<int>(std::ceil(bound));
  }

  // One round establishes the shared seed for the colouring sequence —
  // staged and delivered through the network so the broadcast's words are
  // accounted, not just its round.
  Rng rng(clique::agree_on_seed(net, 0, seed));

  DetectOutcome out;
  std::vector<int> colour(static_cast<std::size_t>(n));
  for (int trial = 0; trial < max_trials; ++trial) {
    for (auto& c : colour)
      c = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k)));
    ++out.trials;
    if (detect_colourful_cycle(net, engine, a, g, colour, k)) {
      out.found = true;
      break;
    }
  }
  out.traffic = net.stats();
  return out;
}

}  // namespace cca::core
