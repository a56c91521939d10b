// Quickstart: multiply two matrices on a simulated congested clique and
// read off the exact round cost, comparing the three engines of Theorem 1.
//
//   $ ./examples/quickstart
//
// Walks through the core API: build a Network, run mm_semiring_3d /
// mm_fast_bilinear / mm_naive_broadcast, inspect TrafficStats.
#include <cstdio>

#include "clique/network.hpp"
#include "core/mm_dense.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "util/rng.hpp"

using namespace cca;
using namespace cca::core;

int main() {
  // A 64-node congested clique; 64 = 4^3 is admissible for the 3D
  // algorithm and 64 = 8^2 with 4 | 8 for the depth-2 Strassen scheme.
  const int n = 64;

  // Random integer inputs; node v holds row v of both (the paper's input
  // distribution).
  Rng rng(2015);
  Matrix<std::int64_t> a(n, n, 0);
  Matrix<std::int64_t> b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.next_in(-9, 9);
      b(i, j) = rng.next_in(-9, 9);
    }
  const IntRing ring;
  const I64Codec codec;
  const auto reference = multiply(ring, a, b);

  std::printf("multiplying two %dx%d integer matrices on an %d-node clique\n\n",
              n, n, n);

  {  // Section 2.1: the 3D semiring algorithm, O(n^{1/3}) rounds.
    clique::Network net(n);
    const auto p = mm_semiring_3d(net, ring, codec, a, b);
    std::printf("semiring 3D   : %3lld rounds (%6lld words moved)  correct=%d\n",
                static_cast<long long>(net.stats().rounds),
                static_cast<long long>(net.stats().total_words),
                p == reference);
  }

  {  // Section 2.2: Strassen tensor power, O(n^{1-2/sigma}) rounds.
    const auto plan = plan_fast_mm(n, /*depth=*/2);  // d=4, m=49 <= 64
    clique::Network net(plan.clique_n);
    const auto alg = tensor_power(strassen_algorithm(), plan.depth);
    const auto p = mm_fast_bilinear(net, ring, codec, alg, a, b);
    std::printf("fast bilinear : %3lld rounds (%6lld words moved)  correct=%d\n",
                static_cast<long long>(net.stats().rounds),
                static_cast<long long>(net.stats().total_words),
                p == reference);
  }

  {  // The trivial baseline: everyone learns everything, O(n) rounds.
    clique::Network net(n);
    const auto p = mm_naive_broadcast(net, ring, codec, a, b);
    std::printf("naive         : %3lld rounds                       correct=%d\n",
                static_cast<long long>(net.stats().rounds), p == reference);
  }

  std::printf(
      "\nEvery round count is produced by scheduling the algorithm's real\n"
      "messages under the one-word-per-link-per-round constraint — see\n"
      "src/clique/routing.hpp for the disciplines.\n");
  return 0;
}
