#include "core/mm_dense.hpp"

#include <algorithm>
#include <utility>

namespace cca::core {

namespace {

/// Emit per-source accumulated words as canonical (src, dst)-ascending
/// demands, skipping self-pairs — the exact list Network::deliver derives
/// from the staged segments.
void emit_demands(int src, std::vector<std::int64_t>& words_by_dst,
                  std::vector<clique::Demand>& out) {
  for (int dst = 0; dst < static_cast<int>(words_by_dst.size()); ++dst) {
    const auto w = words_by_dst[static_cast<std::size_t>(dst)];
    if (w > 0 && dst != src) out.push_back({src, dst, w});
    words_by_dst[static_cast<std::size_t>(dst)] = 0;
  }
}

}  // namespace

std::pair<std::vector<clique::Demand>, std::vector<clique::Demand>>
semiring3d_superstep_demands(int n, std::size_t block_words,
                             std::size_t batch) {
  CCA_EXPECTS(is_perfect_cube(n));
  if (n == 1) return {};
  const int c = static_cast<int>(icbrt(n));
  const int c2 = c * c;
  const auto group =
      static_cast<std::int64_t>(batch * block_words);  // step 3: unpadded
  const auto staged = static_cast<std::int64_t>(
      detail::padded_group_words(batch * block_words));  // step 1: padded
  auto d1 = [c2](int v) { return v / c2; };
  std::vector<std::int64_t> words(static_cast<std::size_t>(n), 0);
  std::vector<clique::Demand> step1, step3;
  for (int v = 0; v < n; ++v) {
    for (int tail = 0; tail < c2; ++tail)
      words[static_cast<std::size_t>(d1(v) * c2 + tail)] += staged;
    for (int w1 = 0; w1 < c; ++w1)
      for (int w3 = 0; w3 < c; ++w3)
        words[static_cast<std::size_t>(w1 * c2 + d1(v) * c + w3)] += staged;
    emit_demands(v, words, step1);
  }
  for (int v = 0; v < n; ++v) {
    for (int tail = 0; tail < c2; ++tail)
      words[static_cast<std::size_t>(d1(v) * c2 + tail)] += group;
    emit_demands(v, words, step3);
  }
  return {std::move(step1), std::move(step3)};
}

std::int64_t semiring3d_planned_rounds(clique::Network& net, int n,
                                       std::size_t block_words,
                                       std::size_t batch) {
  CCA_EXPECTS(net.n() == n);
  if (n == 1) return 0;
  const auto [step1, step3] = semiring3d_superstep_demands(n, block_words, batch);
  return net.prepare_schedule(step1) + net.prepare_schedule(step3);
}

std::vector<std::vector<clique::Demand>> fast_bilinear_superstep_demands(
    int n, const BilinearAlgorithm& alg, std::size_t row_words,
    std::size_t blk_words) {
  CCA_EXPECTS(is_perfect_square(n));
  if (n == 1) return {};
  const int sq = static_cast<int>(isqrt(n));
  const int d = alg.d;
  const int m = alg.m;
  CCA_EXPECTS(d >= 1 && sq % d == 0 && m <= n);
  const int bs = sq / d;
  const int big = n / d;
  const auto rw = static_cast<std::int64_t>(row_words);
  const auto bw = static_cast<std::int64_t>(blk_words);
  std::vector<std::int64_t> words(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<clique::Demand>> steps(4);  // supersteps 1, 3, 5, 7
  for (int v = 0; v < n; ++v) {
    const int v2 = (v / bs) % sq;
    for (int x2 = 0; x2 < sq; ++x2)
      words[static_cast<std::size_t>(v2 * sq + x2)] += 2 * rw;
    emit_demands(v, words, steps[0]);
  }
  for (int u = 0; u < n; ++u) {
    for (int w = 0; w < m; ++w)
      words[static_cast<std::size_t>(w)] += 2 * bw;
    emit_demands(u, words, steps[1]);
  }
  for (int w = 0; w < m; ++w) {
    for (int u = 0; u < n; ++u) words[static_cast<std::size_t>(u)] += bw;
    emit_demands(w, words, steps[2]);
  }
  for (int u = 0; u < n; ++u) {
    const int x1 = u / sq;
    for (int r1 = 0; r1 < d; ++r1)
      for (int r3 = 0; r3 < bs; ++r3)
        words[static_cast<std::size_t>(r1 * big + x1 * bs + r3)] += rw;
    emit_demands(u, words, steps[3]);
  }
  return steps;
}

std::int64_t fast_bilinear_planned_rounds(clique::Network& net, int n,
                                          const BilinearAlgorithm& alg,
                                          std::size_t row_words,
                                          std::size_t blk_words) {
  CCA_EXPECTS(net.n() == n);
  if (n == 1) return 0;
  std::int64_t total = 0;
  for (const auto& step :
       fast_bilinear_superstep_demands(n, alg, row_words, blk_words))
    total += net.prepare_schedule(step);
  return total;
}

int semiring_clique_size(int n) {
  CCA_EXPECTS(n >= 1);
  return static_cast<int>(next_cube(n));
}

FastPlan plan_fast_mm(int n, int depth, int base_d, int base_m) {
  CCA_EXPECTS(n >= 1 && depth >= 0 && base_d >= 1 && base_m >= 1);
  FastPlan plan;
  plan.depth = depth;
  plan.d = static_cast<int>(ipow(base_d, depth));
  plan.m = static_cast<int>(ipow(base_m, depth));
  // clique_n must be a perfect square with d | sqrt(clique_n), at least n
  // (to fit the matrix) and at least m (one node per block product).
  const std::int64_t lower = std::max<std::int64_t>(n, plan.m);
  plan.clique_n =
      static_cast<int>(next_square_with_root_multiple(lower, plan.d));
  return plan;
}

FastPlan plan_fast_mm_auto(int n, int base_d, int base_m) {
  CCA_EXPECTS(n >= 1);
  // Largest depth whose product count fits within n nodes ("fix d so that
  // m(d) = n"); deeper tensor powers would leave block products unhosted.
  int depth = 0;
  std::int64_t products = 1;
  while (products * base_m <= n) {
    products *= base_m;
    ++depth;
  }
  // Among depths <= depth, prefer the least per-node round cost. Step 3/5
  // move ~2(N + m) * bs^2 words through each node with bs^2 = N/d^2, i.e.
  // about (N + m)/d^2 rounds; this also accounts for padding inflation of N.
  FastPlan best = plan_fast_mm(n, 0, base_d, base_m);
  auto cost = [](const FastPlan& p) {
    return (static_cast<double>(p.clique_n) + p.m) /
           (static_cast<double>(p.d) * p.d);
  };
  for (int k = 1; k <= depth; ++k) {
    const FastPlan p = plan_fast_mm(n, k, base_d, base_m);
    if (cost(p) < cost(best)) best = p;
  }
  return best;
}

CCA_MM_DENSE_INSTANCES()

}  // namespace cca::core
