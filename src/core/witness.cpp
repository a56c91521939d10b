#include "core/witness.hpp"

#include <vector>

#include "clique/broadcast.hpp"
#include "clique/primitives.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cca::core {

namespace {

constexpr std::int64_t kInf = MinPlusSemiring::kInf;

/// Mask columns (of S) or rows (of T) to the given index set; everything
/// outside becomes +infinity. Local per-node computation in the clique
/// (node u masks its own row), so no rounds are charged.
Matrix<std::int64_t> mask_cols(const Matrix<std::int64_t>& s,
                               const std::vector<std::uint8_t>& keep) {
  Matrix<std::int64_t> out(s.rows(), s.cols(), kInf);
  for (int i = 0; i < s.rows(); ++i)
    for (int j = 0; j < s.cols(); ++j)
      if (keep[static_cast<std::size_t>(j)]) out(i, j) = s(i, j);
  return out;
}

Matrix<std::int64_t> mask_rows(const Matrix<std::int64_t>& t,
                               const std::vector<std::uint8_t>& keep) {
  Matrix<std::int64_t> out(t.rows(), t.cols(), kInf);
  for (int i = 0; i < t.rows(); ++i) {
    if (!keep[static_cast<std::size_t>(i)]) continue;
    for (int j = 0; j < t.cols(); ++j) out(i, j) = t(i, j);
  }
  return out;
}

}  // namespace

Matrix<int> unique_witness_candidates(const Matrix<std::int64_t>& s,
                                      const Matrix<std::int64_t>& t,
                                      const Matrix<std::int64_t>& p,
                                      const DpOracle& oracle) {
  const int n = s.rows();
  CCA_EXPECTS(s.cols() == n && t.rows() == n && t.cols() == n);
  CCA_EXPECTS(p.rows() == n && p.cols() == n);

  Matrix<int> q(n, n, 0);
  const int bits = n > 1 ? ilog2(n - 1) + 1 : 1;
  for (int bit = 0; bit < bits; ++bit) {
    std::vector<std::uint8_t> keep(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k)
      keep[static_cast<std::size_t>(k)] =
          static_cast<std::uint8_t>((k >> bit) & 1);
    const auto pi = oracle(mask_cols(s, keep), mask_rows(t, keep));
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (p(u, v) < kInf && pi(u, v) == p(u, v)) q(u, v) |= 1 << bit;
  }
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v)
      if (p(u, v) >= kInf || q(u, v) >= n) q(u, v) = -1;
  return q;
}

Matrix<std::uint8_t> verify_witnesses(clique::Network& net,
                                      const Matrix<std::int64_t>& s,
                                      const Matrix<std::int64_t>& t,
                                      const Matrix<std::int64_t>& p,
                                      const Matrix<int>& q) {
  const int n = net.n();
  // Genuinely full-ownership: the transpose/probe supersteps read every
  // inbox.
  clique::require_full_ownership(net, "verify_witnesses",
                                 "no sharded equivalent exists");
  CCA_EXPECTS(s.rows() == n && s.cols() == n);
  CCA_EXPECTS(t.rows() == n && t.cols() == n);
  CCA_EXPECTS(p.rows() == n && p.cols() == n);
  CCA_EXPECTS(q.rows() == n && q.cols() == n);

  // Work estimate of a superstep pass: one word per (node, node) pair, three
  // for the claims.
  const std::size_t pair_words =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);

  // Superstep 1: transpose T so node v holds column v (node k owns row k).
  // Staging runs parallel over senders — each k owns its outbox.
  parallel_for(0, n, pair_words, [&](int k) {
    for (int v = 0; v < n; ++v) {
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto span = net.stage(k, v, 1);
      span[0] = static_cast<clique::Word>(t(k, v));
    }
  });
  net.deliver();
  // Node v's column of T, assembled from the inboxes (distinct rows).
  Matrix<std::int64_t> tcol(n, n, kInf);  // tcol(v, k) = T(k, v)
  parallel_for(0, n, pair_words, [&](int v) {
    for (int k = 0; k < n; ++k) {
      const auto in = net.inbox(v, k);
      CCA_ASSERT(in.size() == 1);
      tcol(v, k) = static_cast<std::int64_t>(in[0]);
    }
  });

  // Superstep 2: node u ships (q, S[u,q], P[u,v]) to v for every v,
  // written straight into the staged span.
  parallel_for(0, n, 3 * pair_words, [&](int u) {
    for (int v = 0; v < n; ++v) {
      const int w = q(u, v);
      const std::int64_t suw = (w >= 0) ? s(u, w) : kInf;
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto msg = net.stage(u, v, 3);
      msg[0] = static_cast<clique::Word>(w);
      msg[1] = static_cast<clique::Word>(suw);
      msg[2] = static_cast<clique::Word>(p(u, v));
    }
  });
  net.deliver();

  // Node v checks each claim against its T column and replies one bit
  // (sender of the reply is v, so the loop parallelises over v).
  Matrix<std::uint8_t> ok(n, n, 0);
  parallel_for(0, n, 4 * pair_words, [&](int v) {
    for (int u = 0; u < n; ++u) {
      const auto in = net.inbox(v, u);
      CCA_ASSERT(in.size() == 3);
      const int w = static_cast<int>(static_cast<std::int64_t>(in[0]));
      const auto suw = static_cast<std::int64_t>(in[1]);
      const auto puv = static_cast<std::int64_t>(in[2]);
      bool valid = false;
      if (w >= 0 && w < n && suw < kInf && puv < kInf) {
        const auto tkv = tcol(v, w);
        valid = tkv < kInf && suw + tkv == puv;
      }
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto reply = net.stage(v, u, 1);
      reply[0] = valid ? 1 : 0;
    }
  });
  net.deliver();
  parallel_for(0, n, pair_words, [&](int u) {
    for (int v = 0; v < n; ++v) {
      const auto in = net.inbox(u, v);
      CCA_ASSERT(in.size() == 1);
      ok(u, v) = static_cast<std::uint8_t>(in[0]);
    }
  });
  return ok;
}

Matrix<int> dp_witnesses(clique::Network& net, const Matrix<std::int64_t>& s,
                         const Matrix<std::int64_t>& t,
                         const Matrix<std::int64_t>& p,
                         const DpOracle& oracle, std::uint64_t seed,
                         int trial_factor) {
  const int n = net.n();
  // Rides verify_witnesses, which is genuinely full-ownership only.
  clique::require_full_ownership(
      net, "dp_witnesses", "use dp_semiring_witness for sharded runs");
  CCA_EXPECTS(trial_factor >= 1);
  // One round to agree on the shared random seed — a real broadcast
  // superstep (node 0 sends the seed on each link), not a bare charge, so
  // the words show up in TrafficStats.
  Rng rng(clique::agree_on_seed(net, 0, seed));

  Matrix<int> witness(n, n, -1);
  std::int64_t missing = 0;
  for (int u = 0; u < n; ++u)
    for (int v = 0; v < n; ++v)
      if (p(u, v) < kInf) ++missing;

  // First pass: many pairs have a unique witness already.
  {
    const auto q = unique_witness_candidates(s, t, p, oracle);
    const auto ok = verify_witnesses(net, s, t, p, q);
    for (int u = 0; u < n; ++u)
      for (int v = 0; v < n; ++v)
        if (ok(u, v)) {
          witness(u, v) = q(u, v);
          --missing;
        }
  }

  const int log_n = n > 1 ? ilog2(n - 1) + 1 : 1;
  const int trials = trial_factor * log_n;
  for (int level = 0; level < log_n && missing > 0; ++level) {
    // Targets pairs with between n/2^{level+1} and n/2^{level} witnesses:
    // a sample of 2^{level} columns isolates one with constant probability.
    const auto sample_size = std::int64_t{1} << level;
    for (int trial = 0; trial < trials && missing > 0; ++trial) {
      std::vector<std::uint8_t> keep(static_cast<std::size_t>(n), 0);
      for (std::int64_t i = 0; i < sample_size; ++i)
        keep[static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(n)))] = 1;
      const auto sm = mask_cols(s, keep);
      const auto tm = mask_rows(t, keep);
      const auto pm = oracle(sm, tm);
      const auto q = unique_witness_candidates(sm, tm, pm, oracle);
      const auto ok = verify_witnesses(net, s, t, p, q);
      for (int u = 0; u < n; ++u)
        for (int v = 0; v < n; ++v)
          if (witness(u, v) < 0 && ok(u, v) && p(u, v) < kInf) {
            witness(u, v) = q(u, v);
            --missing;
          }
    }
  }
  return witness;
}

}  // namespace cca::core
