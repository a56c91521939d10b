#include "core/mm.hpp"

#include <algorithm>

namespace cca::core {

namespace {

/// relay_round_lower_bound straight from per-node out / in volume arrays.
/// The relay counts the self-loop as a usable link (a word whose
/// intermediate is its own source or destination skips that hop), so each
/// phase spreads a node's volume over n ports, not n-1 — dividing by n-1
/// here would EXCEED the real schedule on shapes the scheduler balances
/// perfectly (measured: 33 vs an actual 29 for the fast-bilinear step
/// shapes at n=64), silently breaking the skip gate's soundness.
std::int64_t relay_volume_lower_bound(int n,
                                      const std::vector<std::int64_t>& out,
                                      const std::vector<std::int64_t>& in) {
  if (n <= 1) return 0;
  std::int64_t a = 0, b = 0;
  for (int v = 0; v < n; ++v) {
    a = std::max(a, ceil_div(out[static_cast<std::size_t>(v)], n));
    b = std::max(b, ceil_div(in[static_cast<std::size_t>(v)], n));
  }
  return a + b;
}

/// Per-node volume accumulators for the build-free sparse lower bound: one
/// (out, in) pair per staged sparse superstep; several products accumulate
/// into one instance (merged supersteps add volumes per node).
struct SparsePhaseVolumes {
  explicit SparsePhaseVolumes(int n)
      : gather_out(static_cast<std::size_t>(n), 0),
        gather_in(static_cast<std::size_t>(n), 0),
        distribute_out(static_cast<std::size_t>(n), 0),
        distribute_in(static_cast<std::size_t>(n), 0),
        contribute_out(static_cast<std::size_t>(n), 0),
        contribute_in(static_cast<std::size_t>(n), 0) {}
  std::vector<std::int64_t> gather_out, gather_in;
  std::vector<std::int64_t> distribute_out, distribute_in;
  std::vector<std::int64_t> contribute_out, contribute_in;
};

/// Accumulate one product's per-node volume lower bounds for the three
/// staged sparse supersteps into acc (see sparse_round_lower_bound_batch).
void add_sparse_volume_lower_bound(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words,
    SparsePhaseVolumes& acc) {
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  auto sparse_words = [&](std::size_t c) {
    return static_cast<std::int64_t>((c + 1) / 2 + value_words(c));
  };
  auto sparse_frame = [&](std::size_t c) {
    return sparse_words(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  const auto vw1 = static_cast<std::int64_t>(value_words(1));

  // Count profiles and the column pattern — O(nnz + n), the whole budget.
  std::vector<std::int64_t> col_s(static_cast<std::size_t>(n), 0),
      row_t(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> s_cols(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)]) {
      ++col_s[static_cast<std::size_t>(k)];
      s_cols[static_cast<std::size_t>(k)].push_back(i);
    }
  for (int k = 0; k < n; ++k)
    row_t[static_cast<std::size_t>(k)] =
        static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(k)].size());

  // Gather volumes are exact: one vw1 message per off-diagonal S nonzero
  // whose column has a live T row.
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      if (k != i && row_t[static_cast<std::size_t>(k)] > 0) {
        acc.gather_out[static_cast<std::size_t>(i)] += vw1;
        acc.gather_in[static_cast<std::size_t>(k)] += vw1;
      }

  // The builder's own (quantised) partition: distribute volumes follow
  // exactly, no structure needed.
  const auto part = detail::sparse_worker_partition(n, col_s, row_t);
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = part.group_size[ks];
    if (g < 2) continue;
    const auto b_frame =
        sparse_frame(static_cast<std::size_t>(row_t[ks]));
    for (int r = 1; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(col_s[ks]), g, r);
      const auto words = sparse_msg_align(
          2 + sparse_frame(static_cast<std::size_t>(hi - lo)) + b_frame,
          kSparseDistributeAlign);
      acc.distribute_out[ks] += words;
      acc.distribute_in[static_cast<std::size_t>(
          part.extras[ks][static_cast<std::size_t>(r - 1)])] += words;
    }
  }

  // Contribute lower bound. The real phase ships, per distinct
  // (worker, output row) pair with row != worker, ONE message of
  // 1 + frame(|union of contributing T-row patterns|) words. The union is
  // at least as large as the largest contributing T row, the frame at
  // least the exact words — so charging 1 + sparse_words(max rowT) per
  // pair never overestimates. Enumerating the pairs is an O(nnz) sweep:
  // position x of column k lands at chunk r (the sparse_chunk_bounds
  // inverse), worker r == 0 ? k : extras[k][r-1].
  struct Pair {
    int w;
    int i;
    std::int64_t b;
  };
  std::vector<Pair> pairs;
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = part.group_size[ks];
    if (g == 0) continue;
    const auto& rows = s_cols[ks];
    for (int r = 0; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(rows.size()), g, r);
      const int w = r == 0 ? k : part.extras[ks][static_cast<std::size_t>(r - 1)];
      for (int x = lo; x < hi; ++x) {
        const int i = rows[static_cast<std::size_t>(x)];
        if (i != w) pairs.push_back({w, i, row_t[ks]});
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.w != b.w ? a.w < b.w : (a.i != b.i ? a.i < b.i : a.b < b.b);
  });
  for (std::size_t a = 0; a < pairs.size();) {
    std::size_t b = a;
    std::int64_t maxb = 0;
    for (; b < pairs.size() && pairs[b].w == pairs[a].w &&
           pairs[b].i == pairs[a].i;
         ++b)
      maxb = std::max(maxb, pairs[b].b);
    // Alignment is monotone, so aligning the per-pair underestimate stays
    // below the real (aligned) message size.
    const auto words = sparse_msg_align(
        1 + sparse_words(static_cast<std::size_t>(maxb)),
        sparse_contribute_align(n));
    acc.contribute_out[static_cast<std::size_t>(pairs[a].w)] += words;
    acc.contribute_in[static_cast<std::size_t>(pairs[a].i)] += words;
    a = b;
  }
}

}  // namespace

std::int64_t relay_round_lower_bound(int n,
                                     const std::vector<clique::Demand>& demands) {
  if (n <= 1 || demands.empty()) return 0;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> in(static_cast<std::size_t>(n), 0);
  for (const auto& d : demands) {
    out[static_cast<std::size_t>(d.src)] += d.words;
    in[static_cast<std::size_t>(d.dst)] += d.words;
  }
  return relay_volume_lower_bound(n, out, in);
}

std::int64_t sparse_round_lower_bound_batch(
    int n, std::span<const SparsePattern> s_rows,
    std::span<const SparsePattern> t_rows,
    const std::function<std::size_t(std::size_t)>& value_words) {
  CCA_EXPECTS(t_rows.size() == s_rows.size());
  const auto empty = [](const SparsePattern& p) {
    return std::all_of(p.begin(), p.end(),
                       [](const std::vector<int>& row) { return row.empty(); });
  };
  SparsePhaseVolumes vols(n);
  std::int64_t live = 0;
  for (std::size_t b = 0; b < s_rows.size(); ++b) {
    if (empty(s_rows[b]) || empty(t_rows[b]))
      continue;  // trivial product: plans 0 rounds
    ++live;
    add_sparse_volume_lower_bound(n, s_rows[b], t_rows[b], value_words, vols);
  }
  if (live == 0) return 0;
  return live + relay_volume_lower_bound(n, vols.gather_out, vols.gather_in) +
         relay_volume_lower_bound(n, vols.distribute_out, vols.distribute_in) +
         relay_volume_lower_bound(n, vols.contribute_out, vols.contribute_in);
}

std::int64_t sparse_plan_cap(int n) {
  return 4 * static_cast<std::int64_t>(n) * n * icbrt(n);
}

namespace {

/// Merge per-product canonical demand lists into the canonical list of the
/// SHARED batched superstep: the per-pair blocks concatenate on the wire,
/// so words add per (src, dst) — exactly the list Network::deliver derives
/// from the batched staging.
std::vector<clique::Demand> merge_demands(
    std::span<const SparseMmStructure> sts,
    std::vector<clique::Demand> SparseMmStructure::* phase) {
  std::vector<clique::Demand> all;
  for (const auto& st : sts)
    if (!st.trivial)
      all.insert(all.end(), (st.*phase).begin(), (st.*phase).end());
  std::sort(all.begin(), all.end(),
            [](const clique::Demand& a, const clique::Demand& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  std::vector<clique::Demand> out;
  out.reserve(all.size());
  for (const auto& d : all) {
    if (!out.empty() && out.back().src == d.src && out.back().dst == d.dst)
      out.back().words += d.words;
    else
      out.push_back(d);
  }
  return out;
}

}  // namespace

std::int64_t sparse_planned_rounds_batch(
    clique::Network& net, std::span<const SparseMmStructure> sts,
    std::int64_t abort_above) {
  std::int64_t live = 0;
  for (const auto& st : sts)
    if (!st.trivial) ++live;
  if (live == 0) return 0;
  // Volume bounds of the not-yet-scheduled phases gate each Euler split:
  // an abort returns (exact scheduled prefix) + (volume bounds of the
  // rest) — still a lower bound on the true total, and already above the
  // threshold, so the caller's comparison is unchanged while the losing
  // plan skips its remaining (host-expensive) splits. These bounds read
  // the BUILT phase lists, so they are tighter than the build-free
  // sparse_round_lower_bound_batch the dispatcher used for the skip.
  const int n = net.n();
  const auto gather = merge_demands(sts, &SparseMmStructure::gather);
  const auto distribute = merge_demands(sts, &SparseMmStructure::distribute);
  const auto contribute = merge_demands(sts, &SparseMmStructure::contribute);
  const std::int64_t lb_d = relay_round_lower_bound(n, distribute);
  const std::int64_t lb_c = relay_round_lower_bound(n, contribute);
  std::int64_t acc = live;
  if (acc + relay_round_lower_bound(n, gather) + lb_d + lb_c > abort_above)
    return acc + relay_round_lower_bound(n, gather) + lb_d + lb_c;
  acc += net.prepare_schedule(gather);
  if (acc + lb_d + lb_c > abort_above) return acc + lb_d + lb_c;
  acc += net.prepare_schedule(distribute);
  if (acc + lb_c > abort_above) return acc + lb_c;
  return acc + net.prepare_schedule(contribute);
}

CCA_MM_PRODUCTION_PAIRS(CCA_MM_AUTO_INSTANCE, )

}  // namespace cca::core
