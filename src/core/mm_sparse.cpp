#include "core/mm_sparse.hpp"

#include <algorithm>
#include <utility>

#include "util/math.hpp"

namespace cca::core {

std::pair<int, int> sparse_chunk_bounds(int cnt, int g, int r) {
  CCA_EXPECTS(g >= 1 && r >= 0 && r < g && cnt >= g);
  const int base = cnt / g;
  const int rem = cnt % g;
  const int first = r * base + std::min(r, rem);
  return {first, first + base + (r < rem ? 1 : 0)};
}

std::int64_t sparse_triple_count(int n, const SparsePattern& s_rows,
                                 const SparsePattern& t_rows) {
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  std::vector<std::int64_t> col_cnt(static_cast<std::size_t>(n), 0);
  for (const auto& row : s_rows)
    for (const int k : row) ++col_cnt[static_cast<std::size_t>(k)];
  std::int64_t triples = 0;
  for (int k = 0; k < n; ++k)
    triples += col_cnt[static_cast<std::size_t>(k)] *
               static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(k)].size());
  return triples;
}

namespace detail {

SparseWorkerPartition sparse_worker_partition(
    int n, const std::vector<std::int64_t>& col_s,
    const std::vector<std::int64_t>& row_t) {
  SparseWorkerPartition p;
  p.group_size.assign(static_cast<std::size_t>(n), 0);
  p.extras.resize(static_cast<std::size_t>(n));
  p.worker_extras.resize(static_cast<std::size_t>(n));
  std::int64_t qtriples = 0;
  for (int k = 0; k < n; ++k)
    qtriples += sparse_count_bucket(col_s[static_cast<std::size_t>(k)]) *
                sparse_count_bucket(row_t[static_cast<std::size_t>(k)]);
  if (qtriples == 0) return p;
  int pointer = 0;
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const auto t_k =
        sparse_count_bucket(col_s[ks]) * sparse_count_bucket(row_t[ks]);
    if (t_k == 0) continue;
    const auto ideal = ceil_div(t_k * n, qtriples);
    const auto cnt = col_s[ks];
    // Replication-efficiency cap: every extra worker receives the FULL T
    // row (b_k entries) alongside its a-chunk, so splitting past ~sqrt(cnt)
    // workers pumps more replicated words out of the holder than it shaves
    // off any worker's contribute load (holder out grows as g * b_k while
    // the per-worker product volume shrinks as cnt * b_k / g — the max of
    // the two is minimized at g = sqrt(cnt)). Power-law hubs are exactly
    // where this bites: deg^2 triples at one intermediate would otherwise
    // demand ~n workers and re-ship the hub row to each of them. The cap
    // too reads the bucketed count; only the cnt bound is exact (chunks
    // must stay nonempty).
    const auto rep_cap = isqrt(sparse_count_bucket(cnt)) + 1;
    const int g =
        static_cast<int>(std::min<std::int64_t>({ideal, rep_cap, cnt, n}));
    p.group_size[ks] = g;
    for (int r = 1; r < g; ++r) {
      if (pointer == k) pointer = (pointer + 1) % n;
      p.extras[ks].push_back(pointer);
      p.worker_extras[static_cast<std::size_t>(pointer)].push_back({k, r});
      pointer = (pointer + 1) % n;
    }
  }
  return p;
}

}  // namespace detail

SparseMmStructure build_sparse_mm_structure(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words) {
  CCA_EXPECTS(n >= 1);
  CCA_EXPECTS(static_cast<int>(s_rows.size()) == n &&
              static_cast<int>(t_rows.size()) == n);
  SparseMmStructure st;
  st.s_cols.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    st.rho_s += static_cast<std::int64_t>(s_rows[static_cast<std::size_t>(i)].size());
    st.rho_t += static_cast<std::int64_t>(t_rows[static_cast<std::size_t>(i)].size());
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      st.s_cols[static_cast<std::size_t>(k)].push_back(i);
  }
  if (st.rho_s == 0 || st.rho_t == 0) {
    st.trivial = true;
    return st;
  }

  // SparseCodec message size for a c-pair block — exact, and its QUANTISED
  // frame variant (see sparse_count_bucket): the distribute / contribute
  // messages are sized by the bucketed counts so shapes repeat across
  // iterations whose counts drift within their buckets.
  auto sparse_words = [&](std::size_t c) {
    return (c + 1) / 2 + value_words(c);
  };
  auto sparse_frame = [&](std::size_t c) {
    return sparse_words(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  const auto vw1 = static_cast<std::int64_t>(value_words(1));

  // Balanced triple partition over the bucketed count profiles: intermediate
  // k weighs bucket(colS(k)) * bucket(rowT(k)) and gets ~proportional
  // workers, node k first (the common balanced case moves nothing). Extra
  // workers come from a rolling pointer over the node ids — the same
  // g-mod-n flavour of balancing clique::disseminate uses for its word
  // relocation. (st.triples stays the EXACT count: the dispatcher's volume
  // cap reads it.)
  std::vector<std::int64_t> col_s(static_cast<std::size_t>(n)),
      row_t(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    col_s[ks] = static_cast<std::int64_t>(st.s_cols[ks].size());
    row_t[ks] = static_cast<std::int64_t>(t_rows[ks].size());
    st.triples += col_s[ks] * row_t[ks];
  }
  auto part = detail::sparse_worker_partition(n, col_s, row_t);
  st.group_size = std::move(part.group_size);
  st.extras = std::move(part.extras);
  st.worker_extras = std::move(part.worker_extras);

  // Gather demands: every off-diagonal nonzero S[i,k] is one value message
  // i -> k — EXCEPT entries of columns whose T row is empty: the step-0
  // announcement already told every node those intermediates can form no
  // triple, so their values never need to move (disjoint-support inputs
  // would otherwise pay full gather rounds for provably-zero work).
  // (src, dst) ascending because rows and their patterns are.
  for (int i = 0; i < n; ++i)
    for (const int k : s_rows[static_cast<std::size_t>(i)])
      if (k != i && !t_rows[static_cast<std::size_t>(k)].empty())
        st.gather.push_back({i, k, vw1});

  // Distribute demands: holder k -> extra worker, header + chunk + T row.
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    const int g = st.group_size[ks];
    if (g < 2) continue;
    const auto b_cnt = t_rows[ks].size();
    std::vector<std::pair<int, std::int64_t>> msgs;
    for (int r = 1; r < g; ++r) {
      const auto [lo, hi] =
          sparse_chunk_bounds(static_cast<int>(st.s_cols[ks].size()), g, r);
      const auto words = sparse_msg_align(
          static_cast<std::int64_t>(
              2 + sparse_frame(static_cast<std::size_t>(hi - lo)) +
              sparse_frame(b_cnt)),
          kSparseDistributeAlign);
      msgs.push_back({st.extras[ks][static_cast<std::size_t>(r - 1)], words});
    }
    std::sort(msgs.begin(), msgs.end());
    for (const auto& [w, words] : msgs)
      st.distribute.push_back({k, w, words});
  }

  // Contribute demands: the symbolic merge. Worker w's items are its own
  // chunk (intermediate w) plus its extra chunks; for each output row i the
  // contribution entry count is the union of the T-row patterns of the
  // intermediates pairing with i at w. This mirrors the executor exactly —
  // entries count as TOUCHED regardless of the eventual product value, so
  // the counts (and hence the demands) are value-independent.
  st.contrib.resize(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> seen_list;
  std::vector<std::pair<int, int>> pairs;  // (output row i, intermediate k)
  for (int w = 0; w < n; ++w) {
    const auto ws = static_cast<std::size_t>(w);
    pairs.clear();
    if (st.group_size[ws] >= 1) {
      const auto& rows = st.s_cols[ws];
      const auto [lo, hi] = sparse_chunk_bounds(static_cast<int>(rows.size()),
                                                st.group_size[ws], 0);
      for (int x = lo; x < hi; ++x)
        pairs.push_back({rows[static_cast<std::size_t>(x)], w});
    }
    for (const auto& [k, r] : st.worker_extras[ws]) {
      const auto& rows = st.s_cols[static_cast<std::size_t>(k)];
      const auto [lo, hi] = sparse_chunk_bounds(
          static_cast<int>(rows.size()), st.group_size[static_cast<std::size_t>(k)], r);
      for (int x = lo; x < hi; ++x)
        pairs.push_back({rows[static_cast<std::size_t>(x)], k});
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t a = 0; a < pairs.size();) {
      const int i = pairs[a].first;
      std::size_t b = a;
      for (; b < pairs.size() && pairs[b].first == i; ++b)
        for (const int j :
             t_rows[static_cast<std::size_t>(pairs[b].second)])
          if (seen[static_cast<std::size_t>(j)] == 0) {
            seen[static_cast<std::size_t>(j)] = 1;
            seen_list.push_back(j);
          }
      const int cnt = static_cast<int>(seen_list.size());
      st.contrib[ws].push_back({i, cnt});
      if (i != w)
        st.contribute.push_back(
            {w, i,
             sparse_msg_align(
                 static_cast<std::int64_t>(
                     1 + sparse_frame(static_cast<std::size_t>(cnt))),
                 sparse_contribute_align(n))});
      for (const int j : seen_list) seen[static_cast<std::size_t>(j)] = 0;
      seen_list.clear();
      a = b;
    }
  }
  return st;
}

CCA_MM_PRODUCTION_PAIRS(CCA_MM_SPARSE_INSTANCE, )

}  // namespace cca::core
