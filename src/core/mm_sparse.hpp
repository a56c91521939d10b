// Sparse distributed matrix multiplication on the congested clique (the
// paper's sparsity-sensitive regime; Le Gall, OPODIS'16 sharpens the same
// rectangular/sparse setting).
//
// mm_semiring_sparse multiplies matrices with rho_S, rho_T nonzeros in
// rounds governed by the nonzero volume instead of n:
//
//   1. announce     — every node broadcasts its per-row nnz of S and T,
//                     packed into one word (1 round, Theorem-1-style
//                     dissemination of the load profile);
//   2. gather       — node i relays each off-diagonal nonzero S[i,k] to the
//                     column holder k (value only: the row index is the
//                     sender id). KoenigRelay spreads the rho_S words;
//   3. announce     — column holders broadcast their column nnz (1 round),
//                     after which EVERY node can compute the same balanced
//                     partition of the T = sum_k colS(k) * rowT(k) nonzero
//                     triples: intermediate k gets g_k ~ ceil(t_k n / T)
//                     workers (clique::disseminate-style g-mod-n balancing,
//                     with node k itself as worker 0 so the balanced common
//                     case moves nothing);
//   4. distribute   — holder k ships each extra worker a chunk of column k
//                     plus row k of T as SparseCodec blocks;
//   5. contribute   — workers multiply their triples, merge contributions
//                     per output row across their intermediates, and send
//                     node i its row-i contributions as a SparseCodec
//                     block; receivers fold with the semiring add.
//
// At rho ~ n^{3/2} the measured rounds beat the dense 3D engine by >= 2x
// (BENCH_mm.json pins it); at full density the triple volume makes it
// useless, which is what MmKind::Auto's dispatch is for. Results are
// element-identical to mm_semiring_3d for every semiring whose zero is an
// additive identity AND a multiplicative annihilator (the documented
// Semiring contract — see semiring.hpp; skipping zero operands is exactly
// the ops.hpp `multiply` zero-skip, audited in test_matrix.cpp).
//
// Unlike the dense engines, ANY net.n() == dimension >= 1 is admissible (no
// cube/square constraint): the balanced partition does not need a grid.
// The dense engines and the Auto dispatcher: core/mm_dense.hpp, core/mm.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "core/engine.hpp"
#include "matrix/codec.hpp"
#include "matrix/matrix.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::core {

/// Per-row sorted nonzero column indices — the value-independent shape the
/// announcements move and the planner consumes.
using SparsePattern = std::vector<std::vector<int>>;

/// Value-independent plan of one sparse multiplication: the balanced triple
/// partition and the exact per-superstep demand lists (canonical (src, dst)
/// ascending — the order Network::deliver emits, so planned schedules are
/// cache hits for the staged run). Built by build_sparse_mm_structure; the
/// executor (mm_semiring_sparse_batch) and the dispatcher
/// (mm_semiring_auto_batch) consume the SAME structure, which is what makes
/// the dispatcher's planned rounds exactly the rounds the sparse path
/// charges.
struct SparseMmStructure {
  bool trivial = false;      ///< rho_s == 0 or rho_t == 0: product is zero
  std::int64_t rho_s = 0;    ///< global nnz of S
  std::int64_t rho_t = 0;    ///< global nnz of T
  std::int64_t triples = 0;  ///< T = sum_k colS(k) * rowT(k)
  /// Column pattern of S: s_cols[k] = ascending row ids with S[i,k] != 0.
  std::vector<std::vector<int>> s_cols;
  /// Workers per intermediate (0 when t_k == 0, else in [1, colS(k)]).
  std::vector<int> group_size;
  /// extras[k] = the g_k - 1 extra worker node ids (worker 0 is node k).
  std::vector<std::vector<int>> extras;
  /// Per worker: its extra-chunk assignments (intermediate k, chunk index r
  /// in [1, g_k)), ascending by k.
  std::vector<std::vector<std::pair<int, int>>> worker_extras;
  /// Per worker: ascending (output row i, merged contribution entry count),
  /// including the worker's own row (i == w, which moves no words).
  std::vector<std::vector<std::pair<int, int>>> contrib;
  /// Canonical demand lists of the three staged supersteps.
  std::vector<clique::Demand> gather, distribute, contribute;
};

/// Chunk r (0-based) of a cnt-entry column split over g workers:
/// [first, last) with sizes as equal as possible, larger chunks first.
[[nodiscard]] std::pair<int, int> sparse_chunk_bounds(int cnt, int g, int r);

/// Demand-shape quantisation bucket for the sparse plan: counts <= 8 stay
/// exact, larger counts round up to the next power of two. The planner
/// sizes the distribute / contribute messages (and the worker partition)
/// from BUCKETED counts and the executor pads each block to its bucket, so
/// consecutive squarings whose per-row counts drift WITHIN their buckets
/// emit byte-identical demand lists and replay the previous iteration's
/// routing schedule from the ScheduleCache instead of re-running the Euler
/// split. Padding bound: a bucketed block is < 2x its exact size (counts
/// <= 8 are exact; above 8 the next power of two is < 2c and every codec's
/// words_for is monotone with words_for(2c) <= 2 words_for(c)), and the
/// padded rounds are still charged for real — the accounting never
/// understates. The gather phase deliberately stays exact (one value per
/// nonzero; there is no block to pad), so gather misses the cache whenever
/// the pattern itself grows — the documented limitation of shape
/// quantisation.
[[nodiscard]] constexpr std::int64_t sparse_count_bucket(
    std::int64_t c) noexcept {
  if (c <= 8) return c;
  std::int64_t p = 16;
  while (p < c) p *= 2;
  return p;
}

/// Message-size alignment for the staged distribute / contribute messages:
/// each per-pair message rounds up to a multiple of the phase's alignment
/// (zero-filled by stage()). The motivation is the HOST cost of the Euler
/// split: with every per-pair demand divisible by 2^k, the split's first k
/// levels produce element-identical halves and the scheduler traverses ONE
/// subtree per level (the identical-halves collapse), duplicating the class
/// log instead of re-walking word-granularity trails. The contribute phase
/// carries the bulk of the sparse plan's words in the most ragged shapes,
/// so it aligns to 8 from n >= 200 (measured ~5x less scheduling wall at
/// n=216 for < 17% extra words, with round counts unchanged there) and to
/// 4 below (at n = 64 and n = 125 the 8-word padding measurably costs
/// relay rounds — the padded volume is a larger fraction of n-1 ports —
/// so smaller cliques keep the cheaper alignment); distribute aligns to 4
/// at every size. The
/// padding is charged for real (at most align-1 extra words per pair per
/// phase, on top of the < 2x bucket bound); the gather phase stays exact —
/// its messages are a single value wide, where alignment would multiply
/// the volume for no collapse benefit.
inline constexpr std::int64_t kSparseDistributeAlign = 4;
[[nodiscard]] constexpr std::int64_t sparse_contribute_align(int n) noexcept {
  return n >= 200 ? 8 : 4;
}
[[nodiscard]] constexpr std::int64_t sparse_msg_align(std::int64_t w,
                                                      std::int64_t a) noexcept {
  return (w + a - 1) / a * a;
}

/// Nonzero pattern of a matrix under the semiring's zero.
template <Semiring S>
[[nodiscard]] SparsePattern sparse_pattern(const S& sr,
                                           const Matrix<typename S::Value>& m) {
  SparsePattern rows(static_cast<std::size_t>(m.rows()));
  for (int i = 0; i < m.rows(); ++i)
    for (int j = 0; j < m.cols(); ++j)
      if (!(m(i, j) == sr.zero()))
        rows[static_cast<std::size_t>(i)].push_back(j);
  return rows;
}

/// Build the full sparse plan. `value_words(c)` must be the wrapped value
/// codec's words_for(c) (SparseCodec adds the packed index words itself).
/// Cost: O(rho_s + rho_t + T + n) local work — the symbolic counterpart of
/// the multiplication, which is why the Auto dispatcher bounds T before
/// planning.
[[nodiscard]] SparseMmStructure build_sparse_mm_structure(
    int n, const SparsePattern& s_rows, const SparsePattern& t_rows,
    const std::function<std::size_t(std::size_t)>& value_words);

/// Exact triple count T = sum_k colS(k) * rowT(k) straight from the
/// patterns — the O(rho + n) pre-filter the dispatcher runs before paying
/// for the full structure.
[[nodiscard]] std::int64_t sparse_triple_count(int n,
                                               const SparsePattern& s_rows,
                                               const SparsePattern& t_rows);

namespace detail {

/// The worker partition of the sparse plan, computed from QUANTISED count
/// profiles (sparse_count_bucket): intermediate k's weight is
/// bucket(colS(k)) * bucket(rowT(k)), so iterates whose per-row counts
/// drift within their buckets keep the IDENTICAL partition — the structural
/// prerequisite for the distribute / contribute demand lists to repeat
/// across squarings and hit the ScheduleCache. Shared by
/// build_sparse_mm_structure and the dispatcher's build-free lower bound
/// (sparse_round_lower_bound_batch) so the gate can never disagree with the
/// plan it is gating.
struct SparseWorkerPartition {
  std::vector<int> group_size;
  std::vector<std::vector<int>> extras;
  std::vector<std::vector<std::pair<int, int>>> worker_extras;
};

/// col_s[k] / row_t[k] are the exact column-k nnz of S and row-k nnz of T.
[[nodiscard]] SparseWorkerPartition sparse_worker_partition(
    int n, const std::vector<std::int64_t>& col_s,
    const std::vector<std::int64_t>& row_t);

/// The staged phases of the sparse algorithm AFTER the row-nnz announcement
/// (gather -> column-count announcement -> distribute -> contribute), for a
/// BATCH of B products sharing every superstep: product b's per-pair block
/// follows product b-1's inside the same staged message (block membership
/// and sizes come from the structures, which every node derives from the
/// announcements), so the whole batch pays ONE routing schedule per phase.
/// A dispatcher that already announced can run the remainder without paying
/// the announcement twice. Charges exactly
///   live + sched(merged gather) + sched(merged distribute)
///        + sched(merged contribute)
/// rounds, where live = #non-trivial products (their column-count
/// announcements share one superstep, one word per link each) — the same
/// value sparse_planned_rounds_batch computes from the structures. The
/// batch-of-one instance stages byte-identical traffic to the historical
/// single-product implementation (pinned in test_sparse.cpp).
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>>
mm_semiring_sparse_staged_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> ss,
    std::span<const Matrix<typename S::Value>> ts,
    std::span<const SparseMmStructure> sts) {
  using V = typename S::Value;
  using SC = SparseCodec<Codec>;
  using Index = typename SC::Index;
  const SC scodec{codec};
  const int n = net.n();
  const std::size_t batch = ss.size();
  CCA_EXPECTS(ts.size() == batch && sts.size() == batch);
  std::vector<Matrix<V>> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) out.emplace_back(n, n, sr.zero());
  std::int64_t live = 0;
  for (const auto& st : sts)
    if (!st.trivial) ++live;
  if (live == 0) return out;
  const auto vw1 = codec.words_for(1);
  // This rank's shard: staging and inbox-reading loops walk only owned
  // nodes (in-process that is [0, n)); loops over REPLICATED inputs stay
  // full-range. Under sharding only the owned output rows are
  // authoritative — see mm_semiring_3d_batch's sharded-execution note.
  const clique::NodeSpan own = net.owned();
  // Work estimates: the row and column scans touch n entries per owned node
  // and product; distribute and contribute are sized by the plans' staged
  // words and triples, this rank's share of them.
  const auto rows = static_cast<std::size_t>(own.size());
  const std::size_t scan_work = rows * batch * static_cast<std::size_t>(n);
  std::size_t distribute_words = 0;
  std::size_t triples = 0;
  for (const auto& st : sts) {
    for (const auto& d : st.distribute)
      distribute_words += static_cast<std::size_t>(d.words);
    triples += static_cast<std::size_t>(st.triples);
  }
  const auto share = [&](std::size_t total) {
    return total * rows / static_cast<std::size_t>(n);
  };

  // Gather: every off-diagonal nonzero S_b[i,k] travels to column holder k
  // as a bare value (the row index is the sender id) — except entries of
  // columns whose intermediate forms no triple: the step-0 announcement
  // already told every node those values stay put (matching the plans'
  // gather demands). The "k forms a triple" verdict comes from the PLAN
  // (group_size[k] > 0 exactly when colS(k) and rowT(k) are both
  // nonempty), which every rank derived from the announced census — never
  // from a value scan of T rows a sharded rank does not hold. For a staged
  // nonzero S_b[i,k], colS(k) contains i, so the plan verdict coincides
  // with the historical "T row k alive" test. Senders own distinct
  // outboxes, so the staging loop is parallel-over-senders; a pair's
  // per-product values concatenate in product order.
  parallel_for(own.begin, own.end, scan_work, [&](int i) {
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      for (int k = 0; k < n; ++k) {
        if (k == i ||
            sts[b].group_size[static_cast<std::size_t>(k)] == 0 ||
            ss[b](i, k) == sr.zero())
          continue;
        const auto msg = net.stage(i, k, vw1);
        codec.encode_into(std::span<const V>(&ss[b](i, k), 1), msg.data());
      }
    }
  });
  net.deliver();

  // Column holders decode their columns (distinct k per iteration), the
  // per-sender word offset advancing across products. Dead columns
  // (t_k == 0, nothing gathered) keep no values — no chunk ever references
  // them.
  std::vector<std::vector<std::vector<V>>> colvals(
      batch, std::vector<std::vector<V>>(static_cast<std::size_t>(n)));
  parallel_for(own.begin, own.end, scan_work, [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    std::vector<std::size_t> off(static_cast<std::size_t>(n), 0);
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial || sts[b].group_size[ks] == 0) continue;
      const auto& rows = sts[b].s_cols[ks];
      auto& vals = colvals[b][ks];
      vals.assign(rows.size(), sr.zero());
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const int i = rows[r];
        if (i == k) {
          vals[r] = ss[b](k, k);
          continue;
        }
        const auto in = net.inbox(k, i);
        auto& at = off[static_cast<std::size_t>(i)];
        CCA_ASSERT(at + vw1 <= in.size());
        codec.decode_into(in.data() + at, 1, &vals[r]);
        at += vw1;
      }
    }
    // Every gathered word must be consumed — the structures and the
    // staging loop derive the same per-pair volumes (the batch analogue of
    // the single-product in.size() == vw1 assert).
    for (int i = 0; i < n; ++i)
      CCA_ASSERT(off[static_cast<std::size_t>(i)] ==
                 net.inbox(k, i).size());
  });

  // Column-count announcement: with the row counts from the first
  // announcement this gives every node every live product's t_k profile,
  // hence the same balanced worker partitions the structures encode. The
  // live products' counts ride one superstep (one word per link each), so
  // the charge is broadcast_all's 1 round per live product.
  if (n > 1) net.charge_rounds(live);

  // Sparse views of the T rows (needed by distribute and by local work).
  std::vector<std::vector<std::vector<Index>>> trow_idx(
      batch, std::vector<std::vector<Index>>(static_cast<std::size_t>(n)));
  std::vector<std::vector<std::vector<V>>> trow_val(
      batch, std::vector<std::vector<V>>(static_cast<std::size_t>(n)));
  // Only the holder (owned k) stages or locally multiplies its T row.
  parallel_for(own.begin, own.end, scan_work, [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      auto& idx = trow_idx[b][ks];
      auto& val = trow_val[b][ks];
      for (int j = 0; j < n; ++j) {
        if (ts[b](k, j) == sr.zero()) continue;
        idx.push_back(static_cast<Index>(j));
        val.push_back(ts[b](k, j));
      }
    }
  });

  // Distribute: holder k ships chunk r of its column plus its T row to each
  // extra worker, as [a_cnt][b_cnt] header words followed by two
  // SparseCodec blocks; per-pair messages concatenate in product order.
  // Frames are sized by the QUANTISED counts (sparse_count_bucket) while
  // the headers carry the real counts, so both sides derive the same
  // padded offsets — matching the planner's quantised demand words. The
  // pad words are stage()'s zero fill.
  const auto frame_words = [&scodec](std::size_t c) {
    return scodec.words_for(static_cast<std::size_t>(
        sparse_count_bucket(static_cast<std::int64_t>(c))));
  };
  // Whole-message alignment (see sparse_msg_align): both sides derive the
  // same aligned stride, the tail pad words are stage()'s zero fill.
  const auto dist_align = [](std::size_t w) {
    return static_cast<std::size_t>(sparse_msg_align(
        static_cast<std::int64_t>(w), kSparseDistributeAlign));
  };
  const auto contrib_align = [n](std::size_t w) {
    return static_cast<std::size_t>(sparse_msg_align(
        static_cast<std::int64_t>(w), sparse_contribute_align(n)));
  };
  parallel_for(own.begin, own.end, share(distribute_words), [&](int k) {
    const auto ks = static_cast<std::size_t>(k);
    std::vector<Index> aidx;
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      const auto& st = sts[b];
      const int g = st.group_size[ks];
      const auto& rows = st.s_cols[ks];
      for (int r = 1; r < g; ++r) {
        const int w = st.extras[ks][static_cast<std::size_t>(r - 1)];
        const auto [lo, hi] =
            sparse_chunk_bounds(static_cast<int>(rows.size()), g, r);
        const auto a_cnt = static_cast<std::size_t>(hi - lo);
        const auto b_cnt = trow_idx[b][ks].size();
        const auto a_frame = frame_words(a_cnt);
        // Leased: the span is written by three encode steps with index
        // building in between — the generation check pins that no
        // same-source staging sneaks between them.
        const analysis::StagedLease<clique::Network> msg(
            net, k, w, dist_align(2 + a_frame + frame_words(b_cnt)));
        msg.span()[0] = a_cnt;
        msg.span()[1] = b_cnt;
        aidx.clear();
        for (int x = lo; x < hi; ++x)
          aidx.push_back(
              static_cast<Index>(rows[static_cast<std::size_t>(x)]));
        scodec.encode_into(
            aidx, std::span<const V>(colvals[b][ks].data() + lo, a_cnt),
            msg.span().data() + 2);
        scodec.encode_into(trow_idx[b][ks], trow_val[b][ks],
                           msg.span().data() + 2 + a_frame);
      }
    }
  });
  net.deliver();

  // Contribute: every worker multiplies its triples per product, merging
  // contributions per output row across its intermediates (union of the
  // T-row patterns — entries are sent when TOUCHED, value zero or not, so
  // the message sizes are exactly the structures' value-independent
  // counts). The worker's own row folds locally; every other row ships as
  // [cnt] + SparseCodec block, product b's blocks after product b-1's.
  parallel_for(own.begin, own.end, scan_work + share(triples), [&](int w) {
    const auto ws = static_cast<std::size_t>(w);
    std::vector<std::size_t> doff(static_cast<std::size_t>(n), 0);
    // Work items: (a-row id, a-value, intermediate k) triples from the
    // own chunk plus every received chunk, grouped per output row. The
    // n-sized scratch is shared across the products (each product's row
    // loop restores acc/touched to zero and clears its row slots), so the
    // per-superstep allocation stays O(n), not O(B n).
    struct Item {
      int k;
      const std::vector<Index>* bidx;
      const std::vector<V>* bval;
    };
    std::vector<Item> items;
    std::vector<std::vector<std::pair<std::size_t, V>>> per_row(
        static_cast<std::size_t>(n));
    auto row_slot = [&](int i) -> std::vector<std::pair<std::size_t, V>>& {
      return per_row[static_cast<std::size_t>(i)];
    };
    std::vector<int> rows_touched;
    auto add_entry = [&](int i, std::size_t item, const V& aval) {
      if (row_slot(i).empty()) rows_touched.push_back(i);
      row_slot(i).push_back({item, aval});
    };
    std::vector<V> acc(static_cast<std::size_t>(n), sr.zero());
    std::vector<std::uint8_t> touched(static_cast<std::size_t>(n), 0);
    std::vector<Index> jlist;
    std::vector<V> vlist;
    for (std::size_t b = 0; b < batch; ++b) {
      if (sts[b].trivial) continue;
      const auto& st = sts[b];
      items.clear();
      // Own chunk (worker 0 of intermediate w).
      if (st.group_size[ws] >= 1) {
        const auto& rows = st.s_cols[ws];
        const auto [lo, hi] = sparse_chunk_bounds(
            static_cast<int>(rows.size()), st.group_size[ws], 0);
        items.push_back({w, &trow_idx[b][ws], &trow_val[b][ws]});
        for (int x = lo; x < hi; ++x)
          add_entry(rows[static_cast<std::size_t>(x)], items.size() - 1,
                    colvals[b][ws][static_cast<std::size_t>(x)]);
      }
      // Received chunks, ascending by intermediate, read at the pair's
      // running word offset (earlier products' chunks precede). Decoded
      // blocks must outlive the loop, so they land in stable per-item
      // storage.
      const auto& ext = st.worker_extras[ws];
      std::vector<std::vector<Index>> dec_aidx(ext.size()),
          dec_bidx(ext.size());
      std::vector<std::vector<V>> dec_aval(ext.size()), dec_bval(ext.size());
      for (std::size_t e = 0; e < ext.size(); ++e) {
        const int k = ext[e].first;
        // Leased: the view feeds two offset decodes with resizes in
        // between, and the surrounding loop stages contributions — the
        // generation check pins that stage() never invalidates inboxes.
        const analysis::InboxLease<clique::Network> in(net, w, k);
        auto& at = doff[static_cast<std::size_t>(k)];
        CCA_ASSERT(at + 2 <= in.span().size());
        const auto a_cnt = static_cast<std::size_t>(in.span()[at]);
        const auto b_cnt = static_cast<std::size_t>(in.span()[at + 1]);
        dec_aidx[e].resize(a_cnt);
        dec_aval[e].resize(a_cnt, sr.zero());
        dec_bidx[e].resize(b_cnt);
        dec_bval[e].resize(b_cnt, sr.zero());
        // Blocks sit at quantised-frame offsets (see the distribute
        // staging); the real header counts bound what is decoded.
        const auto a_frame = frame_words(a_cnt);
        scodec.decode_into(in.span().data() + at + 2, a_cnt,
                           dec_aidx[e].data(), dec_aval[e].data());
        scodec.decode_into(in.span().data() + at + 2 + a_frame, b_cnt,
                           dec_bidx[e].data(), dec_bval[e].data());
        at += dist_align(2 + a_frame + frame_words(b_cnt));
        items.push_back({k, &dec_bidx[e], &dec_bval[e]});
        for (std::size_t x = 0; x < a_cnt; ++x)
          add_entry(static_cast<int>(dec_aidx[e][x]), items.size() - 1,
                    dec_aval[e][x]);
      }
      std::sort(rows_touched.begin(), rows_touched.end());

      // Per output row: accumulate over the row's (item, a-value) pairs.
      std::size_t contrib_at = 0;
      for (const int i : rows_touched) {
        jlist.clear();
        for (const auto& [item, aval] : row_slot(i)) {
          const auto& bidx = *items[item].bidx;
          const auto& bval = *items[item].bval;
          for (std::size_t x = 0; x < bidx.size(); ++x) {
            const auto j = bidx[x];
            const auto prod = sr.mul(aval, bval[x]);
            if (touched[j] == 0) {
              touched[j] = 1;
              jlist.push_back(j);
              acc[j] = prod;
            } else {
              acc[j] = sr.add(acc[j], prod);
            }
          }
        }
        std::sort(jlist.begin(), jlist.end());
        // The plan's symbolic merge must agree with the numeric one.
        CCA_ASSERT(contrib_at < st.contrib[ws].size());
        CCA_ASSERT(st.contrib[ws][contrib_at].first == i);
        CCA_ASSERT(st.contrib[ws][contrib_at].second ==
                   static_cast<int>(jlist.size()));
        ++contrib_at;
        if (i == w) {
          auto* orow = out[b].row(w);
          for (const auto j : jlist)
            orow[j] = sr.add(orow[j], acc[j]);
        } else {
          const auto msg =
              net.stage(w, i, contrib_align(1 + frame_words(jlist.size())));
          msg[0] = jlist.size();
          vlist.clear();
          for (const auto j : jlist) vlist.push_back(acc[j]);
          scodec.encode_into(jlist, vlist, msg.data() + 1);
        }
        for (const auto j : jlist) {
          touched[j] = 0;
          acc[j] = sr.zero();
        }
        row_slot(i).clear();
      }
      CCA_ASSERT(contrib_at == st.contrib[ws].size());
      rows_touched.clear();
    }
  });
  net.deliver();

  // Fold the delivered contributions into the output rows (distinct row per
  // iteration); each sender's message parses product by product, block
  // membership coming from the structures' sorted contrib lists.
  parallel_for(own.begin, own.end, scan_work, [&](int i) {
    std::vector<Index> jbuf;
    std::vector<V> vbuf;
    for (int w = 0; w < n; ++w) {
      if (w == i) continue;
      // Leased: the view is parsed product by product across the batch
      // loop (resizes and folds in between).
      const analysis::InboxLease<clique::Network> in(net, i, w);
      if (in.span().empty()) continue;
      std::size_t at = 0;
      for (std::size_t b = 0; b < batch; ++b) {
        if (sts[b].trivial) continue;
        const auto& cl = sts[b].contrib[static_cast<std::size_t>(w)];
        const auto it = std::lower_bound(
            cl.begin(), cl.end(), i,
            [](const std::pair<int, int>& p, int x) { return p.first < x; });
        if (it == cl.end() || it->first != i) continue;
        const auto cnt = static_cast<std::size_t>(in.span()[at]);
        CCA_ASSERT(cnt == static_cast<std::size_t>(it->second));
        CCA_ASSERT(at + contrib_align(1 + frame_words(cnt)) <=
                   in.span().size());
        jbuf.resize(cnt);
        vbuf.assign(cnt, sr.zero());
        scodec.decode_into(in.span().data() + at + 1, cnt, jbuf.data(),
                           vbuf.data());
        auto* orow = out[b].row(i);
        for (std::size_t x = 0; x < cnt; ++x)
          orow[jbuf[x]] = sr.add(orow[jbuf[x]], vbuf[x]);
        at += contrib_align(1 + frame_words(cnt));
      }
      CCA_ASSERT(at == in.span().size());
    }
  });
  return out;
}

/// Pack the two per-row nnz counts into the announcement word.
[[nodiscard]] inline clique::Word pack_nnz_pair(std::size_t a,
                                                std::size_t b) noexcept {
  return (static_cast<clique::Word>(a) << 32) | static_cast<clique::Word>(b);
}

/// Under sharding: rebuild the non-owned rows of every (S, T) pattern pair
/// from the announced per-row counts via the uncharged common-knowledge
/// side channel (allgather_node_blocks), so every rank leaves holding the
/// identical GLOBAL patterns — the plan, the hysteresis verdicts, and the
/// gather conditions all derive from announced data, never from a value
/// scan of rows this rank does not hold. `counts[b][v]` is product b's
/// packed (nnzS, nnzT) announcement word for node v. No-op under full
/// ownership (every rank already holds every row).
inline void allgather_sparse_patterns(
    clique::Network& net, std::span<SparsePattern> s_rows,
    std::span<SparsePattern> t_rows,
    std::span<const std::vector<clique::Word>> counts) {
  if (net.owns_all()) return;
  const int n = net.n();
  const clique::NodeSpan own = net.owned();
  const std::size_t batch = s_rows.size();
  CCA_EXPECTS(t_rows.size() == batch && counts.size() == batch);
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (int v = 0; v < n; ++v) {
    const auto vs = static_cast<std::size_t>(v);
    std::size_t sz = 0;
    for (std::size_t b = 0; b < batch; ++b) {
      const auto w = counts[b][vs];
      sz += static_cast<std::size_t>(w >> 32) +
            static_cast<std::size_t>(w & 0xffffffffULL);
    }
    offsets[vs + 1] = offsets[vs] + sz;
  }
  std::vector<clique::Word> data(offsets[static_cast<std::size_t>(n)], 0);
  for (int v = own.begin; v < own.end; ++v) {
    auto at = offsets[static_cast<std::size_t>(v)];
    for (std::size_t b = 0; b < batch; ++b) {
      for (const int j : s_rows[b][static_cast<std::size_t>(v)])
        data[at++] = static_cast<clique::Word>(j);
      for (const int j : t_rows[b][static_cast<std::size_t>(v)])
        data[at++] = static_cast<clique::Word>(j);
    }
    CCA_ASSERT(at == offsets[static_cast<std::size_t>(v) + 1]);
  }
  net.allgather_node_blocks(data, offsets);
  for (int v = 0; v < n; ++v) {
    if (own.contains(v)) continue;
    const auto vs = static_cast<std::size_t>(v);
    auto at = offsets[vs];
    for (std::size_t b = 0; b < batch; ++b) {
      const auto w = counts[b][vs];
      auto& srow = s_rows[b][vs];
      auto& trow = t_rows[b][vs];
      srow.clear();
      trow.clear();
      for (std::size_t x = 0; x < static_cast<std::size_t>(w >> 32); ++x)
        srow.push_back(static_cast<int>(data[at++]));
      for (std::size_t x = 0;
           x < static_cast<std::size_t>(w & 0xffffffffULL); ++x)
        trow.push_back(static_cast<int>(data[at++]));
    }
  }
}

/// The per-row nnz announcement of B products, shared by
/// mm_semiring_sparse_batch and the Auto dispatcher: node v announces
/// (nnzS_b(row v), nnzT_b(row v)) packed into one word per product, made
/// common knowledge through broadcast_all — one round per product, the
/// same charge as one direct-schedule word per link. Under sharding each
/// rank announces its OWNED rows' counts and then repairs the patterns'
/// non-owned rows from the census (allgather_sparse_patterns), so the call
/// returns bit-identical global patterns on every rank. Returns the
/// products' (S, T) patterns.
template <Semiring S>
[[nodiscard]] std::pair<std::vector<SparsePattern>,
                        std::vector<SparsePattern>>
announce_sparse_patterns(clique::Network& net, const S& sr,
                         std::span<const Matrix<typename S::Value>> as,
                         std::span<const Matrix<typename S::Value>> bs) {
  const int n = net.n();
  const std::size_t batch = as.size();
  const clique::NodeSpan own = net.owned();
  std::vector<SparsePattern> s_rows, t_rows;
  std::vector<std::vector<clique::Word>> counts;
  s_rows.reserve(batch);
  t_rows.reserve(batch);
  counts.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    s_rows.push_back(sparse_pattern(sr, as[b]));
    t_rows.push_back(sparse_pattern(sr, bs[b]));
    std::vector<clique::Word> packed(static_cast<std::size_t>(n), 0);
    for (int v = own.begin; v < own.end; ++v)
      packed[static_cast<std::size_t>(v)] =
          pack_nnz_pair(s_rows[b][static_cast<std::size_t>(v)].size(),
                        t_rows[b][static_cast<std::size_t>(v)].size());
    counts.push_back(clique::broadcast_all(net, std::move(packed)));
  }
  allgather_sparse_patterns(net, std::span<SparsePattern>(s_rows),
                            std::span<SparsePattern>(t_rows),
                            std::span<const std::vector<clique::Word>>(counts));
  return {std::move(s_rows), std::move(t_rows)};
}

}  // namespace detail

/// Sparsity-sensitive BATCHED multiplication (see the section comment
/// above): B products through SHARED sparse supersteps (gather / distribute
/// / contribute each pay one routing schedule for the whole batch, per-pair
/// blocks concatenated in product order), after the B-round row-nnz
/// announcement (detail::announce_sparse_patterns). Requires net.n() ==
/// every matrix dimension and as.size() == bs.size() >= 1; ANY n >= 1 is
/// admissible. Result-identical to mm_semiring_3d under the Semiring zero
/// contract; rounds scale with the nonzero volume, and B > 1 runs in
/// strictly fewer rounds than B sequential calls whenever the
/// single-product supersteps leave links idle. Sharded execution follows
/// mm_semiring_3d_batch: replicated inputs, owned output rows
/// authoritative.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_sparse_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs) {
  const int n = net.n();
  const std::size_t batch = as.size();
  detail::expect_batch_shapes(n, as, bs);
  if (n == 1) return detail::one_node_products(sr, as, bs);
  const auto [s_rows, t_rows] =
      detail::announce_sparse_patterns(net, sr, as, bs);
  std::vector<SparseMmStructure> sts(batch);
  for (std::size_t b = 0; b < batch; ++b)
    sts[b] = build_sparse_mm_structure(
        n, s_rows[b], t_rows[b],
        [&](std::size_t c) { return codec.words_for(c); });
  return detail::mm_semiring_sparse_staged_batch(
      net, sr, codec, as, bs, std::span<const SparseMmStructure>(sts));
}

/// Sparsity-sensitive semiring multiplication: the batch-of-one instance of
/// mm_semiring_sparse_batch.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_sparse(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t) {
  using V = typename S::Value;
  auto res = mm_semiring_sparse_batch(net, sr, codec,
                                      std::span<const Matrix<V>>(&s, 1),
                                      std::span<const Matrix<V>>(&t, 1));
  return std::move(res.front());
}

// Engine bodies of the production (semiring, codec) pairs (see
// CCA_MM_PRODUCTION_PAIRS) are compiled once, in mm_sparse.cpp.
#define CCA_MM_SPARSE_INSTANCE(EXTERN, S, C)                                \
  EXTERN template std::vector<Matrix<S::Value>>                             \
  detail::mm_semiring_sparse_staged_batch<S, C>(                            \
      clique::Network&, const S&, const C&,                                 \
      std::span<const Matrix<S::Value>>, std::span<const Matrix<S::Value>>, \
      std::span<const SparseMmStructure>);                                  \
  EXTERN template std::vector<Matrix<S::Value>>                             \
  mm_semiring_sparse_batch<S, C>(                                           \
      clique::Network&, const S&, const C&,                                 \
      std::span<const Matrix<S::Value>>, std::span<const Matrix<S::Value>>);
CCA_MM_PRODUCTION_PAIRS(CCA_MM_SPARSE_INSTANCE, extern)

}  // namespace cca::core
