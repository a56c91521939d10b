// Dense distributed matrix multiplication on the congested clique — the
// paper's core contribution (Section 2, Theorem 1).
//
//  * mm_semiring_3d   — Section 2.1: the "3D" algorithm; O(n^{1/3}) rounds
//                       over any semiring.
//  * mm_fast_bilinear — Section 2.2 / Lemma 10: turns ANY bilinear algorithm
//                       with m(d) = O(d^sigma) multiplications into an
//                       O(n^{1-2/sigma}) round clique algorithm over a ring.
//  * mm_naive_broadcast — the trivial O(n)-round baseline (everyone learns
//                       both matrices).
//
// Input/output distribution follows the paper: node v holds row v of both
// inputs and ends with row v of the product. The orchestrated simulation
// stages node v's messages exclusively from data node v legitimately holds
// at that point of the algorithm (its input rows, then whatever it received
// in earlier supersteps).
//
// Data plane: both directions are zero-copy. Send staging encodes directly
// into Network::stage spans (no intermediate value/word buffers), and every
// staging loop runs under cca::parallel_for over the SENDERS — legal
// because each source owns its per-source outbox (see Network::stage), and
// layout-preserving because per-source append order is unchanged. Receive
// decoding goes through decode_into straight into matrix rows or reused
// scratch. None of this moves a word: TrafficStats are bit-identical to the
// serial entry-at-a-time implementation.
//
// All functions require net.n() == matrix dimension and an "admissible" n
// (perfect cube for the 3D algorithm; square with d | sqrt(n) and m <= n for
// the bilinear scheme). semiring_clique_size / plan_fast_mm below and
// pad_matrix (core/engine.hpp) embed an arbitrary instance into the next
// admissible size, which is how the paper's "assume n^{1/3} is an integer
// for convenience" is discharged.
// The sparse engine and the Auto dispatcher: core/mm_sparse.hpp, core/mm.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "clique/network.hpp"
#include "core/engine.hpp"
#include "matrix/bilinear.hpp"
#include "matrix/codec.hpp"
#include "matrix/kernels.hpp"
#include "matrix/matrix.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace cca::core {

namespace detail {

/// Odd-word-count scheduler cliff (ROADMAP `bench_mm --steps` finding): a
/// superstep whose per-pair word count is odd defeats the Euler split's
/// identical-halves collapse, so its KoenigRelay schedule is built at word
/// granularity — the semiring_3d wall-clock spike at clique_n=343
/// (49 words/pair) versus 512 (64 = 2^6, six collapsed levels). Large odd
/// per-pair groups are therefore padded by ONE trailing zero word at stage
/// time; decode offsets are unchanged (receivers simply never read the pad
/// word), so any codec permits it. Small groups are left alone: their class
/// logs are cheap, and the extra word would be pure traffic inflation (for
/// the 1-word PackedBool groups it would double the message). The pinned
/// traffic regressions and the committed BENCH baselines demonstrate the
/// padded sizes' rounds stay no worse.
constexpr std::size_t kOddPadMinWords = 17;

[[nodiscard]] constexpr std::size_t padded_group_words(
    std::size_t words) noexcept {
  return words + (words % 2 != 0 && words >= kOddPadMinWords ? 1 : 0);
}

/// Decode a `count`-entry block that starts at word `word_offset` of a
/// message span into out[0..count), with no allocation. The batch layouts
/// compute offsets in words directly (block k of a B-group lives at
/// k * words_for(block_entries)), which stays exact for bit-packing codecs
/// whose words_for is not additive over entry counts (PackedBoolCodec at
/// non-64-multiple blocks).
template <typename Codec, typename V>
void decode_entries_at(const Codec& codec, std::span<const clique::Word> in,
                       std::size_t word_offset, std::size_t count, V* out) {
  CCA_EXPECTS(word_offset + codec.words_for(count) <= in.size());
  codec.decode_into(in.data() + word_offset, count, out);
}

/// dst[i*dst_stride + j] (+|-)= coeff * src[i*src_stride + j] over an h x w
/// block of row-major storage (a flat scratch block or a matrix view, so
/// either side may be a sub-block of a wider matrix). |coeff| == 1 skips
/// the multiply (the generic fallback — also the only case a semiring
/// without subtraction could support for positive coefficients); larger
/// coefficients build the scalar once and multiply-accumulate. Negative
/// coefficients use the ring's subtraction.
template <Ring R>
void scaled_accumulate(const R& ring, typename R::Value* dst,
                       std::size_t dst_stride,
                       const typename R::Value* src, std::size_t src_stride,
                       int h, int w, std::int64_t coeff) {
  if (coeff == 0) return;
  const bool unit = coeff == 1 || coeff == -1;
  const auto scale =  // never read when unit
      unit ? ring.one() : scalar_of(ring, coeff > 0 ? coeff : -coeff);
  for (int i = 0; i < h; ++i) {
    auto* drow = dst + static_cast<std::size_t>(i) * dst_stride;
    const auto* srow = src + static_cast<std::size_t>(i) * src_stride;
    if (unit && coeff > 0)
      for (int j = 0; j < w; ++j) drow[j] = ring.add(drow[j], srow[j]);
    else if (unit)
      for (int j = 0; j < w; ++j) drow[j] = ring.sub(drow[j], srow[j]);
    else if (coeff > 0)
      for (int j = 0; j < w; ++j)
        drow[j] = ring.add(drow[j], ring.mul(scale, srow[j]));
    else
      for (int j = 0; j < w; ++j)
        drow[j] = ring.sub(drow[j], ring.mul(scale, srow[j]));
  }
}

}  // namespace detail

/// Section 2.1, batched — B independent semiring products through SHARED
/// supersteps. The executable counterpart of running multiple MM instances
/// at once (Le Gall, "Further Algebraic Algorithms in the Congested
/// Clique"): every (src, dst) pair's B per-product blocks ride in ONE
/// staged message ([S-group][T-group] per role, product b's block at word
/// offset b * block_words inside its group), so the whole batch pays 2
/// deliveries and ONE routing schedule per superstep instead of 2B. Because
/// the relay spreads the B-fold blocks over intermediates, batch rounds are
/// strictly below B sequential runs whenever single-product supersteps
/// leave links idle (they do: tests pin it).
///
/// Requires net.n() == every matrix dimension, net.n() a perfect cube, and
/// as.size() == bs.size() >= 1. Returns the B products in order; the B = 1
/// instance stages byte-identical traffic to the historical single-product
/// code path (the traffic-regression suite pins those stats), except that
/// large odd per-pair groups gain one trailing pad word (see
/// detail::padded_group_words — a wall-clock fix for the odd-word
/// scheduler cliff whose rounds are pinned no worse).
///
/// Note: the paper's Step 1 says node v sends T[v, w3**] to the nodes
/// w in *v2*; for the received pieces to assemble T[v2**, v3**] (rows with
/// FIRST digit v2, as Step 2 requires) the recipients must be w in *v1*.
/// We implement the *v1* version; the totals (2 n^{4/3} words per node per
/// product) are unchanged.
///
/// Sharded execution (net.owned() a proper subspan): inputs must be
/// REPLICATED (every rank passes bit-identical as/bs — the SPMD contract),
/// each rank stages and computes only for its owned nodes, and on return
/// only the OWNED rows of each product are authoritative (non-owned rows
/// stay sr.zero()). Traffic accounting is bit-identical to a
/// single-process run by the transport's construction.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_3d_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs) {
  using V = typename S::Value;
  const int n = net.n();
  const std::size_t batch = as.size();
  detail::expect_batch_shapes(n, as, bs);
  CCA_EXPECTS(is_perfect_cube(n));
  if (n == 1) return detail::one_node_products(sr, as, bs);
  const int c = static_cast<int>(icbrt(n));
  const int c2 = c * c;
  const auto block_entries = static_cast<std::size_t>(c2);
  const auto block_words = codec.words_for(block_entries);
  const auto group_words = batch * block_words;  // one pair's staged group
  // Step 1's staged size may exceed the payload by one zero pad word (see
  // detail::padded_group_words); all decode offsets below use the payload
  // layout, so the pad is invisible to receivers. Step 3 stays unpadded:
  // its demand graph (one c2-destination group per node, half the volume)
  // measurably absorbs the extra word less often — at clique_n = 343 the
  // padded step 3 costs one extra round while the padded step 1 is free —
  // and its odd schedule is the cheaper of the two to build anyway.
  const auto staged_words = detail::padded_group_words(group_words);
  auto d1 = [c2](int v) { return v / c2; };
  auto d2 = [c, c2](int v) { return (v / c) % c; };
  auto d3 = [c](int v) { return v % c; };
  // This rank's node shard: every stage/compute loop below walks only the
  // owned span. In-process this is [0, n) and the loops are unchanged.
  const clique::NodeSpan own = net.owned();

  // Step 1: node v scatters pieces of its rows S_b[v,*] and T_b[v,*] for
  // every product b, encoding the contiguous row slices straight into one
  // staged group per destination. Senders are independent (one src per
  // iteration), so the loop runs parallel.
  parallel_for(own.begin, own.end, [&](int v) {
    // S_b[v, u2**] to each u in v1** (same first digit as v).
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;
      const auto msg = net.stage(v, u, staged_words);
      for (std::size_t b = 0; b < batch; ++b)
        codec.encode_into(std::span<const V>(as[b].row(v) + d2(u) * c2,
                                             block_entries),
                          msg.data() + b * block_words);
    }
    // T_b[v, w3**] to each w in *v1* (second digit equals v's first digit).
    for (int w1 = 0; w1 < c; ++w1)
      for (int w3 = 0; w3 < c; ++w3) {
        const int w = w1 * c2 + d1(v) * c + w3;
        const auto msg = net.stage(v, w, staged_words);
        for (std::size_t b = 0; b < batch; ++b)
          codec.encode_into(std::span<const V>(bs[b].row(v) + d3(w) * c2,
                                               block_entries),
                            msg.data() + b * block_words);
      }
  });
  net.deliver();

  // Each node v now assembles S_b[v1**, v2**] and T_b[v2**, v3**] and
  // multiplies them locally (Step 2), for every b. Per-node work is
  // independent and reads only delivered inbox views, so the nodes run on
  // the worker group; blocks are decoded directly into the assembled
  // matrix rows (sb/tb are reused across b — every row is overwritten).
  std::vector<Matrix<V>> prod(static_cast<std::size_t>(n) * batch);
  parallel_for(own.begin, own.end, [&](int v) {
    Matrix<V> sb(c2, c2, sr.zero());
    Matrix<V> tb(c2, c2, sr.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      for (int tail = 0; tail < c2; ++tail) {
        const int u = d1(v) * c2 + tail;  // sender of S_b[u, v2**]
        detail::decode_entries_at(codec, net.inbox(v, u), b * block_words,
                                  block_entries, sb.row(tail));
      }
      for (int tail = 0; tail < c2; ++tail) {
        const int w = d2(v) * c2 + tail;  // sender of T_b[w, v3**]
        // v received its S group and/or T group from w in one inbox; the S
        // group (if any) comes first — skip it in STAGED words (the group
        // plus its possible pad word).
        const std::size_t at =
            (d1(w) == d1(v) ? staged_words : 0) + b * block_words;
        detail::decode_entries_at(codec, net.inbox(v, w), at, block_entries,
                                  tb.row(tail));
      }
      prod[static_cast<std::size_t>(v) * batch + b] =
          local_multiply(sr, sb, tb);
    }
  });

  // Step 3: node v sends P_b^(v2)[u, v3**] to each u in v1** — one
  // contiguous product row per message block, encoded in place.
  parallel_for(own.begin, own.end, [&](int v) {
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;
      const auto msg = net.stage(v, u, group_words);
      for (std::size_t b = 0; b < batch; ++b) {
        const auto& pv = prod[static_cast<std::size_t>(v) * batch + b];
        codec.encode_into(std::span<const V>(pv.row(tail), block_entries),
                          msg.data() + b * block_words);
      }
    }
  });
  net.deliver();

  // Step 4: node v sums the received pieces into row v of each product
  // (distinct output rows, so the nodes run concurrently).
  std::vector<Matrix<V>> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b)
    out.emplace_back(n, n, sr.zero());
  parallel_for(own.begin, own.end, [&](int v) {
    std::vector<V> piece(block_entries, sr.zero());
    for (int tail = 0; tail < c2; ++tail) {
      const int u = d1(v) * c2 + tail;  // sent P_b^(u2)[v, u3**]
      // Leased: the view is decoded b times across the batch loop, so the
      // generation check pins the no-deliver-in-between contract.
      const analysis::InboxLease<clique::Network> in(net, v, u);
      for (std::size_t b = 0; b < batch; ++b) {
        detail::decode_entries_at(codec, in.span(), b * block_words,
                                  block_entries, piece.data());
        auto* orow = out[b].row(v) + d3(u) * c2;
        for (int j = 0; j < c2; ++j)
          orow[j] = sr.add(orow[j], piece[static_cast<std::size_t>(j)]);
      }
    }
  });
  return out;
}

/// Section 2.1 — semiring matrix multiplication in O(n^{1/3}) rounds.
///
/// Requires net.n() == s.rows() == s.cols() == t.rows() == t.cols() and
/// net.n() a perfect cube. Returns the full product (row v of which is the
/// output of node v). This is the batch-of-one instance of
/// mm_semiring_3d_batch; its staged traffic is byte-identical to the
/// historical single-product implementation.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_3d(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t) {
  using V = typename S::Value;
  auto res = mm_semiring_3d_batch(
      net, sr, codec, std::span<const Matrix<V>>(&s, 1),
      std::span<const Matrix<V>>(&t, 1));
  return std::move(res.front());
}

/// Parameters of one fast multiplication instance (Section 2.2).
struct FastPlan {
  int depth = 0;      ///< tensor-power exponent k of the base algorithm
  int d = 1;          ///< block grid dimension (base_d^k)
  int m = 1;          ///< number of block products (base_m^k)
  int clique_n = 1;   ///< admissible clique/matrix size (square, d | sqrt)
};

/// Smallest admissible instance for matrices of size n with a forced depth:
/// clique_n is a perfect square, d = base_d^depth divides sqrt(clique_n),
/// and m = base_m^depth <= clique_n.
[[nodiscard]] FastPlan plan_fast_mm(int n, int depth, int base_d = 2,
                                    int base_m = 7);

/// Auto-select the largest depth whose m fits below n (the paper's
/// "fix d so that m(d) = n"), then pad.
[[nodiscard]] FastPlan plan_fast_mm_auto(int n, int base_d = 2,
                                         int base_m = 7);

/// Section 2.2 / Lemma 10, batched — B independent ring products through
/// SHARED supersteps (same scheme as mm_semiring_3d_batch: per-pair
/// messages of the B products concatenate into one staged group, so the
/// batch pays one routing schedule per superstep). Message layouts put
/// product b's blocks at word offsets computed in whole blocks — [S_b T_b]
/// pairs in Steps 1 and 3, b * blk_words groups in Steps 5 and 7 — so
/// B = 1 is byte-identical to the historical single-product path.
///
/// `alg` must be a bilinear algorithm for d x d matrices with m products,
/// with d | sqrt(net.n()) and m <= net.n(); tensor_power(strassen, k)
/// satisfies this for admissible sizes from plan_fast_mm. Runs in
/// O(B n^{1 - 2/sigma}) rounds where m = d^sigma.
template <Ring R, typename Codec>
[[nodiscard]] std::vector<Matrix<typename R::Value>> mm_fast_bilinear_batch(
    clique::Network& net, const R& ring, const Codec& codec,
    const BilinearAlgorithm& alg,
    std::span<const Matrix<typename R::Value>> as,
    std::span<const Matrix<typename R::Value>> bs_in) {
  using V = typename R::Value;
  const int n = net.n();
  // Genuinely full-ownership: the bilinear scheme's coefficient
  // combination reads every node's received blocks.
  clique::require_full_ownership(
      net, "mm_fast_bilinear",
      "use the 3D or sparse engine for sharded runs");
  const std::size_t batch = as.size();
  detail::expect_batch_shapes(n, as, bs_in);
  CCA_EXPECTS(is_perfect_square(n));
  const int sq = static_cast<int>(isqrt(n));
  const int d = alg.d;
  const int m = alg.m;
  CCA_EXPECTS(d >= 1 && sq % d == 0);
  CCA_EXPECTS(m <= n);
  const int bs = sq / d;        // fine block size (n^{1/2} / d)
  const int big = n / d;        // coarse block size (rows per first digit)
  if (n == 1) return detail::one_node_products(ring, as, bs_in);
  const auto row_entries = static_cast<std::size_t>(sq);
  const auto row_words = codec.words_for(row_entries);
  const auto blk_entries = static_cast<std::size_t>(bs) *
                           static_cast<std::size_t>(bs);
  const auto blk_words = codec.words_for(blk_entries);

  // Node digits (v1, v2, v3) in radices (d, sq, sq/d) and labels (x1, x2).
  auto label_of = [sq](int x1, int x2) { return x1 * sq + x2; };

  // Columns with second digit x2, in increasing order: for i in [d], the
  // range [i*big + x2*bs, i*big + (x2+1)*bs).
  auto for_each_col_x2 = [&](int x2, auto&& fn) {
    for (int i = 0; i < d; ++i)
      for (int off = 0; off < bs; ++off) fn(i * big + x2 * bs + off);
  };

  // Step 1: node v sends S_b[v, *x2*] and T_b[v, *x2*] to label (v2, x2) —
  // the B single-product [S piece, T piece] messages concatenated in one
  // staged span (product b's pair starts at word 2b * row_words). The
  // columns for x2 are d contiguous bs-runs, gathered into a per-sender
  // scratch and encoded straight into network memory.
  parallel_for(0, n, [&](int v) {
    const int v2 = (v / bs) % sq;
    std::vector<V> tmp(row_entries, ring.zero());
    for (int x2 = 0; x2 < sq; ++x2) {
      const int u = label_of(v2, x2);
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto msg = net.stage(v, u, 2 * batch * row_words);
      for (std::size_t b = 0; b < batch; ++b) {
        int lj = 0;
        for_each_col_x2(x2, [&](int j) {
          tmp[static_cast<std::size_t>(lj++)] = as[b](v, j);
        });
        codec.encode_into(std::span<const V>(tmp.data(), row_entries),
                          msg.data() + 2 * b * row_words);
        lj = 0;
        for_each_col_x2(x2, [&](int j) {
          tmp[static_cast<std::size_t>(lj++)] = bs_in[b](v, j);
        });
        codec.encode_into(std::span<const V>(tmp.data(), row_entries),
                          msg.data() + (2 * b + 1) * row_words);
      }
    }
  });
  net.deliver();

  // Node u = (x1,x2) assembles the sq x sq local views S_b[*x1*, *x2*] and
  // T_b[*x1*, *x2*]: local row index of sender v is v1*bs + v3; each piece
  // decodes directly into the local-view row.
  std::vector<Matrix<V>> sloc(static_cast<std::size_t>(n) * batch);
  std::vector<Matrix<V>> tloc(static_cast<std::size_t>(n) * batch);
  parallel_for(0, n, [&](int u) {
    const int x1 = u / sq;
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> sl(sq, sq, ring.zero());
      Matrix<V> tl(sq, sq, ring.zero());
      for (int v1 = 0; v1 < d; ++v1)
        for (int v3 = 0; v3 < bs; ++v3) {
          const int v = v1 * big + x1 * bs + v3;  // sender with v2 == x1
          const int lrow = v1 * bs + v3;
          const auto in = net.inbox(u, v);
          detail::decode_entries_at(codec, in, 2 * b * row_words,
                                    row_entries, sl.row(lrow));
          detail::decode_entries_at(codec, in, (2 * b + 1) * row_words,
                                    row_entries, tl.row(lrow));
        }
      sloc[static_cast<std::size_t>(u) * batch + b] = std::move(sl);
      tloc[static_cast<std::size_t>(u) * batch + b] = std::move(tl);
    }
  });

  // Step 2 (local): linear combinations S_b^(w)[x1*, x2*], T_b^(w)[x1*,
  // x2*], built in flat per-sender scratch blocks with one
  // multiply-accumulate per coefficient (see scaled_accumulate). Step 3:
  // the B [shat, that] pairs encode into one staged span to node w, for
  // every w in [m].
  parallel_for(0, n, [&](int u) {
    std::vector<V> shat(blk_entries, ring.zero());
    std::vector<V> that(blk_entries, ring.zero());
    for (int w = 0; w < m; ++w) {
      // lint:allow(full-range-staging): owns_all() validated at entry.
      const auto msg = net.stage(u, w, 2 * batch * blk_words);
      for (std::size_t b = 0; b < batch; ++b) {
        const auto& sl = sloc[static_cast<std::size_t>(u) * batch + b];
        const auto& tl = tloc[static_cast<std::size_t>(u) * batch + b];
        std::fill(shat.begin(), shat.end(), ring.zero());
        std::fill(that.begin(), that.end(), ring.zero());
        for (const auto& cfc : alg.alpha[static_cast<std::size_t>(w)])
          detail::scaled_accumulate(
              ring, shat.data(), bs,
              sl.row((cfc.index / d) * bs) + (cfc.index % d) * bs, sq, bs,
              bs, cfc.coeff);
        for (const auto& cfc : alg.beta[static_cast<std::size_t>(w)])
          detail::scaled_accumulate(
              ring, that.data(), bs,
              tl.row((cfc.index / d) * bs) + (cfc.index % d) * bs, sq, bs,
              bs, cfc.coeff);
        codec.encode_into(std::span<const V>(shat.data(), blk_entries),
                          msg.data() + 2 * b * blk_words);
        codec.encode_into(std::span<const V>(that.data(), blk_entries),
                          msg.data() + (2 * b + 1) * blk_words);
      }
    }
  });
  net.deliver();

  // Step 4 (local at product nodes): assemble S_b^(w), T_b^(w), multiply.
  std::vector<Matrix<V>> phat(static_cast<std::size_t>(m) * batch);
  parallel_for(0, m, [&](int w) {
    std::vector<V> sbuf(blk_entries, ring.zero());
    std::vector<V> tbuf(blk_entries, ring.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      Matrix<V> sw(big, big, ring.zero());
      Matrix<V> tw(big, big, ring.zero());
      for (int x1 = 0; x1 < sq; ++x1)
        for (int x2 = 0; x2 < sq; ++x2) {
          const int u = label_of(x1, x2);
          const auto in = net.inbox(w, u);
          detail::decode_entries_at(codec, in, 2 * b * blk_words,
                                    blk_entries, sbuf.data());
          detail::decode_entries_at(codec, in, (2 * b + 1) * blk_words,
                                    blk_entries, tbuf.data());
          for (int i = 0; i < bs; ++i) {
            const auto* sp = sbuf.data() + static_cast<std::size_t>(i) * bs;
            const auto* tp = tbuf.data() + static_cast<std::size_t>(i) * bs;
            auto* swrow = sw.row(x1 * bs + i) + x2 * bs;
            auto* twrow = tw.row(x1 * bs + i) + x2 * bs;
            for (int j = 0; j < bs; ++j) {
              swrow[j] = sp[j];
              twrow[j] = tp[j];
            }
          }
        }
      phat[static_cast<std::size_t>(w) * batch + b] =
          local_multiply(ring, sw, tw);
    }
  });

  // Step 5: node w returns P_b^(w)[x1*, x2*] to label (x1, x2), the B
  // blocks concatenated (product b at word b * blk_words).
  parallel_for(0, m, [&](int w) {
    std::vector<V> tmp(blk_entries, ring.zero());
    for (int x1 = 0; x1 < sq; ++x1)
      for (int x2 = 0; x2 < sq; ++x2) {
        // lint:allow(full-range-staging): owns_all() validated at entry.
        const auto msg = net.stage(w, label_of(x1, x2), batch * blk_words);
        for (std::size_t b = 0; b < batch; ++b) {
          const auto& pw = phat[static_cast<std::size_t>(w) * batch + b];
          for (int i = 0; i < bs; ++i) {
            const auto* prow = pw.row(x1 * bs + i) + x2 * bs;
            auto* tp = tmp.data() + static_cast<std::size_t>(i) * bs;
            for (int j = 0; j < bs; ++j) tp[j] = prow[j];
          }
          codec.encode_into(std::span<const V>(tmp.data(), blk_entries),
                            msg.data() + b * blk_words);
        }
      }
  });
  net.deliver();

  // Step 6 (local): P_b[ix1*, jx2*] = sum_w lambda_ijw P_b^(w)[x1*, x2*],
  // assembled into the sq x sq local view P_b[*x1*, *x2*]. Pieces decode
  // into one flat scratch (m consecutive bs x bs blocks) and each lambda
  // coefficient applies as a single multiply-accumulate.
  std::vector<Matrix<V>> ploc(static_cast<std::size_t>(n) * batch);
  parallel_for(0, n, [&](int u) {
    std::vector<V> pieces(static_cast<std::size_t>(m) * blk_entries,
                          ring.zero());
    for (std::size_t b = 0; b < batch; ++b) {
      for (int w = 0; w < m; ++w)
        detail::decode_entries_at(
            codec, net.inbox(u, w), b * blk_words, blk_entries,
            pieces.data() + static_cast<std::size_t>(w) * blk_entries);
      Matrix<V> pl(sq, sq, ring.zero());
      for (int i = 0; i < d; ++i)
        for (int j = 0; j < d; ++j)
          for (const auto& cfc :
               alg.lambda[static_cast<std::size_t>(i * d + j)]) {
            const auto* piece = pieces.data() +
                                static_cast<std::size_t>(cfc.index) *
                                    blk_entries;
            detail::scaled_accumulate(ring, pl.row(i * bs) + j * bs, sq,
                                      piece, bs, bs, bs, cfc.coeff);
          }
      ploc[static_cast<std::size_t>(u) * batch + b] = std::move(pl);
    }
  });

  // Step 7: node (x1, x2) sends P_b[r, *x2*] to r for each r in *x1* — the
  // B contiguous local-view rows concatenated, encoded in place.
  parallel_for(0, sq * sq, [&](int u) {
    const int x1 = u / sq;
    for (int r1 = 0; r1 < d; ++r1)
      for (int r3 = 0; r3 < bs; ++r3) {
        const int r = r1 * big + x1 * bs + r3;
        // lint:allow(full-range-staging): owns_all() validated at entry.
        const auto msg = net.stage(u, r, batch * row_words);
        for (std::size_t b = 0; b < batch; ++b) {
          const auto& pl = ploc[static_cast<std::size_t>(u) * batch + b];
          codec.encode_into(
              std::span<const V>(pl.row(r1 * bs + r3), row_entries),
              msg.data() + b * row_words);
        }
      }
  });
  net.deliver();

  std::vector<Matrix<V>> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b)
    out.emplace_back(n, n, ring.zero());
  parallel_for(0, n, [&](int r) {
    const int r2 = (r / bs) % sq;
    std::vector<V> entries(row_entries, ring.zero());
    for (int x2 = 0; x2 < sq; ++x2) {
      const int u = label_of(r2, x2);
      const auto in = net.inbox(r, u);
      for (std::size_t b = 0; b < batch; ++b) {
        detail::decode_entries_at(codec, in, b * row_words, row_entries,
                                  entries.data());
        int lj = 0;
        for_each_col_x2(x2, [&](int j) {
          out[b](r, j) = entries[static_cast<std::size_t>(lj)];
          ++lj;
        });
      }
    }
  });
  return out;
}

/// Section 2.2 / Lemma 10 — fast bilinear matrix multiplication.
///
/// `alg` must be a bilinear algorithm for d x d matrices with m products,
/// with d | sqrt(net.n()) and m <= net.n(); tensor_power(strassen, k)
/// satisfies this for admissible sizes from plan_fast_mm. Runs in
/// O(n^{1 - 2/sigma}) rounds where m = d^sigma. This is the batch-of-one
/// instance of mm_fast_bilinear_batch; its staged traffic is byte-identical
/// to the historical single-product implementation.
template <Ring R, typename Codec>
[[nodiscard]] Matrix<typename R::Value> mm_fast_bilinear(
    clique::Network& net, const R& ring, const Codec& codec,
    const BilinearAlgorithm& alg, const Matrix<typename R::Value>& s,
    const Matrix<typename R::Value>& t) {
  using V = typename R::Value;
  auto res = mm_fast_bilinear_batch(
      net, ring, codec, alg, std::span<const Matrix<V>>(&s, 1),
      std::span<const Matrix<V>>(&t, 1));
  return std::move(res.front());
}

/// The trivial baseline: every node broadcasts its rows of both inputs so
/// everyone knows the full matrices, then computes its own output row
/// locally. Exactly 2n entries per ordered link, hence 2n * words_for(1)
/// rounds (direct schedule), charged without staging. In-process the
/// payload is not materialised. Under a sharded transport each rank
/// encodes its owned rows of t and all-gathers them (the charged broadcast
/// made real), then computes its owned output rows; non-owned rows stay
/// sr.zero(). Row v of s is all that node v's output row reads of s.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_naive_broadcast(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t) {
  using V = typename S::Value;
  const int n = net.n();
  CCA_EXPECTS(s.rows() == n && s.cols() == n);
  CCA_EXPECTS(t.rows() == n && t.cols() == n);
  if (n > 1)
    net.charge_rounds(2 * static_cast<std::int64_t>(n) *
                      static_cast<std::int64_t>(codec.words_for(1)));
  if (net.owns_all()) return multiply(sr, s, t);
  const clique::NodeSpan own = net.owned();
  const auto row_entries = static_cast<std::size_t>(n);
  const auto row_words = codec.words_for(row_entries);
  std::vector<clique::Word> words(row_entries * row_words);
  std::vector<std::size_t> offsets(row_entries + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) offsets[v] = v * row_words;
  for (int v = own.begin; v < own.end; ++v)
    codec.encode_into(std::span<const V>(t.row(v), row_entries),
                      words.data() + offsets[static_cast<std::size_t>(v)]);
  net.allgather_node_blocks(words, offsets);
  Matrix<V> full_t(n, n, sr.zero());
  for (int v = 0; v < n; ++v)
    detail::decode_entries_at(codec, std::span<const clique::Word>(words),
                              offsets[static_cast<std::size_t>(v)],
                              row_entries, full_t.row(v));
  Matrix<V> out(n, n, sr.zero());
  out.paste(own.begin, 0,
            multiply(sr, s.block(own.begin, 0, own.size(), n), full_t));
  return out;
}

/// The exact step-1 / step-3 demand lists mm_semiring_3d (batch B) stages
/// on an n-clique with block_words words per per-product block, including
/// the step-1 odd-group pad — canonical order, ready for
/// Network::prepare_schedule.
[[nodiscard]] std::pair<std::vector<clique::Demand>,
                        std::vector<clique::Demand>>
semiring3d_superstep_demands(int n, std::size_t block_words,
                             std::size_t batch = 1);

/// Planned KoenigRelay rounds of mm_semiring_3d (batch B): schedules the
/// demand lists above through net's cache, so a subsequent real run
/// replays the schedules. Excludes nothing — the 3D algorithm charges only
/// its two deliveries.
[[nodiscard]] std::int64_t semiring3d_planned_rounds(clique::Network& net,
                                                     int n,
                                                     std::size_t block_words,
                                                     std::size_t batch = 1);

/// The four superstep demand lists of mm_fast_bilinear (batch 1) for `alg`
/// on an n-clique with the given codec widths (row_words =
/// words_for(sqrt(n)), blk_words = words_for((sqrt(n)/d)^2)).
[[nodiscard]] std::vector<std::vector<clique::Demand>>
fast_bilinear_superstep_demands(int n, const BilinearAlgorithm& alg,
                                std::size_t row_words, std::size_t blk_words);

/// Planned KoenigRelay rounds of mm_fast_bilinear (batch 1) for `alg`.
[[nodiscard]] std::int64_t fast_bilinear_planned_rounds(
    clique::Network& net, int n, const BilinearAlgorithm& alg,
    std::size_t row_words, std::size_t blk_words);

/// Admissible clique size for the 3D algorithm: the next perfect cube.
[[nodiscard]] int semiring_clique_size(int n);

// Engine bodies of the production (semiring, codec) pairs (see
// CCA_MM_PRODUCTION_PAIRS) are compiled once, in mm_dense.cpp.
#define CCA_MM_DENSE_INSTANCE(EXTERN, S, C)                                 \
  EXTERN template std::vector<Matrix<S::Value>>                             \
  mm_semiring_3d_batch<S, C>(                                               \
      clique::Network&, const S&, const C&,                                 \
      std::span<const Matrix<S::Value>>, std::span<const Matrix<S::Value>>); \
  EXTERN template Matrix<S::Value> mm_naive_broadcast<S, C>(                \
      clique::Network&, const S&, const C&, const Matrix<S::Value>&,        \
      const Matrix<S::Value>&);
// The bilinear engine takes rings only: the integer and polynomial pairs.
#define CCA_MM_FAST_INSTANCE(EXTERN, R, C)                                  \
  EXTERN template std::vector<Matrix<R::Value>>                             \
  mm_fast_bilinear_batch<R, C>(                                             \
      clique::Network&, const R&, const C&, const BilinearAlgorithm&,       \
      std::span<const Matrix<R::Value>>, std::span<const Matrix<R::Value>>);
#define CCA_MM_DENSE_INSTANCES(EXTERN)                       \
  CCA_MM_PRODUCTION_PAIRS(CCA_MM_DENSE_INSTANCE, EXTERN)     \
  CCA_MM_FAST_INSTANCE(EXTERN, IntRing, I64Codec)            \
  CCA_MM_FAST_INSTANCE(EXTERN, PolyRing, PolyCodec)
CCA_MM_DENSE_INSTANCES(extern)

}  // namespace cca::core
