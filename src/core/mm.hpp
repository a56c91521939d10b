// The multiplication dispatch layer: the nnz-adaptive Auto dispatcher
// (mm_semiring_auto_batch) over the dense engines (core/mm_dense.hpp) and
// the sparse engine (core/mm_sparse.hpp), plus the round bounds and the
// planned-rounds cost model its branch-and-bound reads. Code that runs one
// engine directly includes that engine's header; code that only passes an
// MmDispatchContext through needs just core/engine.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "core/mm_dense.hpp"
#include "core/mm_sparse.hpp"

namespace cca::core {

/// Schedule-independent lower bound on the two-phase relay's rounds for a
/// demand list: every word must leave its source and reach its destination
/// through the n per-phase ports (the relay counts the self-loop hop as
/// free capacity, so the divisor is n, not n-1). Building a demand list is
/// cheap; the Euler split is not — the Auto dispatcher uses this bound to
/// SKIP scheduling a dense candidate that provably cannot beat the sparse
/// plan (sound: the actual schedule is never below the bound, so the
/// skipped engine never had the fewest rounds; ties go to the sparse
/// preference order anyway). test_sparse.cpp pins bound <= measured on the
/// real engine shapes.
[[nodiscard]] std::int64_t relay_round_lower_bound(
    int n, const std::vector<clique::Demand>& demands);

/// Build-free lower bound on sparse_planned_rounds_batch for B products
/// sharing every superstep, WITHOUT building the O(T) structures —
/// O(nnz + n) work per product: live (the column-count announcements of
/// the non-trivial products) plus one volume bound per merged phase; 0 when
/// every product is trivial. Per-node phase volumes add across products
/// (merged supersteps concatenate per-pair blocks). Gather and distribute
/// volumes are exact (they follow from the count profiles and the shared
/// quantised partition); contribute is a sound underestimate: each distinct
/// (worker, output row) pair ships one merged message whose entry count is
/// at least the largest contributing T-row count (the union can only be
/// larger, and the bucketed frame can only pad further). Each phase bound
/// is relay_round_lower_bound's divide-by-n argument applied to per-node
/// volumes. This is the gate that lets the Auto dispatcher skip building
/// and scheduling a sparse plan that provably cannot win — the densified
/// iterations of an APSP run drop from three Euler splits over millions of
/// plan-words to a sub-millisecond volume scan. Sound: never exceeds the
/// planned (hence charged) rounds — pinned by test_sparse.cpp.
[[nodiscard]] std::int64_t sparse_round_lower_bound_batch(
    int n, std::span<const SparsePattern> s_rows,
    std::span<const SparsePattern> t_rows,
    const std::function<std::size_t(std::size_t)>& value_words);

/// Triple-volume ceiling (~4 n^{7/3}) above which the Auto dispatcher does
/// not even build the sparse plan: past it the contribute phase dwarfs the
/// dense engines and the O(T) symbolic merge would be wasted work.
[[nodiscard]] std::int64_t sparse_plan_cap(int n);

/// Planned rounds of the staged sparse phases for B built structures
/// sharing every superstep (the mm_semiring_sparse_batch / Auto cost
/// model): live column-count announcements (one round per non-trivial
/// product) plus the schedules of the three MERGED demand lists —
/// per-product canonical demands summed per (src, dst), exactly what
/// Network::deliver derives from the batched staging — through net's
/// schedule cache, so a subsequent real run replays the schedules. 0 when
/// every product is trivial. When the partial sum already exceeds
/// `abort_above`, the remaining phases are NOT scheduled and the (partial,
/// already > abort_above) sum returns — sound for the dispatcher's strict
/// comparisons because the full plan can only be larger, and it saves the
/// losing candidate's residual Euler splits.
[[nodiscard]] std::int64_t sparse_planned_rounds_batch(
    clique::Network& net, std::span<const SparseMmStructure> sts,
    std::int64_t abort_above = std::numeric_limits<std::int64_t>::max());

/// nnz-adaptive dispatch for B products (B = 1 is a single product): the
/// B-round row-nnz announcement (detail::announce_sparse_patterns), then
/// the engine with the fewest PLANNED rounds runs — plans are exact (they
/// schedule the very demand lists the engines stage, through the net's
/// schedule cache, so a plan is never wrong and never wasted). The sparse
/// plan reuses the announcement as its own step 0, so Auto-chosen-sparse
/// charges exactly mm_semiring_sparse_batch's rounds; a dense choice pays
/// its engine plus the announcement. Planning itself is free local
/// computation, in the same sense the routing layer's schedule
/// construction is.
///
/// Candidates, each admitted by its own check:
///   * Sparse — the batched sparse engine, costed on the merged demand
///     lists; admitted while every product's triple volume T stays under
///     sparse_plan_cap(n) (beyond it the contribute phase alone dwarfs the
///     dense engines, and the O(T) symbolic merge would be wasted work), or
///     when no other candidate is admitted;
///   * Semiring3D — the batched 3D engine; n must be a perfect cube;
///   * Fast — the Section 2.2 engine for `fast_alg` (rings only; it must be
///     admissible for n); B = 1 only;
///   * Naive — the broadcast baseline; B = 1 only.
/// Ties prefer Sparse > Semiring3D > Fast > Naive. Any n >= 1 works. The
/// planner schedules with KoenigRelay, the router deliver() charges.
///
/// `ctx` (optional) makes the dispatch PER-ITERATION: once a dense engine
/// has won, the context's hysteresis skips announcement and planning (see
/// MmDispatchContext) and replays the batched 3D engine when B > 1 on a
/// cube, else the locked engine per product; either way the call adds one
/// trace entry naming the engine that ran.
template <Semiring S, typename Codec>
[[nodiscard]] std::vector<Matrix<typename S::Value>> mm_semiring_auto_batch(
    clique::Network& net, const S& sr, const Codec& codec,
    std::span<const Matrix<typename S::Value>> as,
    std::span<const Matrix<typename S::Value>> bs,
    MmDispatchContext* ctx = nullptr,
    const BilinearAlgorithm* fast_alg = nullptr) {
  using V = typename S::Value;
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const int n = net.n();
  const std::size_t batch = as.size();
  detail::expect_batch_shapes(n, as, bs);
  if (n == 1) {
    if (ctx != nullptr) ctx->trace.push_back(AutoEngineChoice::Sparse);
    return mm_semiring_sparse_batch(net, sr, codec, as, bs);  // no traffic
  }
  const bool cube = is_perfect_cube(n);
  // Single mapping from a dense pick to its engine, shared by the
  // hysteresis replay and the fresh dispatch below so the two cannot
  // drift apart.
  auto run_dense = [&](AutoEngineChoice pick) -> std::vector<Matrix<V>> {
    if (pick == AutoEngineChoice::Semiring3D)
      return mm_semiring_3d_batch(net, sr, codec, as, bs);
    std::vector<Matrix<V>> out;
    out.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) {
      if constexpr (Ring<S>) {
        if (pick == AutoEngineChoice::Fast) {
          CCA_EXPECTS(fast_alg != nullptr);
          out.push_back(
              mm_fast_bilinear(net, sr, codec, *fast_alg, as[b], bs[b]));
          continue;
        }
      }
      CCA_EXPECTS(pick == AutoEngineChoice::Naive);
      out.push_back(mm_naive_broadcast(net, sr, codec, as[b], bs[b]));
    }
    return out;
  };
  if (ctx != nullptr && ctx->dense_locked) {
    // Densification hysteresis: the locked dense engine replays directly,
    // with no announcement round and no pattern scan (see
    // MmDispatchContext — every node reached the same lock from the same
    // announcements, so nobody needs to announce again). The batched 3D
    // engine is the batch-shaped dense engine, so a Fast/Naive lock from
    // an earlier single product lands there too when it is admissible.
    const auto pick = batch > 1 && cube ? AutoEngineChoice::Semiring3D
                                        : ctx->locked_choice;
    ctx->trace.push_back(pick);
    return run_dense(pick);
  }
  const auto [s_rows, t_rows] =
      detail::announce_sparse_patterns(net, sr, as, bs);

  // Candidate costs AFTER the shared announcement. Planning is free in the
  // clique model but NOT on the host: the Euler split is the simulator's
  // wall-clock hot spot, and even BUILDING the O(T) sparse structures is
  // real work on densified iterates. So every candidate first gets a cheap
  // lower bound — the sparse one build-free
  // (sparse_round_lower_bound_batch) — and candidates are then costed for
  // real in ascending-bound order, skipping any whose bound cannot beat
  // (or, on a tie, out-prefer) the best actual so far, with the sparse
  // plan's remaining phases aborted as soon as its partial sum loses. The
  // skips are sound (actual rounds never undercut the bound) and
  // preference-preserving, so the pick is provably the one the unabridged
  // comparison makes; when a scheduled candidate IS chosen, the planning
  // was free anyway — the real run replays the cached schedules.
  const auto vw = [&](std::size_t c) { return codec.words_for(c); };
  std::pair<std::vector<clique::Demand>, std::vector<clique::Demand>>
      steps3d;
  std::int64_t semi3d_lb = kMax;
  if (cube) {
    const auto c2 = static_cast<std::size_t>(icbrt(n) * icbrt(n));
    steps3d = semiring3d_superstep_demands(n, codec.words_for(c2), batch);
    semi3d_lb = relay_round_lower_bound(n, steps3d.first) +
                relay_round_lower_bound(n, steps3d.second);
  }
  std::vector<std::vector<clique::Demand>> stepsf;
  std::int64_t fast_lb = kMax;
  if constexpr (Ring<S>) {
    if (fast_alg != nullptr && batch == 1) {
      stepsf = fast_bilinear_superstep_demands(
          n, *fast_alg, codec.words_for(static_cast<std::size_t>(isqrt(n))),
          codec.words_for(static_cast<std::size_t>(
              (isqrt(n) / fast_alg->d) * (isqrt(n) / fast_alg->d))));
      fast_lb = 0;
      for (const auto& step : stepsf)
        fast_lb += relay_round_lower_bound(n, step);
    }
  }
  const std::int64_t naive_cost =
      batch == 1 ? 2 * static_cast<std::int64_t>(n) *
                       static_cast<std::int64_t>(codec.words_for(1))
                 : kMax;
  bool sparse_adm = true;
  for (std::size_t b = 0; b < batch && sparse_adm; ++b)
    sparse_adm = sparse_triple_count(n, s_rows[b], t_rows[b]) <=
                 sparse_plan_cap(n);
  // No dense candidate at all (B > 1 on a non-cube clique) and a hopeless
  // triple volume: correctness wins — the sparse plan is the only engine.
  if (semi3d_lb == kMax && fast_lb == kMax && naive_cost == kMax)
    sparse_adm = true;
  const std::int64_t sparse_lb =
      sparse_adm ? sparse_round_lower_bound_batch(
                       n, std::span<const SparsePattern>(s_rows),
                       std::span<const SparsePattern>(t_rows), vw)
                 : kMax;

  // Candidates are costed in ascending (bound, preference) order — the
  // branch-and-bound heuristic: the lowest bound is the likeliest winner,
  // and once a winner's ACTUAL cost is known every remaining candidate
  // whose bound cannot beat it is skipped without scheduling a single
  // demand list. Evaluation order never affects the pick (every candidate
  // is either costed exactly, aborted at a value provably above the final
  // best, or skipped because its bound cannot win) — but it decides how
  // much losing plans cost on the host. A one-shot sparse-winning multiply
  // at n = 343 is the extreme case: sparse's actual (~18 rounds) is below
  // the dense bounds, so the dense engines' n^2-demand Euler splits
  // (hundreds of host ms, useless to the sparse run) are never computed.
  // Costing a candidate that the ITERATED workloads later run is free
  // either way: its schedules land in the ScheduleCache and the real run
  // replays them.
  std::vector<SparseMmStructure> sts(batch);
  std::int64_t best = kMax;
  AutoEngineChoice pick = AutoEngineChoice::Naive;
  int best_pref = 4;
  struct Cand {
    AutoEngineChoice choice;
    int pref;
    std::int64_t lb;
  };
  Cand cands[4] = {{AutoEngineChoice::Sparse, 0, sparse_lb},
                   {AutoEngineChoice::Semiring3D, 1, semi3d_lb},
                   {AutoEngineChoice::Fast, 2, fast_lb},
                   {AutoEngineChoice::Naive, 3, naive_cost}};
  std::sort(std::begin(cands), std::end(cands),
            [](const Cand& a, const Cand& b) {
              return a.lb != b.lb ? a.lb < b.lb : a.pref < b.pref;
            });
  for (const auto& cand : cands) {
    if (cand.lb == kMax) continue;  // inadmissible
    if (cand.lb > best || (cand.lb == best && cand.pref > best_pref))
      continue;  // cannot win: actual >= bound, and ties keep preference
    std::int64_t actual = kMax;
    switch (cand.choice) {
      case AutoEngineChoice::Sparse:
        for (std::size_t b = 0; b < batch; ++b)
          sts[b] = build_sparse_mm_structure(n, s_rows[b], t_rows[b], vw);
        actual = sparse_planned_rounds_batch(
            net, std::span<const SparseMmStructure>(sts), best);
        break;
      case AutoEngineChoice::Semiring3D:
        actual = net.prepare_schedule(steps3d.first);
        if (actual <= best)
          actual += net.prepare_schedule(steps3d.second);
        else
          actual = kMax;
        break;
      case AutoEngineChoice::Fast:
        actual = 0;
        for (const auto& step : stepsf) {
          actual += net.prepare_schedule(step);
          if (actual > best) {
            actual = kMax;
            break;
          }
        }
        break;
      case AutoEngineChoice::Naive:
        actual = naive_cost;
        break;
    }
    if (actual < best || (actual == best && cand.pref < best_pref)) {
      best = actual;
      pick = cand.choice;
      best_pref = cand.pref;
    }
  }
  if (ctx != nullptr) {
    ctx->trace.push_back(pick);
    if (pick != AutoEngineChoice::Sparse) {
      // The iterate densifies monotonically, so a dense winner stays the
      // winner: lock it and stop re-announcing.
      ctx->dense_locked = true;
      ctx->locked_choice = pick;
    }
  }
  if (pick == AutoEngineChoice::Sparse)
    return detail::mm_semiring_sparse_staged_batch(
        net, sr, codec, as, bs, std::span<const SparseMmStructure>(sts));
  return run_dense(pick);
}

/// nnz-adaptive dispatch of one product: the batch-of-one instance of
/// mm_semiring_auto_batch.
template <Semiring S, typename Codec>
[[nodiscard]] Matrix<typename S::Value> mm_semiring_auto(
    clique::Network& net, const S& sr, const Codec& codec,
    const Matrix<typename S::Value>& s, const Matrix<typename S::Value>& t,
    MmDispatchContext* ctx = nullptr,
    const BilinearAlgorithm* fast_alg = nullptr) {
  using V = typename S::Value;
  auto res = mm_semiring_auto_batch(net, sr, codec,
                                    std::span<const Matrix<V>>(&s, 1),
                                    std::span<const Matrix<V>>(&t, 1), ctx,
                                    fast_alg);
  return std::move(res.front());
}


// Dispatcher bodies of the production (semiring, codec) pairs (see
// CCA_MM_PRODUCTION_PAIRS) are compiled once, in mm.cpp.
#define CCA_MM_AUTO_INSTANCE(EXTERN, S, C)                                  \
  EXTERN template std::vector<Matrix<S::Value>>                             \
  mm_semiring_auto_batch<S, C>(                                             \
      clique::Network&, const S&, const C&,                                 \
      std::span<const Matrix<S::Value>>, std::span<const Matrix<S::Value>>, \
      MmDispatchContext*, const BilinearAlgorithm*);
CCA_MM_PRODUCTION_PAIRS(CCA_MM_AUTO_INSTANCE, extern)

}  // namespace cca::core
