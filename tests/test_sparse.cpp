// The sparse multiplication subsystem: SparseCodec round-trips, the
// balanced triple-partition structure, sparse-vs-dense engine equivalence
// across every semiring, the planner/executor round agreement that
// MmKind::Auto's dispatch rests on, and the Auto engine itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "clique/network.hpp"
#include "core/apsp.hpp"
#include "core/counting.hpp"
#include "core/distance_product.hpp"
#include "core/engine.hpp"
#include "core/girth.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "matrix/poly.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

using core::MmKind;

// ---------------------------------------------------------------------------
// SparseCodec.
// ---------------------------------------------------------------------------

template <typename VC>
void roundtrip(const VC& values, const std::vector<std::uint32_t>& idx,
               const std::vector<typename VC::Value>& vals) {
  const SparseCodec<VC> c{values};
  ASSERT_EQ(idx.size(), vals.size());
  std::vector<EncodedWord> buf(c.words_for(idx.size()), 0xfefefefe);
  c.encode_into(idx, vals, buf.data());
  std::vector<std::uint32_t> idx2(idx.size(), 999);
  std::vector<typename VC::Value> vals2(vals.size());
  c.decode_into(buf.data(), idx.size(), idx2.data(), vals2.data());
  EXPECT_EQ(idx2, idx);
  EXPECT_EQ(vals2, vals);
}

TEST(SparseCodec, I64RoundTripIncludingEmptyAndDense) {
  const I64Codec vc;
  roundtrip(vc, {}, {});  // empty row
  roundtrip(vc, {7}, {std::int64_t{-5}});
  roundtrip(vc, {0, 3, 4}, {std::int64_t{1}, std::int64_t{1} << 60,
                            MinPlusSemiring::kInf});
  // All-dense row: every index present.
  std::vector<std::uint32_t> idx;
  std::vector<std::int64_t> vals;
  Rng rng(5);
  for (std::uint32_t j = 0; j < 129; ++j) {
    idx.push_back(j);
    vals.push_back(rng.next_in(-1000, 1000));
  }
  roundtrip(vc, idx, vals);
}

TEST(SparseCodec, WidthIsIndexWordsPlusValueBlock) {
  const SparseCodec<I64Codec> c;
  // Two 32-bit indices per word: odd counts leave a half word.
  EXPECT_EQ(c.words_for(0), 0u);
  EXPECT_EQ(c.words_for(1), 1u + 1u);
  EXPECT_EQ(c.words_for(2), 1u + 2u);
  EXPECT_EQ(c.words_for(3), 2u + 3u);
  // PackedBool values keep the 64-entries-per-word packing, and words_for
  // stays exact at non-64-multiple counts (the PR 3 non-additivity pin).
  const SparseCodec<PackedBoolCodec> b;
  EXPECT_EQ(b.words_for(63), 32u + 1u);
  EXPECT_EQ(b.words_for(64), 32u + 1u);
  EXPECT_EQ(b.words_for(65), 33u + 2u);
  EXPECT_NE(b.words_for(33) + b.words_for(33), b.words_for(66));
}

TEST(SparseCodec, PackedBoolRoundTripAtNonWordMultiples) {
  const PackedBoolCodec vc;
  Rng rng(11);
  for (const std::size_t cnt : {1u, 63u, 64u, 65u, 130u}) {
    std::vector<std::uint32_t> idx;
    std::vector<std::uint8_t> vals;
    for (std::size_t x = 0; x < cnt; ++x) {
      idx.push_back(static_cast<std::uint32_t>(3 * x + 1));
      vals.push_back(rng.chance(1, 2) ? 1 : 0);
    }
    roundtrip(vc, idx, vals);
  }
}

TEST(SparseCodec, TwoBlockLayoutDecodesAtExplicitOffsets) {
  // Two blocks packed back to back in one message, second decoded at the
  // first's exact word offset — the layout the distribute phase ships.
  const SparseCodec<I64Codec> c;
  const std::vector<std::uint32_t> ia{4, 9};
  const std::vector<std::int64_t> va{-1, 17};
  const std::vector<std::uint32_t> ib{0, 2, 5};
  const std::vector<std::int64_t> vb{3, -3, 30};
  std::vector<EncodedWord> buf(c.words_for(2) + c.words_for(3), 0);
  c.encode_into(ia, va, buf.data());
  c.encode_into(ib, vb, buf.data() + c.words_for(2));
  std::vector<std::uint32_t> idx(3);
  std::vector<std::int64_t> vals(3);
  c.decode_into(buf.data() + c.words_for(2), 3, idx.data(), vals.data());
  EXPECT_EQ(idx, ib);
  EXPECT_EQ(vals, vb);
  c.decode_into(buf.data(), 2, idx.data(), vals.data());
  EXPECT_EQ(idx[1], 9u);
  EXPECT_EQ(vals[1], 17);
}

// ---------------------------------------------------------------------------
// Structure / planner.
// ---------------------------------------------------------------------------

core::SparsePattern pattern_of(const Matrix<std::int64_t>& m) {
  return core::sparse_pattern(IntRing{}, m);
}

/// The deterministic traffic fields (schedule-cache counters and wall-clock
/// telemetry excluded).
void expect_deterministic_stats_eq(const clique::TrafficStats& got,
                                   const clique::TrafficStats& want) {
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.bound_rounds, want.bound_rounds);
  EXPECT_EQ(got.supersteps, want.supersteps);
  EXPECT_EQ(got.total_words, want.total_words);
  EXPECT_EQ(got.max_node_send, want.max_node_send);
  EXPECT_EQ(got.max_node_recv, want.max_node_recv);
}

Matrix<std::int64_t> random_sparse_matrix(int n, std::int64_t nnz,
                                          std::uint64_t seed,
                                          std::int64_t lo = 1,
                                          std::int64_t hi = 100) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  std::int64_t placed = 0;
  while (placed < nnz) {
    const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (m(i, j) != 0) continue;
    std::int64_t v = 0;
    while (v == 0) v = rng.next_in(lo, hi);
    m(i, j) = v;
    ++placed;
  }
  return m;
}

TEST(SparseStructure, ChunkBoundsPartitionExactly) {
  for (int cnt = 1; cnt <= 17; ++cnt)
    for (int g = 1; g <= cnt; ++g) {
      int covered = 0;
      int prev_end = 0;
      for (int r = 0; r < g; ++r) {
        const auto [lo, hi] = core::sparse_chunk_bounds(cnt, g, r);
        EXPECT_EQ(lo, prev_end);
        EXPECT_GT(hi, lo);  // g <= cnt: no empty chunk
        covered += hi - lo;
        prev_end = hi;
      }
      EXPECT_EQ(covered, cnt);
    }
}

TEST(SparseStructure, TripleCountMatchesDefinition) {
  const auto a = random_sparse_matrix(20, 60, 1);
  const auto b = random_sparse_matrix(20, 45, 2);
  const auto pa = pattern_of(a);
  const auto pb = pattern_of(b);
  std::int64_t want = 0;
  for (int k = 0; k < 20; ++k) {
    std::int64_t col = 0;
    for (int i = 0; i < 20; ++i) col += a(i, k) != 0 ? 1 : 0;
    want += col * static_cast<std::int64_t>(pb[static_cast<std::size_t>(k)].size());
  }
  EXPECT_EQ(core::sparse_triple_count(20, pa, pb), want);
}

TEST(SparseStructure, WorkerGroupsCoverTriplesAndStayDistinct) {
  const int n = 24;
  const auto a = random_sparse_matrix(n, 140, 3);
  const auto b = random_sparse_matrix(n, 120, 4);
  const I64Codec codec;
  const auto st = core::build_sparse_mm_structure(
      n, pattern_of(a), pattern_of(b),
      [&](std::size_t c) { return codec.words_for(c); });
  ASSERT_FALSE(st.trivial);
  std::int64_t groups = 0;
  for (int k = 0; k < n; ++k) {
    const auto ks = static_cast<std::size_t>(k);
    groups += st.group_size[ks];
    EXPECT_EQ(st.extras[ks].size(),
              static_cast<std::size_t>(std::max(0, st.group_size[ks] - 1)));
    // Extras are distinct and never the holder itself.
    auto ex = st.extras[ks];
    std::sort(ex.begin(), ex.end());
    EXPECT_TRUE(std::adjacent_find(ex.begin(), ex.end()) == ex.end());
    for (const int w : ex) EXPECT_NE(w, k);
  }
  // sum g_k <= 2n: at most one extra worker of slack per intermediate.
  EXPECT_LE(groups, 2 * n);
}

// The planner's demand lists are exactly what the executor stages: planned
// rounds == measured rounds, and the planning pre-warms the schedule cache
// so the staged run's supersteps are all cache hits.
TEST(SparsePlanner, PlannedRoundsMatchMeasuredRun) {
  const int n = 27;
  const auto a = random_sparse_matrix(n, 90, 5);
  const auto b = random_sparse_matrix(n, 110, 6);
  const I64Codec codec;
  const auto st = core::build_sparse_mm_structure(
      n, pattern_of(a), pattern_of(b),
      [&](std::size_t c) { return codec.words_for(c); });
  clique::Network net(n);
  const auto planned = 2 + net.prepare_schedule(st.gather) +
                       net.prepare_schedule(st.distribute) +
                       net.prepare_schedule(st.contribute);
  (void)core::mm_semiring_sparse(net, IntRing{}, codec, a, b);
  EXPECT_EQ(net.stats().rounds, planned);
  EXPECT_EQ(net.stats().schedule_misses, 0);
}

TEST(SparsePlanner, Semiring3dPlanMatchesMeasuredRun) {
  const int n = 27;
  const I64Codec codec;
  clique::Network net(n);
  const auto planned = core::semiring3d_planned_rounds(net, n, codec.words_for(9));
  const auto a = random_sparse_matrix(n, 200, 7);
  (void)core::mm_semiring_3d(net, IntRing{}, codec, a, a);
  EXPECT_EQ(net.stats().rounds, planned);
  EXPECT_EQ(net.stats().schedule_misses, 0);
}

TEST(SparsePlanner, FastBilinearPlanMatchesMeasuredRun) {
  const auto plan = core::plan_fast_mm(49, 2);
  const I64Codec codec;
  clique::Network net(plan.clique_n);
  const auto alg = tensor_power(strassen_algorithm(), 2);
  const int sq = static_cast<int>(isqrt(plan.clique_n));
  const int bs = sq / alg.d;
  const auto planned = core::fast_bilinear_planned_rounds(
      net, plan.clique_n, alg,
      codec.words_for(static_cast<std::size_t>(sq)),
      codec.words_for(static_cast<std::size_t>(bs) * bs));
  const auto a = core::pad_matrix(random_sparse_matrix(49, 300, 8),
                                  plan.clique_n, std::int64_t{0});
  (void)core::mm_fast_bilinear(net, IntRing{}, codec, alg, a, a);
  EXPECT_EQ(net.stats().rounds, planned);
  EXPECT_EQ(net.stats().schedule_misses, 0);
}

// The skip gate's soundness: the relay lower bound must never exceed the
// actual Koenig schedule, on the real engine shapes (the review probe that
// caught the n-1 divisor: the relay spreads over n links per phase, and at
// n=64 the fast-bilinear steps schedule BELOW the n-1 bound).
TEST(SparsePlanner, RelayLowerBoundNeverExceedsSchedule) {
  const I64Codec codec;
  for (const int n : {27, 64}) {
    clique::Network net(n);
    const auto c = icbrt(n);
    const auto steps = core::semiring3d_superstep_demands(
        n, codec.words_for(static_cast<std::size_t>(c * c)));
    EXPECT_LE(core::relay_round_lower_bound(n, steps.first),
              net.prepare_schedule(steps.first));
    EXPECT_LE(core::relay_round_lower_bound(n, steps.second),
              net.prepare_schedule(steps.second));
  }
  {
    const int n = 64;  // 8^2: admits depth-1 and depth-2 tensor powers
    clique::Network net(n);
    for (const int depth : {1, 2}) {
      const auto alg = tensor_power(strassen_algorithm(), depth);
      const int bs = 8 / alg.d;
      for (const auto& step : core::fast_bilinear_superstep_demands(
               n, alg, codec.words_for(8),
               codec.words_for(static_cast<std::size_t>(bs) * bs)))
        EXPECT_LE(core::relay_round_lower_bound(n, step),
                  net.prepare_schedule(step))
            << "depth " << depth;
    }
  }
  {
    const auto a = random_sparse_matrix(30, 120, 77);
    const auto b = random_sparse_matrix(30, 150, 78);
    const auto st = core::build_sparse_mm_structure(
        30, pattern_of(a), pattern_of(b),
        [&](std::size_t cnt) { return codec.words_for(cnt); });
    clique::Network net(30);
    for (const auto* phase : {&st.gather, &st.distribute, &st.contribute})
      EXPECT_LE(core::relay_round_lower_bound(30, *phase),
                net.prepare_schedule(*phase));
  }
}

TEST(SparsePlanner, BuildFreeLowerBoundNeverExceedsPlannedRounds) {
  // The build-free sparse_round_lower_bound_batch is what the Auto
  // dispatcher uses to SKIP building and scheduling a sparse plan; its
  // soundness (never above the rounds the real plan would charge) is
  // exactly what makes the skip safe. The bound internally quantises and
  // aligns its per-pair charges with the same sparse_count_bucket /
  // sparse_msg_align the builder uses — alignment is monotone, so the
  // aligned underestimate stays below the real (aligned) message sizes.
  // Batches add per-node volumes across products, which must stay below
  // the schedules of the MERGED demand lists.
  const I64Codec codec;
  const auto vw = [&](std::size_t c) { return codec.words_for(c); };
  int cases = 0;
  for (const auto& [n, nnz_a, nnz_b, seed, batch] :
       {std::tuple{20, 60, 80, 101, 1}, std::tuple{27, 200, 150, 102, 1},
        std::tuple{30, 400, 400, 103, 1}, std::tuple{16, 16, 240, 104, 1},
        std::tuple{27, 120, 100, 105, 3}}) {
    std::vector<core::SparsePattern> sa, sb;
    std::vector<core::SparseMmStructure> sts;
    for (int b = 0; b < batch; ++b) {
      const auto s = static_cast<std::uint64_t>(seed + 10 * b);
      sa.push_back(pattern_of(random_sparse_matrix(n, nnz_a, s)));
      sb.push_back(pattern_of(random_sparse_matrix(n, nnz_b, s + 1)));
      sts.push_back(core::build_sparse_mm_structure(n, sa.back(), sb.back(),
                                                    vw));
    }
    const auto lb = core::sparse_round_lower_bound_batch(
        n, std::span<const core::SparsePattern>(sa),
        std::span<const core::SparsePattern>(sb), vw);
    clique::Network net(n);
    const auto planned = core::sparse_planned_rounds_batch(
        net, std::span<const core::SparseMmStructure>(sts));
    EXPECT_GT(lb, 0) << "n=" << n << " seed=" << seed;
    EXPECT_LE(lb, planned) << "n=" << n << " seed=" << seed;
    ++cases;
  }
  EXPECT_EQ(cases, 5);
}

TEST(SparsePlanner, QuantisedShapesRepeatAcrossInBucketDrift) {
  // Demand-shape quantisation: distribute / contribute message sizes are
  // functions of the BUCKETED per-row counts (sparse_count_bucket), so an
  // iterate whose counts drift within their buckets stages byte-identical
  // phase demand lists and the next iteration's schedules come from the
  // ScheduleCache without a fresh Euler split. Here S's support is fixed
  // (the gather phase is exact by design) while every T row grows from 9
  // to 12 distinct columns — both in the (8, 16] bucket.
  const int n = 12;
  const I64Codec codec;
  const auto vw = [&](std::size_t c) { return codec.words_for(c); };
  const auto s = random_sparse_matrix(n, 40, 55);
  Matrix<std::int64_t> t1(n, n, 0), t2(n, n, 0);
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < 12; ++j) {
      t2(k, (k + j) % n) = 1 + j;
      if (j < 9) t1(k, (k + j) % n) = 1 + j;
    }
  }
  const auto st1 = core::build_sparse_mm_structure(n, pattern_of(s),
                                                   pattern_of(t1), vw);
  const auto st2 = core::build_sparse_mm_structure(n, pattern_of(s),
                                                   pattern_of(t2), vw);
  EXPECT_EQ(st1.group_size, st2.group_size);
  EXPECT_EQ(st1.gather, st2.gather);
  EXPECT_EQ(st1.distribute, st2.distribute);
  EXPECT_EQ(st1.contribute, st2.contribute);

  // End-to-end: the second product's supersteps all replay cached
  // schedules (zero fresh misses), with results still exact.
  clique::Network net(n);
  (void)core::mm_semiring_sparse(net, IntRing{}, codec, s, t1);
  const auto misses_after_first = net.stats().schedule_misses;
  const auto got = core::mm_semiring_sparse(net, IntRing{}, codec, s, t2);
  EXPECT_EQ(net.stats().schedule_misses, misses_after_first);
  EXPECT_GT(net.stats().schedule_hits, 0);
  EXPECT_EQ(got, multiply(IntRing{}, s, t2));
}

// ---------------------------------------------------------------------------
// Engine equivalence across semirings.
// ---------------------------------------------------------------------------

TEST(SparseEquivalence, IntRingMatchesDenseEngine) {
  for (const int n : {8, 27}) {  // non-cube and cube sizes both admissible
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto a = random_sparse_matrix(n, n * 3 / 2, 10 + seed, -50, 50);
      const auto b = random_sparse_matrix(n, n * 2, 20 + seed, -50, 50);
      clique::Network net(n);
      const auto got = core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, a, b);
      EXPECT_EQ(got, multiply(IntRing{}, a, b)) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(SparseEquivalence, IntRingMatchesSemiring3dExactly) {
  const int n = 27;
  const auto a = random_sparse_matrix(n, 100, 31, -9, 9);
  const auto b = random_sparse_matrix(n, 80, 32, -9, 9);
  clique::Network net1(n), net2(n);
  const auto sparse = core::mm_semiring_sparse(net1, IntRing{}, I64Codec{}, a, b);
  const auto dense = core::mm_semiring_3d(net2, IntRing{}, I64Codec{}, a, b);
  EXPECT_EQ(sparse, dense);
}

TEST(SparseEquivalence, BooleanWithByteAndPackedCodecs) {
  const int n = 20;
  Rng rng(41);
  Matrix<std::uint8_t> a(n, n, 0), b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.chance(1, 5) ? 1 : 0;
      b(i, j) = rng.chance(1, 5) ? 1 : 0;
    }
  const auto want = multiply(BoolSemiring{}, a, b);
  clique::Network net1(n), net2(n);
  EXPECT_EQ(core::mm_semiring_sparse(net1, BoolSemiring{}, ByteCodec{}, a, b),
            want);
  EXPECT_EQ(
      core::mm_semiring_sparse(net2, BoolSemiring{}, PackedBoolCodec{}, a, b),
      want);
  // Packed value blocks make the sparse messages strictly cheaper.
  EXPECT_LE(net2.stats().total_words, net1.stats().total_words);
}

TEST(SparseEquivalence, MinPlusWithNegativeWeightsAndInfinities) {
  const int n = 18;
  constexpr auto inf = MinPlusSemiring::kInf;
  Rng rng(43);
  Matrix<std::int64_t> a(n, n, inf), b(n, n, inf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (rng.chance(1, 4)) a(i, j) = rng.next_in(-30, 30);
      if (rng.chance(1, 4)) b(i, j) = rng.next_in(-30, 30);
    }
  const auto want = multiply(MinPlusSemiring{}, a, b);
  clique::Network net(n);
  EXPECT_EQ(core::mm_semiring_sparse(net, MinPlusSemiring{}, I64Codec{}, a, b),
            want);
}

TEST(SparseEquivalence, PolynomialRing) {
  const int n = 9;
  const int cap = 4;
  const PolyRing ring{cap};
  Rng rng(47);
  Matrix<CappedPoly> a(n, n, ring.zero()), b(n, n, ring.zero());
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (rng.chance(1, 3))
        a(i, j) = CappedPoly::monomial(cap, static_cast<int>(rng.next_below(cap)));
      if (rng.chance(1, 3))
        b(i, j) = CappedPoly::monomial(cap, static_cast<int>(rng.next_below(cap)));
    }
  const auto want = multiply(ring, a, b);
  clique::Network net(n);
  EXPECT_EQ(core::mm_semiring_sparse(net, ring, PolyCodec{cap}, a, b), want);
}

TEST(SparseEquivalence, EmptyAndDegenerateInputs) {
  const int n = 12;
  const Matrix<std::int64_t> zero(n, n, 0);
  const auto a = random_sparse_matrix(n, 30, 51);
  {
    // Empty factor: the announcement alone settles it — 1 round.
    clique::Network net(n);
    EXPECT_EQ(core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, zero, a),
              zero);
    EXPECT_EQ(net.stats().rounds, 1);
  }
  {
    // Disjoint support (T == 0): product is zero but the gather and the
    // column announcement still run.
    Matrix<std::int64_t> l(n, n, 0), r(n, n, 0);
    for (int i = 0; i < n; ++i) l(i, 0) = 1;  // only column 0
    for (int k = 1; k < n; ++k) r(k, k) = 1;  // rows 1..n-1
    clique::Network net(n);
    EXPECT_EQ(core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, l, r), zero);
  }
  {
    clique::Network net(1);
    Matrix<std::int64_t> s(1, 1, 3), t(1, 1, 5);
    EXPECT_EQ(core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, s, t)(0, 0),
              15);
    EXPECT_EQ(net.stats().rounds, 0);
  }
}

TEST(SparseEquivalence, DenseInputsStillCorrect) {
  // The sparse engine is round-hopeless on dense inputs but must stay
  // correct: Auto relies on result-identity, not on never running it.
  const int n = 10;
  Rng rng(53);
  Matrix<std::int64_t> a(n, n, 0), b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.next_in(-5, 5);
      b(i, j) = rng.next_in(-5, 5);
    }
  clique::Network net(n);
  EXPECT_EQ(core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, a, b),
            multiply(IntRing{}, a, b));
}

// ---------------------------------------------------------------------------
// Sparse beats dense in the sparse regime (the Table-1 sparsity claim).
// ---------------------------------------------------------------------------

TEST(SparseRounds, BeatsSemiring3dAtNnzNPow1_5) {
  // Strictly better from n = 64, and >= 2x from n = 125 on (the committed
  // BENCH_mm.json pins 2.5x at 125 growing to >4x at 343 — the factor
  // increases with n because the sparse rounds stay near-constant at this
  // density while the dense engine grows as n^{1/3}).
  for (const int n : {64, 125}) {
    const auto nnz = static_cast<std::int64_t>(n) * isqrt(n);  // ~ n^{3/2}
    const auto a = random_sparse_matrix(n, nnz, 61);
    const auto b = random_sparse_matrix(n, nnz, 62);
    clique::Network net1(n), net2(n);
    const auto sparse = core::mm_semiring_sparse(net1, IntRing{}, I64Codec{}, a, b);
    const auto dense = core::mm_semiring_3d(net2, IntRing{}, I64Codec{}, a, b);
    EXPECT_EQ(sparse, dense);
    const auto factor = n >= 125 ? 2 : 1;
    EXPECT_LT(factor * net1.stats().rounds, net2.stats().rounds)
        << "n=" << n << " sparse=" << net1.stats().rounds
        << " dense=" << net2.stats().rounds;
  }
}

// ---------------------------------------------------------------------------
// Auto dispatch.
// ---------------------------------------------------------------------------

TEST(AutoEngine, PicksSparseAndMatchesItExactlyOnSparseInputs) {
  const int n = 64;
  const auto a = random_sparse_matrix(n, 512, 71);
  const auto b = random_sparse_matrix(n, 512, 72);
  const core::IntMmEngine engine(MmKind::Auto, n);
  ASSERT_EQ(engine.clique_n(), n);
  clique::Network net_auto(n), net_sparse(n), net_dense(n), net_fast(n);
  const auto got = engine.multiply(net_auto, a, b);
  EXPECT_EQ(got, multiply(IntRing{}, a, b));
  // Auto == the fixed sparse engine, bit for bit in rounds (the
  // announcement is shared, not repeated).
  (void)core::mm_semiring_sparse(net_sparse, IntRing{}, I64Codec{}, a, b);
  EXPECT_EQ(net_auto.stats().rounds, net_sparse.stats().rounds);
  // And no fixed engine beats it at this density (64 = 4^3 = 8^2 admits all
  // three fixed engines).
  (void)core::mm_semiring_3d(net_dense, IntRing{}, I64Codec{}, a, b);
  EXPECT_LE(net_auto.stats().rounds, net_dense.stats().rounds);
  const core::IntMmEngine fast(MmKind::Fast, n);
  ASSERT_EQ(fast.clique_n(), n);
  (void)fast.multiply(net_fast, a, b);
  EXPECT_LE(net_auto.stats().rounds, net_fast.stats().rounds);
}

TEST(AutoEngine, FallsBackToDenseWithinOneRoundOnDenseInputs) {
  const int n = 27;
  Rng rng(83);
  Matrix<std::int64_t> a(n, n, 0), b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.next_in(1, 9);
      b(i, j) = rng.next_in(1, 9);
    }
  const core::IntMmEngine engine(MmKind::Auto, n);
  clique::Network net_auto(n), net_dense(n);
  const auto got = engine.multiply(net_auto, a, b);
  EXPECT_EQ(got, multiply(IntRing{}, a, b));
  (void)core::mm_semiring_3d(net_dense, IntRing{}, I64Codec{}, a, b);
  // The dense fallback pays exactly the dense engine plus the one
  // announcement round.
  EXPECT_EQ(net_auto.stats().rounds, net_dense.stats().rounds + 1);
}

TEST(AutoEngine, BatchDispatchesAndMatchesSequential) {
  const int n = 27;
  std::vector<Matrix<std::int64_t>> as, bs;
  for (std::uint64_t b = 0; b < 3; ++b) {
    as.push_back(random_sparse_matrix(n, 100, 90 + b));
    bs.push_back(random_sparse_matrix(n, 100, 95 + b));
  }
  const core::IntMmEngine engine(MmKind::Auto, n);
  clique::Network net(n);
  const auto got = engine.multiply_batch(
      net, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  ASSERT_EQ(got.size(), 3u);
  for (std::size_t b = 0; b < 3; ++b)
    EXPECT_EQ(got[b], multiply(IntRing{}, as[b], bs[b])) << "product " << b;
}

TEST(AutoEngine, PadsNonCubeSizesLikeSemiring3d) {
  const core::IntMmEngine engine(MmKind::Auto, 20);
  EXPECT_EQ(engine.clique_n(), 27);
  EXPECT_DOUBLE_EQ(engine.rho(), 1.0 / 3.0);
}

// ---------------------------------------------------------------------------
// Applications: sparse-path triangle counting, sparsity-aware distance
// product, girth with the Auto engine.
// ---------------------------------------------------------------------------

TEST(SparseApplications, TriangleCountingWithAutoEngine) {
  const auto g = random_sparse_graph(40, 100, 101);
  const auto want = ref_count_triangles(g);
  const auto fast = core::count_triangles_cc(g, MmKind::Fast);
  const auto got = core::count_triangles_cc(g, MmKind::Auto);
  EXPECT_EQ(got.count, want);
  EXPECT_LE(got.traffic.rounds, fast.traffic.rounds);
}

TEST(SparseApplications, PowerLawTriangles) {
  const auto g = power_law_graph(60, 150, 2.2, 7);
  EXPECT_EQ(core::count_triangles_cc(g, MmKind::Auto).count,
            ref_count_triangles(g));
}

TEST(SparseApplications, DistanceProductAutoMatchesDense) {
  const int n = 22;  // not a cube: min-plus Auto must still work
  const auto g = random_weighted_graph(n, 0.15, 1, 20, 11);
  const auto w = g.weight_matrix();
  clique::Network net(n);
  const auto got =
      core::mm_semiring_auto(net, MinPlusSemiring{}, I64Codec{}, w, w);
  EXPECT_EQ(got, multiply(MinPlusSemiring{}, w, w));
  EXPECT_GT(net.stats().rounds, 0);
}

TEST(SparseApplications, GirthThresholdDispatchWorksWithAuto) {
  const auto g = petersen_graph();
  const auto r = core::girth_undirected_cc(g, 5, MmKind::Auto);
  EXPECT_EQ(r.girth, 5);
}

// ---------------------------------------------------------------------------
// Witness products on the sparse engine: the min-plus-with-witness semiring
// (zero {inf, -1}, a genuine additive identity and two-sided annihilator)
// lifted onto the sparse path must agree with the dense 3D witness product.
// ---------------------------------------------------------------------------

Matrix<std::int64_t> random_minplus_matrix(int n, int finite_one_in,
                                           std::uint64_t seed,
                                           std::int64_t lo = 1,
                                           std::int64_t hi = 40) {
  constexpr auto inf = MinPlusSemiring::kInf;
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, inf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (rng.chance(1, static_cast<std::uint64_t>(finite_one_in)))
        m(i, j) = rng.next_in(lo, hi);
  return m;
}

TEST(SparseWitness, SparseAndDenseWitnessProductsAgree) {
  // Distances must be element-identical. Witness TIES could in principle
  // differ between engines, so the contract asserted for the witnesses is
  // the documented one: every returned witness must reconstruct an optimal
  // split, S(u, q) + T(q, v) == dist(u, v).
  constexpr auto inf = MinPlusSemiring::kInf;
  const int n = 27;
  for (const std::uint64_t seed : {201ull, 202ull}) {
    const auto s = random_minplus_matrix(n, 5, seed);
    const auto t = random_minplus_matrix(n, 5, seed + 50);
    clique::Network net_sparse(n), net_dense(n);
    const auto sp = core::dp_semiring_witness_sparse(net_sparse, s, t);
    const auto de = core::dp_semiring_witness(net_dense, s, t);
    EXPECT_EQ(sp.dist, de.dist);
    for (const auto* r : {&sp, &de})
      for (int u = 0; u < n; ++u)
        for (int v = 0; v < n; ++v) {
          if (r->dist(u, v) >= inf) {
            EXPECT_EQ(r->witness(u, v), -1);
            continue;
          }
          const int q = r->witness(u, v);
          ASSERT_GE(q, 0);
          ASSERT_LT(q, n);
          ASSERT_LT(s(u, q), inf);
          ASSERT_LT(t(q, v), inf);
          EXPECT_EQ(s(u, q) + t(q, v), r->dist(u, v)) << u << "," << v;
        }
    // At this sparsity the witness product is strictly cheaper sparse.
    EXPECT_LT(net_sparse.stats().rounds, net_dense.stats().rounds);
  }
}

TEST(SparseWitness, NegativeWeightsRoundTripThroughSparseEngine) {
  // The witness codec bit-casts entries, so negative tropical weights must
  // survive the sparse wire format too. (n is a cube so the dense witness
  // comparator is admissible; the sparse engine itself takes any n.)
  const int n = 27;
  const auto s = random_minplus_matrix(n, 4, 301, -30, 30);
  const auto t = random_minplus_matrix(n, 4, 302, -30, 30);
  clique::Network net1(n), net2(n);
  const auto sp = core::dp_semiring_witness_sparse(net1, s, t);
  const auto de = core::dp_semiring_witness(net2, s, t);
  EXPECT_EQ(sp.dist, de.dist);
  EXPECT_EQ(sp.dist, multiply(MinPlusSemiring{}, s, t));
}

// ---------------------------------------------------------------------------
// Batched sparse engine.
// ---------------------------------------------------------------------------

TEST(SparseBatch, BatchOfOneIsTrafficIdenticalToSingleProduct) {
  const int n = 24;
  const auto a = random_sparse_matrix(n, 80, 401);
  const auto b = random_sparse_matrix(n, 90, 402);
  clique::Network net1(n), net2(n);
  const auto single = core::mm_semiring_sparse(net1, IntRing{}, I64Codec{},
                                               a, b);
  const auto batch = core::mm_semiring_sparse_batch(
      net2, IntRing{}, I64Codec{},
      std::span<const Matrix<std::int64_t>>(&a, 1),
      std::span<const Matrix<std::int64_t>>(&b, 1));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], single);
  expect_deterministic_stats_eq(net1.stats(), net2.stats());

  // The same identity for the Auto dispatcher, cache counters and engine
  // trace included.
  clique::Network net3(n), net4(n);
  core::MmDispatchContext ctx3, ctx4;
  const auto auto_single =
      core::mm_semiring_auto(net3, IntRing{}, I64Codec{}, a, b, &ctx3);
  const auto auto_batch = core::mm_semiring_auto_batch(
      net4, IntRing{}, I64Codec{},
      std::span<const Matrix<std::int64_t>>(&a, 1),
      std::span<const Matrix<std::int64_t>>(&b, 1), &ctx4);
  ASSERT_EQ(auto_batch.size(), 1u);
  EXPECT_EQ(auto_batch[0], auto_single);
  EXPECT_EQ(auto_single, single);
  expect_deterministic_stats_eq(net3.stats(), net4.stats());
  EXPECT_EQ(net3.stats().schedule_hits, net4.stats().schedule_hits);
  EXPECT_EQ(net3.stats().schedule_misses, net4.stats().schedule_misses);
  EXPECT_EQ(ctx3.trace, ctx4.trace);
  ASSERT_EQ(ctx3.trace.size(), 1u);
  EXPECT_EQ(ctx3.trace[0], core::AutoEngineChoice::Sparse);
}

TEST(SparseBatch, AutoPickingSparseChargesExactlyTheSparseBatch) {
  // The Auto dispatcher and the sparse front door share one announcement
  // helper, so an Auto batch that picks the sparse engine moves exactly the
  // sparse batch's traffic: same rounds AND same supersteps / words (the
  // announcement is a charged broadcast, not a staged superstep).
  const int n = 27;
  const std::size_t batch = 3;
  std::vector<Matrix<std::int64_t>> as, bs;
  for (std::size_t b = 0; b < batch; ++b) {
    as.push_back(random_sparse_matrix(n, 60, 800 + b));
    bs.push_back(random_sparse_matrix(n, 60, 820 + b));
  }
  clique::Network net_auto(n), net_sparse(n);
  core::MmDispatchContext ctx;
  const auto got = core::mm_semiring_auto_batch(
      net_auto, IntRing{}, I64Codec{},
      std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs), &ctx);
  const auto want = core::mm_semiring_sparse_batch(
      net_sparse, IntRing{}, I64Codec{},
      std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  ASSERT_EQ(ctx.trace.size(), 1u);
  ASSERT_EQ(ctx.trace[0], core::AutoEngineChoice::Sparse);
  EXPECT_EQ(got, want);
  expect_deterministic_stats_eq(net_auto.stats(), net_sparse.stats());
  // The dispatcher's planning warms the schedule cache, so its staged
  // supersteps are hits where the direct call misses; the number of
  // scheduled supersteps is the same.
  EXPECT_EQ(net_auto.stats().schedule_hits + net_auto.stats().schedule_misses,
            net_sparse.stats().schedule_hits +
                net_sparse.stats().schedule_misses);
  EXPECT_EQ(net_auto.stats().schedule_misses, 0);
}

TEST(SparseBatch, BatchOf8MatchesSequentialWithStrictlyFewerRounds) {
  const int n = 26;
  const std::size_t batch = 8;
  std::vector<Matrix<std::int64_t>> as, bs;
  for (std::size_t b = 0; b < batch; ++b) {
    as.push_back(random_sparse_matrix(n, 70, 500 + b));
    bs.push_back(random_sparse_matrix(n, 80, 520 + b));
  }
  std::int64_t seq_rounds = 0;
  std::vector<Matrix<std::int64_t>> seq;
  for (std::size_t b = 0; b < batch; ++b) {
    clique::Network net(n);
    seq.push_back(
        core::mm_semiring_sparse(net, IntRing{}, I64Codec{}, as[b], bs[b]));
    seq_rounds += net.stats().rounds;
  }
  clique::Network net(n);
  const auto got = core::mm_semiring_sparse_batch(
      net, IntRing{}, I64Codec{}, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  ASSERT_EQ(got.size(), batch);
  for (std::size_t b = 0; b < batch; ++b)
    EXPECT_EQ(got[b], seq[b]) << "product " << b;
  // Shared supersteps spread the merged demand over otherwise-idle links:
  // strictly fewer rounds than the 8 sequential runs.
  EXPECT_LT(net.stats().rounds, seq_rounds);
}

TEST(SparseBatch, PlannedRoundsMatchMeasuredBatchRun) {
  const int n = 22;
  const std::size_t batch = 3;
  std::vector<Matrix<std::int64_t>> as, bs;
  std::vector<core::SparseMmStructure> sts(batch);
  const I64Codec codec;
  for (std::size_t b = 0; b < batch; ++b) {
    as.push_back(random_sparse_matrix(n, 60, 600 + b));
    bs.push_back(random_sparse_matrix(n, 66, 620 + b));
    sts[b] = core::build_sparse_mm_structure(
        n, pattern_of(as[b]), pattern_of(bs[b]),
        [&](std::size_t c) { return codec.words_for(c); });
  }
  clique::Network net(n);
  const auto planned =
      static_cast<std::int64_t>(batch) +
      core::sparse_planned_rounds_batch(
          net, std::span<const core::SparseMmStructure>(sts));
  (void)core::mm_semiring_sparse_batch(
      net, IntRing{}, codec, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  EXPECT_EQ(net.stats().rounds, planned);
  EXPECT_EQ(net.stats().schedule_misses, 0);
}

TEST(SparseBatch, TrivialMembersRideAlongForFree) {
  const int n = 16;
  const Matrix<std::int64_t> zero(n, n, 0);
  const auto a = random_sparse_matrix(n, 40, 701);
  const auto b = random_sparse_matrix(n, 44, 702);
  std::vector<Matrix<std::int64_t>> as{a, zero};
  std::vector<Matrix<std::int64_t>> bs{b, b};
  clique::Network net(n);
  const auto got = core::mm_semiring_sparse_batch(
      net, IntRing{}, I64Codec{}, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  EXPECT_EQ(got[0], multiply(IntRing{}, a, b));
  EXPECT_EQ(got[1], zero);
}

// ---------------------------------------------------------------------------
// Per-iteration dispatch: the densification flip.
// ---------------------------------------------------------------------------

TEST(DensificationTrace, PowerLawApspFlipsSparseToDenseOnce) {
  // Heavy-tailed degrees, m ~ 2.5n: the weight matrix is sparse, its square
  // fills in fast. The per-iteration dispatcher must run the FIRST squaring
  // sparse and flip to the locked dense engine at iteration index 1 —
  // never to return (hysteresis), because min-plus squaring densifies
  // monotonically.
  auto g = power_law_graph(60, 150, 2.2, 7);
  const auto r = core::apsp_semiring(g);
  ASSERT_GE(r.engine_trace.size(), 2u);
  EXPECT_EQ(r.engine_trace[0], core::AutoEngineChoice::Sparse);
  EXPECT_EQ(r.engine_trace[1], core::AutoEngineChoice::Semiring3D);
  for (std::size_t i = 2; i < r.engine_trace.size(); ++i)
    EXPECT_EQ(r.engine_trace[i], core::AutoEngineChoice::Semiring3D)
        << "hysteresis must keep the dense lock at iteration " << i;
}

TEST(DensificationTrace, HysteresisSkipsTheAnnouncementRound) {
  // Two identical dense products through one context: the first pays the
  // announcement (dense engine + 1), the second replays the locked engine
  // with no announcement — exactly the fixed engine's rounds.
  const int n = 27;
  Rng rng(83);
  Matrix<std::int64_t> a(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) a(i, j) = rng.next_in(1, 9);
  clique::Network net(n), net_fixed(n);
  core::MmDispatchContext ctx;
  const I64Codec codec;
  (void)core::mm_semiring_auto(net, IntRing{}, codec, a, a, &ctx);
  const auto first = net.stats().rounds;
  (void)core::mm_semiring_auto(net, IntRing{}, codec, a, a, &ctx);
  const auto second = net.stats().rounds - first;
  (void)core::mm_semiring_3d(net_fixed, IntRing{}, codec, a, a);
  EXPECT_EQ(first, net_fixed.stats().rounds + 1);
  EXPECT_EQ(second, net_fixed.stats().rounds);
  ASSERT_EQ(ctx.trace.size(), 2u);
  EXPECT_EQ(ctx.trace[0], core::AutoEngineChoice::Semiring3D);
  EXPECT_EQ(ctx.trace[1], core::AutoEngineChoice::Semiring3D);
}

}  // namespace
}  // namespace cca
