// Integration tests: distributed matrix multiplication (Sections 2.1/2.2)
// against local reference products, across semirings, sizes, and engines —
// plus socketpair'd P=2 runs pinning the ownership-generic engine layer
// (sharded Auto dispatch, the sparse batch, batched APSP, and fault
// injection under the socket backend) bit-identical to the single-process
// arena oracle, P=3 runs covering odd P with schedule-cache misses (the
// split shared over the ranks) and hits, directed girth and Seidel at
// P=2 and P=3, and the broadcast_reduce primitive. Every multi-rank run
// sits under a watchdog, so a deadlock fails the test instead of hanging.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "clique/fault.hpp"
#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "clique/socket_transport.hpp"
#include "clique/transport.hpp"
#include "core/apsp.hpp"
#include "core/baseline.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/engine.hpp"
#include "core/girth.hpp"
#include "core/mm.hpp"
#include "graph/generators.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "matrix/semiring.hpp"
#include "matrix/strassen.hpp"
#include "util/rng.hpp"

namespace cca::core {
namespace {

Matrix<std::int64_t> random_int_matrix(int n, std::uint64_t seed,
                                       std::int64_t lo = -9,
                                       std::int64_t hi = 9) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(lo, hi);
  return m;
}

Matrix<std::int64_t> random_minplus_matrix(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, MinPlusSemiring::kInf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (rng.chance(3, 4)) m(i, j) = rng.next_in(0, 50);
  return m;
}

// ---------------------------------------------------------------------------
// Semiring 3D algorithm (Section 2.1).
// ---------------------------------------------------------------------------

class Semiring3dSizes : public ::testing::TestWithParam<int> {};

TEST_P(Semiring3dSizes, MatchesLocalIntegerProduct) {
  const int n = GetParam();
  clique::Network net(n);
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_int_matrix(n, 100 + static_cast<std::uint64_t>(n));
  const auto b = random_int_matrix(n, 200 + static_cast<std::uint64_t>(n));
  const auto got = mm_semiring_3d(net, ring, codec, a, b);
  EXPECT_EQ(got, multiply(ring, a, b));
}

TEST_P(Semiring3dSizes, MatchesLocalMinPlusProduct) {
  const int n = GetParam();
  clique::Network net(n);
  const MinPlusSemiring sr;
  const I64Codec codec;
  const auto a = random_minplus_matrix(n, 300 + static_cast<std::uint64_t>(n));
  const auto b = random_minplus_matrix(n, 400 + static_cast<std::uint64_t>(n));
  const auto got = mm_semiring_3d(net, sr, codec, a, b);
  EXPECT_EQ(got, multiply(sr, a, b));
}

TEST_P(Semiring3dSizes, MatchesLocalBooleanProduct) {
  const int n = GetParam();
  clique::Network net(n);
  const BoolSemiring sr;
  const ByteCodec codec;
  Rng rng(500 + static_cast<std::uint64_t>(n));
  Matrix<std::uint8_t> a(n, n, 0);
  Matrix<std::uint8_t> b(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.chance(1, 3) ? 1 : 0;
      b(i, j) = rng.chance(1, 3) ? 1 : 0;
    }
  const auto got = mm_semiring_3d(net, sr, codec, a, b);
  EXPECT_EQ(got, multiply(sr, a, b));
}

INSTANTIATE_TEST_SUITE_P(PerfectCubes, Semiring3dSizes,
                         ::testing::Values(1, 8, 27, 64, 125, 216));

TEST(Semiring3d, RoundsGrowSubLinearly) {
  // Normalized rounds/n must decline as n grows (the schedule is
  // ~6 n^{1/3} with the Koenig relay) and stay far below the naive 2n.
  double prev_norm = 1e9;
  for (const int n : {27, 64, 125, 216}) {
    clique::Network net(n);
    const IntRing ring;
    const I64Codec codec;
    const auto a = random_int_matrix(n, 7);
    const auto b = random_int_matrix(n, 8);
    (void)mm_semiring_3d(net, ring, codec, a, b);
    const auto rounds = net.stats().rounds;
    EXPECT_LT(rounds, 2 * n);  // beats the naive broadcast algorithm
    const double norm = static_cast<double>(rounds) / n;
    EXPECT_LT(norm, prev_norm);
    prev_norm = norm;
  }
}

TEST(Semiring3d, ObliviousIdenticalRoundsAcrossInputs) {
  // The communication pattern must not depend on matrix values.
  const int n = 64;
  const IntRing ring;
  const I64Codec codec;
  std::int64_t rounds1 = 0;
  std::int64_t rounds2 = 0;
  {
    clique::Network net(n);
    (void)mm_semiring_3d(net, ring, codec, random_int_matrix(n, 1),
                         random_int_matrix(n, 2));
    rounds1 = net.stats().rounds;
  }
  {
    clique::Network net(n);
    (void)mm_semiring_3d(net, ring, codec, Matrix<std::int64_t>(n, n, 0),
                         Matrix<std::int64_t>(n, n, 0));
    rounds2 = net.stats().rounds;
  }
  EXPECT_EQ(rounds1, rounds2);
}

// ---------------------------------------------------------------------------
// Fast bilinear algorithm (Section 2.2).
// ---------------------------------------------------------------------------

struct FastCase {
  int n;      // problem size (pre-padding)
  int depth;  // Strassen tensor power
};

class FastMmCases : public ::testing::TestWithParam<FastCase> {};

TEST_P(FastMmCases, MatchesLocalProductAfterPadding) {
  const auto [n, depth] = GetParam();
  const auto plan = plan_fast_mm(n, depth);
  ASSERT_GE(plan.clique_n, n);
  ASSERT_EQ(plan.m, static_cast<int>(ipow(7, depth)));
  clique::Network net(plan.clique_n);
  const IntRing ring;
  const I64Codec codec;
  const auto alg = tensor_power(strassen_algorithm(), depth);
  const auto a0 = random_int_matrix(n, 42 + static_cast<std::uint64_t>(n));
  const auto b0 = random_int_matrix(n, 43 + static_cast<std::uint64_t>(n));
  const auto a = pad_matrix(a0, plan.clique_n, std::int64_t{0});
  const auto b = pad_matrix(b0, plan.clique_n, std::int64_t{0});
  const auto got = mm_fast_bilinear(net, ring, codec, alg, a, b);
  const auto want = multiply(ring, a, b);
  EXPECT_EQ(got, want);
  // The real corner matches the unpadded product.
  EXPECT_EQ(got.block(0, 0, n, n), multiply(ring, a0, b0));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDepths, FastMmCases,
    ::testing::Values(FastCase{4, 0}, FastCase{9, 0}, FastCase{16, 1},
                      FastCase{25, 1}, FastCase{49, 1}, FastCase{36, 1},
                      FastCase{64, 2}, FastCase{49, 2}, FastCase{100, 2},
                      FastCase{121, 2}));

TEST(FastMm, WorksWithSchoolbookBilinearAlgorithm) {
  // Lemma 10 holds for ANY bilinear algorithm; check with <2,2,2;8>.
  const int n = 16;
  const auto alg = tensor_power(schoolbook_algorithm(2), 1);
  ASSERT_EQ(alg.m, 8);
  clique::Network net(n);
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_int_matrix(n, 77);
  const auto b = random_int_matrix(n, 78);
  EXPECT_EQ(mm_fast_bilinear(net, ring, codec, alg, a, b),
            multiply(ring, a, b));
}

TEST(FastMm, TrivialAlgorithmDepthZero) {
  // depth 0 = the <1,1,1;1> algorithm: one "block product" of the whole
  // matrix hosted at node 0 — degenerate but legal.
  const int n = 9;
  const auto alg = tensor_power(strassen_algorithm(), 0);
  clique::Network net(n);
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_int_matrix(n, 5);
  const auto b = random_int_matrix(n, 6);
  EXPECT_EQ(mm_fast_bilinear(net, ring, codec, alg, a, b),
            multiply(ring, a, b));
}

TEST(FastMm, ObliviousIdenticalRoundsAcrossInputs) {
  const auto plan = plan_fast_mm(49, 1);
  const IntRing ring;
  const I64Codec codec;
  const auto alg = tensor_power(strassen_algorithm(), 1);
  std::int64_t r1 = 0;
  std::int64_t r2 = 0;
  {
    clique::Network net(plan.clique_n);
    (void)mm_fast_bilinear(
        net, ring, codec, alg,
        pad_matrix(random_int_matrix(49, 1), plan.clique_n, std::int64_t{0}),
        pad_matrix(random_int_matrix(49, 2), plan.clique_n, std::int64_t{0}));
    r1 = net.stats().rounds;
  }
  {
    clique::Network net(plan.clique_n);
    const Matrix<std::int64_t> z(plan.clique_n, plan.clique_n, 0);
    (void)mm_fast_bilinear(net, ring, codec, alg, z, z);
    r2 = net.stats().rounds;
  }
  EXPECT_EQ(r1, r2);
}

TEST(FastMm, SublinearScalingAlongMatchedDepthFamily) {
  // Theorem 1's shape claim for the implemented sigma = log2 7: along the
  // family where the tensor depth grows with n (m(d) ~ n), normalized
  // rounds/n must decline sharply, and every size must beat the naive 2n.
  // (The ABSOLUTE crossover against the 3D algorithm needs n beyond
  // laptop-scale simulation for Strassen's sigma; the exponent ordering is
  // the reproducible claim — see README.md, "Choosing an MmKind".)
  const IntRing ring;
  const I64Codec codec;
  double prev_norm = 1e9;
  const struct {
    int n;
    int depth;
  } cases[] = {{49, 2}, {576, 3}};
  for (const auto& c : cases) {
    const auto plan = plan_fast_mm(c.n, c.depth);
    clique::Network net(plan.clique_n);
    const auto alg = tensor_power(strassen_algorithm(), c.depth);
    const auto a = pad_matrix(random_int_matrix(c.n, 11, 0, 3), plan.clique_n,
                              std::int64_t{0});
    (void)mm_fast_bilinear(net, ring, codec, alg, a, a);
    const auto rounds = net.stats().rounds;
    EXPECT_LT(rounds, 2 * plan.clique_n);
    const double norm = static_cast<double>(rounds) / plan.clique_n;
    EXPECT_LT(norm, prev_norm);
    prev_norm = norm;
  }
}

TEST(FastMm, EngineRhoOrderingMatchesTable1) {
  // rho(fast) < rho(semiring) < rho(naive): the Table 1 ordering.
  const IntMmEngine fast(MmKind::Fast, 512, 3);
  const IntMmEngine semi(MmKind::Semiring3D, 512);
  const IntMmEngine naive(MmKind::Naive, 512);
  EXPECT_NEAR(fast.rho(), 1.0 - 2.0 / (std::log(7.0) / std::log(2.0)), 1e-9);
  EXPECT_LT(fast.rho(), semi.rho());
  EXPECT_LT(semi.rho(), naive.rho());
}

// ---------------------------------------------------------------------------
// Naive baseline and planning helpers.
// ---------------------------------------------------------------------------

TEST(NaiveMm, CorrectAndChargesTwoNRounds) {
  const int n = 32;
  clique::Network net(n);
  const IntRing ring;
  const auto a = random_int_matrix(n, 9);
  const auto b = random_int_matrix(n, 10);
  EXPECT_EQ(mm_naive_broadcast(net, ring, I64Codec{}, a, b),
            multiply(ring, a, b));
  EXPECT_EQ(net.stats().rounds, 2 * n);
}

TEST(Plans, SemiringCliqueSizeIsNextCube) {
  EXPECT_EQ(semiring_clique_size(1), 1);
  EXPECT_EQ(semiring_clique_size(8), 8);
  EXPECT_EQ(semiring_clique_size(9), 27);
  EXPECT_EQ(semiring_clique_size(100), 125);
  EXPECT_EQ(semiring_clique_size(126), 216);
}

TEST(Plans, FastPlanRespectsConstraints) {
  for (const int n : {1, 5, 10, 50, 100, 343, 500, 1000})
    for (int depth = 0; depth <= 3; ++depth) {
      const auto p = plan_fast_mm(n, depth);
      EXPECT_GE(p.clique_n, n);
      EXPECT_GE(p.clique_n, p.m);
      EXPECT_TRUE(is_perfect_square(p.clique_n));
      EXPECT_EQ(isqrt(p.clique_n) % p.d, 0);
    }
}

TEST(Plans, AutoPlanPicksFittingDepth) {
  for (const int n : {1, 6, 7, 48, 49, 342, 343, 2400}) {
    const auto p = plan_fast_mm_auto(n);
    EXPECT_LE(p.m, std::max(p.clique_n, 1));
    EXPECT_GE(p.clique_n, n);
  }
}

// ---------------------------------------------------------------------------
// Two ranks in one process over a socketpair: the ownership-generic engine
// layer against the single-process arena oracle (cf. tools/cca_node.cpp,
// which runs the same checks across real processes).
// ---------------------------------------------------------------------------

/// Build a P-rank mesh from one socketpair() per pair of ranks.
std::vector<std::shared_ptr<clique::SocketMesh>> socket_meshes(int procs) {
  const auto p = static_cast<std::size_t>(procs);
  std::vector<std::vector<int>> fds(p, std::vector<int>(p, -1));
  for (std::size_t a = 0; a < p; ++a)
    for (std::size_t b = a + 1; b < p; ++b) {
      int sv[2];
      EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      fds[a][b] = sv[0];
      fds[b][a] = sv[1];
    }
  std::vector<std::shared_ptr<clique::SocketMesh>> meshes;
  for (int r = 0; r < procs; ++r)
    meshes.push_back(std::make_shared<clique::SocketMesh>(
        r, procs, std::move(fds[static_cast<std::size_t>(r)])));
  return meshes;
}

/// Wall deadline for one run_ranks call. Every case here finishes in a few
/// seconds; ranks that diverge block on each other forever, so a watchdog
/// turns that hang into a failure naming the test.
constexpr std::chrono::seconds kRankDeadline{120};

/// Run one SPMD body per rank concurrently (deliver() blocks on the peers).
/// Aborts the process if the ranks have not all returned by kRankDeadline.
void run_ranks(int procs, const std::function<void(int)>& body) {
  std::mutex mu;
  std::condition_variable finished;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (finished.wait_for(lock, kRankDeadline, [&] { return done; })) return;
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    std::fprintf(stderr,
                 "run_ranks: %s.%s: %d ranks still running after %llds "
                 "(deadlock?); aborting\n",
                 test != nullptr ? test->test_suite_name() : "?",
                 test != nullptr ? test->name() : "?", procs,
                 static_cast<long long>(kRankDeadline.count()));
    std::abort();
  });
  std::vector<std::thread> peers;
  for (int r = 1; r < procs; ++r) peers.emplace_back([&body, r] { body(r); });
  body(0);
  for (auto& t : peers) t.join();
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  finished.notify_one();
  watchdog.join();
}

/// The deterministic TrafficStats fields (wall-clock telemetry excluded).
void expect_stats_eq(const clique::TrafficStats& got,
                     const clique::TrafficStats& want, int rank) {
  EXPECT_EQ(got.rounds, want.rounds) << "rank " << rank;
  EXPECT_EQ(got.bound_rounds, want.bound_rounds) << "rank " << rank;
  EXPECT_EQ(got.supersteps, want.supersteps) << "rank " << rank;
  EXPECT_EQ(got.total_words, want.total_words) << "rank " << rank;
  EXPECT_EQ(got.max_node_send, want.max_node_send) << "rank " << rank;
  EXPECT_EQ(got.max_node_recv, want.max_node_recv) << "rank " << rank;
  EXPECT_EQ(got.schedule_hits, want.schedule_hits) << "rank " << rank;
  EXPECT_EQ(got.schedule_misses, want.schedule_misses) << "rank " << rank;
  EXPECT_EQ(got.faults_injected, want.faults_injected) << "rank " << rank;
  EXPECT_EQ(got.retransmit_rounds, want.retransmit_rounds) << "rank " << rank;
  EXPECT_EQ(got.retransmit_words, want.retransmit_words) << "rank " << rank;
}

template <typename V>
void expect_owned_rows_eq(const Matrix<V>& got, const Matrix<V>& want,
                          clique::NodeSpan own, int rank) {
  for (int u = own.begin; u < std::min(own.end, got.rows()); ++u)
    for (int v = 0; v < got.cols(); ++v)
      ASSERT_EQ(got(u, v), want(u, v))
          << "rank " << rank << " entry (" << u << "," << v << ")";
}

TEST(SocketP2Engines, AutoBatchMatchesArenaOracleBitIdentically) {
  const int n = 8;
  const MinPlusSemiring sr;
  const I64Codec codec;
  std::vector<Matrix<std::int64_t>> as, bs;
  for (int b = 0; b < 3; ++b) {
    as.push_back(random_minplus_matrix(n, 600 + static_cast<std::uint64_t>(b)));
    bs.push_back(random_minplus_matrix(n, 700 + static_cast<std::uint64_t>(b)));
  }

  clique::Network oracle_net(n);
  MmDispatchContext oracle_ctx;
  const auto oracle = mm_semiring_auto_batch(
      oracle_net, sr, codec, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs), &oracle_ctx);

  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    clique::Network net(n);
    MmDispatchContext ctx;
    const auto got = mm_semiring_auto_batch(
        net, sr, codec, std::span<const Matrix<std::int64_t>>(as),
        std::span<const Matrix<std::int64_t>>(bs), &ctx);
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t b = 0; b < got.size(); ++b)
      expect_owned_rows_eq(got[b], oracle[b], net.owned(), r);
    EXPECT_EQ(ctx.trace, oracle_ctx.trace) << "rank " << r;
    expect_stats_eq(net.stats(), oracle_net.stats(), r);
  });
}

TEST(SocketP2Engines, SparseBatchMatchesArenaOracleBitIdentically) {
  // The sparse front door under sharding: each rank announces its owned
  // rows' nnz counts and repairs the non-owned pattern rows from the
  // census, so both ranks build the oracle's plan. A non-cube clique — the
  // sparse engine admits any n.
  const int n = 10;
  const IntRing ring;
  const I64Codec codec;
  auto sparse_matrix = [n](std::uint64_t seed) {
    Rng rng(seed);
    Matrix<std::int64_t> m(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (rng.chance(1, 5)) m(i, j) = rng.next_in(1, 9);
    return m;
  };
  std::vector<Matrix<std::int64_t>> as, bs;
  for (int b = 0; b < 3; ++b) {
    as.push_back(sparse_matrix(1000 + static_cast<std::uint64_t>(b)));
    bs.push_back(sparse_matrix(1100 + static_cast<std::uint64_t>(b)));
  }

  clique::Network oracle_net(n);
  const auto oracle = mm_semiring_sparse_batch(
      oracle_net, ring, codec, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));
  for (std::size_t b = 0; b < as.size(); ++b)
    ASSERT_EQ(oracle[b], multiply(ring, as[b], bs[b])) << "product " << b;

  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    clique::Network net(n);
    const auto got = mm_semiring_sparse_batch(
        net, ring, codec, std::span<const Matrix<std::int64_t>>(as),
        std::span<const Matrix<std::int64_t>>(bs));
    ASSERT_EQ(got.size(), oracle.size());
    for (std::size_t b = 0; b < got.size(); ++b)
      expect_owned_rows_eq(got[b], oracle[b], net.owned(), r);
    expect_stats_eq(net.stats(), oracle_net.stats(), r);
  });
}

TEST(SocketP2Engines, ApspBatchMatchesArenaOracleBitIdentically) {
  const int n = 8;
  std::vector<Graph> gs;
  for (int b = 0; b < 3; ++b)
    gs.push_back(random_weighted_graph(n, 0.35, 1, 50,
                                       900 + static_cast<std::uint64_t>(b)));
  const auto oracle = apsp_semiring_batch(gs, MmKind::Auto);

  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    const auto got = apsp_semiring_batch(gs, MmKind::Auto);
    const auto own = clique::shard_span(semiring_clique_size(n), 2, r);
    for (std::size_t b = 0; b < gs.size(); ++b)
      expect_owned_rows_eq(got.dist[b], oracle.dist[b], own, r);
    EXPECT_EQ(got.engine_trace, oracle.engine_trace) << "rank " << r;
    expect_stats_eq(got.traffic, oracle.traffic, r);
  });
}

TEST(SocketP2Engines, NaiveBroadcastMatchesArenaOracle) {
  // Each rank poisons the non-owned rows of t, as a sharded product leaves
  // them: the all-gather of the owned rows must supply the rest.
  const int n = 27;
  const IntRing ring;
  const I64Codec codec;
  const auto s = random_int_matrix(n, 41);
  const auto t = random_int_matrix(n, 42);
  clique::Network oracle_net(n);
  const auto oracle = mm_naive_broadcast(oracle_net, ring, codec, s, t);
  ASSERT_EQ(oracle, multiply(ring, s, t));

  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    clique::Network net(n);
    auto local_t = t;
    for (int v = 0; v < n; ++v)
      if (!net.owns(v))
        for (int j = 0; j < n; ++j) local_t(v, j) = 777;
    const auto got = mm_naive_broadcast(net, ring, codec, s, local_t);
    expect_owned_rows_eq(got, oracle, net.owned(), r);
    expect_stats_eq(net.stats(), oracle_net.stats(), r);
  });
}

// apsp_bounded / apsp_approx at n = 27 under P = 2. The arena oracle's
// Auto runs the bilinear engine for the embedded products; a sharded
// dispatch drops that full-ownership candidate and runs the naive
// broadcast, so the ranks charge other rounds than the oracle (Auto's
// candidate set still depends on P). The distances must equal the
// oracle's, and the two ranks must agree on every charge.
template <typename Solve>
void expect_sharded_apsp_agrees(const Graph& g, Solve&& solve) {
  const auto oracle = solve();
  std::vector<ApspOutcome> got(2);
  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    got[static_cast<std::size_t>(r)] = solve();
  });
  const int clique_n = plan_fast_mm_auto(g.n()).clique_n;
  for (int r = 0; r < 2; ++r)
    expect_owned_rows_eq(got[static_cast<std::size_t>(r)].dist, oracle.dist,
                         clique::shard_span(clique_n, 2, r), r);
  const auto& trace = got[0].engine_trace;
  EXPECT_NE(std::find(trace.begin(), trace.end(), AutoEngineChoice::Naive),
            trace.end());
  EXPECT_EQ(got[1].engine_trace, trace);
  expect_stats_eq(got[1].traffic, got[0].traffic, 1);
}

TEST(SocketP2Engines, BoundedApspRunsShardedWithOracleDistances) {
  const Graph g = random_weighted_graph(27, 0.3, 1, 4, 3);
  expect_sharded_apsp_agrees(g, [&] { return apsp_bounded(g, 8); });
}

TEST(SocketP2Engines, ApproxApspRunsShardedWithOracleDistances) {
  const Graph g = random_weighted_graph(27, 0.3, 1, 4, 3);
  expect_sharded_apsp_agrees(g, [&] { return apsp_approx(g, 0.5); });
}

TEST(SocketP2Engines, TriangleBatchMatchesArenaOracleBitIdentically) {
  // Owned-row partial sums synced by one broadcast per graph: the counts
  // are common knowledge on every rank, and the directed member's
  // transpose superstep stages only owned sources.
  const int n = 8;
  std::vector<Graph> gs;
  gs.push_back(gnp_random_graph(n, 0.5, 31));
  gs.push_back(gnp_random_graph(n, 0.4, 32, /*directed=*/true));
  gs.push_back(gnp_random_graph(n - 2, 0.6, 33));
  const auto oracle = count_triangles_cc_batch(gs, MmKind::Semiring3D);

  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    const auto got = count_triangles_cc_batch(gs, MmKind::Semiring3D);
    EXPECT_EQ(got.counts, oracle.counts) << "rank " << r;
    expect_stats_eq(got.traffic, oracle.traffic, r);
  });
}

TEST(SocketP2Engines, ColourCodingMatchesArenaOracle) {
  // Colour coding agrees on each trial's seed from node 0, which only rank
  // 0 owns: rank 1 must not stage for it.
  const Graph g = planted_cycle_graph(24, 5, 0.3, 7);
  for (const MmKind kind : {MmKind::Semiring3D, MmKind::Auto}) {
    const auto oracle = detect_k_cycle_cc(g, 5, 11, 2, kind);
    const auto meshes = socket_meshes(2);
    run_ranks(2, [&](int r) {
      clique::TransportScope scope(
          clique::SocketTransport::factory(meshes[r]));
      const auto got = detect_k_cycle_cc(g, 5, 11, 2, kind);
      EXPECT_EQ(got.found, oracle.found) << "rank " << r;
      EXPECT_EQ(got.trials, oracle.trials) << "rank " << r;
      expect_stats_eq(got.traffic, oracle.traffic, r);
    });
  }
}

TEST(SocketP2Engines, ColourCodingFastRaisesTypedError) {
  // The fast engine still needs full ownership; under sharding it refuses
  // with a typed error on every rank instead of aborting.
  const Graph g = planted_cycle_graph(24, 5, 0.3, 7);
  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    EXPECT_THROW((void)detect_k_cycle_cc(g, 5, 11, 2, MmKind::Fast),
                 InvalidArgument)
        << "rank " << r;
  });
}

TEST(SocketP2Engines, UndirectedGirthMatchesArenaOracle) {
  // G(27, 0.2) takes the learning path; G(27, 0.3) takes the dense path,
  // which agrees on the detection seed from node 0 first.
  for (const double p : {0.2, 0.3}) {
    const Graph g = gnp_random_graph(27, p, 3);
    const auto oracle = girth_undirected_cc(g, 5);
    ASSERT_EQ(oracle.used_sparse_path, p < 0.25) << "p " << p;
    const auto meshes = socket_meshes(2);
    run_ranks(2, [&](int r) {
      clique::TransportScope scope(
          clique::SocketTransport::factory(meshes[r]));
      const auto got = girth_undirected_cc(g, 5);
      EXPECT_EQ(got.girth, oracle.girth) << "p " << p << " rank " << r;
      EXPECT_EQ(got.used_sparse_path, oracle.used_sparse_path)
          << "p " << p << " rank " << r;
      expect_stats_eq(got.traffic, oracle.traffic, r);
    });
  }
}

TEST(SocketP2Engines, DolevRaisesTypedError) {
  // The Dolev et al. baseline stages from and reads every node; under
  // sharding it refuses with a typed error on every rank instead of
  // aborting on the first non-owned send.
  const Graph g = planted_cycle_graph(24, 5, 0.3, 7);
  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    EXPECT_THROW((void)detect_k_cycle_dolev(g, 5), InvalidArgument)
        << "rank " << r;
  });
}

// Directed girth decides its doubling exit and every binary-search branch
// on a diagonal-hit vote. Each rank holds only its owned rows of the
// powers, so a rank deciding on its own scan diverges from its peers and
// the ranks deadlock; these inputs hit that divergence at P = 2 and P = 3.
void expect_sharded_directed_girth(int procs) {
  const struct {
    int n;
    std::uint64_t seed;
  } cases[] = {{13, 7}, {12, 1}, {10, 3}};
  for (const auto& c : cases) {
    const Graph g = gnp_random_graph(c.n, 0.2, c.seed, /*directed=*/true);
    const auto oracle = girth_directed_cc(g);
    const auto meshes = socket_meshes(procs);
    run_ranks(procs, [&](int r) {
      clique::TransportScope scope(
          clique::SocketTransport::factory(meshes[r]));
      const auto got = girth_directed_cc(g);
      EXPECT_EQ(got.girth, oracle.girth)
          << "n " << c.n << " seed " << c.seed << " rank " << r;
      expect_stats_eq(got.traffic, oracle.traffic, r);
    });
  }
}

TEST(SocketP2Engines, DirectedGirthMatchesArenaOracle) {
  expect_sharded_directed_girth(2);
}

TEST(SocketP3Engines, DirectedGirthMatchesArenaOracle) {
  expect_sharded_directed_girth(3);
}

// Seidel computes every level over owned rows; its stability flag and
// degrees travel by broadcast, so owned distance rows and every charge
// equal the oracle's.
void expect_sharded_seidel(int procs) {
  for (const std::uint64_t seed : {1, 2}) {
    const Graph g = gnp_random_graph(13, 0.3, seed);
    const auto oracle = apsp_seidel(g);
    const int clique_n = IntMmEngine(MmKind::Auto, g.n()).clique_n();
    const auto meshes = socket_meshes(procs);
    run_ranks(procs, [&](int r) {
      clique::TransportScope scope(
          clique::SocketTransport::factory(meshes[r]));
      const auto got = apsp_seidel(g);
      expect_owned_rows_eq(got.dist, oracle.dist,
                           clique::shard_span(clique_n, procs, r), r);
      EXPECT_EQ(got.engine_trace, oracle.engine_trace) << "rank " << r;
      expect_stats_eq(got.traffic, oracle.traffic, r);
    });
  }
}

TEST(SocketP2Engines, SeidelMatchesArenaOracle) { expect_sharded_seidel(2); }

TEST(SocketP3Engines, SeidelMatchesArenaOracle) { expect_sharded_seidel(3); }

TEST(SocketP2Primitives, BroadcastReduceFoldsOwnedWordsOnEveryRank) {
  const int n = 5;
  const auto meshes = socket_meshes(2);
  run_ranks(2, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    clique::Network net(n);
    std::vector<int> calls;
    const auto sum = clique::broadcast_reduce(
        net,
        [&](int v) {
          calls.push_back(v);
          return v + 1;
        },
        std::plus<>());
    EXPECT_EQ(sum, clique::Word{15}) << "rank " << r;
    std::vector<int> owned;
    for (int v = net.owned().begin; v < net.owned().end; ++v)
      owned.push_back(v);
    EXPECT_EQ(calls, owned) << "rank " << r;
    EXPECT_EQ(net.stats().rounds, 1) << "rank " << r;
    EXPECT_EQ(net.stats().bound_rounds, 1) << "rank " << r;
    EXPECT_EQ(net.stats().total_words, 0) << "rank " << r;
    EXPECT_EQ(net.stats().supersteps, 0) << "rank " << r;
    // Only node 3 holds a 1: every rank sees the OR, including the rank
    // that does not own node 3.
    const auto any = clique::broadcast_reduce(
        net, [](int v) { return v == 3; }, std::bit_or<>());
    EXPECT_EQ(any, clique::Word{1}) << "rank " << r;
    EXPECT_EQ(net.stats().rounds, 2) << "rank " << r;
  });

  clique::Network single(1);
  const auto only = clique::broadcast_reduce(
      single, [](int v) { return v + 7; }, std::plus<>());
  EXPECT_EQ(only, clique::Word{7});
  EXPECT_EQ(single.stats().rounds, 0);
  EXPECT_EQ(single.stats().total_words, 0);
}

TEST(SocketP2Engines, FaultMixChargesBitIdenticallyAcrossFourSeeds) {
  const int n = 8;
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_int_matrix(n, 61);
  const auto b = random_int_matrix(n, 62);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    clique::FaultPlan plan;
    plan.seed = 0xfa11u ^ seed;
    plan.drop_prob = 0.05;
    plan.corrupt_prob = 0.05;
    plan.duplicate_prob = 0.02;

    clique::Network oracle_net(n);
    oracle_net.install_faults(plan);
    const auto oracle = mm_semiring_3d(oracle_net, ring, codec, a, b);
    ASSERT_GT(oracle_net.stats().faults_injected, 0)
        << "seed " << seed << " drew no faults — weaken the mix";

    const auto meshes = socket_meshes(2);
    run_ranks(2, [&](int r) {
      clique::TransportScope scope(
          clique::SocketTransport::factory(meshes[r]));
      clique::Network net(n);
      net.install_faults(plan);
      const auto got = mm_semiring_3d(net, ring, codec, a, b);
      expect_owned_rows_eq(got, oracle, net.owned(), r);
      expect_stats_eq(net.stats(), oracle_net.stats(), r);
    });
  }
}

TEST(SocketP3Engines, CacheMissesAndHitsChargeBitIdentically) {
  // Odd P through the all-peer exchange and the split's task deal. Two
  // products of one shape on one Network: the first misses the schedule
  // cache and runs the split shared over the three ranks, the second hits.
  const int n = 27;
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_int_matrix(n, 81);
  const auto b = random_int_matrix(n, 82);

  clique::Network oracle_net(n);
  (void)mm_semiring_3d(oracle_net, ring, codec, a, b);
  const auto oracle = mm_semiring_3d(oracle_net, ring, codec, b, a);
  ASSERT_GT(oracle_net.stats().schedule_misses, 0);
  ASSERT_GT(oracle_net.stats().schedule_hits, 0);

  const auto meshes = socket_meshes(3);
  run_ranks(3, [&](int r) {
    clique::TransportScope scope(clique::SocketTransport::factory(meshes[r]));
    clique::Network net(n);
    (void)mm_semiring_3d(net, ring, codec, a, b);
    const auto got = mm_semiring_3d(net, ring, codec, b, a);
    expect_owned_rows_eq(got, oracle, net.owned(), r);
    expect_stats_eq(net.stats(), oracle_net.stats(), r);
  });
}

}  // namespace
}  // namespace cca::core
