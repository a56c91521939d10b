// Batched multiply engine: B independent products through shared
// supersteps must be element-identical to B sequential runs, and must cost
// strictly fewer total rounds than the B runs executed as independent
// queries (each on its own Network) — the multi-query serving scenario the
// batch engine exists for (cf. Le Gall, "Further Algebraic Algorithms in
// the Congested Clique": running multiple MM instances at once).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "clique/network.hpp"
#include "core/apsp.hpp"
#include "core/counting.hpp"
#include "core/distance_product.hpp"
#include "core/engine.hpp"
#include "core/mm_dense.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

using core::MmKind;

Matrix<std::int64_t> random_matrix(int n, std::uint64_t seed,
                                   std::int64_t lo = 0,
                                   std::int64_t hi = 1000) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(lo, hi);
  return m;
}

struct SeqRun {
  std::vector<Matrix<std::int64_t>> results;
  std::int64_t rounds = 0;  ///< summed over the B per-query networks
};

SeqRun run_sequential(const core::IntMmEngine& engine,
                      const std::vector<Matrix<std::int64_t>>& as,
                      const std::vector<Matrix<std::int64_t>>& bs) {
  SeqRun out;
  for (std::size_t b = 0; b < as.size(); ++b) {
    clique::Network net(engine.clique_n());
    out.results.push_back(engine.multiply(net, as[b], bs[b]));
    out.rounds += net.stats().rounds;
  }
  return out;
}

class BatchEngineSweep
    : public ::testing::TestWithParam<std::pair<MmKind, int>> {};

TEST_P(BatchEngineSweep, BatchOf8MatchesSequentialWithStrictlyFewerRounds) {
  const auto [kind, n] = GetParam();
  const std::size_t batch = 8;
  const core::IntMmEngine engine(kind, n);
  const int big = engine.clique_n();
  std::vector<Matrix<std::int64_t>> as, bs;
  for (std::size_t b = 0; b < batch; ++b) {
    as.push_back(core::pad_matrix(random_matrix(n, 2 * b + 1), big,
                                  std::int64_t{0}));
    bs.push_back(core::pad_matrix(random_matrix(n, 2 * b + 2), big,
                                  std::int64_t{0}));
  }

  const auto seq = run_sequential(engine, as, bs);

  clique::Network net(big);
  const auto got = engine.multiply_batch(
      net, std::span<const Matrix<std::int64_t>>(as),
      std::span<const Matrix<std::int64_t>>(bs));

  ASSERT_EQ(got.size(), batch);
  for (std::size_t b = 0; b < batch; ++b)
    EXPECT_EQ(got[b], seq.results[b]) << "product " << b;
  // The acceptance claim: shared supersteps beat B per-query runs outright.
  EXPECT_LT(net.stats().rounds, seq.rounds);
  // One schedule per superstep: the whole batch misses at most once per
  // distinct superstep shape.
  EXPECT_LE(net.stats().schedule_misses,
            net.stats().supersteps);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, BatchEngineSweep,
    ::testing::Values(std::pair<MmKind, int>{MmKind::Semiring3D, 27},
                      std::pair<MmKind, int>{MmKind::Semiring3D, 64},
                      std::pair<MmKind, int>{MmKind::Fast, 49}));

TEST(BatchEngine, BatchOfOneIsBitIdenticalToSingleProduct) {
  // The single-product entry points are batch-of-one wrappers; their
  // traffic must be byte-identical (the regression suite pins absolute
  // stats — this pins the equivalence for both engines directly).
  for (const auto kind : {MmKind::Semiring3D, MmKind::Fast}) {
    const core::IntMmEngine engine(kind, 27);
    const int big = engine.clique_n();
    const auto a =
        core::pad_matrix(random_matrix(27, 5), big, std::int64_t{0});
    const auto b =
        core::pad_matrix(random_matrix(27, 6), big, std::int64_t{0});
    clique::Network net1(big), net2(big);
    const auto single = engine.multiply(net1, a, b);
    const auto batch = engine.multiply_batch(
        net2, std::span<const Matrix<std::int64_t>>(&a, 1),
        std::span<const Matrix<std::int64_t>>(&b, 1));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0], single);
    EXPECT_EQ(net1.stats().rounds, net2.stats().rounds);
    EXPECT_EQ(net1.stats().total_words, net2.stats().total_words);
    EXPECT_EQ(net1.stats().max_node_send, net2.stats().max_node_send);
    EXPECT_EQ(net1.stats().max_node_recv, net2.stats().max_node_recv);
  }
}

TEST(BatchEngine, SemiringBatchWithPackedBoolCodec) {
  // The batched layout must stay exact for the bit-packing codec whose
  // words_for is not additive (block offsets are computed in whole words).
  const int n = 27;
  const BoolSemiring sr;
  Rng rng(77);
  std::vector<Matrix<std::uint8_t>> as, bs;
  for (int b = 0; b < 3; ++b) {
    Matrix<std::uint8_t> a(n, n, 0), c(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) {
        a(i, j) = static_cast<std::uint8_t>(rng.next_below(2));
        c(i, j) = static_cast<std::uint8_t>(rng.next_below(2));
      }
    as.push_back(std::move(a));
    bs.push_back(std::move(c));
  }
  clique::Network net(n);
  const auto got = core::mm_semiring_3d_batch(
      net, sr, PackedBoolCodec{}, std::span<const Matrix<std::uint8_t>>(as),
      std::span<const Matrix<std::uint8_t>>(bs));
  for (std::size_t b = 0; b < 3; ++b)
    EXPECT_EQ(got[b], multiply(sr, as[b], bs[b])) << "product " << b;
}

TEST(BatchDistanceProduct, WitnessBatchMatchesSequential) {
  const int n = 27;
  std::vector<Matrix<std::int64_t>> ss, ts;
  for (int b = 0; b < 4; ++b) {
    ss.push_back(random_matrix(n, 100 + b, 0, 50));
    ts.push_back(random_matrix(n, 200 + b, 0, 50));
  }
  clique::Network net_b(n);
  const auto got = core::dp_semiring_witness_batch(
      net_b, std::span<const Matrix<std::int64_t>>(ss),
      std::span<const Matrix<std::int64_t>>(ts));
  for (std::size_t b = 0; b < 4; ++b) {
    clique::Network net_s(n);
    const auto want = core::dp_semiring_witness(net_s, ss[b], ts[b]);
    EXPECT_EQ(got[b].dist, want.dist) << "product " << b;
    EXPECT_EQ(got[b].witness, want.witness) << "product " << b;
  }
}

TEST(BatchApsp, MultiQueryApspMatchesPerGraphRuns) {
  std::vector<Graph> gs;
  gs.push_back(random_weighted_graph(20, 0.3, 1, 50, 7));
  gs.push_back(random_weighted_graph(20, 0.4, 1, 30, 8));
  gs.push_back(random_weighted_graph(20, 0.5, 1, 9, 9));
  const auto batch = core::apsp_semiring_batch(
      std::span<const Graph>(gs.data(), gs.size()));
  ASSERT_EQ(batch.dist.size(), gs.size());
  std::int64_t seq_rounds = 0;
  for (std::size_t b = 0; b < gs.size(); ++b) {
    const auto want = core::apsp_semiring(gs[b]);
    EXPECT_EQ(batch.dist[b], want.dist) << "graph " << b;
    EXPECT_EQ(batch.next_hop[b], want.next_hop) << "graph " << b;
    seq_rounds += want.traffic.rounds;
  }
  // Shared supersteps beat the per-graph runs (equal-size queries: every
  // graph genuinely needs each shared squaring iteration).
  EXPECT_LT(batch.traffic.rounds, seq_rounds);
}

TEST(BatchApsp, SmallerGraphRidesAlongCorrectly) {
  // A smaller graph pads into the shared clique and may run more squaring
  // iterations than it needs (min-plus squaring is idempotent past
  // convergence); distances and routing tables must still be exact. Such a
  // ride-along can cost the batch extra rounds versus its solo run — the
  // batch-rounds win is claimed for equal-size queries only.
  std::vector<Graph> gs;
  gs.push_back(random_weighted_graph(20, 0.3, 1, 50, 7));
  gs.push_back(random_weighted_graph(11, 0.5, 1, 9, 9));
  const auto batch = core::apsp_semiring_batch(
      std::span<const Graph>(gs.data(), gs.size()));
  for (std::size_t b = 0; b < gs.size(); ++b) {
    const auto want = core::apsp_semiring(gs[b]);
    EXPECT_EQ(batch.dist[b], want.dist) << "graph " << b;
    EXPECT_EQ(batch.next_hop[b], want.next_hop) << "graph " << b;
  }
}

TEST(BatchCounting, TriangleBatchMatchesReference) {
  std::vector<Graph> gs;
  gs.push_back(gnp_random_graph(25, 0.3, 9));
  gs.push_back(gnp_random_graph(25, 0.5, 10));
  gs.push_back(gnp_random_graph(18, 0.4, 11));
  const auto batch = core::count_triangles_cc_batch(
      std::span<const Graph>(gs.data(), gs.size()), MmKind::Semiring3D);
  ASSERT_EQ(batch.counts.size(), gs.size());
  std::int64_t seq_rounds = 0;
  for (std::size_t b = 0; b < gs.size(); ++b) {
    EXPECT_EQ(batch.counts[b], ref_count_triangles(gs[b])) << "graph " << b;
    seq_rounds +=
        core::count_triangles_cc(gs[b], MmKind::Semiring3D).traffic.rounds;
  }
  EXPECT_LT(batch.traffic.rounds, seq_rounds);
}

TEST(BatchCounting, MixedDirectedAndUndirectedBatchMatchesReference) {
  // Directed members pay their own transpose superstep and divide tr(A^3)
  // by 3; undirected members ride along unchanged. Each count must match
  // its solo run and the centralized reference.
  std::vector<Graph> gs;
  gs.push_back(gnp_random_graph(20, 0.4, 21));
  gs.push_back(gnp_random_graph(20, 0.3, 22, /*directed=*/true));
  gs.push_back(gnp_random_graph(14, 0.5, 23, /*directed=*/true));
  gs.push_back(gnp_random_graph(17, 0.5, 24));
  for (const auto kind : {MmKind::Semiring3D, MmKind::Auto}) {
    const auto batch = core::count_triangles_cc_batch(
        std::span<const Graph>(gs.data(), gs.size()), kind);
    ASSERT_EQ(batch.counts.size(), gs.size());
    for (std::size_t b = 0; b < gs.size(); ++b) {
      EXPECT_EQ(batch.counts[b], ref_count_triangles(gs[b])) << "graph " << b;
      EXPECT_EQ(batch.counts[b], core::count_triangles_cc(gs[b], kind).count)
          << "graph " << b;
    }
  }
}

}  // namespace
}  // namespace cca
