// TrafficStats regression against the seed implementation.
//
// The flat-arena data plane, the parallel local compute, and the kernel
// specializations are all wall-clock optimisations: they must not move a
// single word or round. The constants below are the exact TrafficStats
// (rounds, bound_rounds, supersteps, total_words, max_node_send,
// max_node_recv) recorded from the seed per-pair-queue implementation for a
// fixed set of deterministic workloads; any drift indicates the
// paper-replication tables changed.
#include <gtest/gtest.h>

#include <cstdint>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "core/apsp.hpp"
#include "core/color_coding.hpp"
#include "core/counting.hpp"
#include "core/distance_product.hpp"
#include "core/engine.hpp"
#include "core/girth.hpp"
#include "core/mm_dense.hpp"
#include "core/mm_sparse.hpp"
#include "core/witness.hpp"
#include "graph/generators.hpp"
#include "matrix/codec.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace cca {
namespace {

using core::MmKind;

struct Expected {
  std::int64_t rounds;
  std::int64_t bound_rounds;
  std::int64_t supersteps;
  std::int64_t total_words;
  std::int64_t max_node_send;
  std::int64_t max_node_recv;
};

void expect_stats(const clique::TrafficStats& got, const Expected& want,
                  const char* what) {
  EXPECT_EQ(got.rounds, want.rounds) << what;
  EXPECT_EQ(got.bound_rounds, want.bound_rounds) << what;
  EXPECT_EQ(got.supersteps, want.supersteps) << what;
  EXPECT_EQ(got.total_words, want.total_words) << what;
  EXPECT_EQ(got.max_node_send, want.max_node_send) << what;
  EXPECT_EQ(got.max_node_recv, want.max_node_recv) << what;
}

Matrix<std::int64_t> random_matrix(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(0, 1000);
  return m;
}

TEST(TrafficRegression, MmSemiring3D) {
  clique::Network net(64);
  const IntRing ring;
  const I64Codec codec;
  (void)core::mm_semiring_3d(net, ring, codec, random_matrix(64, 1),
                             random_matrix(64, 2));
  expect_stats(net.stats(), {24, 12, 2, 46848, 496, 496}, "mm semiring n=64");
}

TEST(TrafficRegression, MmFastBilinear) {
  const auto plan = core::plan_fast_mm(49, 2);
  clique::Network net(plan.clique_n);
  const IntRing ring;
  const I64Codec codec;
  const auto alg = tensor_power(strassen_algorithm(), 2);
  const auto a =
      core::pad_matrix(random_matrix(49, 1), plan.clique_n, std::int64_t{0});
  const auto b =
      core::pad_matrix(random_matrix(49, 2), plan.clique_n, std::int64_t{0});
  (void)core::mm_fast_bilinear(net, ring, codec, alg, a, b);
  expect_stats(net.stats(), {29, 17, 4, 49140, 392, 504},
               "mm fast bilinear n=49 depth=2");
}

TEST(TrafficRegression, MmBooleanPackedCodec) {
  clique::Network net(64);
  const BoolSemiring sr;
  Rng rng(11);
  Matrix<std::uint8_t> a(64, 64, 0);
  for (int i = 0; i < 64; ++i)
    for (int j = 0; j < 64; ++j)
      a(i, j) = static_cast<std::uint8_t>(rng.next_below(2));
  (void)core::mm_semiring_3d(net, sr, PackedBoolCodec{}, a, a);
  expect_stats(net.stats(), {4, 2, 2, 2928, 31, 31}, "bool packed mm n=64");
}

TEST(TrafficRegression, DistanceProduct) {
  clique::Network net(27);
  (void)core::dp_semiring(net, random_matrix(27, 3), random_matrix(27, 4));
  expect_stats(net.stats(), {21, 9, 2, 5994, 153, 153}, "dp semiring n=27");
}

TEST(TrafficRegression, ApspSemiring) {
  // The seed pin was {190, 90, 10, 59940, 306, 306}: 5 scheduled squarings
  // of 38 rounds each, even though this graph's distances converge after
  // the third. Two deliberate changes moved it: (1) the convergence vote
  // (1 round per undecided iteration) exits after the 4th squaring shows
  // no improvement — 4 squarings + 4 votes on the fixed dense path; (2)
  // the default Auto engine runs the FIRST squaring (mostly-infinite
  // iterate) on the sparse engine, then flips dense under hysteresis.
  // The sparse first squaring charges the demand-shape quantisation
  // padding (bucketed distribute/contribute frames, see
  // build_sparse_mm_structure): 143/73/38725 -> 150/79/39094, within the
  // documented < 2x phase bound and paid for real on the wire; the
  // per-phase message alignment (sparse_msg_align: 4 words at this size,
  // contribute widens to 8 only from n >= 200; <= align-1 extra words per
  // pair) adds 150/39094 -> 152/39264 on top, buying the scheduler's
  // identical-halves collapse on the first levels of the aligned phases'
  // Euler splits.
  const auto g = random_weighted_graph(20, 0.3, 1, 50, 7);
  const auto auto_run = core::apsp_semiring(g);
  expect_stats(auto_run.traffic, {152, 79, 9, 39264, 306, 306},
               "apsp semiring auto n=20");
  // Auto plans every candidate through prepare_schedule (cache-warming,
  // counted as neither hit nor miss), so the staged supersteps all replay.
  EXPECT_EQ(auto_run.traffic.schedule_misses, 0);
  EXPECT_EQ(auto_run.traffic.schedule_hits, 9);
  ASSERT_EQ(auto_run.engine_trace.size(), 4u);
  EXPECT_EQ(auto_run.engine_trace[0], core::AutoEngineChoice::Sparse);
  EXPECT_EQ(auto_run.engine_trace[1], core::AutoEngineChoice::Semiring3D);

  const auto fixed_run = core::apsp_semiring(g, MmKind::Semiring3D);
  expect_stats(fixed_run.traffic, {156, 76, 8, 47952, 306, 306},
               "apsp semiring 3d n=20");
  // 4 iterations x 2 supersteps; the first iteration computes the two
  // schedules, the rest replay (votes are charge-only broadcasts).
  EXPECT_EQ(fixed_run.traffic.schedule_misses, 2);
  EXPECT_EQ(fixed_run.traffic.schedule_hits, 6);
  // Dispatch must never change results.
  EXPECT_EQ(auto_run.dist, fixed_run.dist);
  EXPECT_EQ(auto_run.next_hop, fixed_run.next_hop);
}

TEST(TrafficRegression, ApspSeidel) {
  const auto g = gnp_random_graph(20, 0.3, 7);
  expect_stats(core::apsp_seidel(g, MmKind::Semiring3D, -1).traffic,
               {110, 50, 10, 29970, 153, 153}, "apsp seidel n=20");
}

TEST(TrafficRegression, GirthUndirected) {
  const auto g = gnp_random_graph(40, 0.3, 5);
  const auto r = core::girth_undirected_cc(g, 123, MmKind::Semiring3D, -1, 1);
  EXPECT_EQ(r.girth, 3);
  EXPECT_FALSE(r.used_sparse_path);
  // Seed-agreement audit: the dense path's Monte Carlo seed was consumed
  // with NO accounting at all in the seed implementation. agree_on_seed now
  // stages a real broadcast superstep: +1 round, +1 bound round, +1
  // superstep, +(n-1)=39 words over the old {26, 14, 2, 46848, ...} pin.
  expect_stats(r.traffic, {27, 15, 3, 46887, 496, 496},
               "girth undirected n=40");
}

// ---------------------------------------------------------------------------
// Seed-agreement accounting. The Monte Carlo entry points each claim "one
// round to agree on the shared seed"; the seed implementation charged the
// round without moving a word (witnesses, colour coding) or skipped the
// charge entirely (girth). agree_on_seed now stages the broadcast for
// real; these pins are the corrected counts.
// ---------------------------------------------------------------------------

TEST(TrafficRegression, WitnessSeedAgreement) {
  const int n = 8;
  const auto s = random_matrix(n, 41);
  const auto t = random_matrix(n, 42);
  const MinPlusSemiring sr;
  const auto p = multiply(sr, s, t);
  clique::Network net(n);
  const core::DpOracle oracle = [](const Matrix<std::int64_t>& a,
                                   const Matrix<std::int64_t>& b) {
    return multiply(MinPlusSemiring{}, a, b);
  };
  // Isolate the seed-agreement cost: a free (local) oracle leaves only the
  // broadcast superstep plus the verify_witnesses supersteps.
  const auto before = net.stats();
  (void)core::dp_witnesses(net, s, t, p, oracle, 123, 1);
  const auto delta = net.stats() - before;
  // The former implementation charged 1 round / 0 words / 0 supersteps for
  // the seed; the broadcast now accounts 1 round, 1 superstep, n-1 = 7
  // words on top of the verification traffic.
  expect_stats(delta, {61, 26, 16, 1407, 21, 21}, "dp_witnesses seed n=8");
}

TEST(TrafficRegression, ColourCodingSeedAgreement) {
  const auto g = planted_cycle_graph(27, 5, 0.0, 3);
  const auto r = core::detect_k_cycle_cc(g, 5, 99, 2, MmKind::Semiring3D);
  // One broadcast superstep (1 round, 26 words) precedes the trials; the
  // remainder is the colour-coding products of the 2 trials.
  expect_stats(r.traffic, {5043, 2163, 481, 1438586, 153, 153},
               "detect 5-cycle n=27 trials=2");
}

// ---------------------------------------------------------------------------
// Round-charge audit: broadcast_from / disseminate. The primitives charge
// analytical round counts for documented schedules without staging the
// payload; the references below STAGE those exact schedules word by word
// (Direct router: rounds == max link load) and the tests assert charge ==
// measured, over adversarial word distributions. Two drifts were found and
// corrected: broadcast_from charged the rebroadcast phase at n == 2 where
// it moves nothing (2x overcharge), and disseminate's phase 3 charged
// ceil(W/n) even when the heaviest holders' shares were contributed by the
// very nodes they serve (the adversarial g-mod-n alignments).
// ---------------------------------------------------------------------------

/// Stage broadcast_from's documented schedule for real and return the
/// measured rounds: scatter round-robin, then helpers serve every node
/// that does not already hold the word (all but src and themselves).
std::int64_t staged_broadcast_from(int n, int src, std::int64_t k) {
  clique::Network net(n);
  if (n == 1 || k == 0) return 0;
  if (k == 1) {  // documented k == 1 schedule: direct broadcast
    for (int u = 0; u < n; ++u)
      if (u != src) net.send(src, u, 1);
    net.deliver(clique::Router::Direct);
    return net.stats().rounds;
  }
  const int helpers = n - 1;
  // Scatter: word j goes to helper (j mod (n-1)), skipping src.
  std::vector<std::vector<clique::Word>> held(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < k; ++j) {
    int h = static_cast<int>(j % helpers);
    if (h >= src) ++h;
    net.send(src, h, static_cast<clique::Word>(j));
    held[static_cast<std::size_t>(h)].push_back(static_cast<clique::Word>(j));
  }
  net.deliver(clique::Router::Direct);
  // Rebroadcast: helper -> every node except src and itself.
  bool any = false;
  for (int h = 0; h < n; ++h)
    for (const auto w : held[static_cast<std::size_t>(h)])
      for (int u = 0; u < n; ++u) {
        if (u == src || u == h) continue;
        net.send(h, u, w);
        any = true;
      }
  if (any) net.deliver(clique::Router::Direct);
  return net.stats().rounds;
}

TEST(TrafficRegression, BroadcastFromChargeMatchesStagedSchedule) {
  struct Case {
    int n;
    std::int64_t k;
  };
  for (const auto& c :
       {Case{2, 1}, Case{2, 2}, Case{2, 7}, Case{3, 2}, Case{5, 1},
        Case{5, 4}, Case{5, 5}, Case{10, 9}, Case{10, 90}, Case{10, 91}}) {
    clique::Network net(c.n);
    clique::broadcast_from(net, 0, c.k);
    EXPECT_EQ(net.stats().rounds, staged_broadcast_from(c.n, 0, c.k))
        << "n=" << c.n << " k=" << c.k;
  }
  // The corrected n == 2 drift, pinned: the seed charge was 2*ceil(k/1).
  {
    clique::Network net(2);
    clique::broadcast_from(net, 0, 7);
    EXPECT_EQ(net.stats().rounds, 7);  // was 14
  }
}

/// Stage disseminate's documented phase-3 schedule for real (every holder
/// serves each held word to everyone but its contributor and itself) and
/// return the measured rounds of that superstep alone.
std::int64_t staged_disseminate_phase3(
    int n, const std::vector<std::vector<clique::Word>>& per_node) {
  clique::Network net(n);
  std::int64_t g = 0;
  std::vector<std::vector<std::pair<int, clique::Word>>> held(
      static_cast<std::size_t>(n));  // holder -> (contributor, word)
  for (int v = 0; v < n; ++v)
    for (const auto w : per_node[static_cast<std::size_t>(v)]) {
      held[static_cast<std::size_t>(g % n)].push_back({v, w});
      ++g;
    }
  bool any = false;
  for (int h = 0; h < n; ++h)
    for (const auto& [v, w] : held[static_cast<std::size_t>(h)])
      for (int u = 0; u < n; ++u) {
        if (u == h || u == v) continue;
        net.send(h, u, w);
        any = true;
      }
  if (any) net.deliver(clique::Router::Direct);
  return net.stats().rounds;
}

TEST(TrafficRegression, DisseminateChargeMatchesStagedSchedule) {
  struct Case {
    const char* what;
    int n;
    std::vector<std::vector<clique::Word>> lists;
  };
  const Case cases[] = {
      {"single word, foreign holder (n=2)", 2, {{}, {9}}},
      {"all words from node 0 (n=2)", 2, {{1, 2, 3, 4, 5}, {}}},
      {"adversarial alignment (n=3)", 3, {{}, {7}, {8, 9, 10}}},
      {"every contributor its own holder (n=4)", 4, {{1}, {2}, {3}, {4}}},
      {"one heavy contributor (n=5)", 5, {{}, {}, {1, 2, 3, 4, 5, 6, 7}, {}, {}}},
      {"uniform (n=6)", 6, {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}}},
  };
  for (const auto& c : cases) {
    // Total measured = phase1 (1 round) + phase2 (the primitive's own
    // staged relay, replayed identically here) + phase3 reference.
    clique::Network net(c.n);
    const auto all = clique::disseminate(net, c.lists);
    std::size_t want_size = 0;
    for (const auto& l : c.lists) want_size += l.size();
    EXPECT_EQ(all.size(), want_size);
    clique::Network relay(c.n);
    std::int64_t g = 0;
    for (int v = 0; v < c.n; ++v)
      for (const auto w : c.lists[static_cast<std::size_t>(v)]) {
        relay.send(v, static_cast<int>(g % c.n), w);
        ++g;
      }
    if (g > 0) relay.deliver();
    const auto want = 1 + relay.stats().rounds +
                      staged_disseminate_phase3(c.n, c.lists);
    EXPECT_EQ(net.stats().rounds, want) << c.what;
  }
  // The corrected drifts, pinned. Adversarial alignment at n=3: holder 0's
  // 2-word share comes one each from nodes 1 and 2, so no phase-3 link
  // carries more than 1 word — the seed charge said ceil(4/3) = 2.
  {
    clique::Network net(3);
    (void)clique::disseminate(net, {{}, {7}, {8, 9, 10}});
    EXPECT_EQ(net.stats().rounds, 1 + 2 + 1);  // counts + relay + phase3
  }
  // n=2 with the only word already at its holder's audience: phase 3 moves
  // nothing (the seed charge said ceil(1/2) = 1).
  {
    clique::Network net(2);
    (void)clique::disseminate(net, {{}, {9}});
    const auto r = net.stats().rounds;
    clique::Network relay(2);
    relay.send(1, 0, 9);
    relay.deliver();
    EXPECT_EQ(r, 1 + relay.stats().rounds);  // no phase-3 charge at all
  }
}

TEST(TrafficRegression, CycleCounting) {
  const auto g = gnp_random_graph(25, 0.3, 9);
  expect_stats(core::count_triangles_cc(g, MmKind::Semiring3D, -1).traffic,
               {22, 10, 2, 5994, 153, 153}, "triangles n=25");
  expect_stats(core::count_4cycles_cc(g, MmKind::Semiring3D, -1).traffic,
               {27, 12, 3, 6696, 153, 153}, "4-cycles n=25");
  expect_stats(core::count_5cycles_cc(g, MmKind::Semiring3D, -1).traffic,
               {45, 21, 4, 11988, 153, 153}, "5-cycles n=25");
}

}  // namespace
}  // namespace cca
