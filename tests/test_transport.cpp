// Transport-contract conformance suite, parametrized over backends.
//
// Every backend must satisfy the six-op contract of clique/transport.hpp:
// staged_snapshot in canonical (src asc, dst asc) order without consuming,
// generation bumps on deliver() AND discard_staged(), DeliverySummary with
// the canonical demand list and exact per-node volumes, and FIFO inboxes.
// Covered backends:
//   * ArenaTransport (the in-process reference),
//   * SocketTransport at P=1 (a mesh with no peers — must degenerate to
//     the arena behaviour exactly),
//   * SocketTransport at P=2 inside one process: two ranks connected by a
//     socketpair(), each driven on its own thread. This pins the
//     distributed claims — identical DeliverySummary on every rank, owned
//     inboxes filled across the rank boundary, and the uncharged allgather
//     side channel.
// Socketpair'd P=2 and P=3 meshes also pin the Euler split shared over the
// ranks: every rank's Schedule equals the in-process split's.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clique/routing.hpp"
#include "clique/socket_transport.hpp"
#include "clique/transport.hpp"
#include "core/mm_dense.hpp"
#include "util/rng.hpp"

namespace cca::clique {
namespace {

std::vector<Word> to_vector(std::span<const Word> s) {
  return {s.begin(), s.end()};
}

// ---------------------------------------------------------------------------
// Single-process backends (full ownership): Arena and Socket P=1.
// ---------------------------------------------------------------------------

struct BackendCase {
  std::string name;
  std::function<std::unique_ptr<Transport>(int)> make;
};

std::shared_ptr<SocketMesh> lone_mesh() {
  return std::make_shared<SocketMesh>(0, 1, std::vector<int>{-1});
}

class TransportConformance : public ::testing::TestWithParam<BackendCase> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(
        BackendCase{"arena",
                    [](int n) { return std::make_unique<ArenaTransport>(n); }},
        BackendCase{"socket_p1",
                    [](int n) {
                      return std::make_unique<SocketTransport>(n, lone_mesh());
                    }}),
    [](const auto& info) { return info.param.name; });

TEST_P(TransportConformance, OwnsFullSpanSingleProcess) {
  const auto t = GetParam().make(5);
  EXPECT_EQ(t->owned().begin, 0);
  EXPECT_EQ(t->owned().end, 5);
  EXPECT_TRUE(t->owned().full(5));
}

TEST_P(TransportConformance, StagedSnapshotCanonicalOrderWithoutConsuming) {
  const auto t = GetParam().make(4);
  // Stage deliberately out of canonical order, mixing all three staging ops.
  t->send(2, 0, 20);
  t->send_words(0, 3, std::vector<Word>{3, 4});
  auto span = t->stage(0, 1, 2);
  span[0] = 1;
  span[1] = 2;
  t->send(2, 0, 21);  // appends to the existing (2, 0) run

  const auto snap = t->staged_snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].src, 0);
  EXPECT_EQ(snap[0].dst, 1);
  EXPECT_EQ(snap[0].words, (std::vector<Word>{1, 2}));
  EXPECT_EQ(snap[1].src, 0);
  EXPECT_EQ(snap[1].dst, 3);
  EXPECT_EQ(snap[1].words, (std::vector<Word>{3, 4}));
  EXPECT_EQ(snap[2].src, 2);
  EXPECT_EQ(snap[2].dst, 0);
  EXPECT_EQ(snap[2].words, (std::vector<Word>{20, 21}));

  // The snapshot must not consume: delivery still moves everything.
  const auto sum = t->deliver();
  EXPECT_EQ(sum.total_words, 6);
  EXPECT_EQ(to_vector(t->inbox(0, 2)), (std::vector<Word>{20, 21}));
}

TEST_P(TransportConformance, DeliverySummaryCanonicalDemandsAndVolumes) {
  const auto t = GetParam().make(4);
  t->send(3, 1, 7);
  t->send(1, 2, 8);
  t->send(1, 0, 9);
  t->send(3, 1, 10);

  const auto sum = t->deliver();
  const std::vector<Demand> want{{1, 0, 1}, {1, 2, 1}, {3, 1, 2}};
  EXPECT_EQ(sum.demands, want);
  EXPECT_EQ(sum.total_words, 4);
  EXPECT_EQ(sum.sent_by, (std::vector<std::int64_t>{0, 2, 0, 2}));
  EXPECT_EQ(sum.recv_by, (std::vector<std::int64_t>{1, 2, 1, 0}));
}

TEST_P(TransportConformance, GenerationsBumpOnDeliver) {
  const auto t = GetParam().make(3);
  const auto stage0 = t->stage_generation(0);
  const auto inbox0 = t->inbox_generation();
  t->send(0, 1, 1);
  (void)t->deliver();
  EXPECT_GT(t->stage_generation(0), stage0);
  EXPECT_GT(t->inbox_generation(), inbox0);
}

TEST_P(TransportConformance, GenerationsBumpOnDiscard) {
  const auto t = GetParam().make(3);
  t->send(0, 1, 1);
  t->send(2, 1, 2);
  const auto stage0 = t->stage_generation(0);
  const auto stage2 = t->stage_generation(2);
  t->discard_staged();
  EXPECT_GT(t->stage_generation(0), stage0);
  EXPECT_GT(t->stage_generation(2), stage2);
  // Nothing moves after a discard.
  const auto sum = t->deliver();
  EXPECT_TRUE(sum.demands.empty());
  EXPECT_EQ(sum.total_words, 0);
  EXPECT_TRUE(t->inbox(1, 0).empty());
}

TEST_P(TransportConformance, TakeInboxConsumesThePair) {
  const auto t = GetParam().make(3);
  t->send(0, 2, 5);
  t->send(0, 2, 6);
  (void)t->deliver();
  EXPECT_EQ(t->take_inbox(2, 0), (std::vector<Word>{5, 6}));
  EXPECT_TRUE(t->inbox(2, 0).empty());
}

// ---------------------------------------------------------------------------
// Two ranks in one process over a socketpair, one thread per rank.
// ---------------------------------------------------------------------------

/// Build a P-rank mesh from one socketpair() per pair of ranks.
std::vector<std::shared_ptr<SocketMesh>> socket_meshes(int procs) {
  const auto p = static_cast<std::size_t>(procs);
  std::vector<std::vector<int>> fds(p, std::vector<int>(p, -1));
  for (std::size_t a = 0; a < p; ++a)
    for (std::size_t b = a + 1; b < p; ++b) {
      int sv[2];
      EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      fds[a][b] = sv[0];
      fds[b][a] = sv[1];
    }
  std::vector<std::shared_ptr<SocketMesh>> meshes;
  for (int r = 0; r < procs; ++r)
    meshes.push_back(std::make_shared<SocketMesh>(
        r, procs, std::move(fds[static_cast<std::size_t>(r)])));
  return meshes;
}

/// Run one SPMD body per rank concurrently (deliver() blocks on the peers).
void run_ranks(int procs, const std::function<void(int)>& body) {
  std::vector<std::thread> peers;
  for (int r = 1; r < procs; ++r) peers.emplace_back([&body, r] { body(r); });
  body(0);
  for (auto& t : peers) t.join();
}

TEST(SocketTransportP2, OwnedShardsPartitionTheClique) {
  const auto m = socket_meshes(2);
  SocketTransport t0(5, m[0]), t1(5, m[1]);
  EXPECT_EQ(t0.owned(), (NodeSpan{0, 2}));
  EXPECT_EQ(t1.owned(), (NodeSpan{2, 5}));
  EXPECT_EQ(t0.owned(), shard_span(5, 2, 0));
  EXPECT_EQ(t1.owned(), shard_span(5, 2, 1));
}

TEST(SocketTransportP2, DeliverMovesWordsAcrossRanksWithIdenticalSummary) {
  const auto m = socket_meshes(2);
  SocketTransport t0(4, m[0]), t1(4, m[1]);  // rank 0 owns {0,1}, rank 1 {2,3}
  Transport* ts[2] = {&t0, &t1};
  DeliverySummary sums[2];

  run_ranks(2, [&](int r) {
    Transport& t = *ts[r];
    if (r == 0) {
      t.send(0, 2, 100);  // crosses to rank 1
      t.send(1, 0, 7);    // stays on rank 0
      t.send_words(0, 3, std::vector<Word>{8, 9});
    } else {
      auto span = t.stage(2, 1, 3);  // crosses to rank 0
      span[0] = 40;
      span[1] = 41;
      span[2] = 42;
      t.send(3, 2, 55);  // stays on rank 1
    }
    sums[r] = t.deliver();
  });

  // Both ranks reconstruct the identical canonical summary.
  const std::vector<Demand> want{
      {0, 2, 1}, {0, 3, 2}, {1, 0, 1}, {2, 1, 3}, {3, 2, 1}};
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(sums[r].demands, want) << "rank " << r;
    EXPECT_EQ(sums[r].total_words, 8) << "rank " << r;
    EXPECT_EQ(sums[r].sent_by, (std::vector<std::int64_t>{3, 1, 3, 1}));
    EXPECT_EQ(sums[r].recv_by, (std::vector<std::int64_t>{1, 3, 2, 2}));
  }

  // Owned destinations' inboxes hold the payloads, local and remote alike.
  EXPECT_EQ(to_vector(t0.inbox(0, 1)), (std::vector<Word>{7}));
  EXPECT_EQ(to_vector(t0.inbox(1, 2)), (std::vector<Word>{40, 41, 42}));
  EXPECT_EQ(to_vector(t1.inbox(2, 0)), (std::vector<Word>{100}));
  EXPECT_EQ(to_vector(t1.inbox(3, 0)), (std::vector<Word>{8, 9}));
  EXPECT_EQ(to_vector(t1.inbox(2, 3)), (std::vector<Word>{55}));
}

TEST(SocketTransportP2, RepeatedSuperstepsBumpGenerationsInLockstep) {
  const auto m = socket_meshes(2);
  SocketTransport t0(4, m[0]), t1(4, m[1]);
  Transport* ts[2] = {&t0, &t1};

  const auto inbox0 = t0.inbox_generation();
  run_ranks(2, [&](int r) {
    Transport& t = *ts[r];
    for (int step = 0; step < 3; ++step) {
      const NodeSpan own = t.owned();
      for (NodeId src = own.begin; src < own.end; ++src)
        t.send(src, (src + 1) % 4, static_cast<Word>(10 * step + src));
      (void)t.deliver();
    }
  });
  EXPECT_EQ(t0.inbox_generation(), inbox0 + 3);
  // Last superstep's words (step == 2) are what the inboxes hold now.
  EXPECT_EQ(to_vector(t0.inbox(0, 3)), (std::vector<Word>{23}));
  EXPECT_EQ(to_vector(t1.inbox(2, 1)), (std::vector<Word>{21}));
}

TEST(SocketTransportP2, AllgatherBlocksFillsNonOwnedSlots) {
  const auto m = socket_meshes(2);
  SocketTransport t0(4, m[0]), t1(4, m[1]);
  Transport* ts[2] = {&t0, &t1};

  // One word per node: offsets[v] = v (the broadcast_all sync layout).
  const std::vector<std::size_t> offsets{0, 1, 2, 3, 4};
  std::vector<Word> data[2] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
  run_ranks(2, [&](int r) {
    Transport& t = *ts[r];
    const NodeSpan own = t.owned();
    for (NodeId v = own.begin; v < own.end; ++v)
      data[r][static_cast<std::size_t>(v)] = static_cast<Word>(100 + v);
    t.allgather_blocks(data[r], offsets);
  });
  for (int r = 0; r < 2; ++r)
    EXPECT_EQ(data[r], (std::vector<Word>{100, 101, 102, 103})) << "rank " << r;
}

TEST(SocketTransportP2, DiscardIsLocalAndKeepsRanksConsistent) {
  const auto m = socket_meshes(2);
  SocketTransport t0(4, m[0]), t1(4, m[1]);
  Transport* ts[2] = {&t0, &t1};
  DeliverySummary sums[2];

  run_ranks(2, [&](int r) {
    Transport& t = *ts[r];
    if (r == 0) {
      // Rank 0 stages a doomed superstep and unwinds it locally...
      t.send(0, 3, 999);
      t.discard_staged();
    }
    // ...then both ranks run a clean superstep.
    const NodeSpan own = t.owned();
    t.send(own.begin, (own.begin + 2) % 4, static_cast<Word>(own.begin));
    sums[r] = t.deliver();
  });

  const std::vector<Demand> want{{0, 2, 1}, {2, 0, 1}};
  EXPECT_EQ(sums[0].demands, want);
  EXPECT_EQ(sums[1].demands, want);
  EXPECT_EQ(to_vector(t1.inbox(2, 0)), (std::vector<Word>{0}));
  EXPECT_EQ(to_vector(t0.inbox(0, 2)), (std::vector<Word>{2}));
}

// ---------------------------------------------------------------------------
// The Euler split shared over P ranks (routing.hpp's SplitGroup).
// ---------------------------------------------------------------------------

class SharedSplit : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, SharedSplit, ::testing::Values(2, 3),
                         ::testing::PrintToStringParamName());

TEST_P(SharedSplit, EveryRankGetsTheInProcessSchedule) {
  const int procs = GetParam();
  struct Case {
    int n;
    std::vector<Demand> demands;
    std::string what;
  };
  std::vector<Case> cases;
  // 3D semiring supersteps, even and odd block widths: even widths collapse
  // at the top of the recursion, odd ones split at once.
  for (const auto& [n, blocks] :
       {std::pair<int, std::vector<std::size_t>>{27, {8, 9}},
        std::pair<int, std::vector<std::size_t>>{64, {16, 9}}})
    for (const auto block : blocks) {
      auto [step1, step3] = core::semiring3d_superstep_demands(n, block);
      const auto tag =
          " n=" + std::to_string(n) + " block=" + std::to_string(block);
      cases.push_back({n, std::move(step1), "3d step1" + tag});
      cases.push_back({n, std::move(step3), "3d step3" + tag});
    }
  {
    Rng rng(77);
    std::vector<Demand> ragged;
    for (int i = 0; i < 80; ++i) {
      const int s = static_cast<int>(rng.next_below(20));
      const int d = (s + 1 + static_cast<int>(rng.next_below(19))) % 20;
      ragged.push_back({s, d, rng.next_in(1, 20)});
    }
    cases.push_back({20, std::move(ragged), "ragged"});
  }
  {
    // A cyclic shift is one matching: the root is a leaf, so the recursion
    // yields one task for P ranks.
    std::vector<Demand> shift;
    for (int v = 0; v < 9; ++v) shift.push_back({v, (v + 1) % 9, 1});
    EXPECT_LT(detail::koenig_split_task_count(9, shift, 2 * procs), procs);
    cases.push_back({9, std::move(shift), "fewer tasks than ranks"});
  }
  cases.push_back({5, {}, "empty"});

  for (const auto& c : cases) {
    const Schedule want = schedule_koenig_relay(c.n, c.demands);
    const auto meshes = socket_meshes(procs);
    std::vector<Schedule> got(static_cast<std::size_t>(procs));
    run_ranks(procs, [&](int r) {
      SocketTransport t(c.n, meshes[static_cast<std::size_t>(r)]);
      const SplitGroup group = split_group(t);
      EXPECT_EQ(group.nprocs, procs) << c.what;
      EXPECT_EQ(group.rank, r) << c.what;
      got[static_cast<std::size_t>(r)] =
          schedule_koenig_relay(c.n, c.demands, group);
    });
    for (int r = 0; r < procs; ++r) {
      const auto& g = got[static_cast<std::size_t>(r)];
      EXPECT_EQ(g.rounds, want.rounds) << c.what << " rank " << r;
      EXPECT_EQ(g.classes, want.classes) << c.what << " rank " << r;
      EXPECT_EQ(g.words, want.words) << c.what << " rank " << r;
    }
  }
}

TEST(SocketTransportP3, DeliverCrossesEveryRankPair) {
  // Odd P through the one-frame-per-peer deliver: every node sends to
  // every other node, so every rank pair carries payload both ways. The
  // second superstep stages (src + 1) * 4096 words per pair, so every rank
  // stages more than ArenaTransport::kWideDeliverWords and runs the wide
  // delivery passes over its owned span.
  const int n = 7;
  const auto m = socket_meshes(3);
  std::vector<std::unique_ptr<SocketTransport>> ts;
  for (const auto& mesh : m)
    ts.push_back(std::make_unique<SocketTransport>(n, mesh));
  for (const std::size_t scale : {1, 4096}) {
    const auto len = [scale](NodeId src) {
      return static_cast<std::size_t>(src + 1) * scale;
    };
    std::vector<DeliverySummary> sums(3);
    run_ranks(3, [&](int r) {
      auto& t = *ts[static_cast<std::size_t>(r)];
      const NodeSpan own = t.owned();
      for (NodeId src = own.begin; src < own.end; ++src)
        for (NodeId dst = 0; dst < n; ++dst)
          if (dst != src)
            t.send_words(src, dst,
                         std::vector<Word>(len(src),
                                           static_cast<Word>(10 * src + dst)));
      sums[static_cast<std::size_t>(r)] = t.deliver();
    });
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(sums[static_cast<std::size_t>(r)].demands, sums[0].demands);
      EXPECT_EQ(sums[static_cast<std::size_t>(r)].demands.size(), 42u);
      const auto& t = *ts[static_cast<std::size_t>(r)];
      for (NodeId dst = t.owned().begin; dst < t.owned().end; ++dst)
        for (NodeId src = 0; src < n; ++src) {
          if (src == dst) continue;
          EXPECT_EQ(to_vector(t.inbox(dst, src)),
                    std::vector<Word>(len(src),
                                      static_cast<Word>(10 * src + dst)))
              << "scale " << scale << " rank " << r << " inbox (" << dst
              << ", " << src << ")";
        }
    }
  }
}

}  // namespace
}  // namespace cca::clique
