// Tests for the flat-arena network data plane: inbox span views, take_inbox
// ownership semantics, interleaved staging order, staged-encode spans
// (serial and parallel), delivery on both sides of the wide-pass cutoff,
// and TrafficStats algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "clique/network.hpp"
#include "clique/transport.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace cca::clique {
namespace {

std::vector<Word> to_vector(std::span<const Word> s) {
  return {s.begin(), s.end()};
}

TEST(NetworkArena, InterleavedSendsStayFifoPerPair) {
  Network net(4);
  // Node 0 alternates destinations; each pair's words must arrive in the
  // order they were staged, independent of the interleaving.
  net.send(0, 1, 1);
  net.send(0, 2, 100);
  net.send(0, 1, 2);
  net.send(0, 2, 101);
  net.send(0, 1, 3);
  net.deliver();
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{1, 2, 3}));
  EXPECT_EQ(to_vector(net.inbox(2, 0)), (std::vector<Word>{100, 101}));
}

TEST(NetworkArena, SendWordsAndSendMix) {
  Network net(3);
  const std::vector<Word> block{7, 8, 9};
  net.send(0, 1, 6);
  net.send_words(0, 1, block);
  net.send(0, 1, 10);
  net.deliver();
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{6, 7, 8, 9, 10}));
}

TEST(NetworkArena, InboxSpanValidUntilNextDeliver) {
  Network net(3);
  net.send(0, 1, 41);
  net.send(0, 1, 42);
  net.deliver();
  const auto view = net.inbox(1, 0);
  ASSERT_EQ(view.size(), 2u);
  // The view stays stable across unrelated reads and further staging; only
  // deliver() invalidates it.
  net.send(2, 1, 99);
  EXPECT_EQ(view[0], 41u);
  EXPECT_EQ(view[1], 42u);
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{41, 42}));
  net.deliver();
  // After the next superstep the pair (1, 0) is empty and (1, 2) holds the
  // new payload; the old span must not be used (and is not, here).
  EXPECT_TRUE(net.inbox(1, 0).empty());
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{99}));
}

TEST(NetworkArena, TakeInboxPreservesFifoAndEmptiesPair) {
  Network net(3);
  for (Word w = 0; w < 50; ++w) net.send(0, 1, w);
  net.send(2, 1, 999);
  net.deliver();
  const auto words = net.take_inbox(1, 0);
  ASSERT_EQ(words.size(), 50u);
  for (Word w = 0; w < 50; ++w) EXPECT_EQ(words[w], w);
  // The taken pair reads empty; other pairs are untouched.
  EXPECT_TRUE(net.inbox(1, 0).empty());
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{999}));
}

TEST(NetworkArena, SelfSendDeliveredLocally) {
  Network net(2);
  net.send(1, 1, 5);
  net.deliver();
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(net.stats().total_words, 0);  // self-sends bypass the network
  EXPECT_EQ(to_vector(net.inbox(1, 1)), (std::vector<Word>{5}));
}

TEST(NetworkArena, RandomizedEquivalenceWithPerPairModel) {
  // Drive the arena transport with random interleaved traffic and compare
  // every inbox and the whole DeliverySummary against a straightforward
  // per-pair queue model. The n = 40 supersteps alternate between both
  // sides of kParallelMinWork on one transport, so the inline and the
  // parallel delivery passes (and a reused, never zero-filled arena) are
  // both held to the model. Pairs with (src + 2 dst) % 5 == 0 stay empty
  // (their ops become self-sends), and source 0 opens every superstep with
  // two non-adjacent runs to node 1.
  struct Input {
    int n;
    int max_block;
    std::vector<int> ops;  // per superstep
  };
  const std::vector<Input> inputs = {
      {8, 5, {200, 200, 200, 200, 200}},
      // ~3000 ops of up to 128 words stage ~98k words; 300 ops ~10k.
      {40, 128, {3000, 300, 3000}},
  };
  Rng rng(2024);
  bool covered_wide = false;
  bool covered_inline = false;
  for (const auto& in : inputs) {
    const int n = in.n;
    const auto nn = static_cast<std::size_t>(n);
    ArenaTransport t(n);
    for (std::size_t step = 0; step < in.ops.size(); ++step) {
      std::vector<std::vector<std::vector<Word>>> model(
          nn, std::vector<std::vector<Word>>(nn));
      std::size_t staged = 0;
      auto stage = [&](int src, int dst, const std::vector<Word>& block) {
        if (block.size() == 1)
          t.send(src, dst, block[0]);
        else if (block.size() % 2 == 0)
          t.send_words(src, dst, block);
        else
          std::copy(block.begin(), block.end(),
                    t.stage(src, dst, block.size()).begin());
        auto& q = model[static_cast<std::size_t>(dst)]
                       [static_cast<std::size_t>(src)];
        q.insert(q.end(), block.begin(), block.end());
        staged += block.size();
      };
      stage(0, 1, {rng.next()});
      stage(0, 2, {rng.next(), rng.next()});
      stage(0, 1, {rng.next()});
      for (int i = 0; i < in.ops[step]; ++i) {
        const int src = static_cast<int>(rng.next_below(n));
        int dst = static_cast<int>(rng.next_below(n));
        if ((src + 2 * dst) % 5 == 0) dst = src;
        std::vector<Word> block(
            rng.next_below(2) == 0 ? 1 : 1 + rng.next_below(in.max_block));
        for (auto& w : block) w = rng.next();
        stage(src, dst, block);
      }
      const bool wide = staged >= kParallelMinWork;
      (wide ? covered_wide : covered_inline) = true;

      DeliverySummary want;
      want.sent_by.assign(nn, 0);
      want.recv_by.assign(nn, 0);
      for (int src = 0; src < n; ++src)
        for (int dst = 0; dst < n; ++dst) {
          const auto words = static_cast<std::int64_t>(
              model[static_cast<std::size_t>(dst)]
                   [static_cast<std::size_t>(src)]
                       .size());
          if (words == 0 || src == dst) continue;
          want.demands.push_back({src, dst, words});
          want.sent_by[static_cast<std::size_t>(src)] += words;
          want.recv_by[static_cast<std::size_t>(dst)] += words;
          want.total_words += words;
        }

      const auto got = t.deliver();
      const auto where = ::testing::Message()
                         << "n " << n << " superstep " << step
                         << (wide ? " (wide)" : " (inline)");
      EXPECT_EQ(got.demands, want.demands) << where;
      EXPECT_EQ(got.sent_by, want.sent_by) << where;
      EXPECT_EQ(got.recv_by, want.recv_by) << where;
      EXPECT_EQ(got.total_words, want.total_words) << where;
      for (int dst = 0; dst < n; ++dst)
        for (int src = 0; src < n; ++src)
          EXPECT_EQ(to_vector(t.inbox(dst, src)),
                    model[static_cast<std::size_t>(dst)]
                         [static_cast<std::size_t>(src)])
              << where << " pair (" << dst << "," << src << ")";
    }
  }
  EXPECT_TRUE(covered_wide);
  EXPECT_TRUE(covered_inline);
}

TEST(NetworkArena, StageReturnsWritableSpanDeliveredFifo) {
  Network net(3);
  // stage() interleaved with send/send_words must preserve per-pair FIFO,
  // and unwritten staged words read as zero.
  net.send(0, 1, 1);
  auto span = net.stage(0, 1, 3);
  ASSERT_EQ(span.size(), 3u);
  span[0] = 2;
  span[2] = 4;  // span[1] left unwritten -> zero
  net.send(0, 1, 5);
  net.deliver();
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{1, 2, 0, 4, 5}));
}

TEST(NetworkArena, StageZeroWordsIsANoop) {
  Network net(2);
  const auto span = net.stage(0, 1, 0);
  EXPECT_TRUE(span.empty());
  net.send(0, 1, 9);
  net.deliver();
  EXPECT_EQ(net.stats().total_words, 1);
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{9}));
}

TEST(NetworkArena, StagedEncodeLayoutIdenticalToSendWords) {
  // The zero-copy staging path must produce exactly the same word layout
  // AND the same TrafficStats as the copying send_words path, for an
  // interleaved multi-destination run pattern from every source.
  const int n = 6;
  Rng rng_payload(99);
  std::vector<Word> payload(512);
  for (auto& w : payload) w = rng_payload.next();

  auto drive = [&](Network& net, bool staged) {
    std::size_t at = 0;
    for (int src = 0; src < n; ++src)
      for (int round = 0; round < 3; ++round)
        for (int dst = 0; dst < n; ++dst) {
          const std::size_t len = 1 + ((src + round + dst) % 4);
          const std::span<const Word> ws(payload.data() + at, len);
          at = (at + len) % (payload.size() - 8);
          if (staged) {
            auto span = net.stage(src, dst, len);
            for (std::size_t i = 0; i < len; ++i) span[i] = ws[i];
          } else {
            net.send_words(src, dst, ws);
          }
        }
    net.deliver();
  };

  Network a(n), b(n);
  drive(a, false);
  drive(b, true);
  for (int dst = 0; dst < n; ++dst)
    for (int src = 0; src < n; ++src)
      EXPECT_EQ(to_vector(a.inbox(dst, src)), to_vector(b.inbox(dst, src)))
          << "pair (" << dst << "," << src << ")";
  EXPECT_EQ(a.stats().rounds, b.stats().rounds);
  EXPECT_EQ(a.stats().bound_rounds, b.stats().bound_rounds);
  EXPECT_EQ(a.stats().total_words, b.stats().total_words);
  EXPECT_EQ(a.stats().max_node_send, b.stats().max_node_send);
  EXPECT_EQ(a.stats().max_node_recv, b.stats().max_node_recv);
}

TEST(NetworkArena, ParallelStagingFromAllSourcesMatchesSerial) {
  // The per-source ownership invariant: staging from distinct sources in a
  // parallel region is race-free and yields the identical arena layout,
  // because per-source append order is unchanged. Each source writes an
  // interleaved segment-run pattern (alternating destinations, so segment
  // runs break and resume) to make ordering bugs visible. The staging loop
  // passes the inline threshold as its estimate so it runs on the pool.
  const int n = 16;
  const int rounds = 8;
  auto pattern = [&](int src, int round, int dst) {
    return (static_cast<Word>(src) << 32) ^
           (static_cast<Word>(round) << 16) ^ static_cast<Word>(dst);
  };
  auto drive_serial = [&](Network& net) {
    for (int src = 0; src < n; ++src)
      for (int round = 0; round < rounds; ++round)
        for (int dst = 0; dst < n; ++dst) {
          if ((src + round + dst) % 3 == 0) continue;  // broken runs
          auto span = net.stage(src, dst, 2);
          span[0] = pattern(src, round, dst);
          span[1] = ~pattern(src, round, dst);
        }
    net.deliver();
  };
  auto drive_parallel = [&](Network& net) {
    parallel_for(0, n, kParallelMinWork, [&](int src) {
      for (int round = 0; round < rounds; ++round)
        for (int dst = 0; dst < n; ++dst) {
          if ((src + round + dst) % 3 == 0) continue;
          auto span = net.stage(src, dst, 2);
          span[0] = pattern(src, round, dst);
          span[1] = ~pattern(src, round, dst);
        }
    });
    net.deliver();
  };

  Network a(n), b(n);
  drive_serial(a);
  drive_parallel(b);
  for (int dst = 0; dst < n; ++dst)
    for (int src = 0; src < n; ++src)
      EXPECT_EQ(to_vector(a.inbox(dst, src)), to_vector(b.inbox(dst, src)))
          << "pair (" << dst << "," << src << ")";
  EXPECT_EQ(a.stats().rounds, b.stats().rounds);
  EXPECT_EQ(a.stats().total_words, b.stats().total_words);
}

TEST(TrafficStats, PlusEqualsAccumulatesAndMaxes) {
  TrafficStats a{10, 5, 2, 100, 7, 9};
  const TrafficStats b{3, 2, 1, 50, 11, 4};
  a += b;
  EXPECT_EQ(a.rounds, 13);
  EXPECT_EQ(a.bound_rounds, 7);
  EXPECT_EQ(a.supersteps, 3);
  EXPECT_EQ(a.total_words, 150);
  EXPECT_EQ(a.max_node_send, 11);  // max, not sum
  EXPECT_EQ(a.max_node_recv, 9);   // max, not sum
}

TEST(TrafficStats, DifferenceIsDeltaOfCounters) {
  const TrafficStats before{10, 5, 2, 100, 7, 9};
  const TrafficStats after{25, 11, 5, 260, 8, 12};
  const auto d = after - before;
  EXPECT_EQ(d.rounds, 15);
  EXPECT_EQ(d.bound_rounds, 6);
  EXPECT_EQ(d.supersteps, 3);
  EXPECT_EQ(d.total_words, 160);
  // Maxima are not differentiable; the delta keeps the minuend's values.
  EXPECT_EQ(d.max_node_send, 8);
  EXPECT_EQ(d.max_node_recv, 12);
}

TEST(TrafficStats, RoundMeterMeasuresScopedDelta) {
  Network net(4);
  net.send(0, 1, 1);
  net.deliver();
  RoundMeter meter(net);
  net.send(0, 1, 1);
  net.send(0, 2, 2);
  net.deliver();
  EXPECT_GE(meter.rounds(), 1);
  EXPECT_EQ(meter.delta().supersteps, 1);
  EXPECT_EQ(meter.delta().total_words, 2);
}

}  // namespace
}  // namespace cca::clique
