// Tests for the congested clique network model and its routing schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "clique/network.hpp"
#include "clique/primitives.hpp"
#include "clique/routing.hpp"
#include "core/mm_dense.hpp"
#include "util/rng.hpp"

namespace cca::clique {
namespace {

std::vector<Word> to_vector(std::span<const Word> s) {
  return {s.begin(), s.end()};
}

TEST(Network, DeliversWordsInOrder) {
  Network net(4);
  net.send(0, 1, 10);
  net.send(0, 1, 11);
  net.send(2, 1, 99);
  net.deliver();
  EXPECT_EQ(to_vector(net.inbox(1, 0)), (std::vector<Word>{10, 11}));
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{99}));
  EXPECT_TRUE(net.inbox(1, 3).empty());
}

TEST(Network, SelfSendsAreFree) {
  Network net(3);
  net.send(1, 1, 7);
  net.deliver();
  EXPECT_EQ(net.stats().rounds, 0);
  EXPECT_EQ(to_vector(net.inbox(1, 1)), (std::vector<Word>{7}));
}

TEST(Network, SingleWordCostsOneRoundEverywhere) {
  Network net(8);
  net.send(0, 5, 1);
  net.deliver();
  // The demand list that superstep delivered, under every discipline.
  const std::vector<Demand> demands{{0, 5, 1}};
  EXPECT_EQ(net.stats().rounds, rounds_koenig_relay(8, demands));
  Rng rng(0x5eed);
  for (const auto rounds :
       {rounds_direct(8, demands), rounds_hash_relay(8, demands),
        rounds_random_relay(8, demands, rng),
        rounds_koenig_relay(8, demands)}) {
    // Relays pay at most 2 (scatter + forward); direct pays exactly 1.
    EXPECT_GE(rounds, 1);
    EXPECT_LE(rounds, 2);
  }
}

TEST(Network, InboxClearedBetweenSupersteps) {
  Network net(3);
  net.send(0, 1, 5);
  net.deliver();
  net.send(2, 1, 6);
  net.deliver();
  EXPECT_TRUE(net.inbox(1, 0).empty());
  EXPECT_EQ(to_vector(net.inbox(1, 2)), (std::vector<Word>{6}));
}

TEST(Network, StatsAccumulate) {
  Network net(4);
  net.send(0, 1, 1);
  net.deliver();
  const auto r1 = net.stats().rounds;
  net.send(0, 1, 1);
  net.deliver();
  EXPECT_GT(net.stats().rounds, r1 - 1);
  EXPECT_EQ(net.stats().supersteps, 2);
  EXPECT_EQ(net.stats().total_words, 2);
}

TEST(Network, ChargeRoundsAddsToStats) {
  Network net(2);
  net.charge_rounds(5);
  EXPECT_EQ(net.stats().rounds, 5);
}

TEST(Network, TakeInboxMovesWords) {
  Network net(2);
  net.send(0, 1, 3);
  net.deliver();
  auto words = net.take_inbox(1, 0);
  EXPECT_EQ(words, (std::vector<Word>{3}));
  EXPECT_TRUE(net.inbox(1, 0).empty());
}

// ---------------------------------------------------------------------------
// Schedule round counts.
// ---------------------------------------------------------------------------

TEST(Schedules, DirectIsMaxLinkLoad) {
  const int n = 6;
  std::vector<Demand> demands{{0, 1, 10}, {0, 2, 3}, {4, 1, 7}};
  EXPECT_EQ(rounds_direct(n, demands), 10);
}

TEST(Schedules, DirectAggregatesRepeatedLinks) {
  std::vector<Demand> demands{{0, 1, 4}, {0, 1, 5}};
  EXPECT_EQ(rounds_direct(4, demands), 9);
}

TEST(Schedules, EmptyDemandsCostNothing) {
  std::vector<Demand> none;
  Rng rng(1);
  EXPECT_EQ(rounds_direct(5, none), 0);
  EXPECT_EQ(rounds_hash_relay(5, none), 0);
  EXPECT_EQ(rounds_random_relay(5, none, rng), 0);
  EXPECT_EQ(rounds_koenig_relay(5, none), 0);
}

TEST(Schedules, RelayBeatsDirectOnSingleHeavyLink) {
  // One node ships n words to one receiver: direct needs n rounds, a relay
  // spreads over intermediates and needs ~2 + slack.
  const int n = 64;
  std::vector<Demand> demands{{0, 1, 64}};
  EXPECT_EQ(rounds_direct(n, demands), 64);
  EXPECT_LE(rounds_hash_relay(n, demands), 6);
  EXPECT_LE(rounds_koenig_relay(n, demands), 6);
}

TEST(Schedules, LenzenBalancedInstanceIsConstantRounds) {
  // Every node sends exactly n words spread over all receivers and receives
  // n words: the Lenzen routing regime. The Koenig relay is the executable
  // counterpart of the deterministic O(1) guarantee; the hashed/random
  // relays pay a small collision factor (Theta(log n / log log n) in the
  // worst case) but stay near-constant.
  const int n = 32;
  std::vector<Demand> demands;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d) demands.push_back({s, d, 1});
  EXPECT_LE(rounds_koenig_relay(n, demands), 6);
  EXPECT_LE(rounds_hash_relay(n, demands), 16);
  Rng rng(3);
  EXPECT_LE(rounds_random_relay(n, demands, rng), 16);
}

TEST(Schedules, KoenigStaysConstantAsNGrows) {
  // The Lenzen O(1) bound must be flat in n for the balanced instance.
  for (const int n : {16, 32, 64, 128}) {
    std::vector<Demand> demands;
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d)
        if (s != d) demands.push_back({s, d, 1});
    EXPECT_LE(rounds_koenig_relay(n, demands), 6) << n;
  }
}

TEST(Schedules, KoenigNearOptimalOnSkewedInstance) {
  // Adversarial skew: node 0 sends n words to each of n/2 receivers.
  // Lower bound: out-degree load = n*n/2 words over n links = n/2 rounds.
  const int n = 32;
  std::vector<Demand> demands;
  for (int d = 1; d <= n / 2; ++d) demands.push_back({0, d, n});
  const auto lower = static_cast<std::int64_t>(n) * (n / 2) / n;
  const auto koenig = rounds_koenig_relay(n, demands);
  EXPECT_GE(koenig, lower);
  EXPECT_LE(koenig, 3 * lower + 4);
}

TEST(Schedules, KoenigWithinConstantOfLowerBoundRandomInstances) {
  Rng rng(99);
  const int n = 24;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Demand> demands;
    std::vector<std::int64_t> out(n, 0), in(n, 0);
    for (int i = 0; i < 100; ++i) {
      const int s = static_cast<int>(rng.next_below(n));
      int d = static_cast<int>(rng.next_below(n));
      if (s == d) d = (d + 1) % n;
      const auto words = rng.next_in(1, 40);
      demands.push_back({s, d, words});
      out[static_cast<std::size_t>(s)] += words;
      in[static_cast<std::size_t>(d)] += words;
    }
    std::int64_t lower = 0;
    for (int v = 0; v < n; ++v)
      lower = std::max({lower, (out[static_cast<std::size_t>(v)] + n - 1) / n,
                        (in[static_cast<std::size_t>(v)] + n - 1) / n});
    const auto koenig = rounds_koenig_relay(n, demands);
    EXPECT_GE(koenig, lower);
    EXPECT_LE(koenig, 6 * lower + 8) << "trial " << trial;
  }
}

TEST(Schedules, HashRelayDeterministic) {
  std::vector<Demand> demands{{0, 1, 17}, {2, 3, 9}, {1, 0, 30}};
  EXPECT_EQ(rounds_hash_relay(16, demands), rounds_hash_relay(16, demands));
}

// ---------------------------------------------------------------------------
// Schedule validity and serial/parallel bit-identity.
// ---------------------------------------------------------------------------

namespace {

std::vector<Demand> random_demands(Rng& rng, int n, int entries,
                                   std::int64_t max_words) {
  std::vector<Demand> demands;
  for (int i = 0; i < entries; ++i) {
    const int s = static_cast<int>(rng.next_below(n));
    int d = static_cast<int>(rng.next_below(n));
    if (s == d) d = (d + 1) % n;
    demands.push_back({s, d, rng.next_in(1, max_words)});
  }
  return demands;
}

/// Assert the colour classes form a legal relay plan: every class is a
/// partial matching on ports (no src and no dst appears twice within one
/// class — that is what lets the class cross the clique in O(1) relay
/// rounds), and the classes together deliver every demanded word exactly
/// once.
void expect_valid_colouring(
    int n, const std::vector<Demand>& demands,
    const std::vector<std::vector<std::pair<int, int>>>& classes,
    const char* what) {
  std::map<std::pair<int, int>, std::int64_t> delivered;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::vector<int> src_used(static_cast<std::size_t>(n), 0);
    std::vector<int> dst_used(static_cast<std::size_t>(n), 0);
    for (const auto& [s, d] : classes[c]) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, n);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, n);
      EXPECT_EQ(src_used[static_cast<std::size_t>(s)]++, 0)
          << what << ": src " << s << " twice in class " << c;
      EXPECT_EQ(dst_used[static_cast<std::size_t>(d)]++, 0)
          << what << ": dst " << d << " twice in class " << c;
      ++delivered[{s, d}];
    }
  }
  std::map<std::pair<int, int>, std::int64_t> wanted;
  for (const auto& dm : demands) wanted[{dm.src, dm.dst}] += dm.words;
  EXPECT_EQ(delivered, wanted) << what << ": words delivered != demanded";
}

}  // namespace

TEST(Schedules, ColourClassesAreValid) {
  // The schedule-validity property: the Euler-split colouring must produce
  // classes that are partial matchings covering the demand multiset
  // exactly. Random ragged instances almost never split into identical
  // halves; the same lists with every count x8 and the 3D semiring
  // supersteps take the identical-halves collapse path, so both the
  // serial and the parallel split are checked on those too.
  Rng rng(123);
  const int n = 18;
  for (int trial = 0; trial < 8; ++trial) {
    auto demands = random_demands(rng, n, 50, 12);
    expect_valid_colouring(n, demands, koenig_relay_classes(n, demands),
                           "koenig");
    for (auto& d : demands) d.words *= 8;
    for (const int tasks : {1, 8})
      expect_valid_colouring(n, demands,
                             koenig_relay_classes(n, demands, tasks),
                             "koenig x8");
  }
  const auto [step1, step3] = core::semiring3d_superstep_demands(64, 36);
  for (const auto* step : {&step1, &step3})
    for (const int tasks : {1, 8})
      expect_valid_colouring(64, *step, koenig_relay_classes(64, *step, tasks),
                             "3d n=64 block=36");
}

TEST(Schedules, ParallelSplitIsBitIdenticalToSerial) {
  // The parallel Euler split must produce the SAME colour classes — not
  // just the same round count — for every task count, including task
  // counts far above the machine's worker count. This is the property that
  // lets a multi-core CI machine gate its BENCH_routing.json rows against
  // a single-core baseline.
  //
  // Ragged lists (1-20 random words per pair) almost never split into
  // identical halves; the same lists with every count x8, and the 3D
  // semiring supersteps with 36- and 72-word blocks (the witness codec's
  // shapes), collapse at the top of the recursion, which is where the
  // expansion replays a subtree instead of splitting it.
  struct Case {
    int n;
    std::vector<Demand> demands;
    std::string what;
  };
  std::vector<Case> cases;
  Rng rng(321);
  for (int trial = 0; trial < 4; ++trial) {
    auto demands = random_demands(rng, 20, 80, 20);
    auto scaled = demands;
    for (auto& d : scaled) d.words *= 8;
    cases.push_back({20, std::move(demands), "ragged " + std::to_string(trial)});
    cases.push_back({20, std::move(scaled), "ragged x8 " + std::to_string(trial)});
  }
  for (const int n : {64, 216})
    for (const std::size_t block : {36, 72}) {
      auto [step1, step3] = core::semiring3d_superstep_demands(n, block);
      const auto tag = " n=" + std::to_string(n) + " block=" + std::to_string(block);
      cases.push_back({n, std::move(step1), "3d step1" + tag});
      cases.push_back({n, std::move(step3), "3d step3" + tag});
    }
  for (const auto& c : cases) {
    const auto serial = koenig_relay_classes(c.n, c.demands, 1);
    for (const int tasks : {2, 4, 8, 16, 32}) {
      EXPECT_EQ(serial, koenig_relay_classes(c.n, c.demands, tasks))
          << c.what << " tasks=" << tasks;
    }
    const auto s1 = schedule_koenig_relay(c.n, c.demands, 1);
    const auto s8 = schedule_koenig_relay(c.n, c.demands, 8);
    EXPECT_EQ(s1.rounds, s8.rounds) << c.what;
    EXPECT_EQ(s1.classes, s8.classes) << c.what;
    EXPECT_EQ(s1.words, s8.words) << c.what;
  }
}

TEST(Schedules, CollapsingListsStillSplitIntoConcreteTasks) {
  // Every count of the n=216 72-word lists shares the factor 8, so the top
  // three splits are identical-halves collapses. Collapses must not spend
  // the expansion budget: 8 requested tasks give 8 concrete subtrees, not
  // one subtree replayed 8 times.
  auto [step1, step3] = core::semiring3d_superstep_demands(216, 72);
  EXPECT_GE(detail::koenig_split_task_count(216, step1, 8), 8);
  EXPECT_GE(detail::koenig_split_task_count(216, step3, 8), 8);
  EXPECT_EQ(detail::koenig_split_task_count(216, step1, 1), 1);
}

TEST(ScheduleCacheLru, EvictionNeverChangesRounds) {
  // Shrink the capacity so only one of our two shapes fits, thrash the
  // cache between them, and pin that every recompute of an evicted shape
  // reproduces the identical rounds (the deterministic-schedule guarantee
  // the LRU design leans on).
  Rng rng(31);
  const int n = 14;
  const auto a = random_demands(rng, n, 60, 10);
  const auto b = random_demands(rng, n, 60, 10);
  const auto rounds_a = schedule_koenig_relay(n, a).rounds;
  const auto rounds_b = schedule_koenig_relay(n, b).rounds;
  ScheduleCache cache;
  cache.set_capacity(std::max(a.size(), b.size()) + 10);  // fits one shape
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cache.get(n, a).rounds, rounds_a);
    EXPECT_EQ(cache.get(n, b).rounds, rounds_b);
    EXPECT_LE(cache.entries(), 1u);
  }
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().hits, 0);  // pure thrash: every get recomputed
}

TEST(Network, ScheduleWallTelemetryAccumulates) {
  // schedule_wall_ns is pure host telemetry: it must move when a Koenig
  // superstep or a prepare_schedule plan computes (or replays) a schedule,
  // and never affect the simulated rounds.
  Network net(16);
  EXPECT_EQ(net.stats().schedule_wall_ns, 0);
  for (int v = 0; v < 16; ++v)
    for (int u = 0; u < 16; ++u)
      if (u != v) net.send(v, u, 3);
  net.deliver();
  const auto after_deliver = net.stats().schedule_wall_ns;
  EXPECT_GT(after_deliver, 0);
  std::vector<Demand> plan{{0, 1, 40}, {2, 3, 17}, {5, 9, 4}};
  const auto planned = net.prepare_schedule(plan);
  EXPECT_GT(planned, 0);
  EXPECT_GT(net.stats().schedule_wall_ns, after_deliver);
}

// ---------------------------------------------------------------------------
// Reusable schedules and the demand-fingerprint cache.
// ---------------------------------------------------------------------------

TEST(Schedules, ScheduleObjectMatchesRoundsFunction) {
  Rng rng(7);
  const int n = 20;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Demand> demands;
    for (int i = 0; i < 60; ++i) {
      const int s = static_cast<int>(rng.next_below(n));
      int d = static_cast<int>(rng.next_below(n));
      if (s == d) d = (d + 1) % n;
      demands.push_back({s, d, rng.next_in(1, 30)});
    }
    const auto sched = schedule_koenig_relay(n, demands);
    EXPECT_EQ(sched.rounds, rounds_koenig_relay(n, demands));
    EXPECT_GT(sched.classes, 0);
    std::int64_t words = 0;
    for (const auto& d : demands) words += d.words;
    EXPECT_EQ(sched.words, words);
  }
}

TEST(Schedules, FingerprintIsShapeSensitive) {
  const std::vector<Demand> a{{0, 1, 5}, {2, 3, 7}};
  const std::vector<Demand> same{{0, 1, 5}, {2, 3, 7}};
  const std::vector<Demand> words_differ{{0, 1, 5}, {2, 3, 8}};
  const std::vector<Demand> pair_differs{{0, 1, 5}, {2, 4, 7}};
  const std::vector<Demand> order_differs{{2, 3, 7}, {0, 1, 5}};
  EXPECT_EQ(demand_fingerprint(8, a), demand_fingerprint(8, same));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, words_differ));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, pair_differs));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(8, order_differs));
  EXPECT_NE(demand_fingerprint(8, a), demand_fingerprint(9, a));
}

TEST(Schedules, CacheHitReturnsIdenticalSchedule) {
  ScheduleCache cache;
  Rng rng(9);
  const int n = 16;
  std::vector<Demand> demands;
  for (int i = 0; i < 40; ++i) {
    const int s = static_cast<int>(rng.next_below(n));
    int d = static_cast<int>(rng.next_below(n));
    if (s == d) d = (d + 1) % n;
    demands.push_back({s, d, rng.next_in(1, 20)});
  }
  const auto first = cache.get(n, demands);  // copy: get() may invalidate
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);
  const auto& second = cache.get(n, demands);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.classes, first.classes);
  EXPECT_EQ(second.words, first.words);
  EXPECT_EQ(second.rounds, rounds_koenig_relay(n, demands));
  // A different shape misses and computes its own schedule.
  auto other = demands;
  other[0].words += 1;
  (void)cache.get(n, other);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.entries(), 2u);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(Network, ScheduleCacheCountersTrackRepeatedShapes) {
  Network net(9);
  auto superstep = [&] {
    for (int v = 0; v < 9; ++v)
      for (int u = 0; u < 9; ++u)
        if (u != v) net.send(v, u, 42);
    net.deliver();
  };
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 1);
  EXPECT_EQ(net.stats().schedule_hits, 0);
  const auto r1 = net.stats().rounds;
  superstep();
  superstep();
  EXPECT_EQ(net.stats().schedule_misses, 1);
  EXPECT_EQ(net.stats().schedule_hits, 2);
  // Replayed schedules charge bit-identical rounds.
  EXPECT_EQ(net.stats().rounds, 3 * r1);
  // A new shape misses again.
  net.send(0, 1, 7);
  net.deliver();
  EXPECT_EQ(net.stats().schedule_misses, 2);
}

TEST(Network, DirectRouterBypassesScheduleCache) {
  Network net(8);
  net.send(0, 5, 1);
  net.deliver(Router::Direct);
  EXPECT_EQ(net.stats().schedule_hits + net.stats().schedule_misses, 0);
}

// ---------------------------------------------------------------------------
// Staged-span / inbox-view generation counters (the silent-relocation
// hazard: under CCA_SANITIZE the buffers are force-relocated at every bump,
// so ASan faults any span held across these points).
// ---------------------------------------------------------------------------

TEST(Network, StageGenerationAdvancesPerSourceAndOnDeliver) {
  Network net(4);
  const auto g0 = net.stage_generation(0);
  const auto g1 = net.stage_generation(1);
  (void)net.stage(0, 1, 3);  // invalidates earlier spans from src 0 only
  EXPECT_EQ(net.stage_generation(0), g0 + 1);
  EXPECT_EQ(net.stage_generation(1), g1);
  net.send(0, 2, 9);
  EXPECT_EQ(net.stage_generation(0), g0 + 2);
  const auto gi = net.inbox_generation();
  net.deliver();  // invalidates every staged span and every inbox view
  EXPECT_EQ(net.stage_generation(0), g0 + 3);
  EXPECT_EQ(net.stage_generation(1), g1 + 1);
  EXPECT_EQ(net.inbox_generation(), gi + 1);
}

// ---------------------------------------------------------------------------
// Primitives.
// ---------------------------------------------------------------------------

TEST(Primitives, BroadcastAllCostsOneRound) {
  Network net(8);
  std::vector<Word> vals(8, 3);
  const auto got = broadcast_all(net, vals);
  EXPECT_EQ(got, vals);
  EXPECT_EQ(net.stats().rounds, 1);
}

TEST(Primitives, BroadcastAllSingletonFree) {
  Network net(1);
  (void)broadcast_all(net, {42});
  EXPECT_EQ(net.stats().rounds, 0);
}

TEST(Primitives, BroadcastFromCosts) {
  {
    Network net(10);
    broadcast_from(net, 0, 0);
    EXPECT_EQ(net.stats().rounds, 0);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 1);
    EXPECT_EQ(net.stats().rounds, 1);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 9);  // ceil(9/9) = 1 per phase
    EXPECT_EQ(net.stats().rounds, 2);
  }
  {
    Network net(10);
    broadcast_from(net, 0, 90);  // ceil(90/9) = 10 per phase
    EXPECT_EQ(net.stats().rounds, 20);
  }
  {
    // n == 2: the scatter already delivers everything to the only other
    // node — no rebroadcast phase to charge (the round-charge audit's
    // corrected drift; the seed implementation said 10).
    Network net(2);
    broadcast_from(net, 0, 5);
    EXPECT_EQ(net.stats().rounds, 5);
  }
}

TEST(Primitives, DisseminateReturnsUnionInOrder) {
  Network net(4);
  std::vector<std::vector<Word>> lists{{1, 2}, {}, {3}, {4, 5, 6}};
  const auto all = disseminate(net, lists);
  EXPECT_EQ(all, (std::vector<Word>{1, 2, 3, 4, 5, 6}));
  EXPECT_GE(net.stats().rounds, 2);  // at least counts + shares
}

TEST(Primitives, DisseminateScalesWithTotalOverN) {
  // W total words cost about 3W/n + O(1) rounds.
  const int n = 32;
  Network net(n);
  std::vector<std::vector<Word>> lists(n);
  const int per = 64;
  for (auto& l : lists) l.assign(per, 7);
  (void)disseminate(net, lists);
  const std::int64_t w = static_cast<std::int64_t>(n) * per;
  EXPECT_LE(net.stats().rounds, 4 * w / n + 10);
  EXPECT_GE(net.stats().rounds, w / n);
}

}  // namespace
}  // namespace cca::clique
