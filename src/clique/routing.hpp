// Routing schedules for one congested clique superstep.
//
// A superstep's traffic is summarised by its demand list: for every ordered
// pair (src, dst) the number of words src has staged for dst. Each discipline
// below produces the exact number of rounds its concrete schedule needs:
//
//  * direct           — word stays on its own link; rounds = max link load.
//  * two-phase relay  — every word travels src -> intermediate -> dst, one
//    word per link per round in each phase; rounds = (max phase-A link load)
//    + (max phase-B link load). The disciplines differ only in how words are
//    assigned to intermediates:
//      - hash:   block (src,dst) starts at a deterministic hashed offset and
//                wraps round-robin (oblivious, O(1) for balanced loads);
//      - random: like hash with a random start (Valiant-style);
//      - koenig: Euler-split edge colouring of the demand multigraph; the C
//                colour classes go to intermediates in contiguous blocks,
//                class t through node floor(t*n/C), so every intermediate
//                carries at most ceil(C/n) classes. This is a constructive
//                Koenig decomposition and yields near-optimal deterministic
//                schedules for arbitrary demands — the executable counterpart
//                of Lenzen's routing theorem [46] and of the oblivious routing
//                of Dolev et al. [24, Lemma 1].
//
// Koenig is the one relay scheduler Network runs (Network::deliver; direct
// serves the explicit Router::Direct supersteps). Hash and random are
// oblivious baselines that no Network runs: bench_ablation evaluates them
// offline on the demand lists a recorded run delivered, and bench_routing
// and the tests call them directly. Every discipline is a pure function of
// the demand list (random also of its Rng), so such an offline fold
// charges exactly what an in-line router would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cca::clique {

/// One entry of a superstep demand list.
struct Demand {
  int src = 0;
  int dst = 0;
  std::int64_t words = 0;

  friend bool operator==(const Demand&, const Demand&) = default;
};

/// Rounds for direct delivery: max over ordered links of the word count.
[[nodiscard]] std::int64_t rounds_direct(int n,
                                         const std::vector<Demand>& demands);

/// Rounds for the two-phase relay with hashed block offsets.
[[nodiscard]] std::int64_t rounds_hash_relay(
    int n, const std::vector<Demand>& demands);

/// Rounds for the two-phase relay with random block offsets.
[[nodiscard]] std::int64_t rounds_random_relay(
    int n, const std::vector<Demand>& demands, Rng& rng);

/// Rounds for the Euler-split (Koenig) relay schedule.
[[nodiscard]] std::int64_t rounds_koenig_relay(
    int n, const std::vector<Demand>& demands);

// ---------------------------------------------------------------------------
// Reusable schedules and the demand-fingerprint schedule cache.
// ---------------------------------------------------------------------------
//
// The Koenig Euler-split is the wall-clock-critical part of the simulator:
// its exact class sequence costs O(words * log maxdegree) work per superstep
// (the bench_mm --steps finding). Iterated workloads — apsp_semiring's
// log n min-plus squarings, Seidel's recursion, apsp_bounded / apsp_approx,
// girth's repeated k-cycle probes — re-run it on demand lists that are
// byte-identical across iterations (the traffic SHAPE depends only on the
// matrix dimensions and codec widths, never on the entry values). A
// Schedule is the split's reusable outcome; the cache keys it by a
// fingerprint of the canonical demand list (deliver() emits demands in
// (src, dst) ascending order, so equal lists hash equally) and verifies the
// full list on every hit, so a fingerprint collision degrades to a
// recompute, never to a wrong round count.

/// The reusable outcome of one relay-schedule computation.
struct Schedule {
  std::int64_t rounds = 0;   ///< phase-A + phase-B relay rounds
  std::int64_t classes = 0;  ///< colour classes of the decomposition
  std::int64_t words = 0;    ///< total words the schedule moves
};

/// Run the Euler-split colouring and return the full Schedule (the
/// `rounds` member is exactly rounds_koenig_relay's value).
///
/// The split recursion runs as about `split_tasks` independent subtree tasks
/// under cca::parallel_for. A level-parallel frontier expansion reproduces
/// the top of the recursion; identical-halves collapses there do not count
/// toward the task budget, so lists whose word counts share a factor 2^k
/// still yield that many concrete tasks. The load matrices are replayed
/// straight from the per-task class logs in DFS order. The colour classes,
/// and therefore the rounds, are BIT-IDENTICAL for every task count,
/// including the pure-serial split_tasks <= 1 path (pinned by
/// tests/test_routing.cpp). The parameterless overload picks the task count
/// from cca::parallel_workers() (1 worker => serial, else 2 per worker).
[[nodiscard]] Schedule schedule_koenig_relay(int n,
                                             const std::vector<Demand>& demands);
[[nodiscard]] Schedule schedule_koenig_relay(int n,
                                             const std::vector<Demand>& demands,
                                             int split_tasks);

/// The ranks of a sharded transport that share one Euler split. `allgather`
/// is their uncharged side channel: `offsets` holds nprocs + 1 ascending
/// entries cutting `data` into one block per rank; on entry each rank has
/// filled block `rank`, on return every rank holds every block. Every rank
/// calls it in lockstep with identical offsets.
struct SplitGroup {
  int rank = 0;
  int nprocs = 1;
  std::function<void(std::span<std::uint64_t> data,
                     std::span<const std::size_t> offsets)>
      allgather;
};

/// The Euler split shared by the ranks of `group`, which all call this in
/// lockstep on the same list. Every rank expands the same frontier into
/// about 2 * nprocs subtree tasks (a pure function of nprocs, so every rank
/// cuts the same frontier whatever its thread count) and runs only the tasks
/// t with t mod nprocs == rank. Two allgathers follow: the per-task class
/// counts, from which every rank lays out the same global class offsets,
/// then each rank's partial load rows, replayed from its own tasks' classes
/// and summed on every rank. Integer sums do not depend on order, so every
/// rank returns the Schedule the in-process overloads return.
[[nodiscard]] Schedule schedule_koenig_relay(int n,
                                             const std::vector<Demand>& demands,
                                             const SplitGroup& group);

/// Test/diagnostic introspection: the concrete colour classes of a relay
/// schedule, each class a list of (src, dst) word-ports. A legal schedule
/// has every class a partial matching on ports (no src and no dst twice
/// within a class) and delivers every demanded word exactly once; the
/// schedule-validity property test asserts exactly that.
[[nodiscard]] std::vector<std::vector<std::pair<int, int>>>
koenig_relay_classes(int n, const std::vector<Demand>& demands,
                     int split_tasks = 0);

namespace detail {

/// Test introspection: how many concrete subtree tasks the Euler split
/// runs for this demand list at `split_tasks` (identical-halves
/// duplications are not tasks; the serial path is one task).
[[nodiscard]] int koenig_split_task_count(int n,
                                          const std::vector<Demand>& demands,
                                          int split_tasks);

}  // namespace detail

/// Order-sensitive 64-bit fingerprint of a canonical demand list. Callers
/// must pass demands in a canonical order ((src, dst) ascending, as
/// Network::deliver produces them) so that equal traffic shapes collide.
[[nodiscard]] std::uint64_t demand_fingerprint(
    int n, const std::vector<Demand>& demands);

/// Cache of Koenig relay schedules keyed by demand fingerprint. Hits verify
/// the stored demand
/// list element-wise (exactness over speed: a 64-bit collision degrades to
/// a chained recompute). The cache bounds its footprint with true LRU
/// eviction: when the stored demand elements would exceed the capacity, the
/// least-recently-used entries are evicted one at a time — eviction can only
/// ever cause a recompute of the SAME deterministic schedule, never a
/// different round count (pinned by tests/test_routing.cpp).
class ScheduleCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t evictions = 0;
  };

  /// The Koenig schedule for this demand list; computed and inserted on
  /// miss. The reference stays valid until the next get() call.
  /// When `hit` is non-null it receives whether this lookup was served from
  /// the cache (the same fact the internal stats counters record). A
  /// non-null `group` computes a miss with the shared split over its ranks
  /// (same Schedule, so hits and misses stay identical on every rank).
  const Schedule& get(int n, const std::vector<Demand>& demands,
                      bool* hit = nullptr, const SplitGroup* group = nullptr);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t entries() const noexcept { return lru_.size(); }
  void clear();

  /// LRU capacity in stored Demand elements (default 1 << 22). Lowering it
  /// below the current footprint evicts immediately on the next get().
  void set_capacity(std::size_t max_cached_demands) noexcept {
    capacity_ = max_cached_demands;
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    int n = 0;
    std::vector<Demand> demands;
    Schedule schedule;
    std::uint64_t key = 0;  ///< back-reference for O(1) eviction
  };
  using EntryIt = std::list<Entry>::iterator;

  void evict_to_fit(std::size_t incoming_demands);

  // LRU list (front = most recent) + fingerprint -> chain of iterators
  // (chains absorb collisions).
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::vector<EntryIt>> map_;
  Stats stats_;
  std::size_t cached_demands_ = 0;  ///< total stored Demand elements
  std::size_t capacity_ = std::size_t{1} << 22;
};

}  // namespace cca::clique
