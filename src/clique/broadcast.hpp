// The BROADCAST congested clique (paper Section 4, Corollary 24).
//
// A restricted variant of the model: in each round every node sends the
// SAME O(log n)-bit message to all other nodes. The paper (via Holzer and
// Pinsker [38]) notes that matrix multiplication and APSP require
// Omega~(n) rounds here — unlike the unicast clique where Theorem 1 gives
// O(n^{1/3}) / O(n^{1-2/omega}). This simulator variant exists so the gap
// can be measured: the best broadcast-clique strategy for matrix problems
// is "everyone announces its input row", costing Theta(n) rounds
// (bench_ablation's Ablation 7 and test_extensions.cpp compare the two
// models directly).
#pragma once

#include <cstdint>
#include <vector>

#include "clique/network.hpp"
#include "util/contracts.hpp"

namespace cca::clique {

/// Seed agreement on the UNICAST clique: node `src` makes one word (the
/// shared random seed of a Monte Carlo phase) known to every node, with the
/// traffic actually staged and delivered through the Network. Each of src's
/// n-1 links carries exactly one word, so the direct schedule costs exactly
/// 1 round (0 when n == 1) — but unlike a bare charge_rounds(1), the
/// superstep, the n-1 words, and the per-node send/recv maxima all land in
/// TrafficStats.
///
/// The Monte Carlo algorithms (witness detection, colour-coding k-cycle
/// detection, girth) previously claimed "one round to agree on the shared
/// seed" while only charging the round (or, in girth's case, nothing);
/// test_traffic_regression.cpp pins the corrected accounting. Returns the
/// agreed word (every owned node's copy is checked against the staged one).
/// Ownership-generic: under a sharded transport only src's owner stages,
/// and every rank calls this in lockstep with the same seed.
/// Must run between supersteps: any other traffic staged at call time
/// would be flushed through this delivery and mis-scheduled.
[[nodiscard]] Word agree_on_seed(Network& net, NodeId src, Word seed);

class BroadcastNetwork {
 public:
  explicit BroadcastNetwork(int n)
      : n_(n),
        queue_(static_cast<std::size_t>(n)),
        inbox_(static_cast<std::size_t>(n)) {
    CCA_EXPECTS(n >= 1);
  }

  [[nodiscard]] int n() const noexcept { return n_; }

  /// Stage one word that node v will broadcast to everyone.
  void broadcast(int v, std::uint64_t word) {
    CCA_EXPECTS(v >= 0 && v < n_);
    queue_[static_cast<std::size_t>(v)].push_back(word);
  }

  /// Deliver all staged broadcasts. Node v's k_v words occupy k_v rounds of
  /// its single (shared) outgoing channel; channels run in parallel, so the
  /// superstep costs max_v k_v rounds.
  void deliver() {
    std::int64_t need = 0;
    for (int v = 0; v < n_; ++v)
      need = std::max(need, static_cast<std::int64_t>(
                                queue_[static_cast<std::size_t>(v)].size()));
    if (n_ > 1) rounds_ += need;
    for (int v = 0; v < n_; ++v) {
      // Swap instead of move: the previous superstep's inbox buffer becomes
      // the next queue, so steady-state delivery allocates nothing.
      inbox_[static_cast<std::size_t>(v)].swap(
          queue_[static_cast<std::size_t>(v)]);
      queue_[static_cast<std::size_t>(v)].clear();
    }
  }

  /// Words node `from` broadcast in the most recent superstep (every node
  /// heard them).
  [[nodiscard]] const std::vector<std::uint64_t>& heard_from(int from) const {
    CCA_EXPECTS(from >= 0 && from < n_);
    return inbox_[static_cast<std::size_t>(from)];
  }

  [[nodiscard]] std::int64_t rounds() const noexcept { return rounds_; }

 private:
  int n_;
  std::int64_t rounds_ = 0;
  std::vector<std::vector<std::uint64_t>> queue_;
  std::vector<std::vector<std::uint64_t>> inbox_;
};

/// Matrix multiplication in the broadcast clique: node v announces its rows
/// of both inputs (2n words); everyone then computes locally. Theta(n)
/// rounds — and Corollary 24 says no broadcast-clique algorithm can do
/// asymptotically better (up to polylog factors).
[[nodiscard]] std::int64_t broadcast_mm_rounds(int n);

}  // namespace cca::clique
