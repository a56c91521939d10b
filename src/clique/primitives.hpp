// Common congested clique communication primitives with exact round charges.
//
// The primitives return the information that every node learns; the calling
// algorithm then uses it in each node's local computation. Costs are those of
// the explicit schedules documented at each function (all are standard
// two-phase broadcast/dissemination patterns; Dolev et al. [24] use the same
// building blocks).
//
// Cross-node facts. A node holds only its own row, so any fact about other
// rows (a girth hit, a convergence bit, a degree sum, a trace) reaches it
// only through a charged message. broadcast_reduce is that message for a
// one-word-per-node fact: each rank contributes its OWNED nodes' words and
// every rank folds the same n returned words, so control flow that branches
// on the result agrees on every rank of a sharded run. Branching on a
// rank-local scan instead lets the ranks diverge and deadlock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "clique/network.hpp"

namespace cca::clique {

/// Every node announces one word; afterwards every node knows all n words.
/// Schedule: node v sends its word to each other node directly; every link
/// carries exactly one word, so the cost is 1 round (0 when n == 1).
/// Sharded: each rank fills only its OWNED slots; the returned vector is
/// fully populated on every rank (Network::sync_node_words).
[[nodiscard]] std::vector<Word> broadcast_all(Network& net,
                                              std::vector<Word> values);

/// Every node v announces word_of(v); every node then folds the n words
/// with `op` (left to right from node 0's word) and returns the fold, which
/// is identical on every rank. word_of is called once per OWNED node of
/// the clique (padding nodes past a graph's size included), so it may read
/// only owned rows. Costs exactly
/// what broadcast_all costs: 1 round (0 when n == 1), no staged words.
template <class WordOf, class Op>
[[nodiscard]] Word broadcast_reduce(Network& net, WordOf&& word_of, Op op) {
  const NodeSpan own = net.owned();
  std::vector<Word> words(static_cast<std::size_t>(net.n()), 0);
  for (NodeId v = own.begin; v < own.end; ++v)
    words[static_cast<std::size_t>(v)] = static_cast<Word>(word_of(v));
  words = broadcast_all(net, std::move(words));
  Word acc = words.front();
  for (std::size_t v = 1; v < words.size(); ++v) acc = op(acc, words[v]);
  return acc;
}

/// Node src makes `words` known to every node.
/// Schedule: src scatters the words round-robin over the other n-1 nodes
/// (ceil(k/(n-1)) rounds, each link carries at most that many words), then
/// every helper sends each word it holds to every node that does not
/// already hold it — all nodes except src and the helper itself (at most
/// ceil(k/(n-1)) words per link). Cost: 0 if k == 0, 1 if k == 1,
/// otherwise 2 * ceil(k/(n-1)) rounds — EXCEPT n == 2, where the scatter
/// already delivered everything to the only other node and the rebroadcast
/// phase has nobody left to serve, so the cost is ceil(k/(n-1)) = k. (The
/// seed implementation charged the phantom rebroadcast anyway, a 2x
/// overcharge at n == 2; the staged-reference audit in
/// test_traffic_regression.cpp pins the corrected schedule.)
void broadcast_from(Network& net, NodeId src, std::int64_t num_words);

/// Every node v contributes a list of words; afterwards every node knows the
/// concatenation (ordered by contributor id). Used to "learn the whole
/// graph" when it is sparse (girth algorithm, Theorem 15).
///
/// Schedule: (1) every node announces its count — 1 round; (2) words are
/// relayed to balance holders (word with global index g goes to node g mod
/// n; self-sends are free, so a contributor that is its own holder moves
/// nothing) — measured relay cost, about 2*ceil(W/n) rounds for W total
/// words; (3) every holder sends each of its at most ceil(W/n) words to
/// every node that does not already hold it — everyone except the word's
/// contributor and the holder itself. The phase-3 charge is the EXACT
/// maximum link load of that schedule: link (h, u) carries h's share minus
/// the words u itself contributed to it, so the cost is
/// max_{h, u != h} (share_h - contrib_h(u)). For spread-out contributor
/// patterns that equals the classical ceil(W/n); when a holder's share
/// comes entirely from the few nodes it would serve (the adversarial g
/// mod n alignments — most visibly n == 2, where the seed implementation
/// overcharged ceil(W/2) for a phase with nothing left to move) it is
/// strictly less. The staged-reference audit in
/// test_traffic_regression.cpp pins charge == measured schedule.
/// Sharded: only the OWNED contributors' lists are read on each rank; the
/// returned concatenation is fully populated everywhere.
[[nodiscard]] std::vector<Word> disseminate(
    Network& net, const std::vector<std::vector<Word>>& per_node);

}  // namespace cca::clique
