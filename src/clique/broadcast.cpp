#include "clique/broadcast.hpp"

namespace cca::clique {

Word agree_on_seed(Network& net, NodeId src, Word seed) {
  CCA_EXPECTS(src >= 0 && src < net.n());
  const int n = net.n();
  if (n == 1) return seed;
  // Only src's owner stages; every rank delivers in lockstep and checks the
  // word at the receivers it owns.
  if (net.owns(src))
    for (NodeId v = 0; v < n; ++v)
      if (v != src) net.send(src, v, seed);
  // One word per (src, v) link and nothing else staged: the direct
  // schedule's max link load is exactly 1.
  net.deliver(Router::Direct);
  const NodeSpan own = net.owned();
  for (NodeId v = own.begin; v < own.end; ++v) {
    if (v == src) continue;
    const auto in = net.inbox(v, src);
    CCA_ASSERT(in.size() == 1 && in[0] == seed);
  }
  return seed;
}

std::int64_t broadcast_mm_rounds(int n) {
  BroadcastNetwork net(n);
  // Every node announces its 2n input words (row of S and row of T); the
  // content is irrelevant to the cost, so stage placeholders.
  for (int v = 0; v < n; ++v)
    for (int j = 0; j < 2 * n; ++j)
      net.broadcast(v, static_cast<std::uint64_t>(j));
  net.deliver();
  return net.rounds();
}

}  // namespace cca::clique
