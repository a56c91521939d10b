// The first real (multi-process) data-plane backend: localhost TCP.
//
// A clique of n nodes runs as P <= n OS processes ("ranks"); rank r owns
// the contiguous node shard shard_span(n, P, r). Each rank stages words
// only from its owned sources (asserted by Network). Every exchange is one
// SocketMesh::exchange_all: one frame to and from every peer, all peers
// pumped full-duplex under a single poll loop, so no send order can
// deadlock and no peer waits for another's turn.
//
// Frames. Every frame is [magic][per-pair seq][body bytes] then the body.
// The sequence numbers assert that both sides agree on which exchange this
// is — ranks run the same deterministic program, so a mismatch is a bug,
// not a race. deliver() sends each peer q one frame whose body is
//
//   1. HEADER — the per-pair word counts of the sender's owned source rows
//      (|own| x n counts, the same for every peer), then
//   2. PAYLOAD — for each destination q owns (ascending), the words each
//      owned source (ascending) staged for it, in FIFO order.
//
// After the pump every rank holds the identical global count matrix, from
// which it reconstructs the identical canonical (src asc, dst asc) demand
// list and per-node volumes. Network then charges the identical rounds on
// every rank: the routing schedules are pure functions of the demand list,
// so rounds / total_words / schedule hits and misses are bit-identical to a
// single-process ArenaTransport oracle by construction. Each rank lays out
// the receiver-major arena for its owned destinations from the global
// counts; senders ascend contiguously within a receiver, so peer q's
// payload is, per owned destination, one contiguous (dst, q's sources)
// arena run. Non-owned destinations' inboxes read empty.
//
// Shared split. The uncharged side channel allgather_blocks() is also one
// exchange_all. A schedule-cache miss under this backend runs the Koenig
// Euler split shared over the ranks (routing.hpp's SplitGroup, built by
// clique::split_group over this channel): each rank runs its share of the
// subtree tasks, and two allgathers — per-task class counts, then partial
// load rows — give every rank the same Schedule.
//
// Scope: staged_snapshot() and discard_staged() act on LOCAL staged state
// only; staged_meta() is the globally consistent view (a non-destructive
// count all-gather mirroring deliver()'s header). The hardened fault path
// plans entirely from staged_meta(), so FaultPlan drop/corrupt/duplicate/
// straggler semantics compose with this backend — every rank draws the
// identical coins and charges the identical retransmissions. Crash
// recovery still requires full ownership (Network validates): replaying a
// crashed superstep needs the GLOBAL staged payloads, which live on their
// owning ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "clique/transport.hpp"

namespace cca::clique {

/// A full mesh of connected byte streams between P ranks. Construction is
/// either over localhost TCP (connect_tcp: rank r listens on
/// port_base + r, connects to lower ranks, accepts higher ranks) or by
/// adopting pre-connected file descriptors (tests use socketpair()s).
class SocketMesh {
 public:
  /// Adopt pre-connected stream sockets: peer_fds[q] is the fd connected
  /// to rank q (ignored / -1 at q == rank). Takes ownership of the fds.
  SocketMesh(int rank, int nprocs, std::vector<int> peer_fds);
  ~SocketMesh();

  SocketMesh(const SocketMesh&) = delete;
  SocketMesh& operator=(const SocketMesh&) = delete;

  /// Wire the localhost mesh: bind+listen on port_base + rank, connect to
  /// every lower rank (retrying until its listener is up, bounded by
  /// timeout_ms), then accept every higher rank; a one-word hello
  /// identifies each accepted peer. Throws std::runtime_error on failure.
  [[nodiscard]] static std::shared_ptr<SocketMesh> connect_tcp(
      int rank, int nprocs, int port_base, int timeout_ms = 30000);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }

  /// Exchange one frame with every peer at once: send out[q] to each peer
  /// q and receive the frame q sends into in[q], resized to the body length
  /// its header announces (out and in hold nprocs entries; those at rank()
  /// are ignored). Every peer's two directions pump under one poll loop.
  /// Throws std::runtime_error on protocol mismatch (bad magic or
  /// unexpected sequence number) or peer disconnect.
  void exchange_all(std::span<const std::span<const std::byte>> out,
                    std::span<std::vector<std::byte>> in);

  /// exchange_all with the one peer `peer`, for protocols in which a rank
  /// talks to only some of its peers: sends `out` and receives exactly
  /// in.size() bytes (a different announced length throws).
  void exchange(int peer, std::span<const std::byte> out,
                std::span<std::byte> in);

 private:
  /// One peer's side of an exchange: the body to send, and where the
  /// peer's body lands.
  struct Link {
    int peer;
    std::span<const std::byte> out;
    std::vector<std::byte>* in;
  };

  /// The one poll loop behind exchange_all and exchange.
  void pump(std::span<const Link> links);

  int rank_;
  int nprocs_;
  std::vector<int> fds_;        // [peer] connected stream, -1 for self
  std::vector<std::uint64_t> seq_;  // [peer] frames exchanged so far
};

/// Localhost TCP Transport over a SocketMesh. Inherits ArenaTransport's
/// staging machinery and arena layout verbatim; only delivery crosses
/// process boundaries (see the header comment). The P=1 mesh degenerates
/// to ArenaTransport plus nothing — every exchange has no peers.
class SocketTransport final : public ArenaTransport {
 public:
  /// A transport for an n-node clique sharded over mesh's P ranks.
  /// Requires P <= n (every rank owns at least one node).
  SocketTransport(int n, std::shared_ptr<SocketMesh> mesh);

  [[nodiscard]] NodeSpan owned() const noexcept override { return own_; }

  DeliverySummary deliver() override;

  [[nodiscard]] std::vector<Demand> staged_meta() override;

  void allgather_blocks(std::span<Word> data,
                        std::span<const std::size_t> offsets) override;

  /// The ambient-scope factory for this mesh: every Network(int n)
  /// constructed under TransportScope(SocketTransport::factory(mesh))
  /// shards its clique over the mesh's ranks.
  [[nodiscard]] static TransportScope::Factory factory(
      std::shared_ptr<SocketMesh> mesh);

 private:
  /// Contiguous arena byte range holding the (dst, src in [s_lo, s_hi))
  /// slices for one receiver — one run of a peer's payload.
  [[nodiscard]] std::span<std::byte> arena_range(NodeId dst, NodeId s_lo,
                                                 NodeId s_hi) noexcept;

  std::shared_ptr<SocketMesh> mesh_;
  NodeSpan own_;
  std::vector<NodeSpan> shards_;  // [rank] owned span
  std::vector<int> rank_of_;      // [node] owning rank
  std::vector<std::vector<std::byte>> sbuf_;  // [peer] outgoing frame body
  std::vector<std::vector<std::byte>> rbuf_;  // [peer] incoming frame body
};

}  // namespace cca::clique
