// The data-plane seam of the congested clique simulator.
//
// `Transport` is the narrow interface between the accounting layer
// (clique::Network: demand scheduling, round charging, TrafficStats, the
// fault/integrity machinery) and the mechanism that physically moves staged
// words into receiver inboxes. The in-process arena simulator below is the
// default backend; the multi-process backend (SocketTransport,
// socket_transport.hpp) implements the same operations over real sockets
// while Network's accounting — which only ever sees the canonical demand
// list — stays byte-for-byte identical.
//
// Contract mirror of the former Network data plane:
//  * staging is per-source exclusive and may run under cca::parallel_for
//    (one src per iteration); deliver()/discard_staged() must not. A
//    deliver() is still CALLED serially, but it may fan its own passes out
//    over the worker pool (ArenaTransport::kWideDeliverWords).
//  * spans returned by stage() die at the next same-source staging call or
//    at deliver(); inbox() views die at the next deliver(). The generation
//    counters (and CCA_SANITIZE's poison relocation) make violations fault
//    deterministically instead of silently aliasing relocated memory, and
//    the analysis layer (util/analysis.hpp; default-on in CCA_CHECKED
//    builds) upgrades both contracts to typed, reported ContractViolations:
//    span leases validate the generations at every use, and the staging
//    tracker faults cross-source staging and in-parallel phase changes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "clique/routing.hpp"

namespace cca::clique {

using Word = std::uint64_t;
using NodeId = int;

/// A contiguous shard of the node set, [begin, end). Multi-process backends
/// (socket_transport.hpp) partition the n nodes over P ranks as contiguous
/// spans; the in-process backends own everything. Engines read the span off
/// Network::owned() and stage/compute only their shard.
struct NodeSpan {
  NodeId begin = 0;
  NodeId end = 0;

  [[nodiscard]] int size() const noexcept { return end - begin; }
  [[nodiscard]] bool contains(NodeId v) const noexcept {
    return v >= begin && v < end;
  }
  [[nodiscard]] bool full(int n) const noexcept {
    return begin == 0 && end == n;
  }

  friend bool operator==(const NodeSpan&, const NodeSpan&) = default;
};

/// The canonical contiguous ceil-split of n nodes over nprocs ranks:
/// rank r owns [n*r/nprocs, n*(r+1)/nprocs). Sizes differ by at most one
/// and every rank derives every other rank's span locally — the shard map
/// is common knowledge by construction.
[[nodiscard]] inline NodeSpan shard_span(int n, int nprocs, int rank) noexcept {
  const auto lo = static_cast<NodeId>(
      (static_cast<std::int64_t>(n) * rank) / nprocs);
  const auto hi = static_cast<NodeId>(
      (static_cast<std::int64_t>(n) * (rank + 1)) / nprocs);
  return {lo, hi};
}

/// One staged ordered pair captured before delivery, payload copied out in
/// canonical (src asc, dst asc) order. The integrity layer checksums these
/// and retains them as the retransmission source of truth.
struct StagedPair {
  NodeId src = 0;
  NodeId dst = 0;
  std::vector<Word> words;
};

/// What one delivery moved: the canonical demand list (src asc, dst asc,
/// self-pairs and empty pairs excluded — exactly what the routing schedules
/// expect) plus per-node volumes. Network turns this into rounds and stats;
/// the transport never sees either.
struct DeliverySummary {
  std::vector<Demand> demands;
  std::int64_t total_words = 0;
  std::vector<std::int64_t> sent_by;  ///< words staged by node, this superstep
  std::vector<std::int64_t> recv_by;  ///< words received by node, this superstep
};

/// Abstract data plane: staging, delivery, inboxes. Implementations move
/// words; they never charge rounds (accounting is Network's job).
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual int n() const noexcept = 0;

  /// Stage a single word from src to dst for the current superstep.
  virtual void send(NodeId src, NodeId dst, Word w) = 0;

  /// Stage a block of words from src to dst (kept in order).
  virtual void send_words(NodeId src, NodeId dst,
                          std::span<const Word> ws) = 0;

  /// Reserve `nwords` staged words from src to dst and return a writable
  /// span over them (zero-copy staging; reads as zero until written).
  [[nodiscard]] virtual std::span<Word> stage(NodeId src, NodeId dst,
                                              std::size_t nwords) = 0;

  /// Copy of every currently staged off-diagonal nonempty pair, canonical
  /// (src asc, dst asc) order. Does not consume the staged state. Sharded
  /// backends see LOCAL staged state only (payloads of non-owned sources
  /// live on their ranks) — globally consistent metadata comes from
  /// staged_meta().
  [[nodiscard]] virtual std::vector<StagedPair> staged_snapshot() const = 0;

  /// The GLOBAL staged metadata: one {src, dst, words} demand per nonempty
  /// off-diagonal staged pair across all ranks, canonical (src asc, dst
  /// asc) order — the skeleton of staged_snapshot() without payloads, and
  /// non-destructive. Sharded backends gather peer counts so every rank
  /// returns the bit-identical list. The hardened (fault-injecting) deliver
  /// path plans from this: fault coins and retransmission charges are pure
  /// functions of (src, dst, words) and the plan's counters, so every rank
  /// draws identical verdicts without ever seeing non-owned payloads.
  [[nodiscard]] virtual std::vector<Demand> staged_meta() {
    std::vector<Demand> out;
    for (const auto& p : staged_snapshot())
      out.push_back({p.src, p.dst, static_cast<std::int64_t>(p.words.size())});
    return out;
  }

  /// Drop all staged words without delivering (crash-unwind path). Bumps
  /// every per-source stage generation.
  virtual void discard_staged() = 0;

  /// Move every staged word to the receivers' inboxes and report what
  /// moved. Invalidates all outstanding staged spans and inbox views.
  virtual DeliverySummary deliver() = 0;

  /// Words received by dst from src in the most recent superstep, FIFO.
  [[nodiscard]] virtual std::span<const Word> inbox(NodeId dst,
                                                    NodeId src) const = 0;

  /// Copy the inbox out as an owning vector and mark the pair consumed.
  [[nodiscard]] virtual std::vector<Word> take_inbox(NodeId dst,
                                                     NodeId src) = 0;

  /// Span-invalidation debug generations (see Network::stage_generation).
  [[nodiscard]] virtual std::uint64_t stage_generation(NodeId src) const = 0;
  [[nodiscard]] virtual std::uint64_t inbox_generation() const noexcept = 0;

  /// The contiguous node shard this process owns. Staging is legal only
  /// from owned sources (asserted by Network); deliver() fills the owned
  /// destinations' inboxes. In-process backends own the full span — the
  /// zero-cost P=1 seam.
  [[nodiscard]] virtual NodeSpan owned() const noexcept { return {0, n()}; }

  /// Uncharged common-knowledge side channel. `offsets` has n()+1 entries;
  /// node v's block is data[offsets[v], offsets[v+1]). On entry each rank
  /// has filled the blocks of its OWNED nodes; on return every rank holds
  /// every block. This realizes, across processes, what the in-process
  /// simulator gets for free from its shared address space (the values a
  /// primitive like broadcast_all returns after separately charging its
  /// documented rounds) — it moves no accounted words and never touches
  /// staged state, inboxes, or generations. Single-process backends
  /// already hold every block: the default is a no-op.
  virtual void allgather_blocks(std::span<Word> data,
                                std::span<const std::size_t> offsets) {
    (void)data;
    (void)offsets;
  }
};

/// The ranks sharing a sharded transport's clique, as the SplitGroup of
/// schedule_koenig_relay's shared split. One allgather_blocks call learns
/// every rank's span; the group's allgather then hangs rank q's block on
/// the first node of q's span. It needs only owned() and allgather_blocks(),
/// so it works through any decorator that forwards those two. `t` must
/// outlive the group; every rank calls this in lockstep.
[[nodiscard]] SplitGroup split_group(Transport& t);

/// RAII ambient transport factory, mirroring FaultScope: algorithms such
/// as apsp_semiring construct their Network internally, so a multi-process
/// run installs a TransportScope and every Network(int n) constructed on
/// this thread while the scope lives builds its data plane through the
/// factory (the socket backend binds its mesh and computes the shard for
/// that n). Scopes nest (innermost wins).
class TransportScope {
 public:
  using Factory = std::function<std::unique_ptr<Transport>(int n)>;

  explicit TransportScope(Factory factory) noexcept;
  ~TransportScope();

  TransportScope(const TransportScope&) = delete;
  TransportScope& operator=(const TransportScope&) = delete;

  /// The innermost live scope's factory on this thread, or nullptr.
  [[nodiscard]] static const Factory* current() noexcept;

 private:
  Factory factory_;
  const Factory* prev_;
};

/// The in-process arena backend: per-source flat staged buffers with
/// run-length destination segments, delivered into one contiguous
/// receiver-major arena per superstep.
///
/// deliver() runs four passes: count, summary, layout and scatter. Count
/// and scatter work per source, and each source owns disjoint state (its
/// row of pair_words_, its outbox and its arena slices), so a superstep
/// staging at least kWideDeliverWords words runs those two under
/// cca::parallel_for; smaller ones run them inline. The summary and the
/// layout are one sweep each with a running offset, always inline. The
/// arena grows without zero-filling: the layout is built from the same
/// counts that the scatter (and SocketTransport's frame copy) consume, so
/// every arena word inside a slice is written before any inbox() reads it.
///
/// The staging/arena machinery is deliberately reusable: SocketTransport
/// derives from it, lays the arena out over its owned receivers only, and
/// overrides only deliver() (one frame per peer: count rows, then payload)
/// and the ownership/side-channel hooks.
class ArenaTransport : public Transport {
 public:
  explicit ArenaTransport(int n);

  /// Staged words (summed over every local outbox) from which deliver()
  /// runs its count and scatter passes under cca::parallel_for. Sized between the workloads
  /// it separates: colour coding's ~2.6k-word supersteps stay inline,
  /// the ~0.8M-word APSP squarings and triangle relays go wide.
  static constexpr std::size_t kWideDeliverWords = std::size_t{1} << 16;

  [[nodiscard]] int n() const noexcept override { return n_; }

  void send(NodeId src, NodeId dst, Word w) override;
  void send_words(NodeId src, NodeId dst, std::span<const Word> ws) override;
  [[nodiscard]] std::span<Word> stage(NodeId src, NodeId dst,
                                      std::size_t nwords) override;
  [[nodiscard]] std::vector<StagedPair> staged_snapshot() const override;
  [[nodiscard]] std::vector<Demand> staged_meta() override;
  void discard_staged() override;
  DeliverySummary deliver() override;
  [[nodiscard]] std::span<const Word> inbox(NodeId dst,
                                            NodeId src) const override;
  [[nodiscard]] std::vector<Word> take_inbox(NodeId dst, NodeId src) override;
  [[nodiscard]] std::uint64_t stage_generation(NodeId src) const override;
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept override {
    return inbox_gen_;
  }

 protected:
  void check_node(NodeId v) const;

  [[nodiscard]] std::size_t pair_index(NodeId dst, NodeId src) const noexcept {
    return static_cast<std::size_t>(dst) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(src);
  }

  // deliver() split into its phases so a derived backend can interleave its
  // exchange steps while keeping the canonical summary and arena layout
  // bit-identical. With wide = wide_delivery(), deliver() ==
  // count_staged_words(wide); summarize_counts(); rebuild_arena({0, n});
  // scatter_and_clear_outboxes({0, n}, wide). `wide` runs a pass under
  // cca::parallel_for; the result is the same either way.

  /// Whether the local outboxes hold at least kWideDeliverWords words.
  [[nodiscard]] bool wide_delivery() const noexcept;

  /// Pass 1: fill pair_words_ (indexed src*n + dst) from the staged
  /// segments of every LOCAL outbox.
  void count_staged_words(bool wide);

  /// The canonical DeliverySummary — (src asc, dst asc) demand list with
  /// self/empty pairs excluded, total and per-node volumes — computed from
  /// the CURRENT pair_words_. Every rank that holds the same global counts
  /// derives the bit-identical summary.
  [[nodiscard]] DeliverySummary summarize_counts() const;

  /// Pass 2a: lay out the receiver-major arena for the receivers in `dsts`
  /// from pair_words_ (other receivers' inboxes read empty), bump every
  /// generation (all staged spans and inbox views die), and size the arena
  /// without initialising it.
  void rebuild_arena(NodeSpan dsts);

  /// Pass 2b: scatter every LOCAL outbox's runs bound for `dsts` into
  /// their arena slices and release the outboxes (runs to other
  /// destinations were already framed to their owning ranks).
  /// pair_words_ is consumed as the write cursor.
  void scatter_and_clear_outboxes(NodeSpan dsts, bool wide);

  int n_;

  // Staged words, one flat append-only buffer per source. A segment records
  // a run of consecutive words bound for one destination; runs to the same
  // destination concatenate in append order, so per-pair FIFO is preserved
  // without n^2 queues.
  struct Segment {
    NodeId dst;
    std::uint64_t len;
  };
  std::vector<std::vector<Word>> out_data_;      // [src] staged payload
  std::vector<std::vector<Segment>> out_segs_;   // [src] destination runs

  // Delivered words for the current superstep, in one contiguous arena of
  // arena_cap_ words (allocated for overwrite: never zero-filled).
  // in_off_/in_len_ (indexed dst*n + src) describe each ordered pair's
  // slice; deliver() rebuilds all three every superstep.
  std::unique_ptr<Word[]> arena_;
  std::size_t arena_cap_ = 0;
  std::vector<std::size_t> in_off_;
  std::vector<std::size_t> in_len_;
  std::vector<std::size_t> pair_words_;          // scratch: src*n + dst

  // Span-invalidation debug generations. The per-source counter is written
  // only by the thread staging for that source, which the staging contract
  // already makes exclusive.
  std::vector<std::uint64_t> stage_gen_;
  std::uint64_t inbox_gen_ = 0;
};

}  // namespace cca::clique
