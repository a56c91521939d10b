// The congested clique network model.
//
// n nodes communicate in synchronous rounds; in each round every ordered pair
// of nodes may exchange one O(log n)-bit message. We fix the message unit as
// one 64-bit machine word (sufficient for values of absolute value poly(n));
// larger entries are encoded as multiple words, which reproduces the paper's
// "factor b / log n" overhead for b-bit entries (Section 1.1).
//
// Algorithms are written in bulk-synchronous supersteps: every node stages an
// outbox of words computed from its own local state, then `deliver()` moves
// all staged words to the receivers' inboxes and charges the EXACT number of
// clique rounds that a concrete delivery discipline needs (see routing.hpp).
// Round counts are produced by evaluating the discipline's schedule, never by
// plugging n into an asymptotic formula.
//
// Architecture: Network is the ACCOUNTING layer — demand scheduling, round
// charging, TrafficStats, the schedule cache, and the fault/integrity
// machinery. Relay supersteps have one scheduler, the Koenig Euler split;
// its schedules are cached per demand shape. Direct delivery serves the
// few protocols whose words each ride their own link. The oblivious hash
// and random relays of routing.hpp are offline baselines over demand lists
// and never run here. The data plane (staging buffers, delivery arena,
// inboxes) lives behind the clique::Transport seam (transport.hpp); the
// in-process ArenaTransport is the default backend, and the multi-process
// SocketTransport (socket_transport.hpp) slots in without touching any
// round accounting.
//
// Fault model (fault.hpp): installing a FaultPlan hardens every deliver() —
// payloads are framed with SplitMix64 checksums (one trailer word per
// nonempty off-diagonal pair, charged for real), deterministic seeded faults
// are injected, verification failures trigger bounded retransmission
// supersteps charged into retransmit_rounds/retransmit_words, and crashes
// surface as typed PeerFailure. With no plan installed the fault path is
// completely bypassed: rounds, words, and schedules are bit-identical to the
// pre-seam engine.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "clique/fault.hpp"
#include "clique/routing.hpp"
#include "clique/transport.hpp"
#include "util/analysis.hpp"
#include "util/contracts.hpp"

namespace cca::clique {

/// Delivery disciplines. See routing.hpp for the schedules.
enum class Router {
  /// Every word travels on its (src,dst) link; rounds = max link load.
  Direct,
  /// Two-phase relay scheduled by Euler-split edge colouring of the demand
  /// multigraph (a constructive Koenig/Birkhoff decomposition). Deterministic
  /// and near-optimal for arbitrary instances; this is the executable
  /// counterpart of the routing guarantees of Lenzen [46] and
  /// Dolev et al. [24, Lemma 1]. deliver() uses it.
  KoenigRelay,
};

/// Cumulative communication statistics for a Network.
struct TrafficStats {
  std::int64_t rounds = 0;          ///< total clique rounds charged
  /// Schedule-independent lower bound: per superstep every node must push
  /// its staged words through n-1 ports and ingest its received words the
  /// same way, so no routing discipline can beat
  /// max_v ceil(max(out_v, in_v) / (n-1)). Summed over supersteps (explicit
  /// protocol charges count at face value). `rounds / bound_rounds` is the
  /// router's constant-factor overhead.
  std::int64_t bound_rounds = 0;
  std::int64_t supersteps = 0;      ///< delivery operations performed
  std::int64_t total_words = 0;     ///< words moved across the network
  std::int64_t max_node_send = 0;   ///< max words staged by one node, one superstep
  std::int64_t max_node_recv = 0;   ///< max words received by one node, one superstep
  /// Koenig schedule-cache counters: supersteps whose routing schedule was
  /// reused from an earlier byte-identical demand list vs computed fresh.
  /// hits + misses == KoenigRelay supersteps with non-empty demands. The
  /// counters are wall-clock telemetry only: a hit replays the exact same
  /// schedule, so rounds/words are unaffected.
  std::int64_t schedule_hits = 0;
  std::int64_t schedule_misses = 0;
  /// Host wall-clock nanoseconds spent INSIDE the relay scheduler (cache
  /// lookups included) by deliver() and prepare_schedule(). Pure telemetry —
  /// it measures the simulator's own planning cost, never the simulated
  /// rounds — and machine-dependent like recovery_wall_ns. Under a sharded
  /// transport the shared split's side-channel exchanges are transport
  /// time and are left out.
  std::int64_t schedule_wall_ns = 0;
  /// Fault events injected by the installed FaultPlan: drops, corruptions,
  /// duplicates, straggling nodes, and crash detections, summed over every
  /// delivery attempt.
  std::int64_t faults_injected = 0;
  /// Rounds spent on retransmission attempts (per attempt: one NACK control
  /// round plus the exact schedule of the failed frames). Included in
  /// `rounds` — this field isolates the failure-path share.
  std::int64_t retransmit_rounds = 0;
  /// Words re-sent by retransmission attempts (checksum trailers included).
  /// Included in `total_words`.
  std::int64_t retransmit_words = 0;
  /// Host wall-clock nanoseconds spent inside hardened deliver() calls
  /// (snapshot, checksums, fault coins, verification, retransmission
  /// bookkeeping — scheduler and arena time included). Machine-dependent
  /// telemetry for the fault-path overhead story; 0 when no plan installed.
  std::int64_t recovery_wall_ns = 0;

  friend TrafficStats operator-(const TrafficStats& a, const TrafficStats& b) {
    return TrafficStats{a.rounds - b.rounds,
                        a.bound_rounds - b.bound_rounds,
                        a.supersteps - b.supersteps,
                        a.total_words - b.total_words,
                        a.max_node_send,
                        a.max_node_recv,
                        a.schedule_hits - b.schedule_hits,
                        a.schedule_misses - b.schedule_misses,
                        a.schedule_wall_ns - b.schedule_wall_ns,
                        a.faults_injected - b.faults_injected,
                        a.retransmit_rounds - b.retransmit_rounds,
                        a.retransmit_words - b.retransmit_words,
                        a.recovery_wall_ns - b.recovery_wall_ns};
  }

  /// Accumulate another run's statistics (used by multi-phase algorithms
  /// that run several networks).
  TrafficStats& operator+=(const TrafficStats& o) {
    rounds += o.rounds;
    bound_rounds += o.bound_rounds;
    supersteps += o.supersteps;
    total_words += o.total_words;
    if (o.max_node_send > max_node_send) max_node_send = o.max_node_send;
    if (o.max_node_recv > max_node_recv) max_node_recv = o.max_node_recv;
    schedule_hits += o.schedule_hits;
    schedule_misses += o.schedule_misses;
    schedule_wall_ns += o.schedule_wall_ns;
    faults_injected += o.faults_injected;
    retransmit_rounds += o.retransmit_rounds;
    retransmit_words += o.retransmit_words;
    recovery_wall_ns += o.recovery_wall_ns;
    return *this;
  }
};

/// A congested clique of n nodes with exact round accounting.
class Network {
 public:
  /// Create a clique of n >= 1 nodes on the default in-process arena
  /// backend — unless a clique::TransportScope is live on this thread, in
  /// which case its factory builds the data plane (the hook multi-process
  /// runs use to shard internally-constructed Networks; see
  /// socket_transport.hpp). If a clique::FaultScope is live on this
  /// thread, its plan is installed automatically.
  explicit Network(int n);

  /// Create a clique over a caller-supplied data plane (the Transport
  /// seam). The clique size is transport->n().
  explicit Network(std::unique_ptr<Transport> transport);

  [[nodiscard]] int n() const noexcept { return n_; }

  /// The contiguous node shard this process owns (the transport's span,
  /// cached). In-process backends own the full span; under a sharded
  /// backend, staging is legal only from owned sources and only the owned
  /// destinations' local state is authoritative after a superstep.
  [[nodiscard]] NodeSpan owned() const noexcept { return owned_; }
  [[nodiscard]] bool owns(NodeId v) const noexcept {
    return owned_.contains(v);
  }
  [[nodiscard]] bool owns_all() const noexcept { return owned_.full(n_); }

  /// Realize common knowledge of one word per node: on entry each rank has
  /// written the slots of its OWNED nodes (slots.size() == n); on return
  /// every rank holds every slot. Free in the clique model — the calling
  /// primitive charges its documented rounds separately — and a no-op when
  /// this process owns everything. Never touches staged state or inboxes.
  void sync_node_words(std::span<Word> slots);

  /// Variable-size variant: node v's block is data[offsets[v],
  /// offsets[v+1]) (offsets has n+1 entries). Same contract as
  /// sync_node_words.
  void allgather_node_blocks(std::span<Word> data,
                             std::span<const std::size_t> offsets);

  /// Stage a single word from src to dst for the current superstep.
  /// Self-sends (src == dst) are legal and free: they bypass the network.
  /// Staging requires owns(src) — under a sharded transport only the
  /// owning rank may speak for a node (asserted).
  void send(NodeId src, NodeId dst, Word w);

  /// Stage a block of words from src to dst (kept in order).
  void send_words(NodeId src, NodeId dst, std::span<const Word> ws);

  /// Reserve `nwords` staged words from src to dst and return a writable
  /// span over them (zero-copy send staging: codecs encode directly into
  /// network memory via encode_into, with no intermediate buffer and no
  /// copy). The reserved words read as zero until written. The span is
  /// valid until the NEXT staging call for the SAME src (stage / send /
  /// send_words may grow src's flat buffer and relocate it) or deliver().
  ///
  /// Thread-safety invariant (asserted in deliver()): each source owns its
  /// per-source outbox exclusively, so staging MAY run under
  /// cca::parallel_for provided every parallel iteration stages from its
  /// own distinct src — no locks needed, and the resulting word layout is
  /// identical to the serial order because per-source append order is
  /// unchanged. Staging from the same src on two threads is a data race.
  /// deliver() itself must stay OUTSIDE parallel regions.
  ///
  /// Both halves of this contract are machine-checked when analysis
  /// checking is on (util/analysis.hpp; default in CCA_CHECKED builds):
  /// same-source staging from two threads of one parallel_for region and
  /// deliver()/discard_staged() inside a region fault with a typed
  /// cca::ContractViolation recorded in analysis::Report.
  [[nodiscard]] std::span<Word> stage(NodeId src, NodeId dst,
                                      std::size_t nwords);

  /// Plan: the exact KoenigRelay rounds a superstep with this demand list
  /// would be charged, WITHOUT staging or delivering anything. `demands`
  /// must be in the canonical (src, dst)-ascending order deliver() emits
  /// (self-pairs and zero-word entries excluded). The computed schedule is
  /// inserted into the schedule cache, so a dispatcher that plans a
  /// superstep and then actually runs it pays the Euler split once — the
  /// planning hook behind MmKind::Auto's engine selection. No TrafficStats
  /// field moves (planning is free local computation in the clique model;
  /// the hit/miss telemetry counts delivered supersteps only).
  [[nodiscard]] std::int64_t prepare_schedule(
      const std::vector<Demand>& demands);

  /// Deliver every staged word on the KoenigRelay schedule; charges
  /// rounds. With a FaultPlan installed this is the hardened superstep (see
  /// the header comment); it may throw clique::PeerFailure.
  void deliver();

  /// Deliver using an explicit router (Direct: for protocols whose words
  /// each travel on their own link, such as a one-word broadcast).
  void deliver(Router router);

  /// Words received by dst from src in the most recent superstep, FIFO.
  /// The span views the delivery arena: it stays valid until the next
  /// deliver() (or take_inbox of the same pair), which rebuilds the arena.
  [[nodiscard]] std::span<const Word> inbox(NodeId dst, NodeId src) const;

  /// Copy the inbox out as an owning vector and mark the pair consumed
  /// (subsequent inbox() calls for the pair see an empty view).
  [[nodiscard]] std::vector<Word> take_inbox(NodeId dst, NodeId src);

  /// Charge rounds for a protocol the caller scheduled manually.
  void charge_rounds(std::int64_t rounds);

  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }

  /// The Koenig schedule cache (exposed for tests and diagnostics).
  [[nodiscard]] const ScheduleCache& schedule_cache() const noexcept {
    return schedule_cache_;
  }

  // --- Fault injection & recovery (see fault.hpp) -----------------------

  /// Install a deterministic fault plan; every subsequent deliver() runs
  /// the hardened integrity protocol. Resets the fault clock. Throws
  /// cca::InvalidArgument on malformed plans (probabilities outside [0,1],
  /// crash_node out of range, non-positive retransmission budget).
  /// Drop/corrupt/duplicate/straggler plans compose with sharded
  /// transports: the hardened path plans from Transport::staged_meta(),
  /// which is common knowledge on every rank, so verdicts and charges stay
  /// bit-identical to the single-process oracle. Crash plans
  /// (crash_node >= 0) still require full ownership — recovering a crashed
  /// superstep replays the GLOBAL staged payloads.
  void install_faults(const FaultPlan& plan);

  /// Remove the plan; deliver() returns to the exact fault-free path.
  void clear_faults() noexcept { fault_plan_.reset(); }

  /// The installed plan, or nullptr.
  [[nodiscard]] const FaultPlan* fault_plan() const noexcept {
    return fault_plan_ ? &*fault_plan_ : nullptr;
  }

  /// Ticks of the fault clock consumed so far (hardened delivers +
  /// liveness votes since install_faults).
  [[nodiscard]] std::int64_t fault_clock() const noexcept {
    return fault_clock_;
  }

  /// Charged liveness vote: every node announces "I am alive" on each of
  /// its links (1 round, like a convergence vote), and the returned flags
  /// are what the vote reveals under the installed plan. Advances the
  /// fault clock, so waiting on a transiently crashed peer makes progress.
  /// Never throws; with no plan every node is alive.
  [[nodiscard]] std::vector<std::uint8_t> liveness_vote();

  /// Drop all staged words without delivering (crash-unwind path; also
  /// invoked by the hardened deliver before it throws).
  void discard_staged();

  /// The data plane behind the seam (exposed for tests/diagnostics).
  [[nodiscard]] const Transport& transport() const noexcept {
    return *transport_;
  }

  /// Debug generation counters for the span-invalidation contract. The
  /// per-source staging generation increments on every send / send_words /
  /// stage call for that source and on deliver(); a span returned by
  /// stage(src, ...) is valid only while stage_generation(src) keeps the
  /// value it had when the span was handed out. The inbox generation
  /// increments on every deliver(): inbox() views are valid only while it
  /// is unchanged. Under CCA_SANITIZE builds the transport additionally
  /// moves the backing buffers to freshly allocated storage at every
  /// generation bump, so code holding a span across its invalidation point
  /// faults as a hard ASan heap-use-after-free at the offending read/write
  /// instead of silently aliasing relocated-but-still-mapped memory.
  [[nodiscard]] std::uint64_t stage_generation(NodeId src) const;
  [[nodiscard]] std::uint64_t inbox_generation() const noexcept {
    return transport_->inbox_generation();
  }

 private:
  /// Exact rounds the given router charges for this demand list (consults
  /// and feeds the schedule cache for KoenigRelay; updates the hit/miss
  /// telemetry and schedule_wall_ns).
  [[nodiscard]] std::int64_t route_rounds(Router router,
                                          const std::vector<Demand>& demands);

  /// The Koenig schedule for `demands` from the cache, timed into
  /// schedule_wall_ns. Under a sharded transport a miss runs the split
  /// shared over the ranks; its side-channel exchanges are transport time,
  /// so they are left out of schedule_wall_ns.
  const Schedule& cached_schedule(const std::vector<Demand>& demands,
                                  bool* hit);

  /// The schedule-independent per-superstep lower bound for these volumes.
  [[nodiscard]] std::int64_t volume_bound_rounds(
      const std::vector<std::int64_t>& sent_by,
      const std::vector<std::int64_t>& recv_by) const;

  /// The hardened superstep (plan installed): checksum framing, fault
  /// injection, verification, charged retransmission, crash detection.
  void deliver_hardened(Router router);

  /// True if the plan's crash_node is down at fault-clock `tick`.
  [[nodiscard]] bool node_dead_at(std::int64_t tick) const noexcept;

  int n_;
  NodeSpan owned_;  // transport_->owned(), cached at construction

  // The data plane (staging buffers, delivery arena, inboxes).
  std::unique_ptr<Transport> transport_;

  TrafficStats stats_;

  // Koenig schedules cached by demand fingerprint (see routing.hpp). Direct
  // supersteps need no schedule and never consult it.
  ScheduleCache schedule_cache_;

  // The ranks a sharded transport's schedule misses share their split
  // with, learned on the first miss, and the wall time of the group's
  // exchanges. Heap-held: the group's allgather points back at wire_ns.
  struct SharedSplit {
    SplitGroup group;
    std::int64_t wire_ns = 0;
  };
  std::unique_ptr<SharedSplit> shared_split_;

  // Fault layer state: the installed plan (if any) and the deterministic
  // clock its coins are keyed by.
  std::optional<FaultPlan> fault_plan_;
  std::int64_t fault_clock_ = 0;

  // Runtime contract instrumentation (analysis.hpp): per-source staging
  // ownership + phase-change checking. Every hook is a single relaxed
  // atomic load while checking is disabled (the default outside
  // CCA_CHECKED builds); no accounting state ever depends on it.
  analysis::StagingTracker tracker_;
};

/// Typed guard for the few engines whose CENSUS genuinely reads non-owned
/// rows (such as the bilinear fast path's coefficient combination) and
/// which therefore cannot run under a sharded transport. Everything else
/// in the engine layer is ownership-generic — keep this helper only at
/// those surviving sites (each tagged lint:allow for the contract linter),
/// never as a blanket entry guard. `alternative` names the sharded route
/// the caller should take instead.
inline void require_full_ownership(const Network& net, const char* engine,
                                   const char* alternative) {
  if (net.owns_all()) return;
  char msg[256];
  std::snprintf(msg, sizeof msg,
                "%s requires full node ownership (its census reads non-owned "
                "rows); %s",
                engine, alternative);
  throw InvalidArgument(msg);
}

/// Measures the rounds consumed by a scoped region of an algorithm.
class RoundMeter {
 public:
  explicit RoundMeter(const Network& net) noexcept
      : net_(&net), start_(net.stats()) {}

  [[nodiscard]] std::int64_t rounds() const noexcept {
    return net_->stats().rounds - start_.rounds;
  }
  [[nodiscard]] TrafficStats delta() const noexcept {
    return net_->stats() - start_;
  }

 private:
  const Network* net_;
  TrafficStats start_;
};

}  // namespace cca::clique
