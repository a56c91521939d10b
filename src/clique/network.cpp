#include "clique/network.hpp"

#include <algorithm>
#include <chrono>

#include "clique/routing.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::clique {

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

namespace {

/// The default data plane: an ambient TransportScope's factory if one is
/// live on this thread (multi-process runs shard internally-constructed
/// Networks this way), else the in-process arena.
std::unique_ptr<Transport> make_default_transport(int n) {
  if (const TransportScope::Factory* f = TransportScope::current())
    return (*f)(n);
  return std::make_unique<ArenaTransport>(n);
}

}  // namespace

Network::Network(int n) : Network(make_default_transport(n)) {}

Network::Network(std::unique_ptr<Transport> transport)
    : n_(transport ? transport->n() : 0), transport_(std::move(transport)) {
  CCA_VALIDATE(transport_ != nullptr, "transport must not be null");
  CCA_VALIDATE(n_ >= 1, "clique size must be >= 1");
  owned_ = transport_->owned();
  CCA_EXPECTS(owned_.begin >= 0 && owned_.begin < owned_.end &&
              owned_.end <= n_);
  tracker_.resize(n_);
  if (const FaultPlan* ambient = FaultScope::current())
    install_faults(*ambient);
}

std::uint64_t Network::stage_generation(NodeId src) const {
  return transport_->stage_generation(src);
}

void Network::send(NodeId src, NodeId dst, Word w) {
  CCA_EXPECTS(owns(src));  // only the owning rank may speak for a node
  tracker_.on_stage(src, stats_.supersteps);
  transport_->send(src, dst, w);
}

void Network::send_words(NodeId src, NodeId dst, std::span<const Word> ws) {
  CCA_EXPECTS(owns(src));
  tracker_.on_stage(src, stats_.supersteps);
  transport_->send_words(src, dst, ws);
}

std::span<Word> Network::stage(NodeId src, NodeId dst, std::size_t nwords) {
  CCA_EXPECTS(owns(src));
  tracker_.on_stage(src, stats_.supersteps);
  return transport_->stage(src, dst, nwords);
}

void Network::sync_node_words(std::span<Word> slots) {
  CCA_EXPECTS(slots.size() == static_cast<std::size_t>(n_));
  if (owns_all()) return;
  // Reuse the variable-size path with unit blocks: offsets[v] = v.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n_) + 1);
  for (std::size_t v = 0; v < offsets.size(); ++v) offsets[v] = v;
  transport_->allgather_blocks(slots, offsets);
}

void Network::allgather_node_blocks(std::span<Word> data,
                                    std::span<const std::size_t> offsets) {
  CCA_EXPECTS(offsets.size() == static_cast<std::size_t>(n_) + 1);
  CCA_EXPECTS(offsets.back() <= data.size());
  if (owns_all()) return;
  transport_->allgather_blocks(data, offsets);
}

const Schedule& Network::cached_schedule(const std::vector<Demand>& demands,
                                         bool* hit) {
  const SplitGroup* group = nullptr;
  if (!owns_all()) {
    if (!shared_split_) {
      shared_split_ = std::make_unique<SharedSplit>();
      shared_split_->group = split_group(*transport_);
      auto* shared = shared_split_.get();
      shared->group.allgather = [shared, inner = shared->group.allgather](
                                    std::span<Word> data,
                                    std::span<const std::size_t> offsets) {
        const auto t0 = wall_now_ns();
        inner(data, offsets);
        shared->wire_ns += wall_now_ns() - t0;
      };
    }
    shared_split_->wire_ns = 0;
    group = &shared_split_->group;
  }
  const auto t0 = wall_now_ns();
  const auto& sched = schedule_cache_.get(n_, demands, hit, group);
  stats_.schedule_wall_ns += wall_now_ns() - t0;
  if (group != nullptr) stats_.schedule_wall_ns -= shared_split_->wire_ns;
  return sched;
}

std::int64_t Network::prepare_schedule(const std::vector<Demand>& demands) {
  if (demands.empty()) return 0;
  return cached_schedule(demands, nullptr).rounds;
}

std::int64_t Network::route_rounds(Router router,
                                   const std::vector<Demand>& demands) {
  if (router == Router::Direct) return rounds_direct(n_, demands);
  // The Euler-split is deterministic in the demand list, so iterated
  // workloads with byte-identical traffic shapes (APSP squarings, Seidel
  // levels, girth probes, batched products) pay the O(words * log maxdeg)
  // class sequence once per shape.
  if (demands.empty()) return 0;
  bool hit = false;
  const auto rounds = cached_schedule(demands, &hit).rounds;
  if (hit)
    ++stats_.schedule_hits;
  else
    ++stats_.schedule_misses;
  return rounds;
}

std::int64_t Network::volume_bound_rounds(
    const std::vector<std::int64_t>& sent_by,
    const std::vector<std::int64_t>& recv_by) const {
  if (n_ <= 1) return 0;
  std::int64_t need = 0;
  for (int v = 0; v < n_; ++v) {
    const auto vol = std::max(sent_by[static_cast<std::size_t>(v)],
                              recv_by[static_cast<std::size_t>(v)]);
    need = std::max(need, (vol + n_ - 2) / (n_ - 1));
  }
  return need;
}

void Network::deliver() { deliver(Router::KoenigRelay); }

void Network::deliver(Router router) {
  // Staging is safe from parallel regions (one src per iteration); the
  // delivery phase change is not — it mutates every outbox and the arena.
  // The tracker hook fires first so an enabled checker reports the typed
  // violation with its superstep coordinate; the bare contract backstops
  // unchecked builds.
  tracker_.on_phase_change("deliver", stats_.supersteps);
  CCA_EXPECTS(!in_parallel_region());
  if (fault_plan_) {
    deliver_hardened(router);
    return;
  }

  // Fault-free path: exactly the pre-seam accounting, with the data plane
  // behind the Transport interface.
  const auto sum = transport_->deliver();

  stats_.rounds += route_rounds(router, sum.demands);
  stats_.supersteps += 1;
  stats_.total_words += sum.total_words;
  const auto max_send =
      *std::max_element(sum.sent_by.begin(), sum.sent_by.end());
  const auto max_recv =
      *std::max_element(sum.recv_by.begin(), sum.recv_by.end());
  stats_.max_node_send = std::max(stats_.max_node_send, max_send);
  stats_.max_node_recv = std::max(stats_.max_node_recv, max_recv);
  // Schedule-independent lower bound for this superstep.
  if (n_ > 1 && sum.total_words > 0)
    stats_.bound_rounds += volume_bound_rounds(sum.sent_by, sum.recv_by);
}

bool Network::node_dead_at(std::int64_t tick) const noexcept {
  if (!fault_plan_) return false;
  const auto& p = *fault_plan_;
  if (p.crash_node < 0 || p.crash_node >= n_) return false;
  if (tick < p.crash_superstep) return false;
  return p.crash_down_for < 0 ||
         tick < p.crash_superstep + p.crash_down_for;
}

void Network::deliver_hardened(Router router) {
  const FaultPlan& plan = *fault_plan_;
  const auto t0 = wall_now_ns();
  const std::int64_t tick = fault_clock_++;
  // All fault accounting is planned from the GLOBAL staged metadata: coin
  // verdicts and wire volumes are pure functions of (src, dst, words) and
  // the plan's counters, so every rank of a sharded transport draws the
  // identical verdicts and charges the identical rounds — bit-identical to
  // the single-process oracle. Payloads enter only through the corruption
  // detection proof below, which needs the staged bits and therefore runs
  // on the frame's owning rank alone.
  const auto meta = transport_->staged_meta();
  const auto snap = transport_->staged_snapshot();
  // snap is the (owned-source) subsequence of meta in the same canonical
  // order; match them up so each frame's payload — where locally present —
  // is at hand for the corruption check.
  std::vector<const StagedPair*> payload_of(meta.size(), nullptr);
  for (std::size_t i = 0, j = 0; i < meta.size() && j < snap.size(); ++i)
    if (snap[j].src == meta[i].src && snap[j].dst == meta[i].dst)
      payload_of[i] = &snap[j++];

  // Per-superstep accumulators, committed in one place whether the
  // superstep succeeds or aborts — failure paths are charged for real.
  std::int64_t rounds = 0;
  std::int64_t bound = 0;
  std::int64_t total = 0;
  std::int64_t injected = 0;
  std::int64_t retrans_rounds = 0;
  std::int64_t retrans_words = 0;
  auto commit = [&] {
    stats_.rounds += rounds;
    stats_.bound_rounds += bound;
    stats_.supersteps += 1;
    stats_.total_words += total;
    stats_.faults_injected += injected;
    stats_.retransmit_rounds += retrans_rounds;
    stats_.retransmit_words += retrans_words;
    stats_.recovery_wall_ns += wall_now_ns() - t0;
  };
  auto update_peaks = [&](const std::vector<std::int64_t>& sent,
                          const std::vector<std::int64_t>& recv) {
    stats_.max_node_send = std::max(
        stats_.max_node_send, *std::max_element(sent.begin(), sent.end()));
    stats_.max_node_recv = std::max(
        stats_.max_node_recv, *std::max_element(recv.begin(), recv.end()));
  };

  // Crash detection. Frames from live senders still travel (and are
  // charged, checksum trailer included) before the verification round
  // reveals the dead peer; frames FROM the dead node were never sent. The
  // superstep then aborts with the typed error — partial inboxes are never
  // exposed, so a silent wrong answer is impossible.
  if (node_dead_at(tick)) {
    const NodeId dead = plan.crash_node;
    bool involved = false;
    for (const auto& d : meta)
      if (d.src == dead || d.dst == dead) {
        involved = true;
        break;
      }
    if (involved) {
      std::vector<Demand> demands;
      std::vector<std::int64_t> sent(static_cast<std::size_t>(n_), 0);
      std::vector<std::int64_t> recv(static_cast<std::size_t>(n_), 0);
      for (const auto& d : meta) {
        if (d.src == dead) continue;
        const auto w = d.words + 1;
        demands.push_back({d.src, d.dst, w});
        sent[static_cast<std::size_t>(d.src)] += w;
        recv[static_cast<std::size_t>(d.dst)] += w;
        total += w;
      }
      rounds = route_rounds(router, demands) + 1;  // +1: the verify round
      bound = volume_bound_rounds(sent, recv) + 1;
      injected = 1;  // the crash
      update_peaks(sent, recv);
      transport_->discard_staged();
      commit();
      throw PeerFailure(PeerFailure::Reason::Crash, dead, tick);
    }
    // The dead node is idle this superstep; the survivors' traffic
    // proceeds and the crash surfaces at its next involvement or vote.
  }

  // One delivery attempt of one frame: draw the deterministic coins, size
  // the wire volume (payload + checksum trailer, doubled if duplicated),
  // and report whether the receiver's verification accepts the frame. The
  // duplicate copy rides the same links and is discarded by framing; a
  // drop loses the frame for the whole attempt (both copies — it models
  // the link, not a packet); a corruption flips one hashed bit of the wire
  // frame and is detected with CERTAINTY: splitmix64 is a bijection, so
  // the absorb chain maps any single-bit difference to a different final
  // checksum — which is exactly what justifies handing the pristine staged
  // bits to the transport once every frame verifies. The verdict itself is
  // payload-independent; the detection proof runs only where the payload
  // is locally staged (every rank on arena, the owning rank under sockets).
  auto attempt_frame = [&](const Demand& d, const StagedPair* payload,
                           int attempt, std::int64_t& wire_words) -> bool {
    const auto len = static_cast<std::size_t>(d.words);
    const auto w = d.words + 1;
    wire_words = w;
    if (fault_coin(fault_hash(plan.seed, tick, attempt, d.src, d.dst,
                              FaultKind::Duplicate),
                   plan.duplicate_prob)) {
      wire_words += w;
      ++injected;
    }
    if (fault_coin(fault_hash(plan.seed, tick, attempt, d.src, d.dst,
                              FaultKind::Drop),
                   plan.drop_prob)) {
      ++injected;
      return false;  // absence is detected by the expected-frame protocol
    }
    const auto corrupt_hash = fault_hash(plan.seed, tick, attempt, d.src,
                                         d.dst, FaultKind::Corrupt);
    if (!fault_coin(corrupt_hash, plan.corrupt_prob)) return true;
    ++injected;
    if (payload != nullptr) {
      std::vector<Word> frame(payload->words.begin(), payload->words.end());
      frame.push_back(frame_checksum(d.src, d.dst, payload->words));
      const auto bit = splitmix64(corrupt_hash) %
                       (static_cast<std::uint64_t>(frame.size()) * 64);
      frame[bit / 64] ^= Word{1} << (bit % 64);
      const bool detected =
          frame_checksum(d.src, d.dst,
                         std::span<const Word>(frame.data(), len)) !=
          frame[len];
      CCA_ASSERT(detected);  // provable: the absorb chain is injective per bit
    }
    return false;
  };

  // Attempt 0: every staged frame.
  std::vector<Demand> demands;
  std::vector<std::int64_t> sent(static_cast<std::size_t>(n_), 0);
  std::vector<std::int64_t> recv(static_cast<std::size_t>(n_), 0);
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < meta.size(); ++i) {
    std::int64_t w = 0;
    const bool ok = attempt_frame(meta[i], payload_of[i], 0, w);
    demands.push_back({meta[i].src, meta[i].dst, w});
    sent[static_cast<std::size_t>(meta[i].src)] += w;
    recv[static_cast<std::size_t>(meta[i].dst)] += w;
    total += w;
    if (!ok) failed.push_back(i);
  }
  rounds = route_rounds(router, demands);
  bound = volume_bound_rounds(sent, recv);
  if (!meta.empty()) {
    rounds += 1;  // verification/ack round (explicit protocol charge)
    bound += 1;
    // Straggler: the synchronous barrier waits for the slowest node, so
    // any straggling node delays the whole superstep once. Charged to
    // rounds only — slowness moves no words, so the volume bound is
    // untouched.
    bool straggled = false;
    for (NodeId v = 0; v < n_; ++v)
      if (fault_coin(fault_hash(plan.seed, tick, 0, v, -1,
                                FaultKind::Straggle),
                     plan.straggler_prob)) {
        straggled = true;
        ++injected;
      }
    if (straggled) rounds += plan.straggler_delay;
  }
  update_peaks(sent, recv);

  // Bounded retransmission: each attempt re-sends exactly the failed
  // frames (one NACK control round + the exact schedule of the re-sent
  // demands), re-drawing the fault coins with the attempt salt. The
  // charges land in rounds/total_words AND in the retransmit_* fields so
  // the failure-path share stays visible.
  for (int attempt = 1; !failed.empty(); ++attempt) {
    if (attempt > plan.max_retransmit) {
      transport_->discard_staged();
      commit();
      throw PeerFailure(PeerFailure::Reason::RetransmitExhausted, -1, tick);
    }
    std::vector<Demand> rdemands;
    std::vector<std::int64_t> rsent(static_cast<std::size_t>(n_), 0);
    std::vector<std::int64_t> rrecv(static_cast<std::size_t>(n_), 0);
    std::int64_t rtotal = 0;
    std::vector<std::size_t> still_failed;
    for (const auto i : failed) {
      std::int64_t w = 0;
      const bool ok = attempt_frame(meta[i], payload_of[i], attempt, w);
      rdemands.push_back({meta[i].src, meta[i].dst, w});
      rsent[static_cast<std::size_t>(meta[i].src)] += w;
      rrecv[static_cast<std::size_t>(meta[i].dst)] += w;
      rtotal += w;
      if (!ok) still_failed.push_back(i);
    }
    const auto r = route_rounds(router, rdemands) + 1;  // +1: NACK round
    rounds += r;
    bound += volume_bound_rounds(rsent, rrecv) + 1;
    total += rtotal;
    retrans_rounds += r;
    retrans_words += rtotal;
    update_peaks(rsent, rrecv);
    failed = std::move(still_failed);
  }

  // Every frame verified end-to-end: the transport hands the receivers the
  // pristine staged bits (bit-identical to what verification accepted).
  (void)transport_->deliver();
  commit();
}

std::vector<std::uint8_t> Network::liveness_vote() {
  // One word per link, exactly the convergence-vote charge: every node
  // announces "alive" to every other node, so the flags below are common
  // knowledge after one round.
  if (n_ > 1) charge_rounds(1);
  std::vector<std::uint8_t> alive(static_cast<std::size_t>(n_), 1);
  if (fault_plan_) {
    const auto tick = fault_clock_++;
    if (node_dead_at(tick))
      alive[static_cast<std::size_t>(fault_plan_->crash_node)] = 0;
  }
  return alive;
}

void Network::install_faults(const FaultPlan& plan) {
  CCA_VALIDATE(plan.crash_node < 0 || owns_all(),
               "crash faults require full node ownership: recovering a "
               "crashed superstep replays the GLOBAL staged payloads, which "
               "a sharded transport holds only on their owning ranks. "
               "Drop/corrupt/duplicate/straggler plans compose with sharded "
               "transports — their verdicts and charges are planned from "
               "staged_meta(), which is common knowledge on every rank");
  const auto prob_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  CCA_VALIDATE(prob_ok(plan.drop_prob) && prob_ok(plan.corrupt_prob) &&
                   prob_ok(plan.duplicate_prob) &&
                   prob_ok(plan.straggler_prob),
               "fault probabilities must lie in [0, 1]");
  CCA_VALIDATE(plan.straggler_delay >= 0, "straggler_delay must be >= 0");
  CCA_VALIDATE(plan.crash_node < n_, "crash_node must be < n");
  CCA_VALIDATE(plan.max_retransmit >= 1, "max_retransmit must be >= 1");
  CCA_VALIDATE(plan.max_recovery_waits >= 0,
               "max_recovery_waits must be >= 0");
  fault_plan_ = plan;
  fault_clock_ = 0;
}

void Network::discard_staged() {
  tracker_.on_phase_change("discard_staged", stats_.supersteps);
  transport_->discard_staged();
}

std::span<const Word> Network::inbox(NodeId dst, NodeId src) const {
  return transport_->inbox(dst, src);
}

std::vector<Word> Network::take_inbox(NodeId dst, NodeId src) {
  return transport_->take_inbox(dst, src);
}

void Network::charge_rounds(std::int64_t rounds) {
  CCA_EXPECTS(rounds >= 0);
  stats_.rounds += rounds;
  // Explicit protocol charges are taken at face value for the bound too
  // (the primitives charging this way use tight schedules).
  stats_.bound_rounds += rounds;
}

}  // namespace cca::clique
