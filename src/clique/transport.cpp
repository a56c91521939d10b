#include "clique/transport.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "util/analysis.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::clique {

namespace {

/// Phase changes (deliver / discard_staged) mutate every outbox and the
/// arena, so they must not run inside a cca::parallel_for region. With
/// analysis checking on this faults through the typed ContractViolation
/// path (recorded in analysis::Report); the bare contract backstops
/// unchecked builds. The transport has no superstep counter — Network's
/// tracker hook, which fires first on the Network-level paths, carries
/// that coordinate.
void check_phase_change_serial(const char* what) {
  if (cca::analysis::checking_enabled() && in_parallel_region()) {
    cca::analysis::fail(
        {cca::analysis::ContractKind::DeliverInParallel, -1, -1, -1,
         std::string("ArenaTransport::") + what +
             " invoked inside a cca::parallel_for region"});
  }
  CCA_EXPECTS(!in_parallel_region());
}

/// Under CCA_SANITIZE, move a buffer's contents to freshly allocated
/// storage. Every staging call and every deliver() runs this on the buffers
/// whose spans it invalidates, so a span held across its documented
/// invalidation point points into freed memory and ASan reports the first
/// use — even when the capacity would have sufficed and the relocation
/// would otherwise silently not happen.
[[maybe_unused]] void poison_relocate(std::vector<Word>& buf) {
#ifdef CCA_SANITIZE
  std::vector<Word> fresh;
  fresh.reserve(buf.capacity());
  fresh.assign(buf.begin(), buf.end());
  buf.swap(fresh);
#else
  (void)buf;
#endif
}

/// Words staged in the local outboxes: the work estimate of deliver()'s
/// per-source count and scatter passes.
std::size_t staged_words(const std::vector<std::vector<Word>>& outboxes) {
  std::size_t words = 0;
  for (const auto& data : outboxes) words += data.size();
  return words;
}

}  // namespace

ArenaTransport::ArenaTransport(int n)
    : n_((CCA_VALIDATE(n >= 1, "clique size n must be >= 1"), n)),
      out_data_(static_cast<std::size_t>(n)),
      out_segs_(static_cast<std::size_t>(n)),
      in_off_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0),
      in_len_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0),
      pair_words_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                  0),
      stage_gen_(static_cast<std::size_t>(n), 0) {}

void ArenaTransport::check_node(NodeId v) const {
  CCA_EXPECTS(v >= 0 && v < n_);
}

std::uint64_t ArenaTransport::stage_generation(NodeId src) const {
  check_node(src);
  return stage_gen_[static_cast<std::size_t>(src)];
}

void ArenaTransport::send(NodeId src, NodeId dst, Word w) {
  check_node(src);
  check_node(dst);
  const auto s = static_cast<std::size_t>(src);
  ++stage_gen_[s];
  poison_relocate(out_data_[s]);
  out_data_[s].push_back(w);
  auto& segs = out_segs_[s];
  if (!segs.empty() && segs.back().dst == dst)
    ++segs.back().len;
  else
    segs.push_back({dst, 1});
}

void ArenaTransport::send_words(NodeId src, NodeId dst,
                                std::span<const Word> ws) {
  check_node(src);
  check_node(dst);
  if (ws.empty()) return;
  const auto s = static_cast<std::size_t>(src);
  ++stage_gen_[s];
  poison_relocate(out_data_[s]);
  auto& data = out_data_[s];
  data.insert(data.end(), ws.begin(), ws.end());
  auto& segs = out_segs_[s];
  if (!segs.empty() && segs.back().dst == dst)
    segs.back().len += ws.size();
  else
    segs.push_back({dst, ws.size()});
}

std::span<Word> ArenaTransport::stage(NodeId src, NodeId dst,
                                      std::size_t nwords) {
  check_node(src);
  check_node(dst);
  const auto s = static_cast<std::size_t>(src);
  auto& data = out_data_[s];
  const std::size_t base = data.size();
  if (nwords == 0) return {};
  ++stage_gen_[s];
  poison_relocate(data);
  data.resize(base + nwords, 0);
  auto& segs = out_segs_[s];
  if (!segs.empty() && segs.back().dst == dst)
    segs.back().len += nwords;
  else
    segs.push_back({dst, nwords});
  return {data.data() + base, nwords};
}

std::vector<StagedPair> ArenaTransport::staged_snapshot() const {
  // Per-source pass: accumulate each destination's run-concatenated payload,
  // then emit dst-ascending — sources ascend in the outer loop, giving the
  // canonical order without a global sort.
  std::vector<StagedPair> out;
  std::vector<std::vector<Word>> by_dst(static_cast<std::size_t>(n_));
  for (int src = 0; src < n_; ++src) {
    const auto s = static_cast<std::size_t>(src);
    const Word* read = out_data_[s].data();
    for (const auto& seg : out_segs_[s]) {
      auto& buf = by_dst[static_cast<std::size_t>(seg.dst)];
      buf.insert(buf.end(), read, read + seg.len);
      read += seg.len;
    }
    for (int dst = 0; dst < n_; ++dst) {
      auto& buf = by_dst[static_cast<std::size_t>(dst)];
      if (buf.empty()) continue;
      if (dst != src) out.push_back({src, dst, std::move(buf)});
      buf = {};
    }
  }
  return out;
}

std::vector<Demand> ArenaTransport::staged_meta() {
  // Lengths-only mirror of staged_snapshot(): aggregate each source's
  // destination runs, emit dst-ascending under the ascending source loop.
  // All staged state is local here, so this is the global list already.
  std::vector<Demand> out;
  std::vector<std::int64_t> by_dst(static_cast<std::size_t>(n_), 0);
  for (int src = 0; src < n_; ++src) {
    for (const auto& seg : out_segs_[static_cast<std::size_t>(src)])
      by_dst[static_cast<std::size_t>(seg.dst)] +=
          static_cast<std::int64_t>(seg.len);
    for (int dst = 0; dst < n_; ++dst) {
      auto& words = by_dst[static_cast<std::size_t>(dst)];
      if (words == 0) continue;
      if (dst != src) out.push_back({src, dst, words});
      words = 0;
    }
  }
  return out;
}

void ArenaTransport::discard_staged() {
  check_phase_change_serial("discard_staged");
  for (int src = 0; src < n_; ++src) {
    const auto s = static_cast<std::size_t>(src);
    ++stage_gen_[s];
#ifdef CCA_SANITIZE
    std::vector<Word>().swap(out_data_[s]);
#else
    out_data_[s].clear();
#endif
    out_segs_[s].clear();
  }
}

void ArenaTransport::count_staged_words() {
  // Pass 1: per-pair word counts from the staged segments. Source src
  // writes only its row src*n .. src*n + n of pair_words_.
  const auto nn = static_cast<std::size_t>(n_);
  parallel_for(0, n_, staged_words(out_data_), [&](int src) {
    std::size_t* row = pair_words_.data() + static_cast<std::size_t>(src) * nn;
    std::fill(row, row + nn, 0);
    for (const auto& seg : out_segs_[static_cast<std::size_t>(src)])
      row[static_cast<std::size_t>(seg.dst)] += seg.len;
  });
}

DeliverySummary ArenaTransport::summarize_counts() const {
  // Demand list and per-node volumes (self-sends are local and free). The
  // (src asc, dst asc) order matches the routing schedules' expectations.
  const auto nn = static_cast<std::size_t>(n_);
  DeliverySummary sum;
  sum.sent_by.assign(nn, 0);
  sum.recv_by.assign(nn, 0);
  for (std::size_t src = 0; src < nn; ++src) {
    const std::size_t* row = pair_words_.data() + src * nn;
    for (std::size_t dst = 0; dst < nn; ++dst) {
      const auto words = static_cast<std::int64_t>(row[dst]);
      if (words == 0 || dst == src) continue;
      sum.demands.push_back(
          {static_cast<NodeId>(src), static_cast<NodeId>(dst), words});
      sum.sent_by[src] += words;
      sum.recv_by[dst] += words;
      sum.total_words += words;
    }
  }
  return sum;
}

void ArenaTransport::rebuild_arena(NodeSpan dsts) {
  // Pass 2a: lay out the arena (receiver-major, senders ascending within a
  // receiver). The delivered content is independent of the schedule.
  const auto nn = static_cast<std::size_t>(n_);
  std::size_t words = 0;
  for (auto dst = static_cast<std::size_t>(dsts.begin);
       dst < static_cast<std::size_t>(dsts.end); ++dst)
    for (std::size_t src = 0; src < nn; ++src) {
      const auto len = pair_words_[src * nn + dst];
      in_off_[dst * nn + src] = words;
      in_len_[dst * nn + src] = len;
      words += len;
    }
  // Every outstanding staged span and inbox view dies here.
  ++inbox_gen_;
  for (auto& g : stage_gen_) ++g;
#ifdef CCA_SANITIZE
  // Rebuild the arena in fresh storage so inbox views held across this
  // deliver() fault under ASan even when the capacity would have sufficed.
  arena_ = std::make_unique_for_overwrite<Word[]>(words);
  arena_cap_ = words;
#else
  if (words > arena_cap_) {
    // Free the old buffer first (lower peak); the capacity is zero until
    // the new one exists, so a failed allocation cannot leave a stale one.
    arena_cap_ = 0;
    arena_.reset();
    arena_ = std::make_unique_for_overwrite<Word[]>(words);
    arena_cap_ = words;
  }
#endif
}

void ArenaTransport::scatter_and_clear_outboxes(NodeSpan dsts) {
  // Pass 2b: each source copies its runs into its own arena slices, using
  // its row of pair_words_ as the per-pair write cursor.
  const auto nn = static_cast<std::size_t>(n_);
  parallel_for(0, n_, staged_words(out_data_), [&](int src) {
    const auto s = static_cast<std::size_t>(src);
    std::size_t* consumed = pair_words_.data() + s * nn;
    std::fill(consumed, consumed + nn, 0);
    const Word* read = out_data_[s].data();
    for (const auto& seg : out_segs_[s]) {
      if (dsts.contains(seg.dst)) {
        auto& at = consumed[static_cast<std::size_t>(seg.dst)];
        std::memcpy(arena_.get() + in_off_[pair_index(seg.dst, src)] + at,
                    read, static_cast<std::size_t>(seg.len) * sizeof(Word));
        at += seg.len;
      }
      read += seg.len;
    }
#ifdef CCA_SANITIZE
    // Release (not just clear) the outbox so staged spans held across
    // deliver() dangle deterministically.
    std::vector<Word>().swap(out_data_[s]);
#else
    out_data_[s].clear();
#endif
    out_segs_[s].clear();
  });
}

DeliverySummary ArenaTransport::deliver() {
  // Staging is safe from parallel regions (one src per iteration); the
  // delivery phase change is not — it mutates every outbox and the arena.
  // Its passes may fan out internally once the caller is serial.
  check_phase_change_serial("deliver");
  count_staged_words();
  auto sum = summarize_counts();
  rebuild_arena({0, n_});
  scatter_and_clear_outboxes({0, n_});
  return sum;
}

std::span<const Word> ArenaTransport::inbox(NodeId dst, NodeId src) const {
  check_node(dst);
  check_node(src);
  const auto idx = pair_index(dst, src);
  return {arena_.get() + in_off_[idx], in_len_[idx]};
}

SplitGroup split_group(Transport& t) {
  const int n = t.n();
  const NodeSpan own = t.owned();
  // Every node's slot ends up holding the first node of its rank's span;
  // the ranks are the distinct values, ascending.
  std::vector<Word> first(static_cast<std::size_t>(n), 0);
  std::vector<std::size_t> unit(static_cast<std::size_t>(n) + 1);
  for (std::size_t v = 0; v < unit.size(); ++v) unit[v] = v;
  for (NodeId v = own.begin; v < own.end; ++v)
    first[static_cast<std::size_t>(v)] = static_cast<Word>(own.begin);
  t.allgather_blocks(first, unit);
  std::vector<NodeId> starts;  // starts[q]: first node of rank q, then n
  for (NodeId v = 0; v < n; ++v)
    if (first[static_cast<std::size_t>(v)] == static_cast<Word>(v))
      starts.push_back(v);
  CCA_VALIDATE(!starts.empty() && starts.front() == 0,
               "owned spans must partition the clique");
  SplitGroup group;
  group.nprocs = static_cast<int>(starts.size());
  group.rank = static_cast<int>(
      std::find(starts.begin(), starts.end(), own.begin) - starts.begin());
  starts.push_back(n);
  group.allgather = [&t, starts](std::span<Word> data,
                                 std::span<const std::size_t> offsets) {
    const auto procs = starts.size() - 1;
    CCA_EXPECTS(offsets.size() == procs + 1);
    std::vector<std::size_t> by_node(starts.back() + std::size_t{1});
    for (std::size_t q = 0; q < procs; ++q)
      for (auto v = static_cast<std::size_t>(starts[q]);
           v < static_cast<std::size_t>(starts[q + 1]); ++v)
        by_node[v] = v == static_cast<std::size_t>(starts[q]) ? offsets[q]
                                                              : offsets[q + 1];
    by_node.back() = offsets[procs];
    t.allgather_blocks(data, by_node);
  };
  return group;
}

namespace {
thread_local const TransportScope::Factory* g_ambient_factory = nullptr;
}  // namespace

TransportScope::TransportScope(Factory factory) noexcept
    : factory_(std::move(factory)), prev_(g_ambient_factory) {
  g_ambient_factory = &factory_;
}

TransportScope::~TransportScope() { g_ambient_factory = prev_; }

const TransportScope::Factory* TransportScope::current() noexcept {
  return g_ambient_factory;
}

std::vector<Word> ArenaTransport::take_inbox(NodeId dst, NodeId src) {
  check_node(dst);
  check_node(src);
  const auto idx = pair_index(dst, src);
  const Word* begin = arena_.get() + in_off_[idx];
  std::vector<Word> out(begin, begin + in_len_[idx]);
  in_len_[idx] = 0;
  return out;
}

}  // namespace cca::clique
