#include "clique/routing.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>

#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace cca::clique {

namespace {

/// Apply `count` words starting at cyclic offset `start` to a difference
/// array over [0, n): every intermediate in the cyclic range gets one word
/// per lap. Full laps contribute uniformly.
void add_cyclic_range(std::vector<std::int64_t>& diff, int n,
                      std::int64_t start, std::int64_t count,
                      std::int64_t& uniform) {
  CCA_EXPECTS(count >= 0 && start >= 0 && start < n);
  uniform += count / n;
  const auto rem = static_cast<int>(count % n);
  if (rem == 0) return;
  const int end = static_cast<int>(start) + rem;
  if (end <= n) {
    diff[static_cast<std::size_t>(start)] += 1;
    if (end < n) diff[static_cast<std::size_t>(end)] -= 1;
  } else {
    diff[static_cast<std::size_t>(start)] += 1;  // [start, n)
    diff[0] += 1;                                // [0, end - n)
    diff[static_cast<std::size_t>(end - n)] -= 1;
  }
}

/// Max value of a cyclic difference array plus its uniform offset.
std::int64_t max_of_diff(const std::vector<std::int64_t>& diff,
                         std::int64_t uniform) {
  std::int64_t run = 0;
  std::int64_t best = 0;
  for (const auto d : diff) {
    run += d;
    best = std::max(best, run);
  }
  return best + uniform;
}

/// Relay rounds when block (src,dst) begins at intermediate offset(src,dst):
/// phase A = max over (src, mid) links, phase B = max over (mid, dst) links.
template <typename OffsetFn>
std::int64_t relay_rounds(int n, const std::vector<Demand>& demands,
                          OffsetFn&& offset) {
  // Phase A: group by source.
  std::vector<std::vector<const Demand*>> by_src(static_cast<std::size_t>(n));
  std::vector<std::vector<const Demand*>> by_dst(static_cast<std::size_t>(n));
  std::vector<std::int64_t> start(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& d = demands[i];
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    CCA_EXPECTS(d.words >= 0);
    if (d.words == 0) continue;
    start[i] = offset(d);
    by_src[static_cast<std::size_t>(d.src)].push_back(&d);
    by_dst[static_cast<std::size_t>(d.dst)].push_back(&d);
  }

  auto max_side = [&](const std::vector<std::vector<const Demand*>>& groups) {
    std::int64_t best = 0;
    std::vector<std::int64_t> diff(static_cast<std::size_t>(n));
    for (const auto& group : groups) {
      if (group.empty()) continue;
      std::fill(diff.begin(), diff.end(), 0);
      std::int64_t uniform = 0;
      for (const Demand* d : group)
        add_cyclic_range(diff, n, start[static_cast<std::size_t>(d - demands.data())],
                         d->words, uniform);
      best = std::max(best, max_of_diff(diff, uniform));
    }
    return best;
  };

  const std::int64_t phase_a = max_side(by_src);
  const std::int64_t phase_b = max_side(by_dst);
  return phase_a + phase_b;
}

// ---------------------------------------------------------------------------
// Euler-split edge colouring (constructive Koenig decomposition).
// ---------------------------------------------------------------------------

struct Edge {
  int src;
  int dst;
  std::int64_t count;
};

/// One node of the split recursion: a concrete half-multigraph (general
/// counted edges or the packed all-count-1 form) at its recursion depth.
struct SplitTask {
  std::vector<Edge> edges;                 ///< general node (when !packed)
  std::vector<std::uint32_t> packed_edges; ///< packed node (when packed)
  bool packed = false;
  int depth = 0;
};

/// The split recursion machinery with its scratch and class log. One engine
/// per task (the serial path is one task) and per frontier node of an
/// expansion level: the scratch fully resets between recursion nodes, so
/// any engine splits any node, and engines running disjoint subtrees emit
/// exactly the class sequences the serial recursion would.
///
/// Observations that keep the schedule exactly as specified while avoiding
/// the naive implementation's Theta(classes * n) blowup:
///  * When every multiplicity is even, the Euler split produces two
///    element-identical halves, so the recursion's subtrees emit identical
///    class sequences. The subtree is traversed once and its logged class
///    range is duplicated in place of the second descent. Uniform word
///    blocks (the matrix algorithms' common case) collapse from 2^k
///    traversals to one.
///  * The odd-leftover trail walk touches only vertices incident to odd
///    edges; adjacency and cursor scratch is reused across recursion nodes
///    and reset per touched vertex, never per clique node.
///  * The log stores one packed 32-bit (src, dst) word per class edge, with
///    the exact footprint (the subtree's total word count) reserved up
///    front, so logging is sequential stores and subtree duplication is one
///    memcpy-sized range copy.
///  * Split scratch vectors recycle through a small pool (the recursion
///    allocates nothing in steady state).
class SplitEngine {
 public:
  explicit SplitEngine(int n)
      : n_(n),
        head_(static_cast<std::size_t>(2 * n), -1),
        mark_((static_cast<std::size_t>(2 * n) + 63) / 64, 0),
        oddb_((static_cast<std::size_t>(2 * n) + 63) / 64, 0),
        row_(static_cast<std::size_t>(n)),
        col_(static_cast<std::size_t>(n)),
        row2_(static_cast<std::size_t>(2 * n), 0) {
    // The packed log format holds src and dst in 16 bits each.
    CCA_EXPECTS(n <= 0xffff);
  }

  void reset_log(std::int64_t expected_words) {
    log_edges_.clear();
    log_edges_.reserve(static_cast<std::size_t>(expected_words));
    log_bounds_.clear();
  }

  /// Colour classes logged since reset_log().
  [[nodiscard]] std::size_t classes() const noexcept {
    return log_bounds_.size();
  }

  /// The packed (src << 16) | dst edges of logged class `c`.
  [[nodiscard]] std::span<const std::uint32_t> class_edges(
      std::size_t c) const noexcept {
    const std::size_t end =
        c + 1 < log_bounds_.size() ? log_bounds_[c + 1] : log_edges_.size();
    return {log_edges_.data() + log_bounds_[c], end - log_bounds_[c]};
  }

  [[nodiscard]] static std::uint32_t pack(int src, int dst) noexcept {
    return (static_cast<std::uint32_t>(src) << 16) |
           static_cast<std::uint32_t>(dst);
  }

  /// Run one task's whole subtree into this engine's log.
  void run(SplitTask&& task) {
    if (task.packed)
      split_walk_packed(std::move(task.packed_edges), task.depth);
    else
      split_walk(std::move(task.edges), task.depth);
  }

  /// Free the per-word split scratch, keeping the class log: a finished
  /// task's engine lives on until its log is replayed, so without this the
  /// colouring would hold one task's worth of scratch per task, not per
  /// worker.
  void drop_scratch() {
    slots_ = {};
    odd_pack_ = {};
    touched_ = {};
    pool_ = {};
    packed_pool_ = {};
  }

  /// Perform the one split the serial recursion makes at node `task`.
  /// Returns 0 when the node is a leaf of the recursion (max degree <= 1;
  /// `task` is left intact), 1 for an identical-halves collapse (`lo` is
  /// the single child the recursion descends, then replays), and 2 for a
  /// real split into `lo` and `hi`. A split consumes `task`.
  int split_once(SplitTask& task, SplitTask& lo, SplitTask& hi) {
    const int depth = task.depth + 1;
    if (task.packed) {
      build_slots(task.packed_edges);
      if (node_deg_ <= 1) {
        unbuild_slots();
        return 0;
      }
      lo = {{}, acquire_packed(), true, depth};
      hi = {{}, acquire_packed(), true, depth};
      trail_split_packed(task.packed_edges, lo.packed_edges, hi.packed_edges);
      release_packed(std::move(task.packed_edges));
      return 2;
    }
    if (task.edges.empty() || max_degree(task.edges) <= 1) return 0;
    auto a = acquire();
    auto b = acquire();
    const bool identical = euler_split(task.edges, a, b);
    release(std::move(task.edges));
    lo = child(std::move(a), depth);
    if (identical) {
      release(std::move(b));
      return 1;
    }
    hi = child(std::move(b), depth);
    return 2;
  }

 private:
  /// A child of the split just made, in the form the recursion descends it:
  /// every child entry is either a halved count (<= max_half_) or an odd
  /// leftover (count 1), so once max_half_ <= 1 the child lives entirely in
  /// the all-count-1 regime and takes the packed fast path.
  [[nodiscard]] SplitTask child(std::vector<Edge>&& edges, int depth) {
    if (max_half_ > 1) return {std::move(edges), {}, false, depth};
    auto p = acquire_packed();
    p.reserve(edges.size());
    for (const auto& e : edges) p.push_back(pack(e.src, e.dst));
    release(std::move(edges));
    return {{}, std::move(p), true, depth};
  }

  /// Pool-backed copy/acquire of edge scratch vectors: the recursion reuses
  /// vectors instead of allocating one pair per node.
  [[nodiscard]] std::vector<Edge> acquire() {
    if (pool_.empty()) return {};
    auto v = std::move(pool_.back());
    pool_.pop_back();
    v.clear();
    return v;
  }
  void release(std::vector<Edge>&& v) { pool_.push_back(std::move(v)); }
  [[nodiscard]] std::vector<std::uint32_t> acquire_packed() {
    if (packed_pool_.empty()) return {};
    auto v = std::move(packed_pool_.back());
    packed_pool_.pop_back();
    v.clear();
    return v;
  }
  void release_packed(std::vector<std::uint32_t>&& v) {
    packed_pool_.push_back(std::move(v));
  }

  /// One edge occurrence in a vertex's adjacency list: slot 2i is the src
  /// side and slot 2i+1 the dst side of odd edge i, so an edge's two slots
  /// always share one (aligned) 16-byte chunk — marking both sides used
  /// after a consume touches the cache line the walk just read. `edge`
  /// doubles as the used flag (kUsedSlot): the walk's skip-chase needs ONE
  /// random load per step instead of separate next/edge/used lookups.
  struct SlotRec {
    int next;
    std::uint32_t edge;
  };
  static constexpr std::uint32_t kUsedSlot = 0xffffffffu;  // src 0xffff illegal

  /// Thread a packed edge list into per-vertex slot lists. Iterating edges
  /// in reverse makes every vertex's list ascend in slot order — exactly
  /// the order a forward push_back build yields, preserving the reference
  /// implementation's lowest-id-first edge selection. Only touched entries
  /// of head_/mark_/oddb_ are written — O(odd edges), never O(n).
  void build_slots(const std::vector<std::uint32_t>& es) {
    touched_.clear();
    slots_.resize(2 * es.size());
    node_deg_ = 0;
    for (std::size_t i = es.size(); i-- > 0;) {
      const auto e = es[i];
      const auto s = static_cast<std::size_t>(e >> 16);
      const auto d = static_cast<std::size_t>(n_) +
                     static_cast<std::size_t>(e & 0xffffu);
      if (head_[s] < 0) touched_.push_back(static_cast<int>(s));
      if (head_[d] < 0) touched_.push_back(static_cast<int>(d));
      slots_[2 * i] = {head_[s], e};
      head_[s] = static_cast<int>(2 * i);
      slots_[2 * i + 1] = {head_[d], e};
      head_[d] = static_cast<int>(2 * i + 1);
      mark_[s >> 6] |= std::uint64_t{1} << (s & 63);
      mark_[d >> 6] |= std::uint64_t{1} << (d & 63);
      oddb_[s >> 6] ^= std::uint64_t{1} << (s & 63);
      oddb_[d >> 6] ^= std::uint64_t{1} << (d & 63);
      // Exact node max degree, free with the threading pass: counters only
      // ever increment, so the running max equals the final max.
      const auto ds = ++row2_[s];
      const auto dd = ++row2_[d];
      if (ds > node_deg_) node_deg_ = ds;
      if (dd > node_deg_) node_deg_ = dd;
    }
  }

  /// Tear down build_slots scratch without running the walks (used when the
  /// just-built node turned out to be a leaf). All set bits in mark_/oddb_
  /// belong to this node, so zeroing whole words via the touched list is
  /// exact.
  void unbuild_slots() {
    for (const int v : touched_) {
      const auto u = static_cast<std::size_t>(v);
      head_[u] = -1;
      row2_[u] = 0;
      mark_[u >> 6] = 0;
      oddb_[u >> 6] = 0;
    }
  }

  struct Consumed {
    int slot;
    std::uint32_t edge;
  };

  /// Pop the lowest-id unused edge at vertex v, dropping the used prefix
  /// of v's list on the way (each slot is dropped at most once, so the
  /// chase is amortised O(1)). Returns slot -1 when v is exhausted.
  Consumed consume_lowest_unused(int v) {
    int slot = head_[static_cast<std::size_t>(v)];
    while (slot >= 0 && slots_[static_cast<std::size_t>(slot)].edge == kUsedSlot)
      slot = slots_[static_cast<std::size_t>(slot)].next;
    if (slot < 0) {
      head_[static_cast<std::size_t>(v)] = -1;
      return {-1, 0};
    }
    const auto e = slots_[static_cast<std::size_t>(slot)].edge;
    head_[static_cast<std::size_t>(v)] =
        slots_[static_cast<std::size_t>(slot)].next;
    slots_[static_cast<std::size_t>(slot)].edge = kUsedSlot;
    slots_[static_cast<std::size_t>(slot ^ 1)].edge = kUsedSlot;
    return {slot, e};
  }

  std::int64_t max_degree(const std::vector<Edge>& edges) {
    // row_/col_ are all-zero between calls; only entries touched by this
    // edge list are accumulated, maxed, and zeroed again — O(|edges|), not
    // O(n), per recursion node.
    for (const auto& e : edges) {
      row_[static_cast<std::size_t>(e.src)] += e.count;
      col_[static_cast<std::size_t>(e.dst)] += e.count;
    }
    std::int64_t best = 0;
    for (const auto& e : edges) {
      best = std::max({best, row_[static_cast<std::size_t>(e.src)],
                       col_[static_cast<std::size_t>(e.dst)]});
      row_[static_cast<std::size_t>(e.src)] = 0;
      col_[static_cast<std::size_t>(e.dst)] = 0;
    }
    return best;
  }

  /// Split the demand multigraph into two halves whose row/column sums are
  /// as equal as possible: even multiplicities are halved arithmetically,
  /// odd leftovers form a simple bipartite graph whose edges are 2-coloured
  /// by alternating along maximal trails (starting at odd-degree vertices
  /// first, so every vertex's degree splits with deviation at most one).
  /// Returns true when the halves are element-identical (no odd leftovers).
  ///
  /// The recursion visits Theta(colour classes) nodes, so the per-node cost
  /// here is the router's wall-clock. Everything is O(odd edges) flat-array
  /// work with NO per-node sorting: per-endpoint intrusive linked lists
  /// (built in one reverse pass, so each vertex's list is in ascending
  /// edge order — exactly the order a forward push_back build yields) and a
  /// touched-vertex bitmap whose ascending-set-bit sweep replaces the
  /// sorted-touched-list sweep. Trails always consume the lowest-unused
  /// edge at each vertex and start in ascending vertex order, identical to
  /// the reference implementation, so the colouring is bit-identical.
  bool euler_split(const std::vector<Edge>& edges, std::vector<Edge>& lo,
                   std::vector<Edge>& hi) {
    lo.clear();
    hi.clear();
    odd_pack_.clear();
    max_half_ = 0;
    for (const auto& e : edges) {
      const std::int64_t half = e.count / 2;
      if (half > 0) {
        lo.push_back({e.src, e.dst, half});
        hi.push_back({e.src, e.dst, half});
        if (half > max_half_) max_half_ = half;
      }
      if (e.count % 2 == 1) odd_pack_.push_back(pack(e.src, e.dst));
    }
    if (odd_pack_.empty()) return true;

    build_slots(odd_pack_);

    auto walk_trail = [&](int v0) {
      // Maximal trail from v0, alternating edges between lo and hi. Each
      // vertex's list head skips already-used occurrences lazily, so the
      // chosen edge is always the lowest-id unused edge at the vertex —
      // the rem_ counters only shortcut the discovery that none is left.
      int v = v0;
      bool to_lo = true;
      for (;;) {
        const auto c = consume_lowest_unused(v);
        if (c.slot < 0) return;
        const int src = static_cast<int>(c.edge >> 16);
        const int dst = static_cast<int>(c.edge & 0xffffu);
        (to_lo ? lo : hi).push_back({src, dst, 1});
        to_lo = !to_lo;
        // Even slot = arrived via the src side, continue at the dst side.
        v = (c.slot & 1) == 0 ? n_ + dst : src;
      }
    };

    walk_all_trails(walk_trail);
    return false;
  }

  /// The trail sweep shared by euler_split and trail_split_packed: start
  /// `walk_trail` at odd-degree vertices first, in ascending vertex order
  /// (bitmap sweep), then close the remaining Eulerian tours the same way,
  /// then tear the slot scratch down. Untouched vertices carry no bits, so
  /// this matches a full 0..2n-1 sweep of the reference implementation; the
  /// head_ gate skips exhausted vertices (a reference walk there is a
  /// no-op).
  template <typename WalkTrail>
  void walk_all_trails(WalkTrail&& walk_trail) {
    const std::size_t words = mark_.size();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = oddb_[w];
      oddb_[w] = 0;
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
    }
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = mark_[w];
      while (bits != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        if (head_[static_cast<std::size_t>(v)] >= 0) walk_trail(v);
      }
      mark_[w] = 0;
    }
    for (const int v : touched_) {
      head_[static_cast<std::size_t>(v)] = -1;
      row2_[static_cast<std::size_t>(v)] = 0;  // degree counters, see build
    }
  }

  // -------------------------------------------------------------------
  // All-count-1 fast path. Once every entry of a node has multiplicity 1
  // (the endgame of every split tree — it holds the vast majority of the
  // recursion's edge volume), halving is a no-op and every entry is an odd
  // leftover, so a split is exactly one trail walk. This path stores
  // entries packed ((src << 16) | dst, count implicitly 1) and runs the
  // SAME trail mechanics as euler_split — adjacency threaded in reverse
  // entry order, bitmap sweeps in ascending vertex order, lowest-unused-
  // edge selection — so the emitted class sequence is bit-identical to the
  // general path's; only the entry storage is 4x denser.
  // -------------------------------------------------------------------

  /// Trail-split of an all-count-1 multigraph: the packed counterpart of
  /// euler_split's odd-leftover walk (which is the whole split here). Each
  /// child recomputes its own exact max degree inside ITS build_slots
  /// (node_deg_), so no separate degree pass runs anywhere.
  void trail_split_packed(const std::vector<std::uint32_t>& es,
                          std::vector<std::uint32_t>& lo,
                          std::vector<std::uint32_t>& hi) {
    // The caller already ran build_slots(es). Scratch-size the halves once
    // and emit through raw cursors (the walk's serial chain pays no vector
    // bookkeeping); truncate afterwards.
    lo.resize(es.size());
    hi.resize(es.size());
    std::uint32_t* out[2] = {lo.data(), hi.data()};

    auto walk_trail = [&](int v0) {
      int v = v0;
      int side = 0;
      for (;;) {
        const auto c = consume_lowest_unused(v);
        if (c.slot < 0) return;
        const auto e = c.edge;
        *out[side]++ = e;
        side ^= 1;
        v = (c.slot & 1) == 0
                ? n_ + static_cast<int>(e & 0xffffu)
                : static_cast<int>(e >> 16);
      }
    };

    walk_all_trails(walk_trail);
    lo.resize(static_cast<std::size_t>(out[0] - lo.data()));
    hi.resize(static_cast<std::size_t>(out[1] - hi.data()));
  }

  void split_walk_packed(std::vector<std::uint32_t> es, int depth) {
    if (es.empty()) {
      release_packed(std::move(es));
      return;
    }
    if (depth > 64) {
      for (const auto e : es) {
        log_bounds_.push_back(log_edges_.size());
        log_edges_.push_back(e);
      }
      release_packed(std::move(es));
      return;
    }
    build_slots(es);
    if (node_deg_ <= 1) {
      // Leaf: one colour class; tear the scratch back down and log it.
      unbuild_slots();
      log_bounds_.push_back(log_edges_.size());
      log_edges_.insert(log_edges_.end(), es.begin(), es.end());
      release_packed(std::move(es));
      return;
    }
    auto lo = acquire_packed();
    auto hi = acquire_packed();
    trail_split_packed(es, lo, hi);
    release_packed(std::move(es));
    split_walk_packed(std::move(lo), depth + 1);
    split_walk_packed(std::move(hi), depth + 1);
  }

  void split_walk(std::vector<Edge> edges, int depth) {
    if (edges.empty()) {
      release(std::move(edges));
      return;
    }
    const std::int64_t deg = max_degree(edges);
    if (deg <= 1) {
      log_class(edges);
      release(std::move(edges));
      return;
    }
    if (depth > 64) {
      // Termination backstop; never expected (the split strictly shrinks
      // the max degree), but keeps the router total even if it regresses.
      for (const auto& e : edges)
        for (std::int64_t i = 0; i < e.count; ++i) {
          log_bounds_.push_back(log_edges_.size());
          log_edges_.push_back(pack(e.src, e.dst));
        }
      release(std::move(edges));
      return;
    }
    auto lo = acquire();
    auto hi = acquire();
    const bool identical = euler_split(edges, lo, hi);
    release(std::move(edges));
    // Both children take their form before either descends: child() reads
    // the max_half_ of THIS split, which the descent overwrites.
    auto lo_task = child(std::move(lo), depth + 1);
    if (!identical) {
      auto hi_task = child(std::move(hi), depth + 1);
      run(std::move(lo_task));
      run(std::move(hi_task));
      return;
    }
    release(std::move(hi));
    // Element-identical halves produce identical subtrees: traverse once
    // and duplicate the logged class range in place of the second descent.
    const std::size_t mark_b = log_bounds_.size();
    const std::size_t mark_e = log_edges_.size();
    run(std::move(lo_task));
    const std::size_t end_b = log_bounds_.size();
    const std::size_t end_e = log_edges_.size();
    const std::size_t delta = end_e - mark_e;
    log_bounds_.reserve(end_b + (end_b - mark_b));
    for (std::size_t b = mark_b; b < end_b; ++b)
      log_bounds_.push_back(log_bounds_[b] + delta);
    log_edges_.resize(end_e + delta);
    std::copy(log_edges_.begin() + static_cast<std::ptrdiff_t>(mark_e),
              log_edges_.begin() + static_cast<std::ptrdiff_t>(end_e),
              log_edges_.begin() + static_cast<std::ptrdiff_t>(end_e));
  }

  void log_class(const std::vector<Edge>& matching) {
    log_bounds_.push_back(log_edges_.size());
    for (const auto& e : matching) {
      CCA_ASSERT(e.count == 1);
      log_edges_.push_back(pack(e.src, e.dst));
    }
  }

  int n_;

  // Scratch reused across recursion nodes.
  std::vector<int> head_;            ///< per vertex: first unused slot, -1 idle
  std::vector<std::uint64_t> mark_;  ///< touched-vertex bitmap
  std::vector<std::uint64_t> oddb_;  ///< odd-degree parity bitmap
  std::vector<SlotRec> slots_;       ///< per slot (2 per odd edge): next+edge
  std::vector<std::int64_t> row_;
  std::vector<std::int64_t> col_;
  std::vector<std::int64_t> row2_;       ///< build-fused node degree counters
  std::vector<std::uint32_t> odd_pack_;  ///< odd edges, (src << 16) | dst
  std::vector<int> touched_;
  std::int64_t max_half_ = 0;            ///< max halved count of last split
  std::int64_t node_deg_ = 0;            ///< max degree of last built node
  std::vector<std::vector<Edge>> pool_;
  std::vector<std::vector<std::uint32_t>> packed_pool_;

  // Flat log of colour classes in DFS leaf order, packed (src << 16) | dst.
  std::vector<std::uint32_t> log_edges_;
  std::vector<std::size_t> log_bounds_;
};

/// Euler-split task count for `workers` parties: serial for one (the
/// CCA_THREADS=1 CI leg runs the pure-serial recursion), two concrete
/// tasks per party otherwise so the deal stays balanced when subtree sizes
/// skew. In process the parties are the pool's workers; in a shared split
/// they are the ranks.
int split_tasks_for(int workers) {
  if (workers <= 1) return 1;
  return std::min(64, 2 * workers);
}

int default_split_tasks() { return split_tasks_for(parallel_workers()); }

/// Smallest number of real (non-collapsing) splits whose full frontier
/// holds >= `tasks` subtrees.
int expansion_depth_for(int tasks) {
  int depth = 0;
  int width = 1;
  while (width < tasks && depth < 6) {
    width *= 2;
    ++depth;
  }
  return depth;
}

/// Drives the split (serial or task-parallel) and replays the per-task
/// class logs onto the load matrices in DFS order. Colour classes are
/// produced in leaf (DFS) order; consecutive classes share split ancestry
/// and hence have near-disjoint edge sets, so contiguous BLOCKS of classes
/// are assigned to the same intermediate: class t of C goes through node
/// floor(t*n/C). The total class count is needed before any class can be
/// assigned, so the split logs the class sequence and the load assignment
/// replays the logs once the count is known.
///
/// Both load matrices are intermediate-major (load_a[mid][src],
/// load_b[mid][dst]). All edges of one class share one mid, so a class
/// replay touches exactly two rows — resident in L1 — instead of striding
/// across the whole n^2 arrays per edge, and replays of distinct mids write
/// disjoint rows. The load MULTISET is unchanged, hence so are the maxima
/// and the round total.
class KoenigColouring {
 public:
  /// Colour `edges`. The serial path (split_tasks <= 1) is one task: one
  /// engine walks the whole recursion, producing the reference sequence
  /// every parallel run must reproduce. Otherwise the top of the recursion
  /// is expanded into independent subtree tasks. Every task runs on its own
  /// engine under parallel_for, and the load matrices are replayed from the
  /// task logs, parallel over intermediates. Each engine's scratch starts
  /// clean and the expansion performs the exact splits the serial recursion
  /// would, so the class sequence is bit-identical to the serial one for
  /// ANY task count (pinned by tests/test_routing.cpp).
  KoenigColouring(int n, std::vector<Edge> edges, int split_tasks)
      : n_(n),
        load_a_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
        load_b_(load_a_.size()),
        tree_(1) {
    std::vector<SplitTask> tasks;
    if (split_tasks > 1) {
      tasks = expand(std::move(edges), expansion_depth_for(split_tasks));
    } else {
      tree_[0].task = 0;
      tasks.push_back({std::move(edges), {}, false, 0});
    }
    tasks_ = static_cast<int>(tasks.size());
    grow_engines(tasks.size());
    parallel_for(0, tasks_, [&](int t) { run_task(tasks, t); });
    task_classes_.resize(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t)
      task_classes_[t] = static_cast<std::int64_t>(engines_[t].classes());
    lay_out(0);
    if (total_colours_ > 0) parallel_for(0, n_, [&](int mid) { replay(mid); });
  }

  /// The split shared by the ranks of `group` (see the SplitGroup overload
  /// of schedule_koenig_relay). Every rank expands the same frontier; rank
  /// r runs the tasks t with t mod P == r. An allgather of the per-task
  /// class counts gives every rank the same layout, and a second one of
  /// each rank's partial load rows gives every rank the same loads.
  KoenigColouring(int n, std::vector<Edge> edges, const SplitGroup& group)
      : n_(n),
        load_a_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
        load_b_(load_a_.size()),
        tree_(1) {
    const int procs = group.nprocs;
    auto tasks =
        expand(std::move(edges), expansion_depth_for(split_tasks_for(procs)));
    tasks_ = static_cast<int>(tasks.size());
    grow_engines(tasks.size());
    const auto dealt = [&](int q) {  // tasks of rank q: q, q + P, ...
      return q < tasks_ ? (tasks_ - q + procs - 1) / procs : 0;
    };
    parallel_for(0, dealt(group.rank),
                 [&](int i) { run_task(tasks, group.rank + i * procs); });

    // Class counts, one block per rank in its task order.
    std::vector<std::size_t> offsets(static_cast<std::size_t>(procs) + 1, 0);
    for (int q = 0; q < procs; ++q)
      offsets[static_cast<std::size_t>(q) + 1] =
          offsets[static_cast<std::size_t>(q)] +
          static_cast<std::size_t>(dealt(q));
    std::vector<std::uint64_t> counts(tasks.size(), 0);
    for (int i = 0; i < dealt(group.rank); ++i)
      counts[offsets[static_cast<std::size_t>(group.rank)] +
             static_cast<std::size_t>(i)] =
          engines_[static_cast<std::size_t>(group.rank + i * procs)].classes();
    group.allgather(counts, offsets);
    task_classes_.resize(tasks.size());
    for (int t = 0; t < tasks_; ++t)
      task_classes_[static_cast<std::size_t>(t)] = static_cast<std::int64_t>(
          counts[offsets[static_cast<std::size_t>(t % procs)] +
                 static_cast<std::size_t>(t / procs)]);
    lay_out(0);
    share_loads(group);
  }

  [[nodiscard]] std::int64_t total_colours() const noexcept {
    return total_colours_;
  }

  /// Concrete subtree tasks the colouring ran (1 on the serial path).
  [[nodiscard]] int tasks() const noexcept { return tasks_; }

  /// Relay rounds of the replayed plan: max phase-A link load plus max
  /// phase-B link load.
  [[nodiscard]] std::int64_t rounds() const {
    return *std::max_element(load_a_.begin(), load_a_.end()) +
           *std::max_element(load_b_.begin(), load_b_.end());
  }

  /// Visit the colour classes in order: fn receives each class's packed
  /// (src << 16) | dst edges.
  template <typename Fn>
  void for_each_class(Fn&& fn) const {
    for (const auto& seg : segments_) {
      const auto& eng = engines_[static_cast<std::size_t>(seg.task)];
      for (std::size_t c = 0; c < eng.classes(); ++c) fn(eng.class_edges(c));
    }
  }

 private:
  /// A node of the expansion tree: a task leaf (task >= 0), a real split
  /// (lo and hi), or an identical-halves collapse (lo only; its subtree's
  /// classes play twice).
  struct TreeNode {
    int task = -1;
    int lo = -1;
    int hi = -1;
  };

  /// A task's whole class log placed at global class index `first`.
  struct Segment {
    int task;
    std::int64_t first;
  };

  void grow_engines(std::size_t count) {
    while (engines_.size() < count) engines_.emplace_back(n_);
  }

  /// Run task t's whole subtree on engine t, keeping only its class log.
  void run_task(std::vector<SplitTask>& tasks, int t) {
    auto& task = tasks[static_cast<std::size_t>(t)];
    std::int64_t words = 0;
    if (task.packed)
      words = static_cast<std::int64_t>(task.packed_edges.size());
    else
      for (const auto& e : task.edges) words += e.count;
    auto& eng = engines_[static_cast<std::size_t>(t)];
    eng.reset_log(words);
    eng.run(std::move(task));
    eng.drop_scratch();
  }

  /// Expand the top of the split recursion level by level until every
  /// open node has made `max_splits` real splits (or is a leaf of the
  /// recursion). Identical-halves collapses are free: they do not spend
  /// the budget, so lists whose counts share a factor 2^k still yield
  /// 2^max_splits concrete tasks. Each level splits its frontier under
  /// parallel_for, one engine per node. Returns the tasks, indexed by
  /// their tree_ leaves.
  std::vector<SplitTask> expand(std::vector<Edge> edges, int max_splits) {
    struct Open {
      int node;
      int splits;
      SplitTask task;
    };
    std::vector<SplitTask> tasks;
    std::vector<Open> frontier, next;
    frontier.push_back({0, 0, {std::move(edges), {}, false, 0}});
    std::vector<SplitTask> lo, hi;
    std::vector<int> kids;
    while (!frontier.empty()) {
      const auto width = frontier.size();
      grow_engines(width);
      lo.assign(width, {});
      hi.assign(width, {});
      kids.assign(width, 0);
      parallel_for(0, static_cast<int>(width), [&](int i) {
        const auto u = static_cast<std::size_t>(i);
        auto& open = frontier[u];
        if (open.splits < max_splits && open.task.depth <= 64)
          kids[u] = engines_[u].split_once(open.task, lo[u], hi[u]);
      });
      next.clear();
      for (std::size_t u = 0; u < width; ++u) {
        auto& open = frontier[u];
        const auto node = static_cast<std::size_t>(open.node);
        if (kids[u] == 0) {
          tree_[node].task = static_cast<int>(tasks.size());
          tasks.push_back(std::move(open.task));
          continue;
        }
        const int splits = open.splits + (kids[u] == 2 ? 1 : 0);
        tree_[node].lo = static_cast<int>(tree_.size());
        tree_.emplace_back();
        next.push_back({tree_[node].lo, splits, std::move(lo[u])});
        if (kids[u] == 2) {
          tree_[node].hi = static_cast<int>(tree_.size());
          tree_.emplace_back();
          next.push_back({tree_[node].hi, splits, std::move(hi[u])});
        }
      }
      frontier.swap(next);
    }
    return tasks;
  }

  /// Place the task logs in the recursion's DFS order: a split lays out its
  /// lo then its hi subtree; a collapse lays out its child's segments twice
  /// — the serial identical-halves duplication, at segment granularity.
  void lay_out(int node) {
    const auto& t = tree_[static_cast<std::size_t>(node)];
    if (t.task >= 0) {
      const auto classes = task_classes_[static_cast<std::size_t>(t.task)];
      if (classes > 0) segments_.push_back({t.task, total_colours_});
      total_colours_ += classes;
      return;
    }
    const std::size_t mark = segments_.size();
    const std::int64_t first = total_colours_;
    lay_out(t.lo);
    if (t.hi >= 0) {
      lay_out(t.hi);
      return;
    }
    const std::size_t end = segments_.size();
    const std::int64_t span = total_colours_ - first;
    for (std::size_t s = mark; s < end; ++s) {
      const Segment seg = segments_[s];
      segments_.push_back({seg.task, seg.first + span});
    }
    total_colours_ += span;
  }

  /// Replay the classes that go through intermediate `mid` — those t with
  /// floor(t*n/C) == mid — onto load rows `mid`.
  void replay(int mid) {
    const std::int64_t c = total_colours_;
    const std::int64_t t_end = ((mid + 1) * c + n_ - 1) / n_;
    std::int64_t t = (mid * c + n_ - 1) / n_;
    if (t >= t_end) return;
    const auto row = static_cast<std::size_t>(mid) * static_cast<std::size_t>(n_);
    auto* la = load_a_.data() + row;
    auto* lb = load_b_.data() + row;
    // The last segment starting at or before class t holds it.
    auto seg = std::upper_bound(segments_.begin(), segments_.end(), t,
                                [](std::int64_t v, const Segment& s) {
                                  return v < s.first;
                                }) -
               1;
    for (; t < t_end; ++seg) {
      const auto& eng = engines_[static_cast<std::size_t>(seg->task)];
      const std::int64_t seg_end =
          seg->first + static_cast<std::int64_t>(eng.classes());
      for (; t < t_end && t < seg_end; ++t) {
        const auto local = static_cast<std::size_t>(t - seg->first);
        for (const auto e : eng.class_edges(local)) {
          ++la[e >> 16];
          ++lb[e & 0xffffu];
        }
      }
    }
  }

  /// The intermediate class t goes through.
  [[nodiscard]] std::int64_t mid_of(std::int64_t t) const noexcept {
    return t * n_ / total_colours_;
  }

  /// The shared split's load exchange. Each segment contributes the load
  /// rows of the intermediates its classes go through, a-row then b-row per
  /// intermediate; its owner replays them, and a rank's block is its
  /// segments' contributions in class order. Segments are contiguous class
  /// ranges, so the rows of all contributions number about n plus one per
  /// segment: every rank moves about 2n^2/P words, no more than a
  /// reduce-scatter of the load rows would, in one collective. Every rank
  /// then sums every contribution onto the full load matrices.
  void share_loads(const SplitGroup& group) {
    const int procs = group.nprocs;
    const auto row_words = 2 * static_cast<std::size_t>(n_);
    const auto rows_of = [&](const Segment& seg) {
      const auto last =
          seg.first + task_classes_[static_cast<std::size_t>(seg.task)] - 1;
      return static_cast<std::size_t>(mid_of(last) - mid_of(seg.first) + 1);
    };
    std::vector<std::size_t> offsets(static_cast<std::size_t>(procs) + 1, 0);
    std::vector<std::size_t> at(segments_.size());
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      auto& end = offsets[static_cast<std::size_t>(segments_[s].task % procs) + 1];
      at[s] = end;
      end += rows_of(segments_[s]) * row_words;
    }
    for (int q = 0; q < procs; ++q)
      offsets[static_cast<std::size_t>(q) + 1] +=
          offsets[static_cast<std::size_t>(q)];
    for (std::size_t s = 0; s < segments_.size(); ++s)
      at[s] += offsets[static_cast<std::size_t>(segments_[s].task % procs)];

    std::vector<std::uint64_t> rows(offsets.back(), 0);
    std::vector<int> mine;
    for (std::size_t s = 0; s < segments_.size(); ++s)
      if (segments_[s].task % procs == group.rank)
        mine.push_back(static_cast<int>(s));
    parallel_for(0, static_cast<int>(mine.size()), [&](int i) {
      const auto s = static_cast<std::size_t>(mine[static_cast<std::size_t>(i)]);
      const Segment& seg = segments_[s];
      const auto& eng = engines_[static_cast<std::size_t>(seg.task)];
      const auto lo = mid_of(seg.first);
      for (std::size_t c = 0; c < eng.classes(); ++c) {
        const auto mid = mid_of(seg.first + static_cast<std::int64_t>(c));
        auto* la = rows.data() + at[s] +
                   static_cast<std::size_t>(mid - lo) * row_words;
        auto* lb = la + n_;
        for (const auto e : eng.class_edges(c)) {
          ++la[e >> 16];
          ++lb[e & 0xffffu];
        }
      }
    });
    group.allgather(rows, offsets);

    for (std::size_t s = 0; s < segments_.size(); ++s) {
      const auto* src = rows.data() + at[s];
      const auto lo = static_cast<std::size_t>(mid_of(segments_[s].first));
      const auto nn = static_cast<std::size_t>(n_);
      for (std::size_t r = 0; r < rows_of(segments_[s]); ++r) {
        auto* la = load_a_.data() + (lo + r) * nn;
        auto* lb = load_b_.data() + (lo + r) * nn;
        for (std::size_t v = 0; v < nn; ++v) {
          la[v] += static_cast<std::int64_t>(src[v]);
          lb[v] += static_cast<std::int64_t>(src[nn + v]);
        }
        src += row_words;
      }
    }
  }

  int n_;
  std::int64_t total_colours_ = 0;
  int tasks_ = 0;
  std::vector<std::int64_t> task_classes_;  ///< classes logged per task
  std::vector<std::int64_t> load_a_;  ///< intermediate-major: [mid][src]
  std::vector<std::int64_t> load_b_;  ///< intermediate-major: [mid][dst]
  std::vector<SplitEngine> engines_;   ///< one per frontier node / task
  std::vector<TreeNode> tree_;         ///< expansion tree, root first
  std::vector<Segment> segments_;      ///< task logs in class order
};

std::vector<Edge> demand_edges(int n, const std::vector<Demand>& demands,
                               std::int64_t* total_words) {
  std::vector<Edge> edges;
  edges.reserve(demands.size());
  std::int64_t words = 0;
  for (const auto& d : demands) {
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    CCA_EXPECTS(d.words >= 0);
    if (d.words > 0) {
      edges.push_back({d.src, d.dst, d.words});
      words += d.words;
    }
  }
  if (total_words != nullptr) *total_words = words;
  return edges;
}

}  // namespace

std::int64_t rounds_direct(int n, const std::vector<Demand>& demands) {
  CCA_EXPECTS(n >= 1);
  // Aggregate per ordered link; a demand list may mention a link repeatedly.
  std::int64_t best = 0;
  std::vector<std::int64_t> acc;
  std::vector<std::vector<const Demand*>> by_src(static_cast<std::size_t>(n));
  for (const auto& d : demands) {
    CCA_EXPECTS(d.src >= 0 && d.src < n && d.dst >= 0 && d.dst < n);
    by_src[static_cast<std::size_t>(d.src)].push_back(&d);
  }
  acc.assign(static_cast<std::size_t>(n), 0);
  for (const auto& group : by_src) {
    for (const Demand* d : group) acc[static_cast<std::size_t>(d->dst)] += d->words;
    for (const Demand* d : group) {
      best = std::max(best, acc[static_cast<std::size_t>(d->dst)]);
      acc[static_cast<std::size_t>(d->dst)] = 0;
    }
  }
  return best;
}

std::int64_t rounds_hash_relay(int n, const std::vector<Demand>& demands) {
  CCA_EXPECTS(n >= 1);
  return relay_rounds(n, demands, [n](const Demand& d) {
    const auto key = static_cast<std::uint64_t>(d.src) * 0x1000003ULL +
                     static_cast<std::uint64_t>(d.dst);
    return static_cast<std::int64_t>(splitmix64(key) %
                                     static_cast<std::uint64_t>(n));
  });
}

std::int64_t rounds_random_relay(int n, const std::vector<Demand>& demands,
                                 Rng& rng) {
  CCA_EXPECTS(n >= 1);
  return relay_rounds(n, demands, [n, &rng](const Demand&) {
    return static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  });
}

std::int64_t rounds_koenig_relay(int n, const std::vector<Demand>& demands) {
  return schedule_koenig_relay(n, demands).rounds;
}

Schedule schedule_koenig_relay(int n, const std::vector<Demand>& demands) {
  return schedule_koenig_relay(n, demands, default_split_tasks());
}

Schedule schedule_koenig_relay(int n, const std::vector<Demand>& demands,
                               int split_tasks) {
  CCA_EXPECTS(n >= 1);
  Schedule sched;
  auto edges = demand_edges(n, demands, &sched.words);
  if (edges.empty()) return sched;

  const KoenigColouring colouring(n, std::move(edges), split_tasks);
  sched.rounds = colouring.rounds();
  sched.classes = colouring.total_colours();
  return sched;
}

Schedule schedule_koenig_relay(int n, const std::vector<Demand>& demands,
                               const SplitGroup& group) {
  CCA_EXPECTS(n >= 1);
  CCA_EXPECTS(group.nprocs >= 1 && group.rank >= 0 &&
              group.rank < group.nprocs);
  Schedule sched;
  auto edges = demand_edges(n, demands, &sched.words);
  if (edges.empty()) return sched;

  const KoenigColouring colouring(n, std::move(edges), group);
  sched.rounds = colouring.rounds();
  sched.classes = colouring.total_colours();
  return sched;
}

std::vector<std::vector<std::pair<int, int>>> koenig_relay_classes(
    int n, const std::vector<Demand>& demands, int split_tasks) {
  CCA_EXPECTS(n >= 1);
  auto edges = demand_edges(n, demands, nullptr);
  if (edges.empty()) return {};
  const KoenigColouring colouring(
      n, std::move(edges),
      split_tasks <= 0 ? default_split_tasks() : split_tasks);
  std::vector<std::vector<std::pair<int, int>>> classes;
  classes.reserve(static_cast<std::size_t>(colouring.total_colours()));
  colouring.for_each_class([&](std::span<const std::uint32_t> es) {
    auto& cls = classes.emplace_back();
    for (const auto e : es)
      cls.emplace_back(static_cast<int>(e >> 16),
                       static_cast<int>(e & 0xffffu));
  });
  return classes;
}

namespace detail {

int koenig_split_task_count(int n, const std::vector<Demand>& demands,
                            int split_tasks) {
  CCA_EXPECTS(n >= 1);
  auto edges = demand_edges(n, demands, nullptr);
  if (edges.empty()) return 0;
  return KoenigColouring(n, std::move(edges), split_tasks).tasks();
}

}  // namespace detail

std::uint64_t demand_fingerprint(int n, const std::vector<Demand>& demands) {
  // Order-sensitive SplitMix64 chaining over (n, src, dst, words). The
  // callers pass the canonical (src, dst)-ascending list, so byte-identical
  // traffic shapes — and only those — are meant to collide.
  std::uint64_t h =
      splitmix64(0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(n));
  for (const auto& d : demands) {
    const auto pair =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.src)) << 32) |
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(d.dst));
    h = splitmix64(h ^ pair);
    h = splitmix64(h ^ static_cast<std::uint64_t>(d.words));
  }
  return h;
}

const Schedule& ScheduleCache::get(int n, const std::vector<Demand>& demands,
                                   bool* hit, const SplitGroup* group) {
  const auto key = demand_fingerprint(n, demands);
  if (const auto it = map_.find(key); it != map_.end()) {
    for (const auto eit : it->second)
      if (eit->n == n && eit->demands == demands) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, eit);
        if (hit != nullptr) *hit = true;
        return eit->schedule;
      }
  }
  ++stats_.misses;
  if (hit != nullptr) *hit = false;

  evict_to_fit(demands.size());

  Schedule sched = group != nullptr
                       ? schedule_koenig_relay(n, demands, *group)
                       : schedule_koenig_relay(n, demands);
  cached_demands_ += demands.size();
  lru_.push_front(Entry{n, demands, sched, key});
  map_[key].push_back(lru_.begin());
  return lru_.front().schedule;
}

void ScheduleCache::evict_to_fit(std::size_t incoming_demands) {
  while (!lru_.empty() && cached_demands_ + incoming_demands > capacity_) {
    const auto victim = std::prev(lru_.end());
    const auto cit = map_.find(victim->key);
    CCA_ASSERT(cit != map_.end());
    auto& chain = cit->second;
    chain.erase(std::find(chain.begin(), chain.end(), victim));
    if (chain.empty()) map_.erase(cit);
    cached_demands_ -= victim->demands.size();
    lru_.erase(victim);
    ++stats_.evictions;
  }
}

void ScheduleCache::clear() {
  lru_.clear();
  map_.clear();
  cached_demands_ = 0;
  stats_ = Stats{};
}

}  // namespace cca::clique
