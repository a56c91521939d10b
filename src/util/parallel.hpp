// Minimal fork-join helper for the "free" node-local computation phases of
// the distributed algorithms.
//
// The congested clique model charges only for communication; each node's
// local work between supersteps is unbounded and embarrassingly parallel
// across the n simulated nodes. parallel_for runs those per-node loops over
// block-partitioned indices on a persistent pool of parallel_workers() - 1
// threads plus the calling thread; the pool starts on the first call that
// fans out. Callers must keep network mutation (send/deliver) OUT of the
// parallel region: Network staging is single-threaded by design, while
// const reads of delivered inboxes are safe from any thread.
//
// Inline rule. Every call passes a work estimate: the range's total element
// operations or words touched (a 3D product step's c^2 x c^2 x c^2 block
// multiply counts c^6, a transpose superstep n^2 staged words). Below
// kParallelMinWork the whole range runs on the calling thread, under a
// fresh region epoch and with in_parallel_region() true, exactly like the
// single-worker fallback; at or above it the range fans out over the
// pool. The rule reads only the estimate, never what the caller computes;
// a single-worker process still runs every range inline.
//
// Calibration (4 vCPU, Release). One 36-index dispatch to a pool of 4
// workers costs 1.6 us back to back and 11-24 us once the pool threads
// have gone back to sleep, against 0.06 us inline; 2^16 element
// operations (a multiply-add, a scattered add or a gathered min per
// element) take 35-95 us serially, so fanning out pays from there on. The
// same 2^16 is the staged-word cutoff from which ArenaTransport::deliver()'s
// per-source count and scatter passes paid for a dispatch when they were
// measured alone. Colour coding's Fast products on the 36-node clique (at
// most 45,360 operations per loop, ~2.6k staged words per superstep) run
// inline; the 3D APSP and triangle products (10^5-10^7 per loop) fan out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace cca {

/// Work estimate (element operations or words touched over the whole
/// range) from which parallel_for fans out over the worker pool; smaller
/// ranges run on the calling thread. See the inline rule above.
inline constexpr std::size_t kParallelMinWork = std::size_t{1} << 16;

/// Worker count used by parallel_for: the CCA_THREADS environment variable
/// when set (clamped to >= 1), otherwise std::thread::hardware_concurrency.
[[nodiscard]] int parallel_workers();

/// True while the calling thread is executing a parallel_for chunk
/// (including the calling thread's own block). Single-threaded phase-change
/// operations (Network::deliver) assert on this to catch network mutation
/// from inside parallel regions.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Identifier of the parallel_for region the calling thread is currently
/// executing a chunk of, or 0 when it is not inside one. Every
/// parallel_for invocation (including the serial fallback and nested
/// calls) draws a fresh nonzero epoch, so two chunk executions share an
/// epoch if and only if they belong to the SAME parallel_for call — the
/// fact the analysis layer's staging-ownership checker keys on: one
/// source staged from two distinct threads of one epoch is a violation of
/// the per-source exclusivity contract, while successive regions may
/// legally repartition sources over different workers.
[[nodiscard]] std::uint64_t parallel_region_epoch() noexcept;

/// Small dense identifier of the calling thread (assigned on first use
/// from a global counter; stable for the thread's lifetime; below 2^20).
/// Cheaper and more report-friendly than hashing std::thread::id, and
/// usable as a token in the analysis layer's per-source ownership slots.
[[nodiscard]] std::uint32_t thread_token() noexcept;

namespace detail {

/// Runs chunk(begin, end) over a block partition of [begin, end).
void parallel_for_impl(int begin, int end, std::size_t work,
                       const std::function<void(int, int)>& chunk);

/// Test hook: how many parallel_for calls this process has handed to the
/// worker pool so far (inline runs are not counted).
[[nodiscard]] std::uint64_t pool_dispatches() noexcept;

}  // namespace detail

/// Run fn(i) for every i in [begin, end). `work` estimates the range's
/// total element operations or words touched: below kParallelMinWork the
/// range runs on the caller, otherwise it is partitioned over the workers.
/// It also runs on the caller for single-worker configurations or trivial
/// ranges, for calls nested inside a chunk, and for a second thread calling
/// while another call holds the pool. fn must be safe to invoke
/// concurrently for distinct indices. If fn throws, the first exception is
/// rethrown on the caller once every block has finished.
template <typename Fn>
void parallel_for(int begin, int end, std::size_t work, Fn&& fn) {
  detail::parallel_for_impl(begin, end, work, [&fn](int b, int e) {
    for (int i = b; i < e; ++i) fn(i);
  });
}

}  // namespace cca
