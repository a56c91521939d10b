// Minimal fork-join helper for the "free" node-local computation phases of
// the distributed algorithms.
//
// The congested clique model charges only for communication; each node's
// local work between supersteps is unbounded and embarrassingly parallel
// across the n simulated nodes. parallel_for runs those per-node loops over
// block-partitioned indices on a persistent pool of parallel_workers() - 1
// threads plus the calling thread; the pool starts on the first
// multi-worker call. Callers must keep network mutation (send/deliver) OUT
// of the parallel region: Network staging is single-threaded by design,
// while const reads of delivered inboxes are safe from any thread.
#pragma once

#include <cstdint>
#include <functional>

namespace cca {

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
void parallel_for_impl(int begin, int end,
                       const std::function<void(int, int)>& chunk);

}  // namespace detail

/// Run fn(i) for every i in [begin, end), partitioned over the workers.
/// Falls back to a serial loop for single-worker configurations or trivial
/// ranges, for calls nested inside a chunk, and for a second thread calling
/// while another call holds the pool. fn must be safe to invoke
/// concurrently for distinct indices. If fn throws, the first exception is
/// rethrown on the caller once every block has finished.
template <typename Fn>
void parallel_for(int begin, int end, Fn&& fn) {
  detail::parallel_for_impl(begin, end, [&fn](int b, int e) {
    for (int i = b; i < e; ++i) fn(i);
  });
}

}  // namespace cca
