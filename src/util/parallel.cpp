#include "util/parallel.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace cca {

int parallel_workers() {
  static const int workers = [] {
    if (const char* env = std::getenv("CCA_THREADS")) {
      const int requested = std::atoi(env);
      if (requested >= 1) return requested;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return workers;
}

namespace {

thread_local bool t_in_parallel_region = false;
thread_local std::uint64_t t_region_epoch = 0;

std::uint64_t next_region_epoch() noexcept {
  // Monotone nonzero epochs, one per parallel_for invocation. Relaxed is
  // enough: the value is only compared for equality, and it reaches the
  // pool threads inside the published job (see the audit below).
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// RAII marker for the duration of one chunk execution. Saves and restores
/// the prior values so a nested parallel_for (including the serial
/// fallback) does not clear the flag/epoch for the remainder of the
/// enclosing chunk.
struct RegionMark {
  explicit RegionMark(std::uint64_t epoch) noexcept
      : prior_in(t_in_parallel_region), prior_epoch(t_region_epoch) {
    t_in_parallel_region = true;
    t_region_epoch = epoch;
  }
  ~RegionMark() noexcept {
    t_in_parallel_region = prior_in;
    t_region_epoch = prior_epoch;
  }
  bool prior_in;
  std::uint64_t prior_epoch;
};

}  // namespace

bool in_parallel_region() noexcept { return t_in_parallel_region; }

std::uint64_t parallel_region_epoch() noexcept {
  return t_in_parallel_region ? t_region_epoch : 0;
}

std::uint32_t thread_token() noexcept {
  static std::atomic<std::uint32_t> counter{0};
  thread_local const std::uint32_t token = [] {
    const std::uint32_t t = counter.fetch_add(1, std::memory_order_relaxed) + 1;
    // The staging tracker packs (epoch << 20) | token into one slot; a
    // wider token would spill into the epoch bits. The persistent pool
    // keeps the count at parallel_workers() plus the external callers.
    CCA_ASSERT(t < (1u << 20));
    return t;
  }();
  return token;
}

namespace {

// Happens-before audit (the TSan contract of the worker pool). The pool
// threads are started once and never joined; no std::thread is constructed
// or joined per call, so every edge below is an atomic on the pool.
//  * Dispatch edge. The caller writes the job fields (chunk, partition,
//    epoch) and the ack counter, then bumps `gen_` with release. A pool
//    thread reads the job only after an acquire load of `gen_` observes
//    the new generation, so every write the caller made before
//    parallel_for is visible to the chunk.
//  * Ack edge. Every pool thread acks every generation with an acq_rel
//    decrement of `pending_`, including threads whose block is empty. The
//    caller returns only after an acquire load reads `pending_ == 0`, so
//    all chunk writes (and the captured exception) are visible to it, and
//    no pool thread can still be reading the job fields when the next
//    call rewrites them.
//  * Ownership edge. `busy_` is taken with an acquire exchange and dropped
//    with a release store, which orders one external caller's job against
//    the next caller's rewrite of the same fields.
//  * Chunks write only their own disjoint index blocks (the documented fn
//    contract), so no two threads touch the same location while the
//    region runs. The region bookkeeping (t_in_parallel_region /
//    t_region_epoch) is thread_local, and the epoch/token counters are
//    atomics.

/// Pause iterations an idle pool thread (or a caller waiting for its
/// blocks) spins before sleeping on the futex behind std::atomic::wait.
/// Back-to-back supersteps republish within a few microseconds, which this
/// covers; much longer spins steal cores from oversubscribed runs.
constexpr int kSpinIterations = 1000;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield");
#endif
}

/// Spins, then sleeps, until done(word) holds; returns the value that
/// satisfied it. Every load is an acquire.
template <typename Done>
std::uint32_t await(const std::atomic<std::uint32_t>& word,
                    Done done) noexcept {
  std::uint32_t cur = word.load(std::memory_order_acquire);
  for (int i = 0; i < kSpinIterations && !done(cur); ++i) {
    cpu_relax();
    cur = word.load(std::memory_order_acquire);
  }
  while (!done(cur)) {
    word.wait(cur, std::memory_order_acquire);
    cur = word.load(std::memory_order_acquire);
  }
  return cur;
}

/// parallel_workers() - 1 threads that run blocks 1..w-1 of each call; the
/// calling thread runs block 0. One external caller owns the pool at a
/// time. The pool is never destroyed: its threads sleep on a futex until
/// the process exits, so no static destructor can race a late
/// parallel_for.
class WorkerPool {
 public:
  explicit WorkerPool(int threads) {
    threads_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t)
      threads_.emplace_back([this, block = t + 1] { serve(block); });
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] bool try_acquire() noexcept {
    return !busy_.exchange(true, std::memory_order_acquire);
  }

  /// Runs chunk over a `workers`-block partition of [begin, end) and
  /// releases the pool. Rethrows the first exception a chunk raised, after
  /// every block has finished.
  void run(int begin, int end, int workers, std::uint64_t epoch,
           const std::function<void(int, int)>& chunk) {
    const int count = end - begin;
    job_ = {&chunk, begin, count / workers, count % workers, workers, epoch};
    pending_.store(static_cast<std::uint32_t>(threads_.size()),
                   std::memory_order_relaxed);
    gen_.fetch_add(1, std::memory_order_release);
    gen_.notify_all();
    run_block(0);
    await(pending_, [](std::uint32_t left) { return left == 0; });
    std::exception_ptr error = std::exchange(error_, nullptr);
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

 private:
  struct Job {
    const std::function<void(int, int)>* chunk = nullptr;
    int begin = 0;
    int base = 0;   ///< every block holds base indices ...
    int extra = 0;  ///< ... and the first `extra` blocks one more
    int workers = 0;
    std::uint64_t epoch = 0;
  };

  void serve(int block) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await(gen_, [seen](std::uint32_t g) { return g != seen; });
      run_block(block);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        pending_.notify_one();
    }
  }

  void run_block(int block) {
    const Job& job = job_;
    if (block >= job.workers) return;
    const int b = job.begin + block * job.base + std::min(block, job.extra);
    const int e = b + job.base + (block < job.extra ? 1 : 0);
    const RegionMark mark(job.epoch);
    try {
      (*job.chunk)(b, e);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
  }

  Job job_;
  std::atomic<std::uint32_t> gen_{0};
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> busy_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< first chunk exception of the current job
  std::vector<std::thread> threads_;
};

std::mutex g_pool_mu;  ///< serialises pool creation against fork()
std::atomic<WorkerPool*> g_pool{nullptr};

/// A forked child has only the forking thread, so the parent's pool
/// threads do not exist there: the child abandons the inherited pool and
/// starts its own on its first multi-worker call.
void register_fork_reset() {
  const int rc = pthread_atfork(
      [] { g_pool_mu.lock(); }, [] { g_pool_mu.unlock(); },
      [] {
        g_pool.store(nullptr, std::memory_order_relaxed);
        g_pool_mu.unlock();
      });
  CCA_ASSERT(rc == 0);
}

/// The process pool, started on the first multi-worker call so that
/// single-worker processes never start a thread.
WorkerPool& worker_pool() {
  if (WorkerPool* pool = g_pool.load(std::memory_order_acquire)) return *pool;
  const std::lock_guard<std::mutex> lock(g_pool_mu);
  WorkerPool* pool = g_pool.load(std::memory_order_relaxed);
  if (pool == nullptr) {
    [[maybe_unused]] static const bool registered =
        (register_fork_reset(), true);
    pool = new WorkerPool(parallel_workers() - 1);
    g_pool.store(pool, std::memory_order_release);
  }
  return *pool;
}

}  // namespace

namespace detail {

void parallel_for_impl(int begin, int end,
                       const std::function<void(int, int)>& chunk) {
  const int count = end - begin;
  if (count <= 0) return;
  const int workers = std::min(parallel_workers(), count);
  const std::uint64_t epoch = next_region_epoch();
  // A nested call (its enclosing call holds the pool) or a second external
  // thread finds the pool busy and runs its whole range inline.
  if (workers > 1) {
    WorkerPool& pool = worker_pool();
    if (pool.try_acquire()) {
      pool.run(begin, end, workers, epoch, chunk);
      return;
    }
  }
  const RegionMark mark(epoch);
  chunk(begin, end);
}

}  // namespace detail

}  // namespace cca
