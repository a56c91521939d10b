// Tests for cca::parallel_for's persistent worker pool: index coverage,
// region epochs under nesting, concurrent external callers, exception
// propagation, bounded thread tokens, and the fork() child reset.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.hpp"

namespace cca {
namespace {

// Exercise real pool threads even on single-core machines: request four
// workers before the first parallel_for freezes the count. overwrite=0
// keeps an explicit CCA_THREADS (e.g. the CI serial leg) authoritative.
[[maybe_unused]] const int kForcedThreads = [] {
  setenv("CCA_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

/// parallel_for over [begin, end) that records how often each index ran.
std::vector<int> visit_counts(int begin, int end) {
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(end - begin));
  parallel_for(begin, end, [&](int i) {
    hits[static_cast<std::size_t>(i - begin)].fetch_add(
        1, std::memory_order_relaxed);
  });
  std::vector<int> out;
  for (const auto& h : hits) out.push_back(h.load());
  return out;
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const int begin : {0, 5, -3, 1000}) {
    for (int count = 1; count <= 17; ++count) {
      const auto hits = visit_counts(begin, begin + count);
      for (int i = 0; i < count; ++i)
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "begin=" << begin << " count=" << count << " i=" << i;
    }
  }
}

TEST(ParallelFor, EmptyAndReversedRangesRunNothing) {
  int calls = 0;
  parallel_for(4, 4, [&](int) { ++calls; });
  parallel_for(9, 2, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NestedCallCompletesUnderAFreshEpoch) {
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  std::vector<std::uint64_t> outer_epoch(kOuter);
  std::vector<std::atomic<int>> inner_done(kOuter);
  std::atomic<int> bad{0};
  parallel_for(0, kOuter, [&](int o) {
    const auto su = static_cast<std::size_t>(o);
    outer_epoch[su] = parallel_region_epoch();
    parallel_for(0, kInner, [&](int) {
      if (!in_parallel_region() ||
          parallel_region_epoch() == outer_epoch[su] ||
          parallel_region_epoch() == 0)
        bad.fetch_add(1, std::memory_order_relaxed);
      inner_done[su].fetch_add(1, std::memory_order_relaxed);
    });
    // The inner region restored the enclosing chunk's epoch.
    if (parallel_region_epoch() != outer_epoch[su])
      bad.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(bad.load(), 0);
  for (const auto& d : inner_done) EXPECT_EQ(d.load(), kInner);
  EXPECT_FALSE(in_parallel_region());
  EXPECT_EQ(parallel_region_epoch(), 0u);
}

TEST(ParallelFor, TwoExternalThreadsGetExactSums) {
  constexpr int kCalls = 1000;
  constexpr int kRange = 97;
  std::atomic<int> wrong{0};
  const auto drive = [&](int salt) {
    std::vector<std::int64_t> slot(kRange);
    for (int call = 0; call < kCalls; ++call) {
      parallel_for(0, kRange, [&](int i) {
        slot[static_cast<std::size_t>(i)] =
            static_cast<std::int64_t>(i) * salt + call;
      });
      std::int64_t sum = 0;
      for (const auto v : slot) sum += v;
      const std::int64_t want =
          static_cast<std::int64_t>(salt) * kRange * (kRange - 1) / 2 +
          static_cast<std::int64_t>(call) * kRange;
      if (sum != want) wrong.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread a(drive, 3);
  std::thread b(drive, 7);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelFor, ChunkExceptionReachesCallerAndPoolRecovers) {
  // i = 63 lands in the last block (a pool thread when workers > 1); i = 0
  // lands in the calling thread's own block.
  for (const int thrower : {63, 0}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(parallel_for(0, 64,
                              [&](int i) {
                                ran.fetch_add(1, std::memory_order_relaxed);
                                if (i == thrower)
                                  throw std::runtime_error("chunk failed");
                              }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
    EXPECT_FALSE(in_parallel_region());
    const auto hits = visit_counts(0, 64);
    for (const int h : hits) EXPECT_EQ(h, 1) << "thrower=" << thrower;
  }
}

TEST(ParallelFor, ThreadTokensStayBoundedByTheWorkerCount) {
  std::mutex mu;
  std::set<std::uint32_t> tokens;
  for (int call = 0; call < 10000; ++call) {
    parallel_for(0, 64, [&](int i) {
      if (i % 16 != 0) return;
      const std::uint32_t t = thread_token();
      const std::lock_guard<std::mutex> lock(mu);
      tokens.insert(t);
    });
  }
  EXPECT_LE(tokens.size(), static_cast<std::size_t>(parallel_workers()));
  EXPECT_GE(tokens.size(), 1u);
}

#ifndef CCA_TSAN  // TSan refuses to start threads after a multithreaded fork
TEST(ParallelFor, ForkedChildStartsItsOwnPool) {
  // Start the parent's pool, then fork without exec: the child has none of
  // the parent's pool threads and must still run every index.
  (void)visit_counts(0, 64);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    bool ok = true;
    for (int round = 0; round < 3; ++round)
      for (const int h : visit_counts(0, 64)) ok = ok && h == 1;
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif

}  // namespace
}  // namespace cca
