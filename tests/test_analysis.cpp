// The concurrency & lifetime contract checker (util/analysis.hpp).
//
// Negative coverage deliberately violates each instrumented contract and
// asserts the typed cca::ContractViolation plus the recorded report entry
// (which contract, which src/dst, which superstep): cross-source staging
// from a parallel region, deliver() inside parallel_for, and staged/inbox
// spans used across their generation bumps. Positive coverage runs a full
// APSP (and the batched triangle counter) with checking enabled and
// asserts a zero-violation report AND bit-identical traffic to the
// unchecked run — the analysis layer observes, never perturbs.
//
// Every test runs in ContractFailureMode::Throw with an explicit
// ScopedChecking toggle, so the suite is meaningful in ALL build
// configurations (plain, CCA_SANITIZE, CCA_TSAN, CCA_CHECKED — the macro
// only changes the process default of the same runtime flag).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "clique/network.hpp"
#include "core/apsp.hpp"
#include "core/counting.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/analysis.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca {
namespace {

using clique::Network;
using clique::Word;

// Exercise real worker threads even on single-core machines: request four
// workers before the first parallel_for freezes the count. overwrite=0
// keeps an explicit CCA_THREADS (e.g. the CI serial leg) authoritative —
// thread-count-dependent tests skip themselves when only one worker runs.
[[maybe_unused]] const int kForcedThreads = [] {
  setenv("CCA_THREADS", "4", /*overwrite=*/0);
  return 0;
}();

/// Throw mode + checking on + a clean report, restored on scope exit.
struct CheckedThrowScope {
  CheckedThrowScope() {
    set_contract_failure_mode(ContractFailureMode::Throw);
    analysis::Report::instance().clear();
  }
  ~CheckedThrowScope() {
    analysis::Report::instance().clear();
    set_contract_failure_mode(ContractFailureMode::Abort);
  }
  analysis::ScopedChecking checking{true};
};

// ---------------------------------------------------------------------------
// Report plumbing.

TEST(AnalysisReport, RecordsAndFormatsViolations) {
  CheckedThrowScope scope;
  auto& report = analysis::Report::instance();
  EXPECT_EQ(report.size(), 0u);
  report.record({analysis::ContractKind::CrossSourceStaging, 3, -1, 7,
                 "synthetic"});
  ASSERT_EQ(report.size(), 1u);
  const auto vs = report.violations();
  EXPECT_EQ(vs[0].kind, analysis::ContractKind::CrossSourceStaging);
  EXPECT_EQ(vs[0].src, 3);
  EXPECT_EQ(vs[0].superstep, 7);
  const auto text = report.to_string();
  EXPECT_NE(text.find("cross-source-staging"), std::string::npos);
  EXPECT_NE(text.find("src=3"), std::string::npos);
  EXPECT_NE(text.find("superstep=7"), std::string::npos);
  report.clear();
  EXPECT_EQ(report.size(), 0u);
}

TEST(AnalysisReport, FailOutsideRegionThrowsTyped) {
  CheckedThrowScope scope;
  EXPECT_THROW(
      analysis::fail({analysis::ContractKind::StaleInboxSpan, 1, 2, 0, "x"}),
      ContractViolation);
  EXPECT_EQ(analysis::Report::instance().count(
                analysis::ContractKind::StaleInboxSpan),
            1u);
  EXPECT_FALSE(analysis::has_pending());
}

// ---------------------------------------------------------------------------
// Contract: deliver()/discard_staged() must not run inside parallel_for.
// A single-iteration region runs on the calling thread in every thread
// configuration, so the typed throw propagates deterministically.

TEST(AnalysisChecker, DeliverInsideParallelForFaultsTyped) {
  CheckedThrowScope scope;
  Network net(4);
  net.send(0, 1, 42);
  bool threw = false;
  parallel_for(0, 1, 1, [&](int) {
    try {
      // lint:allow(deliver-in-parallel): the violation under test
      net.deliver();
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  const auto vs = analysis::Report::instance().violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, analysis::ContractKind::DeliverInParallel);
  EXPECT_EQ(vs[0].superstep, 0);
  // The phase change was stopped: the staged word is still deliverable.
  net.deliver();
  ASSERT_EQ(net.inbox(1, 0).size(), 1u);
  EXPECT_EQ(net.inbox(1, 0)[0], Word{42});
}

TEST(AnalysisChecker, DiscardStagedInsideParallelForFaultsTyped) {
  CheckedThrowScope scope;
  Network net(4);
  net.send(0, 1, 7);
  bool threw = false;
  parallel_for(0, 1, 1, [&](int) {
    try {
      // lint:allow(deliver-in-parallel): the violation under test
      net.discard_staged();
    } catch (const ContractViolation&) {
      threw = true;
    }
  });
  EXPECT_TRUE(threw);
  EXPECT_EQ(analysis::Report::instance().count(
                analysis::ContractKind::DeliverInParallel),
            1u);
  net.discard_staged();  // serial discard stays legal
}

// ---------------------------------------------------------------------------
// Contract: per-source staging exclusivity under parallel_for. Every
// iteration staging for source 0 puts two distinct worker threads on one
// source within one region epoch; the detection is deferred off the
// worker threads and surfaces as the typed violation at the next serial
// checkpoint (here: the deliver that would have shipped the racy bytes).
// A test-side mutex serialises the physical buffer writes, so the test is
// TSan-clean by construction — what remains is the pure CONTRACT
// violation (two threads of one region owning one source), the latent
// hazard the tracker catches even on interleavings TSan cannot fault.

TEST(AnalysisChecker, CrossSourceStagingFaultsAtNextDeliver) {
  if (parallel_workers() < 2)
    GTEST_SKIP() << "needs >= 2 workers (CCA_THREADS=1 leg runs serial)";
  CheckedThrowScope scope;
  Network net(8);
  std::mutex mu;
  // 64 iterations across >= 2 workers, all staging from src 0: at least
  // one worker sees another's claim on the source slot. The estimate is at
  // the inline threshold so the range fans out.
  parallel_for(0, 64, kParallelMinWork, [&](int i) {
    const std::lock_guard<std::mutex> lock(mu);
    // lint:allow(parallel-staging-src): the violation under test
    net.send(0, 1 + (i % 7), static_cast<Word>(i));
  });
  EXPECT_TRUE(analysis::has_pending());
  EXPECT_THROW(net.deliver(), ContractViolation);
  const auto& report = analysis::Report::instance();
  ASSERT_GE(report.count(analysis::ContractKind::CrossSourceStaging), 1u);
  const auto vs = report.violations();
  EXPECT_EQ(vs[0].kind, analysis::ContractKind::CrossSourceStaging);
  EXPECT_EQ(vs[0].src, 0);
  EXPECT_EQ(vs[0].superstep, 0);
  net.discard_staged();
}

TEST(AnalysisChecker, DistinctSourceParallelStagingIsClean) {
  CheckedThrowScope scope;
  Network net(8);
  // The documented-legal pattern: every iteration stages from its own src.
  parallel_for(0, 8, kParallelMinWork, [&](int src) {
    for (int dst = 0; dst < 8; ++dst)
      if (dst != src) net.send(src, dst, static_cast<Word>(src * 8 + dst));
  });
  EXPECT_FALSE(analysis::has_pending());
  net.deliver();
  EXPECT_EQ(analysis::Report::instance().size(), 0u);
  EXPECT_EQ(net.inbox(1, 0).size(), 1u);
}

TEST(AnalysisChecker, SameSourceAcrossSuccessiveRegionsIsClean) {
  CheckedThrowScope scope;
  Network net(4);
  // Distinct parallel_for calls may repartition sources over different
  // workers; only SAME-epoch conflicts violate the contract.
  for (int round = 0; round < 3; ++round)
    parallel_for(0, 4, kParallelMinWork, [&](int src) {
      net.send(src, (src + 1) % 4, static_cast<Word>(round));
    });
  EXPECT_FALSE(analysis::has_pending());
  net.deliver();
  EXPECT_EQ(analysis::Report::instance().size(), 0u);
}

// ---------------------------------------------------------------------------
// Contract: staged spans die at the next same-source staging call or at
// deliver(); inbox views die at deliver(). The leases catch the stale use
// AT THE USE SITE with the typed violation.

TEST(AnalysisLease, StagedSpanAcrossSameSourceStagingFaults) {
  CheckedThrowScope scope;
  Network net(4);
  analysis::StagedLease<Network> lease(net, 0, 1, 3);
  lease.span()[0] = 11;  // live use is fine
  net.send(0, 2, 99);    // same-source staging bumps src 0's generation
  EXPECT_TRUE(lease.stale());
  EXPECT_THROW((void)lease.span(), ContractViolation);
  const auto vs = analysis::Report::instance().violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, analysis::ContractKind::StaleStagedSpan);
  EXPECT_EQ(vs[0].src, 0);
  EXPECT_EQ(vs[0].dst, 1);
  net.discard_staged();
}

TEST(AnalysisLease, StagedSpanOtherSourceStagingStaysValid) {
  CheckedThrowScope scope;
  Network net(4);
  analysis::StagedLease<Network> lease(net, 0, 1, 2);
  net.send(2, 3, 5);  // different source: src 0's generation is untouched
  EXPECT_FALSE(lease.stale());
  lease.span()[1] = 7;
  net.deliver();
  EXPECT_EQ(net.inbox(1, 0).size(), 2u);
  EXPECT_EQ(net.inbox(1, 0)[1], Word{7});
  EXPECT_EQ(analysis::Report::instance().size(), 0u);
}

TEST(AnalysisLease, StagedSpanAcrossDeliverFaults) {
  CheckedThrowScope scope;
  Network net(4);
  analysis::StagedLease<Network> lease(net, 0, 1, 1);
  lease.span()[0] = 1;
  net.deliver();
  EXPECT_THROW((void)lease.span(), ContractViolation);
  EXPECT_EQ(analysis::Report::instance().count(
                analysis::ContractKind::StaleStagedSpan),
            1u);
}

TEST(AnalysisLease, InboxViewAcrossDeliverFaults) {
  CheckedThrowScope scope;
  Network net(4);
  net.send(0, 1, 21);
  net.deliver();
  analysis::InboxLease<Network> lease(net, 1, 0);
  ASSERT_EQ(lease.span().size(), 1u);  // live view reads fine
  EXPECT_EQ(lease.span()[0], Word{21});
  // Staging does NOT invalidate inbox views (only deliver rebuilds the
  // arena) — the zero-copy forward pattern of four_cycle.cpp step 2.
  net.send(1, 2, lease.span()[0]);
  net.deliver();
  EXPECT_TRUE(lease.stale());
  EXPECT_THROW((void)lease.span(), ContractViolation);
  const auto vs = analysis::Report::instance().violations();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, analysis::ContractKind::StaleInboxSpan);
  EXPECT_EQ(vs[0].src, 0);
  EXPECT_EQ(vs[0].dst, 1);
  EXPECT_EQ(vs[0].superstep, 2);
}

// ---------------------------------------------------------------------------
// Positive: instrumented full runs report zero violations, and checking
// never perturbs the accounting.

TEST(AnalysisPositive, FullApspUnderCheckingIsCleanAndBitIdentical) {
  const auto g = random_weighted_graph(24, 0.3, /*min_w=*/1, /*max_w=*/9,
                                       /*seed=*/7);
  const auto unchecked = [&] {
    analysis::ScopedChecking off(false);
    return core::apsp_semiring(g);
  }();
  CheckedThrowScope scope;
  const auto checked = core::apsp_semiring(g);
  EXPECT_EQ(analysis::Report::instance().size(), 0u);
  EXPECT_FALSE(analysis::has_pending());
  // The checker observes; the engine's results and charges are identical.
  EXPECT_EQ(checked.dist, unchecked.dist);
  EXPECT_EQ(checked.traffic.rounds, unchecked.traffic.rounds);
  EXPECT_EQ(checked.traffic.total_words, unchecked.traffic.total_words);
  EXPECT_EQ(checked.traffic.supersteps, unchecked.traffic.supersteps);
}

TEST(AnalysisPositive, TriangleCountUnderCheckingIsClean) {
  const auto g = gnp_random_graph(20, 0.4, /*seed=*/11);
  CheckedThrowScope scope;
  const auto out = core::count_triangles_cc(g);
  EXPECT_EQ(analysis::Report::instance().size(), 0u);
  analysis::ScopedChecking off(false);
  const auto ref = core::count_triangles_cc(g);
  EXPECT_EQ(out.count, ref.count);
  EXPECT_EQ(out.traffic.rounds, ref.traffic.rounds);
}

}  // namespace
}  // namespace cca
