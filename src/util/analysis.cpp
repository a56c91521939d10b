#include "util/analysis.hpp"

#include <cstdio>
#include <cstdlib>

// StagingTracker's slot bookkeeping deliberately uses relaxed atomics: the
// tracker only ever compares tokens within ONE parallel_for region, whose
// fork/join already orders every slot access, so stronger orders would buy
// nothing. Under ThreadSanitizer the relaxed pair still carries no
// happens-before edge, so TSan would (correctly, per its model) not link a
// worker's token store to the next reader's load. The explicit
// __tsan_release / __tsan_acquire annotations publish that fork/join edge
// on the slot address, keeping instrumented runs quiet without upgrading
// the memory order the production build pays for.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CCA_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define CCA_TSAN 1
#endif
#ifdef CCA_TSAN
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#define CCA_TSAN_ACQUIRE(addr) __tsan_acquire(addr)
#define CCA_TSAN_RELEASE(addr) __tsan_release(addr)
#else
#define CCA_TSAN_ACQUIRE(addr) (void)(addr)
#define CCA_TSAN_RELEASE(addr) (void)(addr)
#endif

namespace cca::analysis {

namespace {

std::string format_violation(const Violation& v) {
  std::string out = contract_name(v.kind);
  out += " violation";
  if (v.src >= 0) out += " src=" + std::to_string(v.src);
  if (v.dst >= 0) out += " dst=" + std::to_string(v.dst);
  if (v.superstep >= 0) out += " superstep=" + std::to_string(v.superstep);
  if (!v.detail.empty()) {
    out += ": ";
    out += v.detail;
  }
  return out;
}

/// Deferred-raise state: set by fail() inside parallel regions (Throw
/// mode), consumed by raise_pending(). The message mutex-guards the
/// formatted text; the flag is the cheap signal.
std::atomic<bool> g_pending{false};
std::mutex g_pending_mu;
std::string g_pending_msg;

}  // namespace

void Report::clear() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    violations_.clear();
  }
  g_pending.store(false, std::memory_order_relaxed);
}

bool has_pending() noexcept {
  return g_pending.load(std::memory_order_relaxed);
}

void raise_pending() {
  if (!g_pending.exchange(false, std::memory_order_acq_rel)) return;
  std::string msg;
  {
    const std::lock_guard<std::mutex> lock(g_pending_mu);
    msg = g_pending_msg;
  }
  throw ContractViolation(msg);
}

std::string Report::to_string() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& v : violations_) {
    out += format_violation(v);
    out += '\n';
  }
  return out;
}

void fail(Violation v) {
  const std::string msg = format_violation(v);
  const ContractKind kind = v.kind;
  Report::instance().record(std::move(v));
  if (contract_failure_mode() != ContractFailureMode::Throw) {
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::abort();
  }
  // Throw mode. parallel_for does carry a chunk's exception to its caller,
  // but the throwing chunk abandons the rest of its block while the other
  // blocks run on — so in-region detections are deferred to the next
  // serial checkpoint, where the violation surfaces before the delivery it
  // poisoned, in every thread configuration. DeliverInParallel is the
  // exception: the violating thread is about to mutate every outbox, so
  // letting it proceed to "defer" would be the race itself; throwing here
  // stops the phase change, and parallel_for rethrows it on its caller
  // once every block has finished.
  if (in_parallel_region() && kind != ContractKind::DeliverInParallel) {
    {
      const std::lock_guard<std::mutex> lock(g_pending_mu);
      g_pending_msg = msg;
    }
    g_pending.store(true, std::memory_order_release);
    return;
  }
  throw ContractViolation(msg);
}

void StagingTracker::check_stage(int src, std::int64_t superstep) {
  if (src < 0 || static_cast<std::size_t>(src) >= slots_.size()) return;
  const std::uint64_t epoch = parallel_region_epoch();
  if (epoch == 0) {
    // Serial staging is a safe point: surface any violation a worker
    // deferred. The staging contract itself constrains parallel regions
    // only; clear the slot so a stale parallel-epoch owner cannot alias a
    // later epoch (epochs are monotone, so this is belt-and-braces).
    raise_pending();
    slots_[static_cast<std::size_t>(src)].owner.store(
        0, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t token = (epoch << 20) | thread_token();
  auto& slot = slots_[static_cast<std::size_t>(src)].owner;
  CCA_TSAN_ACQUIRE(&slot);
  const std::uint64_t cur = slot.load(std::memory_order_relaxed);
  if (cur != 0 && (cur >> 20) == epoch && cur != token) {
    fail({ContractKind::CrossSourceStaging, src, -1, superstep,
          "source staged by thread " + std::to_string(cur & 0xfffff) +
              " and thread " + std::to_string(thread_token()) +
              " within one parallel_for region (epoch " +
              std::to_string(epoch) + ")"});
  }
  slot.store(token, std::memory_order_relaxed);
  CCA_TSAN_RELEASE(&slot);
}

void StagingTracker::check_phase_change(const char* what,
                                        std::int64_t superstep) {
  if (!in_parallel_region()) {
    // The serial checkpoint every superstep passes through: a violation
    // deferred from inside the preceding parallel region surfaces here,
    // before the delivery it poisoned proceeds.
    raise_pending();
    return;
  }
  fail({ContractKind::DeliverInParallel, -1, -1, superstep,
        std::string(what) +
            " invoked inside a cca::parallel_for region (epoch " +
            std::to_string(parallel_region_epoch()) + ")"});
}

}  // namespace cca::analysis
