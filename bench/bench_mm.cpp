// Table 1, rows "matrix multiplication (semiring)" and "(ring)":
// measured rounds for the Section 2.1 and 2.2 algorithms against the naive
// baseline, with fitted exponents.
//
// Paper bounds: semiring O(n^{1/3}); ring O(n^{1-2/omega}) — with the
// implemented Strassen tensor (sigma = log2 7) the target exponent is
// 1 - 2/sigma ~ 0.288. The fast series uses the matched-depth family
// (m(d) ~ n); a fixed-depth series is also shown to make the depth
// granularity visible (the paper's +epsilon in Theorem 1).
#include <sys/wait.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "clique/network.hpp"
#include "clique/socket_transport.hpp"
#include "core/engine.hpp"
#include "core/mm_dense.hpp"
#include "core/mm_sparse.hpp"
#include "matrix/codec.hpp"
#include "matrix/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace cca;
using namespace cca::core;
using cca::bench::Series;

Matrix<std::int64_t> random_matrix(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(0, 1000);
  return m;
}

Matrix<std::int64_t> random_sparse_matrix(int n, std::int64_t nnz,
                                          std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  std::int64_t placed = 0;
  while (placed < nnz) {
    const int i = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (m(i, j) != 0) continue;
    m(i, j) = rng.next_in(1, 1000);
    ++placed;
  }
  return m;
}

clique::TrafficStats run_sparse(int n, std::int64_t nnz) {
  clique::Network net(n);
  const auto a = random_sparse_matrix(n, nnz, 1);
  const auto b = random_sparse_matrix(n, nnz, 2);
  (void)mm_semiring_sparse(net, IntRing{}, I64Codec{}, a, b);
  return net.stats();
}

clique::TrafficStats run_auto(int n, std::int64_t nnz) {
  const IntMmEngine engine(MmKind::Auto, n);
  clique::Network net(engine.clique_n());
  const auto a = random_sparse_matrix(n, nnz, 1);
  const auto b = random_sparse_matrix(n, nnz, 2);
  (void)engine.multiply(net, a, b);
  return net.stats();
}

/// A semiring_3d product on `net` with the seeded inputs every series uses.
struct SemiringInputs {
  explicit SemiringInputs(int n)
      : a(random_matrix(n, 1)), b(random_matrix(n, 2)) {}
  void operator()(clique::Network& net) const {
    (void)mm_semiring_3d(net, IntRing{}, I64Codec{}, a, b);
  }
  Matrix<std::int64_t> a, b;
};

/// A fast_bilinear product (Strassen^depth, padded to the plan's clique).
struct FastInputs {
  FastInputs(int n, int depth)
      : plan(plan_fast_mm(n, depth)),
        alg(tensor_power(strassen_algorithm(), depth)),
        a(pad_matrix(random_matrix(n, 1), plan.clique_n, std::int64_t{0})),
        b(pad_matrix(random_matrix(n, 2), plan.clique_n, std::int64_t{0})) {}
  void operator()(clique::Network& net) const {
    (void)mm_fast_bilinear(net, IntRing{}, I64Codec{}, alg, a, b);
  }
  FastPlan plan;
  BilinearAlgorithm alg;
  Matrix<std::int64_t> a, b;
};

clique::TrafficStats run_semiring(int n) {
  clique::Network net(n);
  SemiringInputs{n}(net);
  return net.stats();
}

clique::TrafficStats run_fast(int n, int depth) {
  const FastInputs product(n, depth);
  clique::Network net(product.plan.clique_n);
  product(net);
  return net.stats();
}

/// --steps: run `product` once on an n-clique under a SuperstepRecorder and
/// fold the records into one row per superstep. Superstep i's row splits
/// the wall from the previous superstep's end to its own end:
///   compute   until its first staging call (node-local work),
///   stage     until Transport::deliver starts (staging and encoding),
///   transport inside Transport::deliver (data movement),
///   schedule  Network routing the returned demand list, which runs after
///             Transport::deliver returns: the growth of schedule_wall_ns
///             up to the next superstep's entry, or up to the final stats.
/// The tail is the compute after the last superstep. Returns false, with a
/// message on stderr, unless there is one row per charged superstep and
/// the schedule column sums to the network's schedule_wall_ns exactly.
template <typename Product>
bool print_steps(const char* what, int n, const Product& product) {
  auto recorder = std::make_unique<cca::bench::SuperstepRecorder>(n);
  auto& rec = *recorder;
  clique::Network net(std::move(recorder));
  rec.attach(net);
  const auto t0 = cca::bench::now_ns();
  product(net);
  const auto t1 = cca::bench::now_ns();

  const auto& records = rec.records();
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::printf("%s (total %.1f ms, %zu supersteps):\n", what, ms(t1 - t0),
              records.size());
  std::printf("  %-9s %12s %12s %12s %12s\n", "superstep", "compute ms",
              "stage ms", "transport ms", "schedule ms");
  std::int64_t prev_end = t0;
  std::int64_t schedule_sum = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    const auto sched_after = i + 1 < records.size()
                                 ? records[i + 1].schedule_wall_ns
                                 : net.stats().schedule_wall_ns;
    const auto schedule = sched_after - r.schedule_wall_ns;
    const auto staged =
        r.first_stage_ns != 0 ? r.first_stage_ns : r.deliver_begin_ns;
    std::printf("  %-9zu %12.2f %12.2f %12.2f %12.2f\n", i + 1,
                ms(staged - prev_end), ms(r.deliver_begin_ns - staged),
                ms(r.deliver_end_ns - r.deliver_begin_ns), ms(schedule));
    schedule_sum += schedule;
    prev_end = r.deliver_end_ns + schedule;
  }
  std::printf("  %-9s %12.2f\n", "tail", ms(t1 - prev_end));

  bool ok = true;
  if (static_cast<std::int64_t>(records.size()) != net.stats().supersteps) {
    std::fprintf(stderr, "%s: %zu recorded supersteps != %lld charged\n",
                 what, records.size(),
                 static_cast<long long>(net.stats().supersteps));
    ok = false;
  }
  if (schedule_sum != net.stats().schedule_wall_ns) {
    std::fprintf(stderr, "%s: schedule column %lld ns != schedule_wall_ns "
                 "%lld ns\n", what, static_cast<long long>(schedule_sum),
                 static_cast<long long>(net.stats().schedule_wall_ns));
    ok = false;
  }
  return ok;
}

/// One rank's semiring product over a socket mesh (inputs replicated from
/// the same seeds as run_semiring, so results/stats match the arena run).
/// Wiring the mesh and building the inputs are set-up: after a barrier,
/// `wall_ns` times the multiply alone.
struct SocketRun {
  clique::TrafficStats stats;
  std::int64_t wall_ns = 0;
};

SocketRun run_semiring_socket(int n, int rank, int nprocs, int port_base) {
  const auto mesh = clique::SocketMesh::connect_tcp(rank, nprocs, port_base);
  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  clique::Network net(n);
  const auto a = random_matrix(n, 1);
  const auto b = random_matrix(n, 2);
  // Barrier: an empty frame to and from every peer.
  const std::vector<std::span<const std::byte>> none(
      static_cast<std::size_t>(nprocs));
  std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(nprocs));
  mesh->exchange_all(none, got);
  const auto t0 = cca::bench::now_ns();
  (void)mm_semiring_3d(net, IntRing{}, I64Codec{}, a, b);
  return {net.stats(), cca::bench::now_ns() - t0};
}

/// The --transport=socket smoke series: the parent plays rank 0 and forks
/// ranks 1..P-1 re-executing this binary in a hidden worker mode. Rounds
/// are asserted bit-identical to the arena run (that is the CI gate); the
/// exchange wall is recorded next to the arena wall as a finding, not a
/// gate — localhost TCP pays real syscalls per superstep.
int run_socket_series(cca::bench::JsonReport& json) {
  cca::bench::print_header(
      "SocketTransport smoke: P ranks over localhost TCP vs in-process "
      "arena");
  int failures = 0;
  int config = 0;
  const int port_lo =
      23000 + static_cast<int>(getpid() % 16384);  // avoid TIME_WAIT reuse
  for (const int nprocs : {1, 2, 4}) {
    for (const int n : {27, 64}) {
      const int port_base = port_lo + 8 * config++;
      const auto t0 = cca::bench::now_ns();
      const auto arena = run_semiring(n);
      const auto t1 = cca::bench::now_ns();

      std::vector<pid_t> kids;
      for (int r = 1; r < nprocs; ++r) {
        const pid_t pid = fork();
        if (pid == 0) {
          char spec[64];
          std::snprintf(spec, sizeof spec, "--socket-worker=%d:%d:%d:%d", r,
                        nprocs, port_base, n);
          execl("/proc/self/exe", "bench_mm", spec,
                static_cast<char*>(nullptr));
          _exit(127);
        }
        kids.push_back(pid);
      }
      const auto [socket, socket_ns] =
          run_semiring_socket(n, 0, nprocs, port_base);
      for (const pid_t pid : kids) {
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
      }
      if (socket.rounds != arena.rounds ||
          socket.total_words != arena.total_words ||
          socket.schedule_hits != arena.schedule_hits)
        ++failures;

      char label[32];
      std::snprintf(label, sizeof label, "mm_socket_p%d", nprocs);
      json.add(label, n, socket.rounds, socket_ns);
      std::printf(
          "  P=%d n=%3d  rounds=%4lld (arena %4lld)  socket %7.1f ms vs "
          "arena %7.1f ms%s\n",
          nprocs, n, static_cast<long long>(socket.rounds),
          static_cast<long long>(arena.rounds),
          static_cast<double>(socket_ns) / 1e6,
          static_cast<double>(t1 - t0) / 1e6,
          failures > 0 ? "  [MISMATCH]" : "");
    }
  }
  json.note(
      "mm_socket_p{1,2,4}: semiring_3d over the localhost "
      "SocketTransport, parent as rank 0 plus forked worker ranks. Rounds, "
      "total_words and schedule_hits are asserted bit-identical to the "
      "in-process arena run (the count all-gather hands every rank the "
      "same canonical demand list) and only rounds are gated. The recorded "
      "wall is rank 0's multiply alone, started after a barrier: wiring "
      "the mesh (connect_tcp) and building the inputs are set-up. It "
      "includes the per-superstep TCP exchanges and the schedule split "
      "shared over the ranks, so it still sits above the arena wall at "
      "these tiny sizes — the series exists to pin accounting identity and "
      "keep the exchange overhead visible, not to win wall-clock.");
  json.write();
  if (failures > 0) {
    std::fprintf(stderr, "socket smoke: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}

std::int64_t run_naive(int n) {
  clique::Network net(n);
  const auto a = random_matrix(n, 1);
  const auto b = random_matrix(n, 2);
  (void)mm_naive_broadcast(net, IntRing{}, I64Codec{}, a, b);
  return net.stats().rounds;
}

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv,
                                  {"--json", "--smoke", "--steps", "--batch",
                                   "--sparse", "--transport=socket"},
                                  {"--socket-worker="});
  cca::bench::JsonReport json("mm", argc, argv);

  // Hidden worker mode for --transport=socket: this process is rank R of a
  // P-rank mesh (spawned by run_socket_series via fork/exec).
  for (int i = 1; i < argc; ++i) {
    int rank = 0, nprocs = 0, port_base = 0, n = 0;
    if (std::sscanf(argv[i], "--socket-worker=%d:%d:%d:%d", &rank, &nprocs,
                    &port_base, &n) == 4) {
      (void)run_semiring_socket(n, rank, nprocs, port_base);
      return 0;
    }
  }
  if (cca::bench::has_flag(argc, argv, "--transport=socket"))
    return run_socket_series(json);

  // --steps: per-superstep wall-clock breakdown (compute / stage /
  // transport / schedule) for the sizes whose totals the main table
  // reports, then exit. This is the tool that located the non-monotonic
  // semiring_3d spike at n=343 in the relay scheduler.
  if (cca::bench::has_flag(argc, argv, "--steps")) {
    cca::bench::print_header("Per-superstep wall-clock breakdown");
    bool ok = true;
    for (const int n : {216, 343, 512}) {
      char what[64];
      std::snprintf(what, sizeof what, "semiring_3d n=%d", n);
      ok = print_steps(what, n, SemiringInputs{n}) && ok;
    }
    const FastInputs fast(343, 3);
    ok = print_steps("fast_bilinear n=343 depth=3 (clique 576)",
                     fast.plan.clique_n, fast) &&
         ok;
    if (json.enabled())
      std::printf("(--steps is a diagnostic mode; BENCH json not written)\n");
    return ok ? 0 : 1;
  }

  // --batch: the multi-query engine. B=8 same-shape products through
  // shared supersteps (IntMmEngine::multiply_batch) against the same 8
  // products run as independent sequential queries, each on its own
  // Network — the serving scenario batching targets. Reports rounds and
  // wall-clock for both; the batch must win both (test_batch.cpp pins the
  // rounds claim).
  if (cca::bench::has_flag(argc, argv, "--batch")) {
    cca::bench::print_header(
        "Batched multiply: B=8 shared supersteps vs 8 per-query runs");
    struct Config {
      MmKind kind;
      const char* name;
      int n;
    };
    for (const auto& cfg :
         {Config{MmKind::Semiring3D, "semiring_3d", 125},
          Config{MmKind::Semiring3D, "semiring_3d", 216},
          Config{MmKind::Fast, "fast_bilinear", 125},
          Config{MmKind::Fast, "fast_bilinear", 216}}) {
      const std::size_t b_count = 8;
      const IntMmEngine engine(cfg.kind, cfg.n);
      const int big = engine.clique_n();
      std::vector<Matrix<std::int64_t>> as, bs;
      for (std::size_t b = 0; b < b_count; ++b) {
        as.push_back(pad_matrix(random_matrix(cfg.n, b + 1), big,
                                std::int64_t{0}));
        bs.push_back(pad_matrix(random_matrix(cfg.n, b + 100), big,
                                std::int64_t{0}));
      }
      std::int64_t seq_rounds = 0;
      const auto t0 = cca::bench::now_ns();
      for (std::size_t b = 0; b < b_count; ++b) {
        clique::Network net(big);
        (void)engine.multiply(net, as[b], bs[b]);
        seq_rounds += net.stats().rounds;
      }
      const auto t1 = cca::bench::now_ns();
      clique::Network net(big);
      (void)engine.multiply_batch(
          net, std::span<const Matrix<std::int64_t>>(as),
          std::span<const Matrix<std::int64_t>>(bs));
      const auto t2 = cca::bench::now_ns();
      std::printf(
          "  %-13s n=%3d (clique %3d)  8 queries: %5lld rounds %7.1f ms   "
          "batch: %5lld rounds %7.1f ms  (%.2fx wall, %.2fx rounds)\n",
          cfg.name, cfg.n, big, static_cast<long long>(seq_rounds),
          static_cast<double>(t1 - t0) / 1e6,
          static_cast<long long>(net.stats().rounds),
          static_cast<double>(t2 - t1) / 1e6,
          static_cast<double>(t1 - t0) / static_cast<double>(t2 - t1),
          static_cast<double>(seq_rounds) /
              static_cast<double>(net.stats().rounds));
    }
    if (json.enabled())
      std::printf("(--batch is a diagnostic mode; BENCH json not written)\n");
    return 0;
  }

  // --sparse: density sweep at fixed n — where is the sparse/dense
  // crossover? Diagnostic companion of the committed mm_sparse series.
  if (cca::bench::has_flag(argc, argv, "--sparse")) {
    cca::bench::print_header(
        "Sparse crossover: rounds vs density at n=216 (dense 3D = 42)");
    const int n = 216;
    clique::Network dense_net(n);
    (void)mm_semiring_3d(dense_net, IntRing{}, I64Codec{},
                         random_matrix(n, 1), random_matrix(n, 2));
    const auto dense_rounds = dense_net.stats().rounds;
    std::printf("  %-14s %10s %10s %10s  (dense 3D: %lld rounds)\n", "nnz",
                "sparse", "auto", "auto picks", static_cast<long long>(dense_rounds));
    const auto n64 = static_cast<std::int64_t>(n);
    for (const auto nnz :
         {n64, 3 * n64, n64 * 14 /* ~n^1.5 */, n64 * 40, n64 * 80,
          n64 * 120, n64 * 160, n64 * (n64 - 1) / 3}) {
      const auto t0 = cca::bench::now_ns();
      const auto s = run_sparse(n, nnz);
      const auto t1 = cca::bench::now_ns();
      const auto a = run_auto(n, nnz);
      const auto t2 = cca::bench::now_ns();
      const bool picked_sparse = a.rounds == s.rounds;
      std::printf("  nnz=%9lld %10lld %10lld %10s   (%6.1f / %6.1f ms)\n",
                  static_cast<long long>(nnz),
                  static_cast<long long>(s.rounds),
                  static_cast<long long>(a.rounds),
                  picked_sparse ? "sparse" : "dense+1",
                  static_cast<double>(t1 - t0) / 1e6,
                  static_cast<double>(t2 - t1) / 1e6);
    }
    std::printf(
        "\nThe crossover sits where the contribute volume ~1.5 T / n^2 "
        "meets the dense engine's ~6 n^{1/3}: measured at nnz ~ 40n at "
        "n=216 (density ~0.19, where sparse's 43 rounds tie dense+1); "
        "below it Auto charges exactly the sparse rounds, above it dense "
        "plus the 1 announcement round.\n");
    if (json.enabled())
      std::printf("(--sparse is a diagnostic mode; BENCH json not written)\n");
    return 0;
  }

  // --smoke: tiny sizes only, for CI (asserts the perf path still runs and
  // emits valid JSON; no thresholds).
  const bool smoke = cca::bench::has_flag(argc, argv, "--smoke");

  cca::bench::print_header(
      "Table 1: matrix multiplication round complexity (semiring / ring / naive)");

  // Two metrics per series: the measured rounds of the executable Koenig
  // schedule, and the schedule-independent lower bound (what an exactly
  // optimal Lenzen router would pay). The bound isolates the algorithm's
  // bandwidth exponent from router constants.
  Series semi{"semiring 3D", {}, {}};
  Series semi_bound{"semiring 3D (bound)", {}, {}};
  Series naive{"naive broadcast", {}, {}};
  const std::vector<int> semi_sizes =
      smoke ? std::vector<int>{27, 64} : std::vector<int>{27, 64, 125, 216,
                                                          343, 512};
  for (const int n : semi_sizes) {
    const auto t0 = cca::bench::now_ns();
    const auto s = run_semiring(n);
    const auto t1 = cca::bench::now_ns();
    json.add("semiring_3d", n, s.rounds, t1 - t0);
    semi.add(n, static_cast<double>(s.rounds));
    semi_bound.add(n, static_cast<double>(s.bound_rounds));
    naive.add(n, static_cast<double>(run_naive(n)));
  }
  cca::bench::print_series_table({semi, semi_bound, naive});
  cca::bench::print_fit(semi, "O(n^{1/3})");
  cca::bench::print_fit(semi_bound, "O(n^{1/3}) (6 n^{1/3} exactly)");
  cca::bench::print_fit(naive, "O(n)");

  std::printf(
      "\nFast bilinear (Section 2.2), matched-depth family (m(d) ~ n):\n");
  Series fast{"fast (Strassen^k)", {}, {}};
  Series fast_bound{"fast (bound)", {}, {}};
  struct FastConfig {
    int n;
    int depth;
  };
  const std::vector<FastConfig> family =
      smoke ? std::vector<FastConfig>{{7, 1}, {49, 2}}
            : std::vector<FastConfig>{{7, 1}, {49, 2}, {343, 3}};
  for (const auto& f : family) {
    const auto plan = plan_fast_mm(f.n, f.depth);
    const auto t0 = cca::bench::now_ns();
    const auto s = run_fast(f.n, f.depth);
    const auto t1 = cca::bench::now_ns();
    json.add("fast_bilinear", plan.clique_n, s.rounds, t1 - t0);
    std::printf("  n=%4d  depth=%d  padded clique N=%4d  rounds=%lld  "
                "(lower bound %lld)\n",
                f.n, f.depth, plan.clique_n,
                static_cast<long long>(s.rounds),
                static_cast<long long>(s.bound_rounds));
    fast.add(plan.clique_n, static_cast<double>(s.rounds));
    fast_bound.add(plan.clique_n, static_cast<double>(s.bound_rounds));
  }
  cca::bench::print_fit(fast,
                        "O(n^{1-2/sigma}) = O(n^0.288) for sigma = log2 7 "
                        "(paper: O(n^0.158) with omega < 2.373)");
  cca::bench::print_fit(fast_bound, "same, schedule-independent bound");

  std::printf("\nFixed-depth series (depth 2), showing the linear-in-N tail "
              "between depth jumps:\n");
  Series fixed{"fast depth=2", {}, {}};
  const std::vector<int> fixed_sizes =
      smoke ? std::vector<int>{64, 144}
            : std::vector<int>{64, 144, 256, 400, 576};
  for (const int n : fixed_sizes) {
    fixed.add(n, static_cast<double>(run_fast(n, 2).rounds));
  }
  cca::bench::print_series_table({fixed});
  cca::bench::print_fit(fixed, "O(n) at fixed depth (epsilon-tail of Thm 1)");

  std::printf(
      "\nSparse engine at nnz ~ n^{3/2} (the paper's sparsity-sensitive "
      "regime) and nnz-adaptive Auto dispatch:\n");
  Series sparse{"sparse (rho=n^1.5)", {}, {}};
  Series autoe{"auto dispatch", {}, {}};
  const std::vector<int> sparse_sizes =
      smoke ? std::vector<int>{27, 64} : std::vector<int>{27, 64, 125, 216,
                                                          343};
  for (const int n : sparse_sizes) {
    const auto nnz = static_cast<std::int64_t>(n) * isqrt(n);
    const auto t0 = cca::bench::now_ns();
    const auto s = run_sparse(n, nnz);
    const auto t1 = cca::bench::now_ns();
    const auto a = run_auto(n, nnz);
    const auto t2 = cca::bench::now_ns();
    json.add("mm_sparse", n, s.rounds, t1 - t0);
    json.add("mm_auto", n, a.rounds, t2 - t1);
    sparse.add(n, static_cast<double>(s.rounds));
    autoe.add(n, static_cast<double>(a.rounds));
  }
  cca::bench::print_series_table({sparse, autoe});
  cca::bench::print_fit(sparse,
                        "O((rho_A rho_B)^{1/3}/n + 1) -> near-flat at this "
                        "density (vs 3D's n^{1/3})");

  std::printf("\nNote: absolute crossover fast-vs-semiring requires n beyond "
              "laptop simulation for sigma=2.807; the reproduced claim is "
              "the exponent ordering 0.288 < 0.333 < 1 (see README.md, "
              "\"Choosing an MmKind\").\n");
  json.note(
      "semiring_3d clique_n=343 spike (--steps finding): >94% of the time is "
      "deliver(), i.e. KoenigRelay Euler-split scheduling. At n=343 each pair "
      "carries c2=49 words (odd), so the colouring's identical-halves "
      "collapse never fires and the class log is built at word granularity "
      "(O(words*log maxdeg)); at n=512 c2=64=2^6 collapses six levels and "
      "schedules ~7x faster despite ~2.6x more words. Non-monotonicity is a "
      "parity property of the per-pair word count, not of n.");
  json.note(
      "fast_bilinear clique_n=576 (--steps finding): staging/encode and local "
      "kernels are <10% after the zero-copy staged-encode and int64-kernel "
      "work; the remaining ~90% is the Step 3/5 KoenigRelay schedules "
      "(18 and 9 words/pair, odd-dominated), bounded below by the exact "
      "class-sequence volume.");
  json.note(
      "mm_sparse / mm_auto series (PR 4): random matrices with rho = n^{1.5} "
      "nonzeros each. The sparse engine's rounds are near-constant at this "
      "density (announce 2 + gather ~2 + distribute ~2 + contribute, the "
      "last shrinking relative to n as the triple volume T ~ rho^2/n grows "
      "slower than n^2), versus the dense 3D engine's ~6 n^{1/3}: >=2x "
      "fewer rounds from n=125 (15 vs 38) widening to ~4.4x at n=343 (12 "
      "vs 53). mm_auto == mm_sparse rounds at every benched density (the "
      "dispatch announcement IS the sparse algorithm's step 0, and the "
      "planner schedules the exact demand lists the engines stage, so the "
      "choice is never wrong). Measured crossover (bench_mm --sparse, "
      "n=216): sparse wins until nnz ~ 40n (density ~0.19, avg degree ~40 "
      "— far above realistic sparse workloads); at 80n it is 139 vs 43 "
      "rounds and Auto has switched to dense+1.");
  json.note(
      "odd-word pad (PR 4): mm_semiring_3d step 1 pads odd per-pair groups "
      ">= 17 words by one zero word, restoring the identical-halves "
      "collapse the ROADMAP's clique_n=343 finding identified (49 -> 50 = "
      "2 * 25 words/pair). Rounds pinned unchanged (53 at 343: the padded "
      "step-1 schedule costs the same 34 rounds; step 3 stays unpadded "
      "because ITS padded schedule measures one round worse there), wall "
      "546 -> ~340 ms. Step-1 scheduling alone halves (379 -> 189 ms), "
      "and the n=729 step-1 split drops 2321 -> 1186 ms.");
  json.note(
      "--batch finding (PR 3): B=8 products through shared supersteps vs 8 "
      "per-query networks: 1.1-5.2x wall and 1.03-1.22x fewer rounds "
      "(semiring_3d n=125: 5.2x wall, 304->250 rounds). Against 8 "
      "sequential calls on ONE network the batch is roughly par on wall "
      "(the schedule cache already collapses the repeats) but still "
      "strictly fewer rounds: batching B-fold word counts multiplies every "
      "demand by 8=2^3, which both collapses three extra Euler-split "
      "levels and lets the relay spread blocks over otherwise-idle "
      "intermediates.");
  json.write();
  return 0;
}
