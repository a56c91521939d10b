// Rank worker for multi-process clique runs (see scripts/run_cluster.py).
//
// Each of the P ranks runs this binary with the SAME workload arguments
// (the SPMD contract: inputs are regenerated identically from --seed on
// every rank). The run is self-checking: the rank first executes the
// workload on a single-process in-process arena — the oracle — and then
// again over the socket mesh with an ambient TransportScope, and exits
// nonzero unless
//   * every result entry this rank OWNS is bit-identical to the oracle, and
//   * every deterministic TrafficStats field (rounds, bound_rounds,
//     supersteps, total_words, max_node_send/recv, schedule hits/misses,
//     faults_injected, retransmit rounds/words) is bit-identical to the
//     oracle's.
// The second property is the refactor's core claim: Network's accounting
// only ever sees the canonical demand list, which the socket backend
// reconstructs identically on every rank (socket_transport.hpp) — and the
// hardened fault path plans from the same common-knowledge metadata, so
// even injected faults charge identically.
//
// Usage:
//   cca_node --rank R --nprocs P --port-base B
//            --workload {mm,mm_sparse,apsp,apsp_auto,apsp_batch,seidel,
//                        girth,witness,triangles,fault_mix} --n N [--seed S]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "clique/fault.hpp"
#include "clique/network.hpp"
#include "clique/socket_transport.hpp"
#include "clique/transport.hpp"
#include "core/apsp.hpp"
#include "core/counting.hpp"
#include "core/engine.hpp"
#include "core/girth.hpp"
#include "core/mm_dense.hpp"
#include "core/mm_sparse.hpp"
#include "graph/generators.hpp"
#include "matrix/codec.hpp"
#include "matrix/semiring.hpp"
#include "util/rng.hpp"

namespace {

using namespace cca;
using namespace cca::core;

struct Options {
  int rank = -1;
  int nprocs = -1;
  int port_base = -1;
  std::string workload;
  int n = 0;
  std::uint64_t seed = 1;
};

[[noreturn]] void usage_fail(const char* msg) {
  std::fprintf(stderr,
               "cca_node: %s\n"
               "usage: cca_node --rank R --nprocs P --port-base B "
               "--workload {mm,mm_sparse,apsp,apsp_auto,apsp_batch,seidel,"
               "girth,witness,triangles,fault_mix} --n N [--seed S]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_fail(flag);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--rank") == 0)
      o.rank = std::atoi(need("--rank needs a value"));
    else if (std::strcmp(argv[i], "--nprocs") == 0)
      o.nprocs = std::atoi(need("--nprocs needs a value"));
    else if (std::strcmp(argv[i], "--port-base") == 0)
      o.port_base = std::atoi(need("--port-base needs a value"));
    else if (std::strcmp(argv[i], "--workload") == 0)
      o.workload = need("--workload needs a value");
    else if (std::strcmp(argv[i], "--n") == 0)
      o.n = std::atoi(need("--n needs a value"));
    else if (std::strcmp(argv[i], "--seed") == 0)
      o.seed = static_cast<std::uint64_t>(
          std::strtoull(need("--seed needs a value"), nullptr, 10));
    else
      usage_fail("unknown flag");
  }
  if (o.rank < 0 || o.nprocs < 1 || o.rank >= o.nprocs)
    usage_fail("--rank/--nprocs out of range");
  if (o.port_base <= 0) usage_fail("--port-base required");
  if (o.workload.empty()) usage_fail("--workload required");
  if (o.n < 1) usage_fail("--n must be >= 1");
  return o;
}

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
    const int i =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const int j =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (m(i, j) != 0) continue;
    m(i, j) = rng.next_in(1, 1000);
    ++placed;
  }
  return m;
}

int g_failures = 0;

void check_i64(std::int64_t got, std::int64_t want, const char* what,
               int rank) {
  if (got == want) return;
  std::fprintf(stderr,
               "cca_node[rank %d]: MISMATCH: %s: sharded %lld vs oracle "
               "%lld\n",
               rank, what, static_cast<long long>(got),
               static_cast<long long>(want));
  ++g_failures;
}

/// The deterministic TrafficStats fields (wall-clock telemetry excluded).
void check_stats(const clique::TrafficStats& got,
                 const clique::TrafficStats& want, int rank) {
  check_i64(got.rounds, want.rounds, "rounds", rank);
  check_i64(got.bound_rounds, want.bound_rounds, "bound_rounds", rank);
  check_i64(got.supersteps, want.supersteps, "supersteps", rank);
  check_i64(got.total_words, want.total_words, "total_words", rank);
  check_i64(got.max_node_send, want.max_node_send, "max_node_send", rank);
  check_i64(got.max_node_recv, want.max_node_recv, "max_node_recv", rank);
  check_i64(got.schedule_hits, want.schedule_hits, "schedule_hits", rank);
  check_i64(got.schedule_misses, want.schedule_misses, "schedule_misses",
            rank);
  check_i64(got.faults_injected, want.faults_injected, "faults_injected",
            rank);
  check_i64(got.retransmit_rounds, want.retransmit_rounds,
            "retransmit_rounds", rank);
  check_i64(got.retransmit_words, want.retransmit_words, "retransmit_words",
            rank);
}

template <typename V>
void check_owned_rows(const Matrix<V>& got, const Matrix<V>& want,
                      clique::NodeSpan own, int rank, const char* what) {
  const int rows = std::min(own.end, got.rows());
  for (int u = own.begin; u < rows; ++u)
    for (int v = 0; v < got.cols(); ++v)
      if (got(u, v) != want(u, v)) {
        std::fprintf(stderr,
                     "cca_node[rank %d]: MISMATCH: %s(%d,%d): sharded %lld "
                     "vs oracle %lld\n",
                     rank, what, u, v, static_cast<long long>(got(u, v)),
                     static_cast<long long>(want(u, v)));
        ++g_failures;
        return;
      }
}

/// mm / mm_sparse: explicit Network at clique size n.
void run_mm(const Options& o, bool sparse,
            const std::shared_ptr<clique::SocketMesh>& mesh) {
  const IntRing ring;
  const I64Codec codec;
  const auto a = sparse ? random_sparse_matrix(o.n, 2 * o.n, o.seed)
                        : random_matrix(o.n, o.seed);
  const auto b = sparse ? random_sparse_matrix(o.n, 2 * o.n, o.seed + 1)
                        : random_matrix(o.n, o.seed + 1);

  // Oracle: single-process arena, no ambient scope.
  clique::Network oracle_net(o.n);
  const auto oracle = sparse
                          ? mm_semiring_sparse(oracle_net, ring, codec, a, b)
                          : mm_semiring_3d(oracle_net, ring, codec, a, b);

  // Sharded run over the mesh.
  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  clique::Network net(o.n);
  const auto got = sparse ? mm_semiring_sparse(net, ring, codec, a, b)
                          : mm_semiring_3d(net, ring, codec, a, b);

  check_owned_rows(got, oracle, net.owned(), o.rank, "product");
  check_stats(net.stats(), oracle_net.stats(), o.rank);
}

/// apsp / apsp_auto: the Network is constructed INSIDE apsp_semiring —
/// exactly the path TransportScope exists for. The Auto kind additionally
/// exercises the sharded nnz census and dispatch hysteresis: the engine
/// trace must match the oracle call for call.
void run_apsp(const Options& o, MmKind kind,
              const std::shared_ptr<clique::SocketMesh>& mesh) {
  const auto g = random_weighted_graph(o.n, 0.35, 1, 50, o.seed);
  const auto oracle = apsp_semiring(g, kind);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  const auto got = apsp_semiring(g, kind);

  const auto own = clique::shard_span(semiring_clique_size(o.n), o.nprocs,
                                      o.rank);
  check_owned_rows(got.dist, oracle.dist, own, o.rank, "dist");
  check_i64(static_cast<std::int64_t>(got.engine_trace.size()),
            static_cast<std::int64_t>(oracle.engine_trace.size()),
            "engine trace length", o.rank);
  check_stats(got.traffic, oracle.traffic, o.rank);
}

/// apsp_batch: three graphs' APSP through the batched Auto dispatcher —
/// the sharded batch announcement and census must reproduce the oracle's
/// per-member results and the shared dispatch trace.
void run_apsp_batch(const Options& o,
                    const std::shared_ptr<clique::SocketMesh>& mesh) {
  std::vector<Graph> gs;
  for (int b = 0; b < 3; ++b)
    gs.push_back(random_weighted_graph(o.n, 0.35, 1, 50, o.seed +
                                       static_cast<std::uint64_t>(b)));
  const auto oracle = apsp_semiring_batch(gs, MmKind::Auto);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  const auto got = apsp_semiring_batch(gs, MmKind::Auto);

  const auto own = clique::shard_span(semiring_clique_size(o.n), o.nprocs,
                                      o.rank);
  for (std::size_t b = 0; b < gs.size(); ++b)
    check_owned_rows(got.dist[b], oracle.dist[b], own, o.rank, "dist");
  check_i64(static_cast<std::int64_t>(got.engine_trace.size()),
            static_cast<std::int64_t>(oracle.engine_trace.size()),
            "engine trace length", o.rank);
  check_stats(got.traffic, oracle.traffic, o.rank);
}

/// seidel: recursive unweighted APSP computed over owned rows at every
/// level; the stability flag and the degrees travel by broadcast, so the
/// owned distance rows must match.
void run_seidel(const Options& o,
                const std::shared_ptr<clique::SocketMesh>& mesh) {
  const auto g = gnp_random_graph(o.n, 0.4, o.seed);
  const auto oracle = apsp_seidel(g);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  const auto got = apsp_seidel(g);

  const auto own = clique::shard_span(
      IntMmEngine(MmKind::Auto, o.n).clique_n(), o.nprocs, o.rank);
  check_owned_rows(got.dist, oracle.dist, own, o.rank, "dist");
  check_stats(got.traffic, oracle.traffic, o.rank);
}

/// girth: directed girth (Corollary 16) on G(n, 0.2), whose doubling exit
/// and binary-search branches follow broadcast votes, then undirected
/// girth (Theorem 15) on G(n, 0.3). Both girths are common knowledge, so
/// every rank must hold the oracle's values.
void run_girth(const Options& o,
               const std::shared_ptr<clique::SocketMesh>& mesh) {
  const auto dg = gnp_random_graph(o.n, 0.2, o.seed, /*directed=*/true);
  const auto ug = gnp_random_graph(o.n, 0.3, o.seed);
  const auto d_oracle = girth_directed_cc(dg);
  const auto u_oracle = girth_undirected_cc(ug, o.seed);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  const auto d_got = girth_directed_cc(dg);
  check_i64(d_got.girth, d_oracle.girth, "directed girth", o.rank);
  check_stats(d_got.traffic, d_oracle.traffic, o.rank);
  const auto u_got = girth_undirected_cc(ug, o.seed);
  check_i64(u_got.girth, u_oracle.girth, "undirected girth", o.rank);
  check_stats(u_got.traffic, u_oracle.traffic, o.rank);
}

/// witness: a replicated exact distance matrix (computed in-process, like
/// any other replicated INPUT) feeds the witnessed product that derives
/// next hops; owned rows of the table must match the oracle.
void run_witness(const Options& o,
                 const std::shared_ptr<clique::SocketMesh>& mesh) {
  const auto g = random_weighted_graph(o.n, 0.35, 1, 50, o.seed);
  const auto base = apsp_semiring(g, MmKind::Semiring3D);

  clique::TrafficStats oracle_traffic;
  const auto oracle =
      routing_table_from_distances(g, base.dist, &oracle_traffic);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  clique::TrafficStats got_traffic;
  const auto got = routing_table_from_distances(g, base.dist, &got_traffic);

  const auto own = clique::shard_span(semiring_clique_size(o.n), o.nprocs,
                                      o.rank);
  check_owned_rows(got, oracle, own, o.rank, "next_hop");
  check_stats(got_traffic, oracle_traffic, o.rank);
}

/// fault_mix: drop + corrupt + duplicate faults under the socket backend.
/// Every rank draws the identical counter-mode coins from the plan seed,
/// so the injected faults, the retransmission charges, and the repaired
/// product must all be bit-identical to the single-process oracle.
void run_fault_mix(const Options& o,
                   const std::shared_ptr<clique::SocketMesh>& mesh) {
  const IntRing ring;
  const I64Codec codec;
  const auto a = random_matrix(o.n, o.seed);
  const auto b = random_matrix(o.n, o.seed + 1);

  clique::FaultPlan plan;
  plan.seed = 0xfa11u ^ o.seed;
  plan.drop_prob = 0.05;
  plan.corrupt_prob = 0.05;
  plan.duplicate_prob = 0.02;

  clique::Network oracle_net(o.n);
  oracle_net.install_faults(plan);
  const auto oracle = mm_semiring_3d(oracle_net, ring, codec, a, b);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  clique::Network net(o.n);
  net.install_faults(plan);
  const auto got = mm_semiring_3d(net, ring, codec, a, b);

  check_owned_rows(got, oracle, net.owned(), o.rank, "product");
  check_stats(net.stats(), oracle_net.stats(), o.rank);
}

/// triangles: single-count workload; the count is derived from a synced
/// broadcast, so every rank must hold the oracle's exact value.
void run_triangles(const Options& o,
                   const std::shared_ptr<clique::SocketMesh>& mesh) {
  const auto g = gnp_random_graph(o.n, 0.4, o.seed);
  const auto oracle = count_triangles_cc(g, MmKind::Semiring3D);

  clique::TransportScope scope(clique::SocketTransport::factory(mesh));
  const auto got = count_triangles_cc(g, MmKind::Semiring3D);

  check_i64(got.count, oracle.count, "triangle count", o.rank);
  check_stats(got.traffic, oracle.traffic, o.rank);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    const auto mesh =
        clique::SocketMesh::connect_tcp(o.rank, o.nprocs, o.port_base);
    if (o.workload == "mm")
      run_mm(o, /*sparse=*/false, mesh);
    else if (o.workload == "mm_sparse")
      run_mm(o, /*sparse=*/true, mesh);
    else if (o.workload == "apsp")
      run_apsp(o, MmKind::Semiring3D, mesh);
    else if (o.workload == "apsp_auto")
      run_apsp(o, MmKind::Auto, mesh);
    else if (o.workload == "apsp_batch")
      run_apsp_batch(o, mesh);
    else if (o.workload == "seidel")
      run_seidel(o, mesh);
    else if (o.workload == "girth")
      run_girth(o, mesh);
    else if (o.workload == "witness")
      run_witness(o, mesh);
    else if (o.workload == "fault_mix")
      run_fault_mix(o, mesh);
    else if (o.workload == "triangles")
      run_triangles(o, mesh);
    else
      usage_fail("unknown --workload");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cca_node[rank %d]: FATAL: %s\n", o.rank, e.what());
    return 3;
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "cca_node[rank %d]: FAILED (%d mismatches)\n",
                 o.rank, g_failures);
    return 1;
  }
  std::printf("cca_node[rank %d]: OK (%s n=%d P=%d)\n", o.rank,
              o.workload.c_str(), o.n, o.nprocs);
  return 0;
}
