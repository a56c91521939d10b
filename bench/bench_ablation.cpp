// Ablations of the simulator's design choices:
//   1. routing discipline inside the MM algorithms (Koenig vs hash vs
//      random vs direct), folded over one recorded run's demand lists,
//   2. Strassen tensor depth in the fast algorithm,
//   3. padding overhead at non-admissible sizes,
//   4. witness tracking overhead in the distance product (Section 3.3),
//   5. colour-coding trial budget vs detection success (Theorem 3),
//   6. bit-packed Boolean transport,
//   7. broadcast vs unicast clique rounds for matrix multiplication
//      (Corollary 24).
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_common.hpp"
#include "clique/broadcast.hpp"
#include "clique/network.hpp"
#include "clique/routing.hpp"
#include "core/color_coding.hpp"
#include "core/distance_product.hpp"
#include "core/mm_dense.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"
#include "matrix/codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace cca;
using namespace cca::core;

Matrix<std::int64_t> random_matrix(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, 0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m(i, j) = rng.next_in(0, 100);
  return m;
}

Matrix<std::int64_t> random_minplus(int n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix<std::int64_t> m(n, n, MinPlusSemiring::kInf);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (rng.chance(3, 4)) m(i, j) = rng.next_in(0, 50);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  cca::bench::require_known_flags(argc, argv, {});
  cca::bench::print_header("Ablation 1: router inside semiring MM (n = 216)");
  {
    // One recorded product. Routing never touches staged words, so every
    // discipline's rounds are a fold over the delivered demand lists:
    // random draws its intermediates superstep by superstep from one seed.
    const int n = 216;
    auto recorder = std::make_unique<cca::bench::SuperstepRecorder>(n);
    const auto& records = recorder->records();
    clique::Network net(std::move(recorder));
    (void)mm_semiring_3d(net, IntRing{}, I64Codec{}, random_matrix(n, 1),
                         random_matrix(n, 2));
    Rng rng(0x5eed);
    std::int64_t koenig = 0, hash = 0, random = 0, direct = 0;
    for (const auto& r : records) {
      koenig += clique::rounds_koenig_relay(n, r.demands);
      hash += clique::rounds_hash_relay(n, r.demands);
      random += clique::rounds_random_relay(n, r.demands, rng);
      direct += clique::rounds_direct(n, r.demands);
    }
    for (const auto& [name, rounds] :
         std::initializer_list<std::pair<const char*, std::int64_t>>{
             {"koenig (default)", koenig},
             {"hash", hash},
             {"random", random},
             {"direct", direct}})
      std::printf("  %-18s %6lld rounds\n", name,
                  static_cast<long long>(rounds));
    if (koenig != net.stats().rounds) {
      std::fprintf(stderr, "koenig fold %lld != charged rounds %lld\n",
                   static_cast<long long>(koenig),
                   static_cast<long long>(net.stats().rounds));
      return 1;
    }
  }

  cca::bench::print_header(
      "Ablation 2: Strassen tensor depth for n = 343 (fast MM)");
  for (int depth = 0; depth <= 3; ++depth) {
    const auto plan = plan_fast_mm(343, depth);
    clique::Network net(plan.clique_n);
    const IntRing ring;
    const I64Codec codec;
    const auto alg = tensor_power(strassen_algorithm(), depth);
    (void)mm_fast_bilinear(
        net, ring, codec, alg,
        pad_matrix(random_matrix(343, 1), plan.clique_n, std::int64_t{0}),
        pad_matrix(random_matrix(343, 2), plan.clique_n, std::int64_t{0}));
    std::printf("  depth=%d  d=%2d m=%4d padded N=%4d  rounds=%6lld\n", depth,
                plan.d, plan.m, plan.clique_n,
                static_cast<long long>(net.stats().rounds));
  }
  std::printf("(auto-planner picks depth %d)\n", plan_fast_mm_auto(343).depth);

  cca::bench::print_header(
      "Ablation 3: padding overhead of the 3D algorithm near a cube edge");
  for (const int n : {125, 126, 150, 200, 215, 216}) {
    const int padded = semiring_clique_size(n);
    clique::Network net(padded);
    const IntRing ring;
    const I64Codec codec;
    (void)mm_semiring_3d(net, ring, codec,
                         pad_matrix(random_matrix(n, 1), padded, std::int64_t{0}),
                         pad_matrix(random_matrix(n, 2), padded, std::int64_t{0}));
    std::printf("  n=%4d -> clique %4d (x%.2f nodes)  rounds=%5lld\n", n,
                padded, static_cast<double>(padded) / n,
                static_cast<long long>(net.stats().rounds));
  }

  cca::bench::print_header(
      "Ablation 4: witness tracking overhead in the distance product");
  for (const int n : {64, 125, 216}) {
    const auto a = random_minplus(n, 3);
    const auto b = random_minplus(n, 4);
    std::int64_t plain = 0, witnessed = 0;
    {
      clique::Network net(n);
      (void)dp_semiring(net, a, b);
      plain = net.stats().rounds;
    }
    {
      clique::Network net(n);
      (void)dp_semiring_witness(net, a, b);
      witnessed = net.stats().rounds;
    }
    std::printf("  n=%4d  plain=%5lld  witnessed=%5lld  (x%.2f)\n", n,
                static_cast<long long>(plain),
                static_cast<long long>(witnessed),
                static_cast<double>(witnessed) / static_cast<double>(plain));
  }

  cca::bench::print_header(
      "Ablation 5: colour-coding trial budget vs success (k = 5, n = 48)");
  const auto g = planted_cycle_graph(48, 5, 0.02, 77);
  const bool truth = ref_has_k_cycle(g, 5);
  for (const int trials : {1, 2, 4, 8, 16, 32}) {
    int found = 0;
    const int repeats = 10;
    std::int64_t rounds = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      const auto r = detect_k_cycle_cc(g, 5, 1000 + static_cast<std::uint64_t>(rep),
                                       trials);
      if (r.found) ++found;
      rounds += r.traffic.rounds;
    }
    std::printf("  trials=%2d  success=%2d/%d  avg rounds=%lld  (truth: %d)\n",
                trials, found, repeats,
                static_cast<long long>(rounds / repeats), truth ? 1 : 0);
  }
  std::printf("(paper's e^k ln n bound for k=5, n=48 is ~575 trials for "
              "1-1/n confidence; small budgets already succeed on planted "
              "instances)\n");

  cca::bench::print_header(
      "Ablation 6: bit-packed Boolean transport (the '/ log n' factor of "
      "Table 1's prior-work rows)");
  for (const int n : {64, 216, 512}) {
    Rng rng(9);
    Matrix<std::uint8_t> a(n, n, 0);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j) a(i, j) = rng.chance(1, 3) ? 1 : 0;
    const BoolSemiring sr;
    std::int64_t unpacked = 0;
    std::int64_t packed = 0;
    {
      clique::Network net(n);
      (void)mm_semiring_3d(net, sr, ByteCodec{}, a, a);
      unpacked = net.stats().rounds;
    }
    {
      clique::Network net(n);
      (void)mm_semiring_3d(net, sr, PackedBoolCodec{}, a, a);
      packed = net.stats().rounds;
    }
    std::printf("  n=%4d  Boolean MM: unpacked=%5lld  packed=%4lld  (x%.1f)\n",
                n, static_cast<long long>(unpacked),
                static_cast<long long>(packed),
                static_cast<double>(unpacked) / static_cast<double>(packed));
  }

  cca::bench::print_header(
      "Ablation 7: broadcast clique vs unicast clique (Corollary 24)");
  std::printf("%-8s %-22s %-22s\n", "n", "broadcast MM (Thm bound)",
              "unicast MM (Thm 1)");
  for (const int n : {27, 64, 125, 216}) {
    clique::Network net(n);
    const IntRing ring;
    const I64Codec codec;
    (void)mm_semiring_3d(net, ring, codec, random_matrix(n, 1),
                         random_matrix(n, 2));
    std::printf("%-8d %-22lld %-22lld\n", n,
                static_cast<long long>(clique::broadcast_mm_rounds(n)),
                static_cast<long long>(net.stats().rounds));
  }
  std::printf("(broadcast clique: matrix multiplication needs Omega~(n) "
              "rounds [38]; the 2n-round announce-everything strategy is "
              "optimal up to polylog factors)\n");
  return 0;
}
