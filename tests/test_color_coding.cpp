// Tests for colour-coding k-cycle detection (Lemma 11 / Theorem 3).
#include <gtest/gtest.h>

#include "core/color_coding.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/reference.hpp"

namespace cca::core {
namespace {

struct KCase {
  int n;
  int k;
  double noise;
  std::uint64_t seed;
};

class PlantedSweep : public ::testing::TestWithParam<KCase> {};

TEST_P(PlantedSweep, FindsPlantedCycle) {
  const auto c = GetParam();
  const auto g = planted_cycle_graph(c.n, c.k, c.noise, c.seed);
  ASSERT_TRUE(ref_has_k_cycle(g, c.k));
  const auto r = detect_k_cycle_cc(g, c.k, /*seed=*/c.seed * 7 + 1);
  EXPECT_TRUE(r.found);
  EXPECT_GE(r.trials, 1);
}

INSTANTIATE_TEST_SUITE_P(Cases, PlantedSweep,
                         ::testing::Values(KCase{16, 3, 0.0, 1},
                                           KCase{16, 4, 0.0, 2},
                                           KCase{20, 5, 0.05, 3},
                                           KCase{20, 6, 0.0, 4},
                                           KCase{24, 5, 0.1, 5}));

TEST(ColorCoding, NoFalsePositivesOnAcyclicGraphs) {
  const auto tree = binary_tree(20);
  for (const int k : {3, 4, 5}) {
    const auto r = detect_k_cycle_cc(tree, k, 99, /*max_trials=*/10);
    EXPECT_FALSE(r.found) << k;
  }
}

TEST(ColorCoding, NoOddCyclesInBipartite) {
  const auto g = random_bipartite_graph(10, 0.5, 7);
  EXPECT_FALSE(detect_k_cycle_cc(g, 3, 1, 20).found);
  EXPECT_FALSE(detect_k_cycle_cc(g, 5, 2, 20).found);
  // 4-cycles almost surely exist at this density.
  ASSERT_TRUE(ref_has_k_cycle(g, 4));
  EXPECT_TRUE(detect_k_cycle_cc(g, 4, 3).found);
}

TEST(ColorCoding, ExactLengthNotJustAnyCycle) {
  // A lone 5-cycle has no 3-, 4- or 6-cycles.
  const auto g = cycle_graph(5);
  EXPECT_FALSE(detect_k_cycle_cc(g, 3, 1, 30).found);
  EXPECT_FALSE(detect_k_cycle_cc(g, 4, 2, 30).found);
  EXPECT_TRUE(detect_k_cycle_cc(g, 5, 3).found);
}

TEST(ColorCoding, DirectedCycleOrientation) {
  const auto ring = cycle_graph(6, /*directed=*/true);
  EXPECT_TRUE(detect_k_cycle_cc(ring, 6, 1).found);
  EXPECT_FALSE(detect_k_cycle_cc(ring, 3, 2, 20).found);
  // Directed 2-cycle.
  auto two = Graph::directed(6);
  two.add_edge(0, 1);
  two.add_edge(1, 0);
  EXPECT_TRUE(detect_k_cycle_cc(two, 2, 3).found);
}

TEST(ColorCoding, ColourfulDetectionWithHandPickedColouring) {
  // Lemma 11 directly: colour the planted cycle with distinct colours.
  const int n = 12;
  const int k = 4;
  auto g = Graph::undirected(n);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const IntMmEngine engine(MmKind::Fast, n);
  clique::Network net(engine.clique_n());
  const auto a = pad_matrix(g.adjacency(), engine.clique_n(), std::int64_t{0});
  std::vector<int> colour(n, 0);
  colour[0] = 0;
  colour[1] = 1;
  colour[2] = 2;
  colour[3] = 3;
  EXPECT_TRUE(detect_colourful_cycle(net, engine, a, g, colour, k));
  // A colouring that repeats a colour on the cycle cannot certify it.
  colour[3] = 1;
  // Other nodes keep colour 0, so no colourful 4-cycle exists at all.
  EXPECT_FALSE(detect_colourful_cycle(net, engine, a, g, colour, k));
}

TEST(ColorCoding, KLargerThanNImmediatelyFalse) {
  const auto g = complete_graph(5);
  const auto r = detect_k_cycle_cc(g, 7, 1);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.trials, 0);
}

TEST(ColorCoding, SemiringEngineAgrees) {
  const auto g = planted_cycle_graph(18, 5, 0.05, 11);
  const bool want = ref_has_k_cycle(g, 5);
  const auto r =
      detect_k_cycle_cc(g, 5, 13, /*max_trials=*/-1, MmKind::Semiring3D);
  EXPECT_EQ(r.found, want);
}

}  // namespace
}  // namespace cca::core
