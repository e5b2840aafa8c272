// Tests for hypertree decompositions (Section 6's discussion of
// Gottlob-Leone-Scarcello): validity, the width-1 = acyclicity
// correspondence, the cover-based upper bound, and solving CSPs along a
// decomposition.

#include <gtest/gtest.h>

#include <algorithm>

#include "boolean/hell_nesetril.h"
#include "treewidth/heuristics.h"
#include "csp/convert.h"
#include "csp/solver.h"
#include "gen/generators.h"
#include "treewidth/hypertree.h"
#include "util/rng.h"

namespace cspdb {
namespace {

TEST(MinimumEdgeCover, ExactCovers) {
  Hypergraph h{{{0, 1, 2}, {2, 3}, {3, 4}, {0, 4}}};
  auto one = MinimumEdgeCover(h, {0, 1});
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->size(), 1u);
  auto two = MinimumEdgeCover(h, {1, 3});
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->size(), 2u);
  EXPECT_FALSE(MinimumEdgeCover(h, {9}).has_value());
  auto empty = MinimumEdgeCover(h, {});
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(Hypertree, AcyclicHypergraphsHaveWidthOne) {
  // Chain and star schemas: alpha-acyclic, so the join-forest route
  // yields width 1.
  Hypergraph chain{{{0, 1}, {1, 2}, {2, 3}}};
  auto w = HypertreeWidthUpperBound(chain);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 1);
  Hypergraph star{{{0, 1}, {0, 2}, {0, 3}}};
  w = HypertreeWidthUpperBound(star);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 1);
}

TEST(Hypertree, TriangleNeedsWidthTwo) {
  Hypergraph triangle{{{0, 1}, {1, 2}, {0, 2}}};
  auto w = HypertreeWidthUpperBound(triangle);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 2);  // any two edges cover the bag {0,1,2}
}

TEST(Hypertree, ConstructedDecompositionsAreValid) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    // Random hypergraph: mixed binary/ternary edges.
    Hypergraph h;
    int vertices = 6;
    int edges = rng.UniformInt(3, 6);
    for (int e = 0; e < edges; ++e) {
      int size = rng.UniformInt(2, 3);
      h.edges.push_back(rng.SampleDistinct(vertices, size));
    }
    auto forest = BuildJoinForest(h);
    std::optional<HypertreeDecomposition> htd;
    if (forest.has_value()) {
      htd = HypertreeFromTreeDecomposition(
          h, JoinForestToTreeDecomposition(h, *forest));
    } else {
      Graph primal(vertices);
      for (const auto& edge : h.edges) {
        for (std::size_t i = 0; i < edge.size(); ++i) {
          for (std::size_t j = i + 1; j < edge.size(); ++j) {
            primal.AddEdge(edge[i], edge[j]);
          }
        }
      }
      htd = HypertreeFromTreeDecomposition(h, MinFillDecomposition(primal));
    }
    ASSERT_TRUE(htd.has_value()) << trial;
    // Normalize edge sortedness as BuildJoinForest does.
    Hypergraph sorted = h;
    for (auto& edge : sorted.edges) std::sort(edge.begin(), edge.end());
    EXPECT_TRUE(IsValidGeneralizedHypertree(sorted, *htd)) << trial;
  }
}

TEST(Hypertree, CheckerRejectsBadDecompositions) {
  Hypergraph h{{{0, 1}, {1, 2}}};
  // Guard does not cover the bag.
  HypertreeDecomposition bad_cover;
  bad_cover.chi = {{0, 1, 2}};
  bad_cover.lambda = {{0}};
  EXPECT_FALSE(IsValidGeneralizedHypertree(h, bad_cover));
  // Edge not inside any bag.
  HypertreeDecomposition missing_edge;
  missing_edge.chi = {{0, 1}};
  missing_edge.lambda = {{0}};
  EXPECT_FALSE(IsValidGeneralizedHypertree(h, missing_edge));
  // Valid single-node decomposition.
  HypertreeDecomposition good;
  good.chi = {{0, 1, 2}};
  good.lambda = {{0, 1}};
  EXPECT_TRUE(IsValidGeneralizedHypertree(h, good));
}

TEST(Hypertree, BagWithRepeatedVertexIsInvalid) {
  // Bags are sets: {0,0,1,2} is sorted and covered, but repeats vertex 0.
  Hypergraph h{{{0, 1, 2}}};
  HypertreeDecomposition repeated;
  repeated.chi = {{0, 0, 1, 2}};
  repeated.lambda = {{0}};
  EXPECT_FALSE(IsValidGeneralizedHypertree(h, repeated));
}

TEST(HypertreeDeathTest, SolveRejectsBagWithRepeatedVertex) {
  CspInstance csp(3, 2);
  csp.AddConstraint({0, 1, 2}, {{0, 1, 0}, {1, 0, 1}});
  HypertreeDecomposition repeated;
  repeated.chi = {{0, 0, 1, 2}};
  repeated.lambda = {{0}};
  EXPECT_DEATH(SolveByHypertreeDecomposition(csp, repeated),
               "decomposition invalid for this instance");
}

TEST(Hypertree, SolvesAgreeWithSearch) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    CspInstance csp = RandomBinaryCsp(6, 3, 8, 0.45, &rng);
    int width = -1;
    auto ht = SolveWithHypertreeHeuristic(csp, &width);
    BacktrackingSolver solver(csp);
    auto bt = solver.Solve();
    EXPECT_EQ(ht.has_value(), bt.has_value()) << trial;
    if (ht.has_value()) {
      EXPECT_TRUE(csp.IsSolution(*ht)) << trial;
    }
    EXPECT_GE(width, 1);
  }
}

TEST(Hypertree, SolvesAcyclicInstancesWithWidthOne) {
  // A chain-structured ternary CSP: acyclic, so width 1.
  CspInstance csp(5, 2);
  std::vector<Tuple> parity;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        if ((x ^ y ^ z) == 0) parity.push_back({x, y, z});
      }
    }
  }
  csp.AddConstraint({0, 1, 2}, parity);
  csp.AddConstraint({2, 3, 4}, parity);
  csp.AddConstraint({0}, {{1}});
  int width = -1;
  auto solution = SolveWithHypertreeHeuristic(csp, &width);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
  EXPECT_EQ(width, 1);
}

TEST(Hypertree, UnsolvableDetected) {
  CspInstance csp = ToCspInstance(CycleGraph(5), CliqueGraph(2));
  EXPECT_FALSE(SolveWithHypertreeHeuristic(csp).has_value());
}

TEST(Hypertree, UnconstrainedVariablesAssigned) {
  CspInstance csp(4, 3);
  csp.AddConstraint({1, 2}, {{0, 1}});
  auto solution = SolveWithHypertreeHeuristic(csp);
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
}

TEST(Hypertree, HigherArityInstances) {
  Rng rng(17);
  for (int trial = 0; trial < 6; ++trial) {
    // Random 3-SAT-like ternary instance.
    CspInstance csp(6, 2);
    for (int c = 0; c < 6; ++c) {
      std::vector<int> scope = rng.SampleDistinct(6, 3);
      std::vector<Tuple> allowed;
      for (int code = 0; code < 8; ++code) {
        if (rng.Bernoulli(0.8)) {
          allowed.push_back({code & 1, (code >> 1) & 1, (code >> 2) & 1});
        }
      }
      if (allowed.empty()) allowed.push_back({0, 0, 0});
      csp.AddConstraint(scope, allowed);
    }
    auto ht = SolveWithHypertreeHeuristic(csp);
    BacktrackingSolver solver(csp);
    EXPECT_EQ(ht.has_value(), solver.Solve().has_value()) << trial;
  }
}

}  // namespace
}  // namespace cspdb
