// Tests for the Datalog engine (Section 4): program well-formedness,
// naive and semi-naive evaluation, k-width, and the Non-2-Colorability
// example program.

#include <gtest/gtest.h>

#include "boolean/hell_nesetril.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "exec/cancellation.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// Transitive closure program: T(x,y) :- E(x,y); T(x,y) :- T(x,z), E(z,y).
DatalogProgram TransitiveClosure() {
  DatalogProgram p;
  p.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  p.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  p.SetGoal("T");
  return p;
}

Structure DirectedPath(int n) {
  Structure g(GraphVocabulary(), n);
  for (int i = 0; i + 1 < n; ++i) g.AddTuple(0, {i, i + 1});
  return g;
}

TEST(DatalogProgram, WidthComputation) {
  DatalogProgram p = TransitiveClosure();
  EXPECT_EQ(p.Width(), 3);
  EXPECT_TRUE(p.IsKDatalog(3));
  EXPECT_FALSE(p.IsKDatalog(2));
}

TEST(DatalogProgram, IdbEdbClassification) {
  DatalogProgram p = TransitiveClosure();
  EXPECT_TRUE(p.IsIdb("T"));
  EXPECT_FALSE(p.IsIdb("E"));
  EXPECT_EQ(p.ArityOf("T"), 2);
  EXPECT_EQ(p.ArityOf("E"), 2);
}

TEST(DatalogEval, TransitiveClosureOnPath) {
  Structure g = DirectedPath(5);
  DatalogResult naive = EvaluateNaive(TransitiveClosure(), g);
  // All pairs i < j.
  EXPECT_EQ(naive.Facts("T").size(), 10u);
  EXPECT_TRUE(naive.Facts("T").count({0, 4}) > 0);
  EXPECT_FALSE(naive.Facts("T").count({4, 0}) > 0);
}

TEST(DatalogEval, SemiNaiveMatchesNaive) {
  Rng rng(21);
  for (int trial = 0; trial < 8; ++trial) {
    Structure g = RandomDigraph(6, 0.3, &rng);
    DatalogProgram p = TransitiveClosure();
    DatalogResult naive = EvaluateNaive(p, g);
    DatalogResult semi = EvaluateSemiNaive(p, g);
    EXPECT_EQ(naive.Facts("T"), semi.Facts("T")) << trial;
  }
}

TEST(DatalogEval, SemiNaiveFiresFewerRules) {
  Structure g = DirectedPath(12);
  DatalogProgram p = TransitiveClosure();
  DatalogResult naive = EvaluateNaive(p, g);
  DatalogResult semi = EvaluateSemiNaive(p, g);
  EXPECT_EQ(naive.Facts("T"), semi.Facts("T"));
  EXPECT_LT(semi.derivations, naive.derivations);
}

TEST(DatalogEval, ZeroAryGoal) {
  DatalogProgram p;
  p.AddRule({{"Q", {}}, {{"E", {0, 0}}}, 1});
  p.SetGoal("Q");
  Structure with_loop(GraphVocabulary(), 2);
  with_loop.AddTuple(0, {1, 1});
  Structure without(GraphVocabulary(), 2);
  without.AddTuple(0, {0, 1});
  EXPECT_TRUE(EvaluateSemiNaive(p, with_loop).GoalDerived(p));
  EXPECT_FALSE(EvaluateSemiNaive(p, without).GoalDerived(p));
}

TEST(DatalogEval, NonTwoColorabilityProgramOnCycles) {
  DatalogProgram p = NonTwoColorabilityProgram();
  EXPECT_TRUE(p.IsKDatalog(4));
  // Odd cycles have an odd closed walk; even cycles do not.
  EXPECT_TRUE(EvaluateSemiNaive(p, CycleGraph(5)).GoalDerived(p));
  EXPECT_TRUE(EvaluateSemiNaive(p, CycleGraph(7)).GoalDerived(p));
  EXPECT_FALSE(EvaluateSemiNaive(p, CycleGraph(6)).GoalDerived(p));
  EXPECT_FALSE(EvaluateSemiNaive(p, PathGraph(6)).GoalDerived(p));
}

TEST(DatalogEval, NonTwoColorabilityMatchesBipartitenessOnRandomGraphs) {
  Rng rng(37);
  DatalogProgram p = NonTwoColorabilityProgram();
  for (int trial = 0; trial < 10; ++trial) {
    Structure g = RandomUndirectedGraph(7, 0.25, &rng);
    EXPECT_EQ(EvaluateSemiNaive(p, g).GoalDerived(p), !IsBipartite(g))
        << trial;
  }
}

TEST(DatalogEval, EmptyEdbDerivesNothing) {
  Structure g(GraphVocabulary(), 3);
  DatalogResult result = EvaluateSemiNaive(TransitiveClosure(), g);
  EXPECT_TRUE(result.Facts("T").empty());
}

// DatalogFixpoint::idb keeps facts in the order they were admitted. Over
// a directed path, round k admits exactly the pairs at distance k + 1.
TEST(DatalogEval, FixpointRowsFollowAdmissionOrder) {
  const int n = 12;
  const DatalogFixpoint fixpoint =
      SemiNaiveFixpoint(TransitiveClosure(), DirectedPath(n));
  ASSERT_TRUE(fixpoint.Complete());
  const DbRelation* facts = fixpoint.Rows("T");
  ASSERT_NE(facts, nullptr);
  ASSERT_EQ(facts->size(), static_cast<std::size_t>(n * (n - 1) / 2));
  // The rows' path lengths never decrease.
  int longest = 0;
  for (auto row : facts->rows()) {
    EXPECT_GE(row[1] - row[0], longest);
    longest = row[1] - row[0];
  }
  // The k-th block of delta_sizes[k] rows is the n - (k + 1) pairs at
  // distance k + 1; the last round admits nothing.
  ASSERT_EQ(fixpoint.delta_sizes.size(), static_cast<std::size_t>(n));
  std::size_t next = 0;
  for (int k = 0; k < n; ++k) {
    const int distance = k + 1;
    EXPECT_EQ(fixpoint.delta_sizes[k], n - distance) << k;
    for (int64_t i = 0; i < fixpoint.delta_sizes[k]; ++i, ++next) {
      auto row = facts->row(next);
      EXPECT_EQ(row[1] - row[0], distance) << k;
    }
  }
  EXPECT_EQ(next, facts->size());
}

TEST(DatalogEval, CancelledTokenStopsBeforeTheFirstRound) {
  exec::CancellationToken cancel;
  cancel.RequestCancel();
  const DatalogFixpoint fixpoint =
      SemiNaiveFixpoint(TransitiveClosure(), DirectedPath(5), &cancel);
  EXPECT_FALSE(fixpoint.Complete());
  EXPECT_EQ(fixpoint.iterations, 0);
  EXPECT_EQ(fixpoint.TotalFacts(), 0);
}

TEST(DatalogEval, IterationCountsReasonable) {
  Structure g = DirectedPath(9);
  DatalogResult semi = EvaluateSemiNaive(TransitiveClosure(), g);
  // Path of length 8 needs about 8 rounds to saturate.
  EXPECT_GE(semi.iterations, 7);
  EXPECT_LE(semi.iterations, 11);
}

}  // namespace
}  // namespace cspdb
