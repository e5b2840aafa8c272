// Tests for the backtracking solver family (plain, forward checking,
// MAC), including cross-checks against brute-force enumeration.

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "boolean/hell_nesetril.h"
#include "csp/backjump_solver.h"
#include "csp/convert.h"
#include "csp/solver.h"
#include "exec/cancellation.h"
#include "gen/generators.h"
#include "relational/homomorphism.h"
#include "util/rng.h"

namespace cspdb {
namespace {

int64_t BruteForceCount(const CspInstance& csp) {
  int64_t count = 0;
  std::vector<int> assignment(csp.num_variables());
  int64_t total = 1;
  for (int v = 0; v < csp.num_variables(); ++v) total *= csp.num_values();
  for (int64_t code = 0; code < total; ++code) {
    int64_t c = code;
    for (int v = 0; v < csp.num_variables(); ++v) {
      assignment[v] = static_cast<int>(c % csp.num_values());
      c /= csp.num_values();
    }
    if (csp.IsSolution(assignment)) ++count;
  }
  return count;
}

// Both solvers keep a reference to their instance, so they take no
// temporary: `BacktrackingSolver s(Pigeonhole(5, 4));` must not compile.
static_assert(std::is_constructible_v<BacktrackingSolver, const CspInstance&>);
static_assert(!std::is_constructible_v<BacktrackingSolver, CspInstance>);
static_assert(
    !std::is_constructible_v<BacktrackingSolver, CspInstance, SolverOptions>);
static_assert(std::is_constructible_v<BackjumpSolver, const CspInstance&>);
static_assert(!std::is_constructible_v<BackjumpSolver, CspInstance>);
static_assert(
    !std::is_constructible_v<BackjumpSolver, CspInstance, BackjumpOptions>);

class SolverModes : public ::testing::TestWithParam<Propagation> {};

TEST_P(SolverModes, TriangleThreeColoring) {
  Structure a = CliqueGraph(3);
  CspInstance csp = ToCspInstance(a, CliqueGraph(3));
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_TRUE(csp.IsSolution(*solution));
  // 3! proper 3-colorings of a triangle.
  EXPECT_EQ(solver.CountSolutions(), 6);
}

TEST_P(SolverModes, OddCycleNotTwoColorable) {
  CspInstance csp = ToCspInstance(CycleGraph(7), CliqueGraph(2));
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  EXPECT_FALSE(solver.Solve().has_value());
  EXPECT_FALSE(solver.stats().aborted);
}

TEST_P(SolverModes, CountMatchesBruteForceOnRandomInstances) {
  Rng rng(101);
  for (int trial = 0; trial < 12; ++trial) {
    CspInstance csp = RandomBinaryCsp(5, 3, 6, 0.4, &rng);
    SolverOptions options;
    options.propagation = GetParam();
    BacktrackingSolver solver(csp, options);
    EXPECT_EQ(solver.CountSolutions(), BruteForceCount(csp)) << trial;
  }
}

TEST_P(SolverModes, TernaryConstraints) {
  // x + y + z == 1 (mod 2) over three Boolean variables, plus x == 0.
  CspInstance csp(3, 2);
  std::vector<Tuple> odd;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        if ((x + y + z) % 2 == 1) odd.push_back({x, y, z});
      }
    }
  }
  csp.AddConstraint({0, 1, 2}, odd);
  csp.AddConstraint({0}, {{0}});
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  EXPECT_EQ(solver.CountSolutions(), 2);  // (0,0,1) and (0,1,0)
}

TEST_P(SolverModes, RepeatedVariableInScope) {
  CspInstance csp(2, 2);
  csp.AddConstraint({0, 0, 1}, {{0, 0, 1}, {1, 0, 1}});
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  // Only (0,0,1) has consistent repeats: x0=0, x1=1.
  auto solution = solver.Solve();
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(*solution, (std::vector<int>{0, 1}));
  EXPECT_EQ(solver.CountSolutions(), 1);
}

TEST_P(SolverModes, EmptyRelationUnsolvable) {
  CspInstance csp(2, 2);
  csp.AddConstraint({0, 1}, {});
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  EXPECT_FALSE(solver.Solve().has_value());
}

TEST_P(SolverModes, NoVariables) {
  CspInstance csp(0, 3);
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  EXPECT_TRUE(solver.Solve().has_value());
  EXPECT_EQ(solver.CountSolutions(), 1);
}

TEST_P(SolverModes, NoValues) {
  CspInstance csp(2, 0);
  SolverOptions options;
  options.propagation = GetParam();
  BacktrackingSolver solver(csp, options);
  EXPECT_FALSE(solver.Solve().has_value());
}

INSTANTIATE_TEST_SUITE_P(AllPropagationModes, SolverModes,
                         ::testing::Values(Propagation::kNone,
                                           Propagation::kForwardChecking,
                                           Propagation::kGac),
                         [](const auto& info) {
                           switch (info.param) {
                             case Propagation::kNone:
                               return "Plain";
                             case Propagation::kForwardChecking:
                               return "ForwardChecking";
                             case Propagation::kGac:
                               return "Mac";
                           }
                           return "Unknown";
                         });

TEST(Solver, NodeLimitAborts) {
  Rng rng(5);
  CspInstance csp = ToCspInstance(RandomUndirectedGraph(14, 0.5, &rng),
                                  CliqueGraph(3));
  SolverOptions options;
  options.propagation = Propagation::kNone;
  options.node_limit = 5;
  BacktrackingSolver solver(csp, options);
  auto result = solver.Solve();
  if (solver.stats().aborted) {
    EXPECT_FALSE(result.has_value());
    EXPECT_LE(solver.stats().nodes, 6);
  }
}

TEST(Solver, CancellationAborts) {
  // Loose constraints: no wipeout in the pre-search propagation pass, so
  // the abort must come from the node-0 cancellation poll — the poll the
  // serving layer's per-request deadline relies on.
  Rng rng(515151);
  CspInstance csp = RandomBinaryCsp(40, 6, 300, 0.15, &rng);
  exec::CancellationToken token;
  token.RequestCancel();
  SolverOptions options;
  options.cancel = &token;
  BacktrackingSolver solver(csp, options);
  EXPECT_FALSE(solver.Solve().has_value());
  EXPECT_TRUE(solver.stats().aborted);
}

TEST(Solver, MacPrunesMoreThanPlain) {
  Rng rng(31);
  CspInstance csp = RandomBinaryCsp(10, 4, 18, 0.5, &rng);
  SolverOptions plain;
  plain.propagation = Propagation::kNone;
  BacktrackingSolver p(csp, plain);
  p.Solve();
  SolverOptions mac;
  mac.propagation = Propagation::kGac;
  BacktrackingSolver m(csp, mac);
  m.Solve();
  EXPECT_LE(m.stats().nodes, p.stats().nodes);
}

TEST(Solver, AgreesWithHomomorphismSearch) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = RandomDigraph(5, 0.3, &rng);
    Structure b = RandomDigraph(3, 0.5, &rng, /*allow_loops=*/true);
    CspInstance csp = ToCspInstance(a, b);
    BacktrackingSolver solver(csp);
    EXPECT_EQ(solver.Solve().has_value(),
              FindHomomorphism(a, b).has_value())
        << trial;
  }
}

}  // namespace
}  // namespace cspdb
