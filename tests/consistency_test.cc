// Tests for Section 5: i-consistency and strong k-consistency
// (Definition 5.2 vs the game formulation, Proposition 5.3), establishing
// strong k-consistency (Theorem 5.6), coherence, and arc consistency.

#include <gtest/gtest.h>

#include "boolean/hell_nesetril.h"
#include "consistency/arc_consistency.h"
#include "consistency/establish.h"
#include "consistency/local_consistency.h"
#include "csp/convert.h"
#include "csp/solver.h"
#include "games/pebble_game.h"
#include "gen/generators.h"
#include "relational/homomorphism.h"
#include "util/rng.h"

namespace cspdb {
namespace {

TEST(Proposition53, DirectAndGameDefinitionsAgree) {
  Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    CspInstance csp = RandomBinaryCsp(4, 3, 4, 0.4, &rng);
    for (int i = 1; i <= 3; ++i) {
      EXPECT_EQ(IsIConsistent(csp, i), IsIConsistentViaGames(csp, i))
          << trial << " i=" << i;
    }
    EXPECT_EQ(IsStronglyKConsistent(csp, 3),
              IsStronglyKConsistentViaGames(csp, 3))
        << trial;
  }
}

TEST(Consistency, TriangleColoringIsStronglyTwoConsistent) {
  CspInstance csp = ToCspInstance(CliqueGraph(3), CliqueGraph(3));
  EXPECT_TRUE(IsStronglyKConsistent(csp, 2));
  // Not 3-consistent... in fact it is: two differing colors always
  // extend to a third. With 3 values it IS 3-consistent.
  EXPECT_TRUE(IsIConsistent(csp, 3));
}

TEST(Consistency, TwoColoringTriangleFailsThreeConsistency) {
  CspInstance csp = ToCspInstance(CliqueGraph(3), CliqueGraph(2));
  // Any two distinct colors on two vertices cannot extend to the third.
  EXPECT_FALSE(IsIConsistent(csp, 3));
  EXPECT_TRUE(IsIConsistent(csp, 2));
}

TEST(Theorem56, EstablishingPossibleIffDuplicatorWins) {
  Rng rng(73);
  for (int trial = 0; trial < 8; ++trial) {
    Structure a = RandomDigraph(4, 0.4, &rng);
    Structure b = RandomDigraph(3, 0.5, &rng, /*allow_loops=*/true);
    PebbleGame game(a, b, 2);
    EstablishResult result = EstablishStrongKConsistency(a, b, 2);
    EXPECT_EQ(result.possible, game.DuplicatorWins()) << trial;
  }
}

TEST(Theorem56, OutputIsStronglyKConsistent) {
  Rng rng(79);
  int checked = 0;
  for (int trial = 0; trial < 10 && checked < 4; ++trial) {
    Structure a = RandomDigraph(4, 0.3, &rng);
    Structure b = RandomDigraph(3, 0.6, &rng, /*allow_loops=*/true);
    EstablishResult result = EstablishStrongKConsistency(a, b, 2);
    if (!result.possible) continue;
    ++checked;
    EXPECT_TRUE(IsStronglyKConsistent(result.csp, 2)) << trial;
    EXPECT_TRUE(IsCoherent(result.csp)) << trial;
  }
  EXPECT_GT(checked, 0);
}

TEST(Theorem56, SolutionsPreserved) {
  // Property 4 of Definition 5.4: h is a solution of the original
  // instance iff it is a solution of the established instance.
  Rng rng(83);
  int checked = 0;
  for (int trial = 0; trial < 12 && checked < 4; ++trial) {
    Structure a = RandomDigraph(3, 0.5, &rng);
    Structure b = RandomDigraph(3, 0.6, &rng, /*allow_loops=*/true);
    EstablishResult result = EstablishStrongKConsistency(a, b, 2);
    if (!result.possible) continue;
    ++checked;
    // Enumerate all maps A -> B.
    std::vector<int> h(3);
    for (int code = 0; code < 27; ++code) {
      int c = code;
      for (int v = 0; v < 3; ++v) {
        h[v] = c % 3;
        c /= 3;
      }
      EXPECT_EQ(IsHomomorphism(a, b, h), result.csp.IsSolution(h))
          << trial << " code=" << code;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Theorem56, MoreConstrainedThanOriginal) {
  // Property 3 of Definition 5.4: partial solutions of the established
  // instance are partial homomorphisms of the original one.
  Rng rng(89);
  int checked = 0;
  for (int trial = 0; trial < 10 && checked < 3; ++trial) {
    Structure a = RandomDigraph(3, 0.5, &rng);
    Structure b = RandomDigraph(3, 0.5, &rng, /*allow_loops=*/true);
    EstablishResult result = EstablishStrongKConsistency(a, b, 2);
    if (!result.possible) continue;
    ++checked;
    // Every allowed pair in the established constraints must be a partial
    // homomorphism of (a, b).
    for (const Constraint& c : result.csp.constraints()) {
      for (DbRelation::RowRef t : c.allowed) {
        std::vector<int> partial(a.domain_size(), kUnassigned);
        for (int q = 0; q < c.arity(); ++q) partial[c.scope[q]] = t[q];
        EXPECT_TRUE(IsPartialHomomorphism(a, b, partial));
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Theorem56, LargestInstanceContainsAllHomRestrictions) {
  // Maximality in testable form: every restriction of a full
  // homomorphism is a winning configuration, so the established R_a sets
  // must contain the tuples every solution induces.
  Rng rng(91);
  int checked = 0;
  for (int trial = 0; trial < 10 && checked < 4; ++trial) {
    Structure a = RandomDigraph(3, 0.5, &rng);
    Structure b = RandomDigraph(3, 0.6, &rng, /*allow_loops=*/true);
    auto h = FindHomomorphism(a, b);
    if (!h.has_value()) continue;
    EstablishResult result = EstablishStrongKConsistency(a, b, 2);
    ASSERT_TRUE(result.possible) << trial;
    ++checked;
    for (const Constraint& c : result.csp.constraints()) {
      Tuple image;
      for (int v : c.scope) image.push_back((*h)[v]);
      EXPECT_TRUE(c.allowed_set.count(image) > 0) << trial;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Theorem57, KConsistencyDecidesTwoColorability) {
  // For B = K2, not-CSP(B) is k-Datalog expressible for k = 3 on
  // bounded-treewidth inputs; establishing 3-consistency decides.
  Rng rng(97);
  Structure k2 = CliqueGraph(2);
  for (int trial = 0; trial < 8; ++trial) {
    Structure a = RandomUndirectedGraph(6, 0.3, &rng);
    bool decided = KConsistencyDecides(a, k2, 3);
    EXPECT_EQ(decided, FindHomomorphism(a, k2).has_value()) << trial;
  }
}

TEST(Theorem57, TwoConsistencyIsOnlySoundForTwoColorability) {
  // k = 2 (arc consistency) never rejects a solvable instance but may
  // accept odd cycles: C5 is arc-consistent w.r.t. K2.
  Structure k2 = CliqueGraph(2);
  EXPECT_TRUE(KConsistencyDecides(CycleGraph(5), k2, 2));  // false positive
  EXPECT_FALSE(FindHomomorphism(CycleGraph(5), k2).has_value());
  EXPECT_FALSE(KConsistencyDecides(CycleGraph(5), k2, 3));
}

TEST(ArcConsistency, PrunesUnsupportedValues) {
  // x0 in {0,1}, x1 in {0,1}; constraint x0 < x1 (only (0,1) allowed).
  CspInstance csp(2, 2);
  csp.AddConstraint({0, 1}, {{0, 1}});
  AcResult ac = EnforceGac(csp);
  EXPECT_TRUE(ac.consistent);
  EXPECT_TRUE(ac.domains[0][0]);
  EXPECT_FALSE(ac.domains[0][1]);
  EXPECT_FALSE(ac.domains[1][0]);
  EXPECT_TRUE(ac.domains[1][1]);
}

TEST(ArcConsistency, DetectsWipeout) {
  CspInstance csp(2, 2);
  csp.AddConstraint({0, 1}, {{0, 1}});
  csp.AddConstraint({0}, {{1}});
  AcResult ac = EnforceGac(csp);
  EXPECT_FALSE(ac.consistent);
}

TEST(ArcConsistency, SoundNeverPrunesSolutions) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    CspInstance csp = RandomBinaryCsp(5, 3, 6, 0.45, &rng);
    AcResult ac = EnforceGac(csp);
    BacktrackingSolver solver(csp);
    auto solution = solver.Solve();
    if (solution.has_value()) {
      ASSERT_TRUE(ac.consistent);
      for (int v = 0; v < csp.num_variables(); ++v) {
        EXPECT_TRUE(ac.domains[v][(*solution)[v]]) << trial;
      }
    }
  }
}

TEST(ArcConsistency, RestrictToDomainsKeepsSolutions) {
  Rng rng(103);
  CspInstance csp = RandomBinaryCsp(5, 3, 6, 0.4, &rng);
  AcResult ac = EnforceGac(csp);
  if (ac.consistent) {
    CspInstance restricted = RestrictToDomains(csp, ac.domains);
    BacktrackingSolver s1(csp), s2(restricted);
    EXPECT_EQ(s1.CountSolutions(), s2.CountSolutions());
  }
}

TEST(Coherence, CoherentAndIncoherentExamples) {
  // Coherent: a single constraint.
  CspInstance coherent(2, 2);
  coherent.AddConstraint({0, 1}, {{0, 1}, {1, 0}});
  EXPECT_TRUE(IsCoherent(coherent));
  // Incoherent: binary constraint allows (0,0) but unary forbids x0=0.
  CspInstance incoherent(2, 2);
  incoherent.AddConstraint({0, 1}, {{0, 0}, {1, 1}});
  incoherent.AddConstraint({0}, {{1}});
  EXPECT_FALSE(IsCoherent(incoherent));
}

}  // namespace
}  // namespace cspdb
