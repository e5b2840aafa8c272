// Tests for the relational algebra, Proposition 2.1 (CSP = join
// evaluation), conjunctive queries, and Propositions 2.2/2.3
// (containment = homomorphism = evaluation).

#include <gtest/gtest.h>

#include "boolean/hell_nesetril.h"
#include "csp/convert.h"
#include "csp/solver.h"
#include "db/algebra.h"
#include "db/body_join.h"
#include "db/containment.h"
#include "db/conjunctive_query.h"
#include "gen/generators.h"
#include "relational/homomorphism.h"
#include "util/rng.h"

namespace cspdb {
namespace {

TEST(Algebra, NaturalJoinOnSharedAttribute) {
  DbRelation r({0, 1});
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  DbRelation s({1, 2});
  s.AddRow({2, 5});
  s.AddRow({2, 6});
  DbRelation j = NaturalJoin(r, s);
  EXPECT_EQ(j.schema(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.HasRow({1, 2, 5}));
  EXPECT_TRUE(j.HasRow({1, 2, 6}));
}

TEST(Algebra, JoinWithNoSharedAttributesIsCrossProduct) {
  DbRelation r({0});
  r.AddRow({1});
  r.AddRow({2});
  DbRelation s({1});
  s.AddRow({7});
  DbRelation j = NaturalJoin(r, s);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.HasRow({1, 7}));
}

TEST(Algebra, ProjectDeduplicates) {
  DbRelation r({0, 1});
  r.AddRow({1, 2});
  r.AddRow({1, 3});
  DbRelation p = Project(r, {0});
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.HasRow({1}));
}

TEST(Algebra, SelectAndSemijoin) {
  DbRelation r({0, 1});
  r.AddRow({1, 2});
  r.AddRow({3, 4});
  EXPECT_EQ(SelectEquals(r, 0, 1).size(), 1u);
  DbRelation s({1});
  s.AddRow({2});
  DbRelation sj = Semijoin(r, s);
  EXPECT_EQ(sj.size(), 1u);
  EXPECT_TRUE(sj.HasRow({1, 2}));
}

TEST(Algebra, SemijoinWithDisjointSchemaKeepsAllIfNonempty) {
  DbRelation r({0});
  r.AddRow({1});
  DbRelation s({1});
  EXPECT_TRUE(Semijoin(r, s).empty());  // s empty
  s.AddRow({9});
  EXPECT_EQ(Semijoin(r, s).size(), 1u);
}

TEST(Algebra, ZeroArityRelations) {
  DbRelation truth({});
  EXPECT_TRUE(truth.empty());
  truth.AddRow(Tuple{});
  EXPECT_EQ(truth.size(), 1u);
  DbRelation r({0});
  r.AddRow({5});
  DbRelation j = NaturalJoin(r, truth);
  EXPECT_EQ(j.size(), 1u);
}

TEST(Proposition21, SolvableIffJoinNonempty) {
  Rng rng(41);
  for (int trial = 0; trial < 15; ++trial) {
    CspInstance csp = RandomBinaryCsp(5, 3, 7, 0.5, &rng);
    BacktrackingSolver solver(csp);
    EXPECT_EQ(solver.Solve().has_value(), SolvableByJoin(csp)) << trial;
  }
}

TEST(Proposition21, HandlesRepeatedScopes) {
  CspInstance csp(2, 2);
  csp.AddConstraint({0, 0}, {{0, 0}, {0, 1}});  // forces x0 = 0
  csp.AddConstraint({0, 1}, {{1, 0}, {0, 1}});
  EXPECT_TRUE(SolvableByJoin(csp));
  csp.AddConstraint({1}, {{0}});
  EXPECT_FALSE(SolvableByJoin(csp));
}

TEST(Proposition21, UnconstrainedVariables) {
  CspInstance no_constraints(3, 2);
  EXPECT_TRUE(SolvableByJoin(no_constraints));
  CspInstance no_values(3, 0);
  EXPECT_FALSE(SolvableByJoin(no_values));
}

TEST(ConjunctiveQuery, EvaluateSimplePath) {
  // Q(x0, x1) :- E(x0, x2), E(x2, x1): pairs at distance two.
  ConjunctiveQuery q(3, {0, 1}, {{"E", {0, 2}}, {"E", {2, 1}}});
  Structure db = PathGraph(3);  // edges both ways between 0-1, 1-2
  DbRelation ans = Evaluate(q, db);
  EXPECT_TRUE(ans.HasRow({0, 2}));
  EXPECT_TRUE(ans.HasRow({2, 0}));
  EXPECT_TRUE(ans.HasRow({0, 0}));  // 0 -> 1 -> 0
  EXPECT_FALSE(ans.HasRow({3, 0}));
}

TEST(ConjunctiveQuery, RepeatedAtomArguments) {
  // Q(x0) :- E(x0, x0): loops.
  ConjunctiveQuery q(1, {0}, {{"E", {0, 0}}});
  Structure db(GraphVocabulary(), 3);
  db.AddTuple(0, {1, 1});
  db.AddTuple(0, {0, 2});
  DbRelation ans = Evaluate(q, db);
  EXPECT_EQ(ans.size(), 1u);
  EXPECT_TRUE(ans.HasRow({1}));
}

TEST(ConjunctiveQuery, MissingPredicateYieldsEmpty) {
  ConjunctiveQuery q(1, {0}, {{"Nope", {0}}});
  Structure db = PathGraph(2);
  EXPECT_TRUE(Evaluate(q, db).empty());
  EXPECT_FALSE(BodySatisfiable(q, db));
}

TEST(ConjunctiveQuery, CanonicalDatabaseHasHeadMarkers) {
  ConjunctiveQuery q(3, {0, 1}, {{"E", {0, 2}}, {"E", {2, 1}}});
  Structure canon = q.CanonicalDatabase();
  EXPECT_EQ(canon.domain_size(), 3);
  EXPECT_GE(canon.vocabulary().IndexOf("__P0"), 0);
  EXPECT_TRUE(canon.HasTuple(canon.vocabulary().IndexOf("__P0"), {0}));
  EXPECT_TRUE(canon.HasTuple(canon.vocabulary().IndexOf("__P1"), {1}));
}

TEST(Proposition23, BooleanQueryOfStructureDecidesHomomorphism) {
  Rng rng(59);
  for (int trial = 0; trial < 12; ++trial) {
    Structure a = RandomDigraph(4, 0.4, &rng);
    Structure b = RandomDigraph(3, 0.5, &rng, /*allow_loops=*/true);
    EXPECT_EQ(HomomorphismViaQueryEvaluation(a, b),
              FindHomomorphism(a, b).has_value())
        << trial;
  }
}

TEST(Proposition22, ContainmentClassicExample) {
  // Q1(x,y) :- E(x,z), E(z,y)   (distance exactly 2)
  // Q2(x,y) :- E(x,z), E(w,y)   (out-edge from x, in-edge to y)
  // Q1 is contained in Q2 but not conversely.
  ConjunctiveQuery q1(3, {0, 1}, {{"E", {0, 2}}, {"E", {2, 1}}});
  ConjunctiveQuery q2(4, {0, 1}, {{"E", {0, 2}}, {"E", {3, 1}}});
  EXPECT_TRUE(IsContainedIn(q1, q2));
  EXPECT_FALSE(IsContainedIn(q2, q1));
}

TEST(Proposition22, SelfContainment) {
  ConjunctiveQuery q(3, {0, 1}, {{"E", {0, 2}}, {"E", {2, 1}}});
  EXPECT_TRUE(IsContainedIn(q, q));
  EXPECT_TRUE(AreEquivalent(q, q));
}

TEST(Proposition22, EquivalentUpToRedundantAtom) {
  // Q2 has a redundant extra atom E(x, z') — same query.
  ConjunctiveQuery q1(3, {0, 1}, {{"E", {0, 2}}, {"E", {2, 1}}});
  ConjunctiveQuery q2(4, {0, 1},
                      {{"E", {0, 2}}, {"E", {2, 1}}, {"E", {0, 3}}});
  EXPECT_TRUE(AreEquivalent(q1, q2));
}

TEST(Proposition22, EvaluationFormulationAgrees) {
  Rng rng(67);
  for (int trial = 0; trial < 10; ++trial) {
    // Random small path-shaped queries over E.
    auto random_query = [&rng]() {
      int extra = rng.UniformInt(1, 2);
      int vars = 2 + extra;
      std::vector<Atom> body;
      int prev = 0;
      for (int i = 0; i < extra; ++i) {
        int next = 2 + i;
        body.push_back({"E", {prev, next}});
        prev = next;
      }
      body.push_back({"E", {prev, 1}});
      if (rng.Bernoulli(0.5)) {
        body.push_back({"E", {0, rng.UniformInt(0, vars - 1)}});
      }
      return ConjunctiveQuery(vars, {0, 1}, std::move(body));
    };
    ConjunctiveQuery q1 = random_query();
    ConjunctiveQuery q2 = random_query();
    EXPECT_EQ(IsContainedIn(q1, q2), IsContainedInViaEvaluation(q1, q2))
        << trial;
  }
}

TEST(Proposition22, BooleanQueriesContainment) {
  // Boolean query of an odd cycle is contained in that of K3's query
  // (any structure with a hom from C5... careful: phi_A true in B iff
  // hom(A,B)). phi_{C5} subsumed by phi_{K3} iff hom(K3 -> C5)? Use
  // Proposition 2.3 directly instead: phi_B contained in phi_A iff
  // hom(A, B).
  Structure c5 = CycleGraph(5);
  Structure k3 = CliqueGraph(3);
  ConjunctiveQuery phi_c5 = ConjunctiveQuery::FromStructure(c5);
  ConjunctiveQuery phi_k3 = ConjunctiveQuery::FromStructure(k3);
  // hom(C5 -> K3) exists, so phi_K3 contained in phi_C5.
  EXPECT_TRUE(IsContainedIn(phi_k3, phi_c5));
  // hom(K3 -> C5) does not exist, so phi_C5 not contained in phi_K3.
  EXPECT_FALSE(IsContainedIn(phi_c5, phi_k3));
}

TEST(BodyJoinCancel, FiredTokenStopsTheRunPartway) {
  // Three disjoint atoms over 100 rows each: 10^6 bindings in full. A
  // fired token stops the run at its first poll, a few thousand rows in,
  // with the head rows found so far; without a token it runs to the end.
  DbRelation e({0, 1});
  for (int u = 0; u < 10; ++u) {
    for (int v = 0; v < 10; ++v) e.AddRow({u, v});
  }
  const std::vector<int> a01 = {0, 1}, a23 = {2, 3}, a45 = {4, 5};
  const std::vector<BodyAtom> atoms = {{&a01, &e}, {&a23, &e}, {&a45, &e}};
  const std::vector<int> head = {0, 2, 4};
  JoinIndexes indexes;
  BodyJoin join(atoms, head, 6, /*lead=*/-1, &indexes);
  exec::CancellationToken cancel;
  cancel.RequestCancel();
  DbRelation stopped(head);
  const int64_t bindings = join.Run(&stopped, &cancel);
  EXPECT_GT(bindings, 0);
  EXPECT_LT(bindings, 100 * 100);
  EXPECT_LT(stopped.size(), 1000u);
  DbRelation full(head);
  EXPECT_EQ(join.Run(&full), 100 * 100 * 100);
  EXPECT_EQ(full.size(), 1000u);
}

}  // namespace
}  // namespace cspdb
