// Differential tests for Evaluate's bucket-elimination plan: every answer
// must equal, as a set, the frozen single-BodyJoin evaluation
// (tests/oracles/reference_eval_cq.*). Shapes: chains, stars, cycles and
// cliques with their usual heads, random heads (repeats allowed) and
// Boolean heads, plus random bodies over unary, binary and ternary
// predicates with repeated variables inside atoms, disconnected
// components and predicates absent from the database. The bit-row
// buckets are pinned on both sides of one word: the same bodies over 60
// to 70 elements run as bit rows up to 64 and as BodyJoins past it.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "boolean/hell_nesetril.h"
#include "db/conjunctive_query.h"
#include "gen/generators.h"
#include "oracles/reference_eval_cq.h"
#include "util/rng.h"

namespace cspdb {
namespace {

void ExpectSameAnswers(const ConjunctiveQuery& q, const Structure& db,
                       const std::string& label) {
  const DbRelation planned = Evaluate(q, db);
  const DbRelation reference = ReferenceEvaluateCq(q, db);
  ASSERT_EQ(planned.arity(), static_cast<int>(q.head().size())) << label;
  ASSERT_EQ(planned.size(), reference.size()) << label << " " << q.ToString();
  for (auto row : reference.rows()) {
    ASSERT_TRUE(planned.HasRow(row.data())) << label << " " << q.ToString();
  }
}

// E(x0,x1), ..., E(x{k-1},xk).
std::vector<Atom> Chain(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) body.push_back({"E", {i, i + 1}});
  return body;
}

// E(x0,x1), ..., E(x0,xk): center x0.
std::vector<Atom> Star(int k) {
  std::vector<Atom> body;
  for (int i = 1; i <= k; ++i) body.push_back({"E", {0, i}});
  return body;
}

// E(x0,x1), ..., E(x{k-1},x0).
std::vector<Atom> Cycle(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) body.push_back({"E", {i, (i + 1) % k}});
  return body;
}

// E(xi,xj) for every i < j.
std::vector<Atom> Clique(int k) {
  std::vector<Atom> body;
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) body.push_back({"E", {i, j}});
  }
  return body;
}

// Zero to three variables drawn from 0..num_variables-1, repeats allowed.
std::vector<int> RandomHead(int num_variables, Rng* rng) {
  std::vector<int> head(static_cast<std::size_t>(rng->UniformInt(0, 3)));
  for (int& h : head) h = rng->UniformInt(0, num_variables - 1);
  return head;
}

// A digraph on 8-48 nodes with mean out-degree in [lo, hi].
Structure RandomGraph(double lo, double hi, Rng* rng) {
  const int n = rng->UniformInt(8, 48);
  const double degree = lo + (hi - lo) * rng->UniformDouble();
  return RandomDigraph(n, std::min(1.0, degree / n), rng,
                       /*allow_loops=*/rng->Bernoulli(0.5));
}

// Every shape family with its servebench head, a random head and a
// Boolean head.
void CheckFamily(const char* name, std::vector<Atom> body, int num_variables,
                 std::vector<int> usual_head, const Structure& db, Rng* rng) {
  const std::string label = std::string(name) + "/" +
                            std::to_string(num_variables) + " over " +
                            std::to_string(db.domain_size());
  std::vector<std::vector<int>> heads = {
      std::move(usual_head), RandomHead(num_variables, rng), {}};
  for (std::vector<int>& head : heads) {
    ExpectSameAnswers(ConjunctiveQuery(num_variables, std::move(head), body),
                      db, label);
  }
}

TEST(EvalCqPlanDifferential, Chains) {
  Rng rng(101);
  for (int trial = 0; trial < 24; ++trial) {
    const int k = 2 + trial % 6;  // 2-7 atoms
    CheckFamily("chain", Chain(k), k + 1, {0, k}, RandomGraph(1.0, 4.0, &rng),
                &rng);
  }
}

TEST(EvalCqPlanDifferential, Stars) {
  Rng rng(102);
  for (int trial = 0; trial < 24; ++trial) {
    const int k = 2 + trial % 4;  // 2-5 legs
    CheckFamily("star", Star(k), k + 1, {1, k}, RandomGraph(1.0, 4.0, &rng),
                &rng);
  }
}

TEST(EvalCqPlanDifferential, Cycles) {
  Rng rng(103);
  for (int trial = 0; trial < 25; ++trial) {
    const int k = 3 + trial % 5;  // 3-7 atoms
    CheckFamily("cycle", Cycle(k), k, {0, k / 2},
                RandomGraph(1.5, 4.0, &rng), &rng);
  }
}

TEST(EvalCqPlanDifferential, Cliques) {
  Rng rng(104);
  for (int trial = 0; trial < 24; ++trial) {
    const int k = 3 + trial % 3;  // 3-5 vertices
    CheckFamily("clique", Clique(k), k, {0, k - 1},
                RandomGraph(3.0, 10.0, &rng), &rng);
  }
}

TEST(EvalCqPlanDifferential, DisconnectedComponents) {
  Rng rng(105);
  for (int trial = 0; trial < 20; ++trial) {
    // A chain on x0..x2 and a star centered at x3 with legs x4..x5, plus
    // an isolated loop E(x6,x6).
    std::vector<Atom> body = Chain(2);
    body.push_back({"E", {3, 4}});
    body.push_back({"E", {3, 5}});
    body.push_back({"E", {6, 6}});
    CheckFamily("components", std::move(body), 7, {0, 4},
                RandomGraph(1.0, 2.0, &rng), &rng);
  }
}

struct Predicate {
  const char* name;
  int arity;
};

// "M" is in no database; "U" and "R" are dropped from some.
constexpr Predicate kPredicates[] = {{"E", 2}, {"U", 1}, {"R", 3}, {"M", 2}};

// `vars` variables and `atoms` atoms drawn with repeats (so E(x,x) and
// R(x,y,x) occur), every variable used (an unused one gets an E atom to
// a random variable), and a head of zero to three variables. "M"
// appears in about one query in eight.
ConjunctiveQuery RandomBody(int vars, int atoms, Rng* rng) {
  std::vector<Atom> body;
  std::vector<char> used(static_cast<std::size_t>(vars), 0);
  for (int i = 0; i < atoms; ++i) {
    const Predicate& pred = rng->Bernoulli(0.015)
                                ? kPredicates[3]
                                : kPredicates[rng->UniformInt(0, 2)];
    Atom atom{pred.name, {}};
    for (int j = 0; j < pred.arity; ++j) {
      atom.args.push_back(rng->UniformInt(0, vars - 1));
      used[atom.args.back()] = 1;
    }
    body.push_back(std::move(atom));
  }
  for (int v = 0; v < vars; ++v) {
    if (!used[v]) body.push_back({"E", {v, rng->UniformInt(0, vars - 1)}});
  }
  return ConjunctiveQuery(vars, RandomHead(vars, rng), std::move(body));
}

// `graph`'s edges for E, about half the nodes in U and `triples` random
// triples in R; U or R is sometimes absent.
Structure RandomDatabase(const Structure& graph, int triples, Rng* rng) {
  const int n = graph.domain_size();
  Vocabulary voc;
  voc.AddSymbol("E", 2);
  const bool has_u = rng->Bernoulli(0.9);
  const bool has_r = rng->Bernoulli(0.9);
  if (has_u) voc.AddSymbol("U", 1);
  if (has_r) voc.AddSymbol("R", 3);
  Structure db(voc, n);
  for (const Tuple& t : graph.tuples(0)) db.AddTuple(0, t);
  if (has_u) {
    const int u = voc.IndexOf("U");
    for (int e = 0; e < n; ++e) {
      if (rng->Bernoulli(0.5)) db.AddTuple(u, {e});
    }
  }
  if (has_r) {
    const int r = voc.IndexOf("R");
    for (int i = 0; i < triples; ++i) {
      db.AddTuple(r, {rng->UniformInt(0, n - 1), rng->UniformInt(0, n - 1),
                      rng->UniformInt(0, n - 1)});
    }
  }
  return db;
}

// 5-8 variables and 6-12 atoms over sparse graphs of 8-48 nodes.
TEST(EvalCqPlanDifferential, RandomBodies) {
  Rng rng(106);
  for (int trial = 0; trial < 300; ++trial) {
    const int vars = rng.UniformInt(5, 8);
    const int atoms = rng.UniformInt(6, 12);
    const ConjunctiveQuery q = RandomBody(vars, atoms, &rng);
    const Structure graph = RandomGraph(1.0, 2.5, &rng);
    const Structure db =
        RandomDatabase(graph, 2 * graph.domain_size(), &rng);
    ExpectSameAnswers(q, db, "random #" + std::to_string(trial));
  }
}

// Looser bodies (7-8 variables, 6-8 atoms) over dense graphs of 8-12
// nodes with about n^2/2 triples in R: enough satisfying bindings that
// most bodies are eliminated in buckets rather than run as one join.
TEST(EvalCqPlanDifferential, RandomBodiesOverDenseGraphs) {
  Rng rng(107);
  for (int trial = 0; trial < 60; ++trial) {
    const int vars = rng.UniformInt(7, 8);
    const int atoms = rng.UniformInt(6, 8);
    const ConjunctiveQuery q = RandomBody(vars, atoms, &rng);
    const int n = rng.UniformInt(8, 12);
    const double p = 0.3 + 0.3 * rng.UniformDouble();
    const Structure graph =
        RandomDigraph(n, p, &rng, /*allow_loops=*/rng.Bernoulli(0.5));
    const Structure db = RandomDatabase(graph, n * n / 2, &rng);
    ExpectSameAnswers(q, db, "dense #" + std::to_string(trial));
  }
}

// Heads over the two variables `a` and `b`: in order, reversed,
// repeated, over one variable and Boolean.
std::vector<std::vector<int>> PairHeads(int a, int b) {
  return {{a, b}, {b, a}, {a, b, b, a}, {b}, {}};
}

// Each body with each of its heads over a digraph on 60-70 nodes, loops
// in half of them, with U and R as in RandomDatabase: every bucket of at
// most three variables over unary and binary atoms runs as bit rows when
// the domain fits one word (n <= 64) and as a BodyJoin past it.
TEST(EvalCqPlanDifferential, BitRowBucketsAroundOneWord) {
  struct Shape {
    const char* name;
    int num_variables;
    std::vector<Atom> body;
    std::vector<std::vector<int>> heads;
  };
  const std::vector<Shape> shapes = {
      // Unary and loop atoms on each eliminated variable, which reads
      // (a, y) once and (y, a) once, then (y, b) and (b, y). Over a
      // loop-free graph E(x2,x2) empties x2's bucket, which ends the
      // evaluation though every relation has rows.
      {"filtered chain",
       5,
       {{"E", {0, 1}}, {"U", {1}}, {"E", {2, 1}}, {"E", {2, 2}},
        {"E", {2, 3}}, {"U", {3}}, {"E", {4, 3}}},
       PairHeads(0, 4)},
      // E(x0,x2) is absorbed by x1's bucket and E(x3,x0), read (b, a), by
      // x2's, the last one.
      {"chorded cycle",
       4,
       {{"E", {0, 1}}, {"E", {1, 2}}, {"E", {0, 2}}, {"E", {2, 3}},
        {"E", {3, 0}}},
       PairHeads(0, 3)},
      // x2's bucket absorbs the loop and unary atom on x0 as filters on
      // its one output variable; x2 and x3 project onto x0 alone, and
      // x0's bucket, the last, reads those projections as unary atoms on
      // the eliminated variable.
      {"looped star",
       5,
       {{"E", {0, 1}}, {"E", {0, 2}}, {"E", {3, 0}}, {"E", {0, 4}},
        {"E", {0, 0}}, {"U", {0}}, {"U", {2}}},
       PairHeads(1, 4)},
      // Filters on the output variables alone: a loop on x0, a unary atom
      // on x2, and E(x2,x0) read (b, a).
      {"output filters",
       3,
       {{"E", {0, 1}}, {"E", {1, 2}}, {"E", {0, 0}}, {"U", {2}},
        {"E", {2, 0}}},
       PairHeads(0, 2)},
      // x1's bucket holds the ternary R and falls back to a BodyJoin; x2's
      // and x3's then run as bit rows over its projection.
      {"ternary",
       5,
       {{"R", {0, 1, 2}}, {"E", {1, 1}}, {"E", {2, 3}}, {"E", {4, 3}}},
       PairHeads(0, 4)},
      // A ternary atom in the last bucket: the final step is a BodyJoin.
      {"ternary last",
       4,
       {{"E", {0, 1}}, {"E", {1, 2}}, {"R", {2, 3, 2}}},
       PairHeads(0, 3)},
  };
  Rng rng(108);
  for (int trial = 0; trial < 44; ++trial) {
    const int n = 60 + trial % 11;
    const Structure graph =
        RandomDigraph(n, 0.04 + 0.06 * rng.UniformDouble(), &rng,
                      /*allow_loops=*/trial % 2 == 0);
    const Structure db = RandomDatabase(graph, 2 * n, &rng);
    for (const Shape& shape : shapes) {
      for (const std::vector<int>& head : shape.heads) {
        ExpectSameAnswers(ConjunctiveQuery(shape.num_variables, head,
                                           shape.body),
                          db, std::string(shape.name) + " over " +
                                  std::to_string(n));
      }
    }
  }
}

TEST(EvalCqPlanDifferential, UnsafeHeadFailsTheSameCheck) {
  // x2 is in the head but in no atom. An atom over the empty E ends the
  // evaluation before any join runs, so the check must come first.
  const ConjunctiveQuery q(3, {2}, {{"E", {0, 1}}, {"E", {1, 1}}});
  const Structure db(GraphVocabulary(), 4);
  EXPECT_DEATH(Evaluate(q, db), "unsafe query");
  EXPECT_DEATH(ReferenceEvaluateCq(q, db), "unsafe query");
}

}  // namespace
}  // namespace cspdb
