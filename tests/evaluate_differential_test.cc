// Differential tests for conjunctive-query evaluation: Evaluate() against
// a brute-force assignment enumerator, on random queries over unary,
// binary and ternary predicates (some absent from the database), with
// repeated variables inside atoms and in heads, and Boolean heads.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "boolean/hell_nesetril.h"
#include "db/conjunctive_query.h"
#include "gen/generators.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// Brute force: enumerate all assignments of the query's variables.
DbRelation BruteForceEvaluate(const ConjunctiveQuery& q,
                              const Structure& db) {
  std::vector<int> out_schema(q.head().size());
  for (std::size_t i = 0; i < out_schema.size(); ++i) {
    out_schema[i] = static_cast<int>(i);
  }
  DbRelation out(out_schema);
  int n = q.num_variables();
  int d = db.domain_size();
  std::vector<int> assignment(n, 0);
  if (n == 0) {
    out.AddRow(Tuple{});
    return out;
  }
  while (true) {
    bool satisfied = true;
    for (const Atom& atom : q.body()) {
      int rel = db.vocabulary().IndexOf(atom.predicate);
      if (rel < 0) {
        satisfied = false;
        break;
      }
      Tuple image;
      for (int v : atom.args) image.push_back(assignment[v]);
      if (!db.HasTuple(rel, image)) {
        satisfied = false;
        break;
      }
    }
    if (satisfied) {
      Tuple head;
      for (int h : q.head()) head.push_back(assignment[h]);
      out.AddRow(std::move(head));
    }
    int pos = n - 1;
    while (pos >= 0 && ++assignment[pos] == d) assignment[pos--] = 0;
    if (pos < 0) break;
    if (d == 0) break;
  }
  return out;
}

struct Predicate {
  const char* name;
  int arity;
};

// Query predicates. "M" is in no database; "U" and "R" are dropped from
// some.
constexpr Predicate kPredicates[] = {{"E", 2}, {"U", 1}, {"R", 3}, {"M", 2}};

// One to four atoms over up to four variables, drawn with repeats (so an
// atom may repeat a variable, as in E(x,x) or R(x,y,x)); a head of zero
// to three body variables, repeats allowed. "M" appears in about one
// query in ten.
ConjunctiveQuery RandomQuery(Rng* rng) {
  const int vars = rng->UniformInt(1, 4);
  const int atoms = rng->UniformInt(1, 4);
  std::vector<Atom> body;
  std::vector<int> body_vars;
  for (int i = 0; i < atoms; ++i) {
    const Predicate& pred = rng->Bernoulli(0.04)
                                ? kPredicates[3]
                                : kPredicates[rng->UniformInt(0, 2)];
    Atom atom{pred.name, {}};
    for (int j = 0; j < pred.arity; ++j) {
      atom.args.push_back(rng->UniformInt(0, vars - 1));
      body_vars.push_back(atom.args.back());
    }
    body.push_back(std::move(atom));
  }
  std::vector<int> head;
  const int head_len = rng->UniformInt(0, 3);
  for (int i = 0; i < head_len; ++i) {
    head.push_back(
        body_vars[rng->UniformInt(0, static_cast<int>(body_vars.size()) - 1)]);
  }
  return ConjunctiveQuery(vars, std::move(head), std::move(body));
}

Structure RandomDatabase(Rng* rng) {
  Vocabulary voc;
  voc.AddSymbol("E", 2);
  if (rng->Bernoulli(0.85)) voc.AddSymbol("U", 1);
  if (rng->Bernoulli(0.85)) voc.AddSymbol("R", 3);
  const int n = rng->UniformInt(1, 5);
  Structure db(voc, n);
  for (int rel = 0; rel < voc.size(); ++rel) {
    const int arity = voc.symbol(rel).arity;
    const double density = arity == 3 ? 0.15 : 0.4;
    Tuple t(static_cast<std::size_t>(arity), 0);
    while (true) {
      if (rng->Bernoulli(density)) db.AddTuple(rel, t);
      int pos = arity - 1;
      while (pos >= 0 && ++t[pos] == n) t[pos--] = 0;
      if (pos < 0) break;
    }
  }
  return db;
}

TEST(EvaluateDifferential, RandomQueriesOnRandomDatabases) {
  Rng rng(3);
  for (int trial = 0; trial < 250; ++trial) {
    ConjunctiveQuery q = RandomQuery(&rng);
    Structure db = RandomDatabase(&rng);
    DbRelation fast = Evaluate(q, db);
    DbRelation slow = BruteForceEvaluate(q, db);
    EXPECT_EQ(fast.arity(), static_cast<int>(q.head().size()));
    EXPECT_EQ(fast.size(), slow.size()) << trial << " " << q.ToString();
    for (auto row : slow.rows()) {
      EXPECT_TRUE(fast.HasRow(row.ToTuple())) << trial << " " << q.ToString();
    }
  }
}

TEST(EvaluateDifferential, EmptyDatabase) {
  ConjunctiveQuery q(2, {0}, {{"E", {0, 1}}});
  Structure db(GraphVocabulary(), 0);
  EXPECT_TRUE(Evaluate(q, db).empty());
  EXPECT_TRUE(BruteForceEvaluate(q, db).empty());
}

TEST(EvaluateDifferential, BooleanQueriesAgree) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Structure pattern = RandomDigraph(3, 0.5, &rng);
    if (pattern.TotalTuples() == 0) continue;
    ConjunctiveQuery q = ConjunctiveQuery::FromStructure(pattern);
    Structure db = RandomDigraph(4, 0.5, &rng, /*allow_loops=*/true);
    EXPECT_EQ(!Evaluate(q, db).empty(),
              !BruteForceEvaluate(q, db).empty())
        << trial;
  }
}

}  // namespace
}  // namespace cspdb
