// Differential test pinning EvaluateNaive and EvaluateSemiNaive, which
// run rule bodies on the indexed body join (db/body_join.h), to the
// frozen tuple-at-a-time evaluator in oracles/reference_datalog.h. Both
// must agree with it exactly: the same IDB predicates in `idb` (only
// those that derived a fact), the same facts, and the same iterations,
// derivations and per-round delta sizes.
//
// The seeded corpus mixes linear, nonlinear and mutually recursive
// rules, repeated variables in body atoms and heads, 0-ary predicates,
// EDB predicates the structure lacks, and the canonical program
// rho_{K2} for k = 3 on random graphs, whose many loss predicates mostly
// derive nothing.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "boolean/hell_nesetril.h"
#include "datalog/canonical_program.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "gen/generators.h"
#include "oracles/reference_datalog.h"
#include "util/rng.h"

namespace cspdb {
namespace {

struct Predicate {
  const char* name;
  int arity;
};

// IDB candidates (a rule head makes them IDB) and EDB predicates. "M" is
// in no structure; "U" and "R" are dropped from some.
constexpr Predicate kIdb[] = {{"P", 2}, {"Q", 1}, {"S", 3}, {"G", 0}};
constexpr Predicate kEdb[] = {{"E", 2}, {"U", 1}, {"R", 3}, {"M", 2}};

DatalogAtom RandomAtom(const Predicate& pred, int num_variables, Rng* rng) {
  DatalogAtom atom{pred.name, {}};
  for (int i = 0; i < pred.arity; ++i) {
    atom.args.push_back(rng->UniformInt(0, num_variables - 1));
  }
  return atom;
}

// A random safe rule with head predicate `head`: one to three body atoms
// over up to four variables (repeats arise freely), head arguments drawn
// from the body's variables.
DatalogRule RandomRule(const Predicate& head, Rng* rng) {
  DatalogRule rule;
  rule.num_variables = rng->UniformInt(1, 4);
  std::vector<int> body_vars;
  const int body_len = rng->UniformInt(1, 3);
  for (int i = 0; i < body_len; ++i) {
    const Predicate& pred = rng->Bernoulli(0.5)
                                ? kIdb[rng->UniformInt(0, 3)]
                                : kEdb[rng->UniformInt(0, 3)];
    rule.body.push_back(RandomAtom(pred, rule.num_variables, rng));
    for (int v : rule.body.back().args) body_vars.push_back(v);
  }
  if (body_vars.empty() && head.arity > 0) {
    // Only 0-ary atoms so far: add one that binds a variable.
    rule.body.push_back(RandomAtom(kEdb[0], rule.num_variables, rng));
    body_vars = rule.body.back().args;
  }
  rule.head.predicate = head.name;
  for (int i = 0; i < head.arity; ++i) {
    rule.head.args.push_back(
        body_vars[rng->UniformInt(0, static_cast<int>(body_vars.size()) - 1)]);
  }
  return rule;
}

DatalogProgram RandomProgram(Rng* rng) {
  DatalogProgram program;
  // Base rules, and often a linear recursion, so that the random rules
  // have facts to build on for several rounds.
  program.AddRule({{"P", {0, 1}}, {{"E", {0, 1}}}, 2});
  program.AddRule({{"Q", {0}}, {{"U", {0}}}, 1});
  if (rng->Bernoulli(0.7)) {
    program.AddRule({{"P", {0, 1}}, {{"P", {0, 2}}, {"E", {2, 1}}}, 3});
  }
  const int extra = rng->UniformInt(2, 6);
  for (int i = 0; i < extra; ++i) {
    program.AddRule(RandomRule(kIdb[rng->UniformInt(0, 3)], rng));
  }
  return program;
}

Structure RandomEdb(Rng* rng) {
  Vocabulary voc;
  voc.AddSymbol("E", 2);
  const bool has_u = rng->Bernoulli(0.8);
  const bool has_r = rng->Bernoulli(0.7);
  if (has_u) voc.AddSymbol("U", 1);
  if (has_r) voc.AddSymbol("R", 3);
  const int n = rng->UniformInt(0, 9);
  Structure s(voc, n);
  for (int rel = 0; rel < voc.size(); ++rel) {
    const int arity = voc.symbol(rel).arity;
    const double density = arity == 3 ? 0.03 : 0.2;
    Tuple t(static_cast<std::size_t>(arity), 0);
    while (n > 0) {
      if (rng->Bernoulli(density)) s.AddTuple(rel, t);
      int pos = arity - 1;
      while (pos >= 0 && ++t[pos] == n) t[pos--] = 0;
      if (pos < 0) break;
    }
  }
  return s;
}

void ExpectSameResult(const DatalogResult& got, const DatalogResult& want,
                      const std::string& context) {
  EXPECT_EQ(got.iterations, want.iterations) << context;
  EXPECT_EQ(got.derivations, want.derivations) << context;
  EXPECT_EQ(got.delta_sizes, want.delta_sizes) << context;
  std::set<std::string> got_keys;
  std::set<std::string> want_keys;
  for (const auto& [pred, facts] : got.idb) got_keys.insert(pred);
  for (const auto& [pred, facts] : want.idb) want_keys.insert(pred);
  EXPECT_EQ(got_keys, want_keys) << context;
  for (const auto& [pred, facts] : want.idb) {
    EXPECT_TRUE(got.Facts(pred) == facts)
        << context << " predicate " << pred << ": " << got.Facts(pred).size()
        << " facts, want " << facts.size();
  }
}

void ExpectBothEvaluatorsMatchReference(const DatalogProgram& program,
                                        const Structure& edb,
                                        const std::string& context) {
  ExpectSameResult(EvaluateNaive(program, edb),
                   ReferenceEvaluateNaive(program, edb), context + " naive");
  ExpectSameResult(EvaluateSemiNaive(program, edb),
                   ReferenceEvaluateSemiNaive(program, edb),
                   context + " semi-naive");
}

TEST(DatalogDifferential, RandomProgramsMatchReference) {
  Rng rng(1414);
  for (int trial = 0; trial < 200; ++trial) {
    const DatalogProgram program = RandomProgram(&rng);
    const Structure edb = RandomEdb(&rng);
    ExpectBothEvaluatorsMatchReference(
        program, edb,
        "trial " + std::to_string(trial) + "\n" + program.ToString());
  }
}

TEST(DatalogDifferential, LinearNonlinearAndMutualRecursion) {
  DatalogProgram program;
  program.AddRule({{"P", {0, 1}}, {{"E", {0, 1}}}, 2});
  program.AddRule({{"P", {0, 1}}, {{"P", {0, 2}}, {"E", {2, 1}}}, 3});
  program.AddRule({{"N", {0, 1}}, {{"E", {0, 1}}}, 2});
  program.AddRule({{"N", {0, 1}}, {{"N", {0, 2}}, {"N", {2, 1}}}, 3});
  program.AddRule({{"Even", {0}}, {{"E", {0, 0}}}, 1});
  program.AddRule({{"Odd", {1}}, {{"Even", {0}}, {"E", {0, 1}}}, 2});
  program.AddRule({{"Even", {1}}, {{"Odd", {0}}, {"E", {0, 1}}}, 2});
  program.AddRule({{"G", {}}, {{"P", {0, 0}}, {"Odd", {0}}}, 1});
  program.SetGoal("G");
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const Structure g = RandomDigraph(rng.UniformInt(1, 9), 0.3, &rng,
                                      /*allow_loops=*/true);
    ExpectBothEvaluatorsMatchReference(program, g,
                                       "trial " + std::to_string(trial));
  }
}

TEST(DatalogDifferential, CanonicalK2ProgramOnRandomGraphs) {
  const DatalogProgram program = CanonicalKDatalogProgram(CliqueGraph(2), 3);
  Rng rng(33);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.UniformInt(3, 9);
    const Structure g = RandomUndirectedGraph(n, 2.5 / n, &rng);
    ExpectBothEvaluatorsMatchReference(program, g,
                                       "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace cspdb
