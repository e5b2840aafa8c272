// Differential guarantee for the serving layer (ISSUE 5 acceptance):
// across fuzz corpora, the service's answers are byte-identical whether a
// request is computed cold, served from cache, coalesced onto another
// caller's run, or handled by a cache-disabled service — and they match
// a direct engine invocation (after the canonical row ordering for
// row-valued answers; for SolveCsp the contract is a valid solution with
// SAT/UNSAT agreement, since "the" solution is only canonical-space
// deterministic).

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "boolean/hell_nesetril.h"
#include "csp/instance.h"
#include "csp/solver.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "db/containment.h"
#include "db/relation.h"
#include "gen/generators.h"
#include "service/server.h"
#include "util/rng.h"

namespace cspdb::service {
namespace {

bool AnswersEqual(const EngineAnswer& a, const EngineAnswer& b) {
  if (a.index() != b.index()) return false;
  if (const auto* csp = std::get_if<CspAnswer>(&a)) {
    const auto& other = std::get<CspAnswer>(b);
    return csp->solution == other.solution && csp->complete == other.complete;
  }
  if (const auto* rows = std::get_if<RowsAnswer>(&a)) {
    const auto& other = std::get<RowsAnswer>(b);
    return rows->arity == other.arity && rows->num_rows == other.num_rows &&
           rows->rows == other.rows;
  }
  if (const auto* datalog = std::get_if<DatalogAnswer>(&a)) {
    const auto& other = std::get<DatalogAnswer>(b);
    return datalog->goal_derived == other.goal_derived &&
           datalog->total_idb_facts == other.total_idb_facts &&
           datalog->goal_facts.arity == other.goal_facts.arity &&
           datalog->goal_facts.rows == other.goal_facts.rows;
  }
  return std::get<BoolAnswer>(a).value == std::get<BoolAnswer>(b).value;
}

std::vector<int> SortedFlatRows(std::vector<Tuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  std::vector<int> flat;
  for (const Tuple& t : tuples) flat.insert(flat.end(), t.begin(), t.end());
  return flat;
}

int64_t TotalFacts(const DatalogResult& result) {
  int64_t total = 0;
  for (const auto& [predicate, facts] : result.idb) {
    total += static_cast<int64_t>(facts.size());
  }
  return total;
}

ConjunctiveQuery SmallRandomCq(int num_variables, int num_atoms, Rng* rng) {
  std::vector<Atom> body;
  std::vector<bool> used(num_variables, false);
  for (int i = 0; i < num_atoms; ++i) {
    const int u = rng->UniformInt(0, num_variables - 1);
    const int v = rng->UniformInt(0, num_variables - 1);
    used[u] = used[v] = true;
    body.push_back({"E", {u, v}});
  }
  for (int v = 0; v < num_variables; ++v) {
    if (!used[v]) body.push_back({"E", {v, 0}});
  }
  return ConjunctiveQuery(num_variables,
                          {rng->UniformInt(0, num_variables - 1),
                           rng->UniformInt(0, num_variables - 1)},
                          std::move(body));
}

// Runs `request` through: a caching service twice (cold + cached), and a
// cache-disabled service (direct path). Asserts the three answers are
// byte-identical and returns the cold one.
EngineAnswer AssertPathsAgree(const ServiceRequest& request) {
  CspdbService caching;
  ServiceOptions direct_options;
  direct_options.enable_cache = false;
  CspdbService direct(direct_options);

  Response cold = caching.Handle(request);
  Response cached = caching.Handle(request);
  Response uncached = direct.Handle(request);
  EXPECT_EQ(cold.status, StatusCode::kOk);
  EXPECT_EQ(cached.status, StatusCode::kOk);
  EXPECT_EQ(uncached.status, StatusCode::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_TRUE(AnswersEqual(cold.answer, cached.answer));
  EXPECT_TRUE(AnswersEqual(cold.answer, uncached.answer));
  return cold.answer;
}

TEST(ServiceDifferentialTest, SolveCspAgreesWithDirectSolver) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    CspInstance csp = RandomBinaryCsp(10, 3, 14, 0.35, &rng);
    EngineAnswer answer = AssertPathsAgree(SolveCspRequest{csp});

    const CspAnswer& service_answer = std::get<CspAnswer>(answer);
    BacktrackingSolver solver(csp);
    auto direct = solver.Solve();
    ASSERT_EQ(service_answer.solution.has_value(), direct.has_value())
        << "SAT disagreement, seed " << seed;
    if (service_answer.solution.has_value()) {
      EXPECT_TRUE(csp.IsSolution(*service_answer.solution))
          << "invalid solution, seed " << seed;
    }
  }
}

TEST(ServiceDifferentialTest, EvalCqAgreesWithDirectEvaluate) {
  // The 300-node graphs have elements wider than a byte, so the
  // canonical row order is checked past each value's low byte.
  struct Graphs {
    int nodes;
    double p;
    uint64_t seeds;
  };
  for (const Graphs graphs : {Graphs{9, 0.3, 40}, Graphs{300, 0.012, 10}}) {
    for (uint64_t seed = 0; seed < graphs.seeds; ++seed) {
      Rng rng(seed * 3 + 1);
      ConjunctiveQuery q = SmallRandomCq(4, 4, &rng);
      Structure db = RandomDigraph(graphs.nodes, graphs.p, &rng);
      EngineAnswer answer = AssertPathsAgree(EvalCqRequest{q, db});

      const DbRelation direct = Evaluate(q, db);
      std::vector<Tuple> tuples;
      for (auto row : direct.rows()) tuples.push_back(row.ToTuple());
      const RowsAnswer& rows = std::get<RowsAnswer>(answer);
      EXPECT_EQ(rows.num_rows, static_cast<int64_t>(direct.size()));
      EXPECT_EQ(rows.rows, SortedFlatRows(std::move(tuples)))
          << "row disagreement, " << graphs.nodes << " nodes, seed " << seed;
    }
  }
}

TEST(ServiceDifferentialTest, DatalogAgreesWithDirectSemiNaive) {
  // The closure program's goal is T itself, so its answer carries every
  // derived pair, not one Boolean fact.
  DatalogProgram closure;
  closure.AddRule({{"T", {0, 1}}, {{"E", {0, 1}}}, 2});
  closure.AddRule({{"T", {0, 1}}, {{"T", {0, 2}}, {"E", {2, 1}}}, 3});
  closure.SetGoal("T");
  for (const DatalogProgram& program :
       {NonTwoColorabilityProgram(), closure}) {
    for (uint64_t seed = 0; seed < 30; ++seed) {
      Rng rng(seed * 5 + 2);
      Structure edb = RandomDigraph(8, 0.25, &rng);
      EngineAnswer answer =
          AssertPathsAgree(DatalogFixpointRequest{program, edb});

      const DatalogResult direct = EvaluateSemiNaive(program, edb);
      const DatalogAnswer& datalog = std::get<DatalogAnswer>(answer);
      EXPECT_EQ(datalog.goal_derived, direct.GoalDerived(program))
          << "goal disagreement, seed " << seed;
      const TupleSet& goal_facts = direct.Facts(program.goal());
      EXPECT_EQ(datalog.goal_facts.arity, program.ArityOf(program.goal()));
      EXPECT_EQ(datalog.goal_facts.num_rows,
                static_cast<int64_t>(goal_facts.size()));
      EXPECT_EQ(datalog.goal_facts.rows,
                SortedFlatRows({goal_facts.begin(), goal_facts.end()}));
      EXPECT_EQ(datalog.total_idb_facts, TotalFacts(direct))
          << "fact count disagreement, seed " << seed;
    }
  }
}

TEST(ServiceDifferentialTest, ContainmentAgreesWithDirectCheck) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed * 7 + 5);
    ConjunctiveQuery q1 = SmallRandomCq(4, 3, &rng);
    ConjunctiveQuery q2 = SmallRandomCq(4, 3, &rng);
    EngineAnswer answer = AssertPathsAgree(CheckContainmentRequest{q1, q2});
    EXPECT_EQ(std::get<BoolAnswer>(answer).value, IsContainedIn(q1, q2))
        << "containment disagreement, seed " << seed;
  }
}

TEST(ServiceDifferentialTest, ConcurrentCallersGetByteIdenticalAnswers) {
  // Small instances, real races: whether a caller computes, coalesces,
  // or hits the cache depends on scheduling, but the answer bytes must
  // not — the engine always runs on the canonical instance.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed + 100);
    CspInstance csp = RandomBinaryCsp(12, 4, 20, 0.3, &rng);

    ServiceOptions reference_options;
    reference_options.enable_cache = false;
    CspdbService reference(reference_options);
    const Response expected = reference.Handle(SolveCspRequest{csp});
    ASSERT_EQ(expected.status, StatusCode::kOk);

    CspdbService service;
    constexpr int kThreads = 4;
    std::vector<Response> responses(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        responses[i] = service.Handle(SolveCspRequest{csp});
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Response& r : responses) {
      ASSERT_EQ(r.status, StatusCode::kOk);
      EXPECT_TRUE(AnswersEqual(expected.answer, r.answer)) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cspdb::service
