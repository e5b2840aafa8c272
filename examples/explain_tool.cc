// EXPLAIN tool: runs one small workload through each major engine —
// backtracking search, GAC, Yannakakis over a join forest, bucket
// elimination, and semi-naive Datalog — and prints the plan each engine
// executed annotated with the row/prune counts it observed, followed by
// the process-wide metrics snapshot.
//
// With CSPDB_TRACE=<path> set, the same run also writes a Chrome-trace
// JSON covering all five subsystems; load it at https://ui.perfetto.dev.

#include <cstdio>

#include <algorithm>
#include <string>
#include <vector>

#include "consistency/arc_consistency.h"
#include "csp/instance.h"
#include "csp/solver.h"
#include "datalog/eval.h"
#include "db/acyclic.h"
#include "db/relation.h"
#include "io/rule_parser.h"
#include "io/text_format.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "treewidth/bucket_elimination.h"
#include "treewidth/gaifman.h"
#include "treewidth/heuristics.h"

namespace {

// A ring of `n` tasks over `d` slots: adjacent tasks differ, task 0 runs
// strictly before task 1. Small enough to read, rich enough that every
// engine does visible work.
cspdb::CspInstance RingInstance(int n, int d) {
  cspdb::CspInstance csp(n, d);
  std::vector<cspdb::Tuple> different;
  std::vector<cspdb::Tuple> before;
  for (int x = 0; x < d; ++x) {
    for (int y = 0; y < d; ++y) {
      if (x != y) different.push_back({x, y});
      if (x < y) before.push_back({x, y});
    }
  }
  for (int v = 0; v < n; ++v) {
    std::string name = "t";
    name += std::to_string(v);
    csp.SetVariableName(v, name);
    csp.AddConstraint({v, (v + 1) % n}, different);
  }
  csp.AddConstraint({0, 1}, before);
  return csp;
}

}  // namespace

int main() {
  using namespace cspdb;

  // Touching the global session activates CSPDB_TRACE (if set) before any
  // engine emits spans.
  const bool tracing = obs::TraceSession::Global().enabled();

  CspInstance csp = RingInstance(/*n=*/8, /*d=*/3);

  // 1. Backtracking search under MAC + MRV.
  SolverOptions options;
  BacktrackingSolver solver(csp, options);
  auto solution = solver.Solve();
  std::printf("== solver ==\n%s", obs::ExplainSolver(
                                      csp, options, solver.stats(),
                                      &solver.revision_counts())
                                      .c_str());
  std::printf("solution found: %s\n\n", solution.has_value() ? "yes" : "no");

  // 2. Standalone GAC pass over the same instance.
  AcResult gac = EnforceGac(csp);
  std::printf("== gac ==\nconsistent=%s revisions=%lld prunings=%lld "
              "wipeouts=%lld\n\n",
              gac.consistent ? "yes" : "no",
              static_cast<long long>(gac.revisions),
              static_cast<long long>(gac.prunings),
              static_cast<long long>(gac.wipeouts));

  // 3. Yannakakis over an acyclic join: a path query R0(a,b) R1(b,c)
  //    R2(c,d) with skewed cardinalities so the full reducer has rows to
  //    remove.
  std::vector<DbRelation> relations;
  {
    DbRelation r0({0, 1}), r1({1, 2}), r2({2, 3});
    for (int i = 0; i < 12; ++i) r0.AddRow({i % 4, i});
    for (int i = 0; i < 12; ++i) r1.AddRow({i, i % 3});
    for (int i = 0; i < 3; ++i) r2.AddRow({i, i + 1});
    relations = {r0, r1, r2};
  }
  auto forest = BuildJoinForest(HypergraphOfSchemas(relations));
  if (forest.has_value()) {
    YannakakisStats ystats;
    DbRelation answer = YannakakisEvaluate(*forest, relations, {0, 3},
                                           /*peak_rows=*/nullptr, &ystats);
    std::printf("== yannakakis ==\n%s",
                obs::ExplainJoinForest(*forest, relations, &ystats).c_str());
    std::printf("answer rows: %zu\n\n", answer.size());
  }

  // 4. Bucket elimination along a min-fill ordering.
  std::vector<int> order = MinFillOrdering(GaifmanGraphOfCsp(csp));
  std::reverse(order.begin(), order.end());
  BucketStats bstats;
  auto be_solution = SolveByBucketElimination(csp, order, &bstats);
  std::printf("== bucket elimination ==\n%s",
              obs::ExplainBucketElimination(csp, order, bstats).c_str());
  std::printf("solution found: %s\n\n",
              be_solution.has_value() ? "yes" : "no");

  // 5. Semi-naive Datalog: transitive closure of a path.
  DatalogProgram program = ParseDatalogProgram(
      "Reach(x, y) :- Edge(x, y).\n"
      "Reach(x, y) :- Reach(x, z), Edge(z, y).\n",
      /*goal=*/"Reach");
  Structure edb = ParseStructure(
      "structure\n"
      "domain 6\n"
      "relation Edge 2\n"
      "tuple Edge 0 1\n"
      "tuple Edge 1 2\n"
      "tuple Edge 2 3\n"
      "tuple Edge 3 4\n"
      "tuple Edge 4 5\n");
  DatalogResult datalog = EvaluateSemiNaive(program, edb);
  std::printf("== datalog ==\nsemi-naive: %lld iterations, %lld "
              "derivations, deltas [",
              static_cast<long long>(datalog.iterations),
              static_cast<long long>(datalog.derivations));
  for (std::size_t i = 0; i < datalog.delta_sizes.size(); ++i) {
    std::printf("%s%lld", i > 0 ? ", " : "",
                static_cast<long long>(datalog.delta_sizes[i]));
  }
  std::printf("], %zu facts\n\n", datalog.Facts("Reach").size());

  std::printf("== metrics ==\n%s\n",
              obs::MetricsRegistry::Global().SnapshotJson().c_str());
  if (tracing) {
    obs::TraceSession::Global().Stop();
    std::printf("(trace written to $CSPDB_TRACE)\n");
  }
  return 0;
}
