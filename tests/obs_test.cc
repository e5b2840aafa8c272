// Tests for the observability layer: metrics registry round-trips, the
// Chrome tracer's span balance and JSON shape, the macros, the engines'
// once-per-run metric totals, and the EXPLAIN renderers.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "consistency/arc_consistency.h"
#include "csp/backjump_solver.h"
#include "csp/instance.h"
#include "csp/solver.h"
#include "db/acyclic.h"
#include "db/relation.h"
#include "gtest/gtest.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "treewidth/bucket_elimination.h"

namespace cspdb {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// Pigeonhole instance: `vars` pairwise-distinct variables over `values`
// values; unsolvable (and search-heavy) when vars > values.
CspInstance Pigeonhole(int vars, int values) {
  CspInstance csp(vars, values);
  std::vector<Tuple> different;
  for (int x = 0; x < values; ++x) {
    for (int y = 0; y < values; ++y) {
      if (x != y) different.push_back({x, y});
    }
  }
  for (int a = 0; a < vars; ++a) {
    for (int b = a + 1; b < vars; ++b) {
      csp.AddConstraint({a, b}, different);
    }
  }
  return csp;
}

TEST(MetricsRegistry, HandlesAreStableAndSnapshotRoundTrips) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();

  obs::Counter& c = registry.GetCounter("obs_test.counter");
  EXPECT_EQ(&c, &registry.GetCounter("obs_test.counter"));
  c.Add(3);
  c.Add(4);
  registry.GetGauge("obs_test.gauge").UpdateMax(7);
  registry.GetGauge("obs_test.gauge").UpdateMax(5);  // below the watermark
  registry.GetTimer("obs_test.timer").Record(1000);
  registry.GetTimer("obs_test.timer").Record(500);

  obs::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("obs_test.counter"), 7);
  EXPECT_EQ(snapshot.gauges.at("obs_test.gauge"), 7);
  EXPECT_EQ(snapshot.timers.at("obs_test.timer").count, 2);
  EXPECT_EQ(snapshot.timers.at("obs_test.timer").total_ns, 1500);

  // Values survive into the JSON rendering.
  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"obs_test.counter\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obs_test.gauge\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;

  // Reset zeroes the values but keeps the handle valid.
  registry.ResetAll();
  EXPECT_EQ(c.value(), 0);
  c.Add(1);
  EXPECT_EQ(registry.Snapshot().counters.at("obs_test.counter"), 1);
}

// Extracts (phase, name) for every event line of a written trace file, in
// file order.
std::vector<std::pair<char, std::string>> EventsOf(const std::string& text) {
  std::vector<std::pair<char, std::string>> events;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    auto ph = line.find("\"ph\": \"");
    auto name = line.find("\"name\": \"");
    if (ph == std::string::npos || name == std::string::npos) continue;
    name += 9;
    events.push_back(
        {line[ph + 7], line.substr(name, line.find('"', name) - name)});
  }
  return events;
}

TEST(TraceSession, SpansNestAndBalance) {
  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  obs::TraceSession& session = obs::TraceSession::Global();
  session.Start(path);
  {
    obs::ScopedSpan outer("outer");
    {
      obs::ScopedSpan inner("inner");
      session.Instant("tick");
    }
    session.CounterValue("queue", 42);
  }
  session.Stop();
  ASSERT_FALSE(session.enabled());

  std::string text = ReadWholeFile(path);
  std::vector<std::pair<char, std::string>> events = EventsOf(text);
  ASSERT_EQ(events.size(), 6u);

  // LIFO discipline: every E closes the innermost open B of the same name.
  std::vector<std::string> stack;
  for (const auto& [phase, name] : events) {
    if (phase == 'B') stack.push_back(name);
    if (phase == 'E') {
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());

  // The inner span begins after the outer one and ends before it.
  auto phase_of = [&](const std::string& name, int occurrence) {
    int seen = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].second == name && seen++ == occurrence) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  EXPECT_LT(phase_of("outer", 0), phase_of("inner", 0));
  EXPECT_LT(phase_of("inner", 1), phase_of("outer", 1));
}

TEST(TraceSession, EmitsValidChromeTraceJson) {
  const std::string path = testing::TempDir() + "/obs_test_shape.json";
  obs::TraceSession& session = obs::TraceSession::Global();
  session.Start(path);
  {
    obs::ScopedSpan span("solo");
    session.Instant("blip");
  }
  session.CounterValue("rows", 7);
  session.Stop();

  std::string text = ReadWholeFile(path);
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", 0),
            0u);
  EXPECT_NE(text.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(text.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(text.find("\"value\": 7"), std::string::npos);

  // Structural sanity: braces and brackets balance, quotes pair up.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '"') % 2, 0);

  // A file is written (and stays valid) even with zero events recorded.
  session.Start(path);
  session.Stop();
  std::string empty_text = ReadWholeFile(path);
  EXPECT_NE(empty_text.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_TRUE(EventsOf(empty_text).empty());
}

TEST(ObsMacros, RecordInEveryBuild) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ResetAll();

  int evaluated = 0;
  CSPDB_COUNT_N("obs_test.macro_counter", (++evaluated, 2));
  CSPDB_GAUGE_MAX("obs_test.macro_gauge", (++evaluated, 9));
  {
    CSPDB_TIMER_SCOPE("obs_test.macro_timer");
  }

  // Operands evaluate and the registry records.
  EXPECT_EQ(evaluated, 2);
  EXPECT_EQ(registry.Snapshot().counters.at("obs_test.macro_counter"), 2);
  EXPECT_EQ(registry.Snapshot().gauges.at("obs_test.macro_gauge"), 9);
  EXPECT_EQ(registry.Snapshot().timers.at("obs_test.macro_timer").count, 1);
}

// x0 < x1 < ... over `values` values: GAC narrows every domain from both
// ends, and wipes one out when vars > values.
CspInstance IncreasingChain(int vars, int values) {
  CspInstance csp(vars, values);
  std::vector<Tuple> less;
  for (int x = 0; x < values; ++x) {
    for (int y = x + 1; y < values; ++y) less.push_back({x, y});
  }
  for (int v = 0; v + 1 < vars; ++v) csp.AddConstraint({v, v + 1}, less);
  return csp;
}

// A 5-cycle whose edges allow (0, 1), (1, 0) and (2, 2). GAC prunes
// nothing; SAC refutes every 0 and 1, since an odd cycle is not
// 2-colourable, and keeps the all-2 solution.
CspInstance OddCycleWithEscape() {
  CspInstance csp(5, 3);
  const std::vector<Tuple> edge = {{0, 1}, {1, 0}, {2, 2}};
  for (int v = 0; v < 5; ++v) csp.AddConstraint({v, (v + 1) % 5}, edge);
  return csp;
}

// How far counter `name` moved from `before` to `after`; an unregistered
// counter reads 0.
int64_t CounterDelta(const obs::MetricsSnapshot& before,
                     const obs::MetricsSnapshot& after,
                     const std::string& name) {
  auto value = [&name](const obs::MetricsSnapshot& snapshot) -> int64_t {
    auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  return value(after) - value(before);
}

void ExpectSolverCounters(const obs::MetricsSnapshot& before,
                          const SolverStats& stats) {
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "csp.nodes"), stats.nodes);
  EXPECT_EQ(CounterDelta(before, after, "csp.backtracks"), stats.backtracks);
  EXPECT_EQ(CounterDelta(before, after, "csp.prunings"), stats.prunings);
  EXPECT_EQ(CounterDelta(before, after, "csp.revisions"), stats.revisions);
}

// The engines count their work in per-run stats and add the totals to the
// registry once per run. Each csp.*/gac.* counter must move by exactly
// the stats field that counts the same event, as a count per event would.
TEST(ObsMacros, EngineCountersEqualRunStats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  {
    SCOPED_TRACE("MAC Solve, unsatisfiable");
    const CspInstance csp = Pigeonhole(/*vars=*/5, /*values=*/4);
    BacktrackingSolver solver(csp);
    const obs::MetricsSnapshot before = registry.Snapshot();
    EXPECT_FALSE(solver.Solve().has_value());
    ASSERT_GT(solver.stats().revisions, 0);
    ASSERT_GT(solver.stats().backtracks, 0);
    ExpectSolverCounters(before, solver.stats());
  }
  {
    SCOPED_TRACE("CountSolutions, forward checking");
    SolverOptions options;
    options.propagation = Propagation::kForwardChecking;
    const CspInstance csp = Pigeonhole(/*vars=*/4, /*values=*/4);
    BacktrackingSolver solver(csp, options);
    const obs::MetricsSnapshot before = registry.Snapshot();
    EXPECT_EQ(solver.CountSolutions(), 24);
    ASSERT_GT(solver.stats().prunings, 0);
    ExpectSolverCounters(before, solver.stats());
  }
  {
    SCOPED_TRACE("Solve stopped by its node limit");
    SolverOptions options;
    options.node_limit = 50;
    const CspInstance csp = Pigeonhole(/*vars=*/7, /*values=*/6);
    BacktrackingSolver solver(csp, options);
    const obs::MetricsSnapshot before = registry.Snapshot();
    EXPECT_FALSE(solver.Solve().has_value());
    ASSERT_TRUE(solver.stats().aborted);
    ExpectSolverCounters(before, solver.stats());
  }
  {
    SCOPED_TRACE("EnforceGac with a wipeout");
    const CspInstance csp = IncreasingChain(/*vars=*/4, /*values=*/3);
    const obs::MetricsSnapshot before = registry.Snapshot();
    const AcResult gac = EnforceGac(csp);
    const obs::MetricsSnapshot after = registry.Snapshot();
    EXPECT_FALSE(gac.consistent);
    ASSERT_GT(gac.prunings, 0);
    EXPECT_EQ(CounterDelta(before, after, "gac.revisions"), gac.revisions);
    EXPECT_EQ(CounterDelta(before, after, "gac.prunings"), gac.prunings);
    EXPECT_EQ(CounterDelta(before, after, "gac.wipeouts"), gac.wipeouts);
  }
  {
    SCOPED_TRACE("BackjumpSolver");
    const CspInstance csp = IncreasingChain(/*vars=*/4, /*values=*/3);
    BackjumpSolver solver(csp);
    const obs::MetricsSnapshot before = registry.Snapshot();
    EXPECT_FALSE(solver.Solve().has_value());
    const obs::MetricsSnapshot after = registry.Snapshot();
    const BackjumpStats& stats = solver.stats();
    ASSERT_GT(stats.backjumps, 0);
    EXPECT_EQ(CounterDelta(before, after, "csp.backjump_nodes"), stats.nodes);
    EXPECT_EQ(CounterDelta(before, after, "csp.backjump_backtracks"),
              stats.backtracks);
    EXPECT_EQ(CounterDelta(before, after, "csp.backjumps"), stats.backjumps);
  }
  {
    // SAC probes all 15 values, refutes every 0 and 1, then re-probes the
    // five surviving 2s: 20 probes, 10 refuted. Probes prune into scratch
    // state, so "gac.prunings" adds their 61 prunings to the 10 that
    // AcResult::prunings counts.
    SCOPED_TRACE("EnforceSingletonArcConsistency");
    const CspInstance csp = OddCycleWithEscape();
    const obs::MetricsSnapshot before = registry.Snapshot();
    const AcResult sac = EnforceSingletonArcConsistency(csp);
    const obs::MetricsSnapshot after = registry.Snapshot();
    EXPECT_TRUE(sac.consistent);
    EXPECT_EQ(sac.prunings, 10);
    EXPECT_EQ(CounterDelta(before, after, "gac.revisions"), sac.revisions);
    EXPECT_EQ(CounterDelta(before, after, "gac.wipeouts"), 0);
    EXPECT_EQ(CounterDelta(before, after, "gac.prunings"), 71);
    EXPECT_EQ(CounterDelta(before, after, "sac.probes"), 20);
    EXPECT_EQ(CounterDelta(before, after, "sac.probe_wipeouts"), 10);
  }
}

TEST(BackjumpSolver, NodeLimitAborts) {
  CspInstance csp = Pigeonhole(/*vars=*/7, /*values=*/6);

  BackjumpOptions limited;
  limited.node_limit = 5;
  BackjumpSolver solver(csp, limited);
  EXPECT_FALSE(solver.Solve().has_value());
  EXPECT_TRUE(solver.stats().aborted);
  EXPECT_LE(solver.stats().nodes, 5);

  // Unlimited run refutes the instance without aborting, and needs more
  // nodes than the limit that tripped above.
  BackjumpSolver full(csp);
  EXPECT_FALSE(full.Solve().has_value());
  EXPECT_FALSE(full.stats().aborted);
  EXPECT_GT(full.stats().nodes, 5);
}

TEST(BackjumpSolver, NodeLimitLargeEnoughDoesNotAbort) {
  CspInstance csp = Pigeonhole(/*vars=*/4, /*values=*/4);
  BackjumpOptions options;
  options.node_limit = 1 << 20;
  BackjumpSolver solver(csp, options);
  EXPECT_TRUE(solver.Solve().has_value());
  EXPECT_FALSE(solver.stats().aborted);
}

TEST(Explain, SolverRendersConfigurationAndCounters) {
  CspInstance csp = Pigeonhole(/*vars=*/4, /*values=*/3);
  SolverOptions options;
  options.node_limit = 100;
  BacktrackingSolver solver(csp, options);
  EXPECT_FALSE(solver.Solve().has_value());

  std::string text = obs::ExplainSolver(csp, options, solver.stats(),
                                        &solver.revision_counts());
  EXPECT_NE(text.find("MAC (maintain GAC)"), std::string::npos) << text;
  EXPECT_NE(text.find("node limit: 100"), std::string::npos) << text;
  EXPECT_NE(text.find("nodes="), std::string::npos) << text;
  EXPECT_NE(text.find("per-constraint revisions"), std::string::npos) << text;
  EXPECT_NE(text.find("scope("), std::string::npos) << text;
}

TEST(Explain, JoinForestRendersTreeWithStats) {
  DbRelation r0({0, 1}), r1({1, 2});
  for (int i = 0; i < 4; ++i) r0.AddRow({i, i});
  r1.AddRow({0, 0});
  std::vector<DbRelation> relations = {r0, r1};
  auto forest = BuildJoinForest(HypergraphOfSchemas(relations));
  ASSERT_TRUE(forest.has_value());

  YannakakisStats stats;
  DbRelation answer = YannakakisEvaluate(*forest, relations, {0, 2},
                                         /*peak_rows=*/nullptr, &stats);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_EQ(stats.output_rows, 1);

  std::string text = obs::ExplainJoinForest(*forest, relations, &stats);
  EXPECT_NE(text.find("join forest: 2 relations, 1 root"), std::string::npos)
      << text;
  EXPECT_NE(text.find("input=4"), std::string::npos) << text;
  EXPECT_NE(text.find("reduced="), std::string::npos) << text;
  EXPECT_NE(text.find("semijoin pass"), std::string::npos) << text;
  EXPECT_NE(text.find("output 1 rows"), std::string::npos) << text;
}

TEST(Explain, BucketEliminationRendersBucketsAndBound) {
  CspInstance csp = Pigeonhole(/*vars=*/3, /*values=*/3);
  std::vector<int> order = {0, 1, 2};
  BucketStats stats;
  auto solution = SolveByBucketElimination(csp, order, &stats);
  ASSERT_TRUE(solution.has_value());
  ASSERT_EQ(stats.bucket_rows.size(), 3u);

  std::string text = obs::ExplainBucketElimination(csp, order, stats);
  EXPECT_NE(text.find("3 variables"), std::string::npos) << text;
  EXPECT_NE(text.find("induced width w="), std::string::npos) << text;
  EXPECT_NE(text.find("d^(w+1)="), std::string::npos) << text;
  EXPECT_NE(text.find("eliminate"), std::string::npos) << text;
  EXPECT_NE(text.find("total intermediate rows:"), std::string::npos) << text;
}

TEST(StatsPlumbing, GacAndYannakakisReportObservedWork) {
  // GAC on an instance with a forced wipeout: x != x is unsatisfiable.
  CspInstance wipe(1, 2);
  wipe.AddConstraint({0}, {});
  AcResult gac = EnforceGac(wipe);
  EXPECT_FALSE(gac.consistent);
  EXPECT_EQ(gac.wipeouts, 1);

  // A consistent pass reports revisions but no wipeout.
  CspInstance ok = Pigeonhole(/*vars=*/3, /*values=*/3);
  AcResult fine = EnforceGac(ok);
  EXPECT_TRUE(fine.consistent);
  EXPECT_EQ(fine.wipeouts, 0);
  EXPECT_GT(fine.revisions, 0);

  // FullReducer fills the per-relation row vectors.
  DbRelation r0({0, 1}), r1({1, 2});
  for (int i = 0; i < 3; ++i) r0.AddRow({i, i});
  r1.AddRow({0, 5});
  std::vector<DbRelation> relations = {r0, r1};
  auto forest = BuildJoinForest(HypergraphOfSchemas(relations));
  ASSERT_TRUE(forest.has_value());
  YannakakisStats stats;
  FullReducer(*forest, &relations, &stats);
  ASSERT_EQ(stats.input_rows.size(), 2u);
  EXPECT_EQ(stats.input_rows[0], 3);
  EXPECT_EQ(stats.input_rows[1], 1);
  EXPECT_EQ(stats.reduced_rows[0], 1);  // only the row joining with r1
  EXPECT_EQ(stats.rows_removed, 2);
  EXPECT_GT(stats.semijoin_passes, 0);
}

}  // namespace
}  // namespace cspdb
