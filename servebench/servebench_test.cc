// The benchmark's own checks: its quantile code against a sorted oracle,
// seed determinism of every workload's request stream (and the pinned
// digests in workloads.json), self-time arithmetic, and the trace writer.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "service/fingerprint.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace service = cspdb::service;

// Nearest rank by its definition: the smallest sample value with at least
// q * n sample values at or below it.
double OracleNearestRank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double need = q * static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (static_cast<double>(i + 1) >= need) return values[i];
  }
  return values.back();
}

TEST(Quantile, MatchesSortedOracle) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    std::vector<double> values(n);
    for (double& v : values) v = static_cast<double>(rng() % 1000) / 7.0;
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(NearestRank(values, q), OracleNearestRank(values, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(Quantile, KnownValues) {
  std::vector<double> one_to_hundred;
  for (int i = 100; i >= 1; --i) one_to_hundred.push_back(i);
  EXPECT_EQ(NearestRank(one_to_hundred, 0.5), 50);
  EXPECT_EQ(NearestRank(one_to_hundred, 0.99), 99);
  EXPECT_EQ(NearestRank(one_to_hundred, 1.0), 100);
  EXPECT_EQ(NearestRank(one_to_hundred, 0.0), 1);
  EXPECT_EQ(NearestRank({4.5}, 0.99), 4.5);
  EXPECT_EQ(NearestRank({}, 0.5), 0.0);
  EXPECT_EQ(Median({3, 1, 2, 4}), 2);
  EXPECT_EQ(Ratio(1, 0), 0.0);
}

TEST(Workloads, SameSeedSameStream) {
  for (WorkloadKind kind :
       {WorkloadKind::kHotRepeat, WorkloadKind::kColdEngine,
        WorkloadKind::kMixedPipelined}) {
    const StreamHashes a = HashStream(MakeWorkload(kind, 11));
    const StreamHashes b = HashStream(MakeWorkload(kind, 11));
    const StreamHashes c = HashStream(MakeWorkload(kind, 12));
    EXPECT_EQ(a.digest, b.digest) << WorkloadName(kind);
    EXPECT_EQ(a.entry_hashes, b.entry_hashes) << WorkloadName(kind);
    EXPECT_NE(a.digest, c.digest) << WorkloadName(kind);
  }
}

// workloads.json pins each workload's digest at one seed; a generator
// change shows up here as a changed workload.
TEST(Workloads, PinnedDigests) {
  std::ifstream file(std::string(SERVEBENCH_SOURCE_DIR) + "/workloads.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  const std::string json = text.str();
  std::smatch m;
  ASSERT_TRUE(std::regex_search(json, m, std::regex("\"seed\": (\\d+)")));
  const uint64_t seed = std::stoull(m[1]);
  for (WorkloadKind kind :
       {WorkloadKind::kHotRepeat, WorkloadKind::kColdEngine,
        WorkloadKind::kMixedPipelined}) {
    std::string pattern = "\"";
    pattern += WorkloadName(kind);
    pattern += "\": \"([0-9a-f]{16})\"";
    const std::regex pinned(pattern);
    ASSERT_TRUE(std::regex_search(json, m, pinned)) << WorkloadName(kind);
    EXPECT_EQ(Hex64(HashStream(MakeWorkload(kind, seed)).digest),
              m[1].str())
        << WorkloadName(kind);
  }
}

TEST(Workloads, RelabelingIsIsomorphicAndNotVerbatim) {
  const Workload w = MakeWorkload(WorkloadKind::kHotRepeat, 3);
  int relabeled = 0;
  for (const Entry& entry : w.stream) {
    if (entry.relabel_seed == 0) continue;
    const service::ServiceRequest copy = w.Request(entry);
    const service::ServiceRequest base = w.Request({entry.index, 0});
    ASSERT_EQ(service::KindOf(copy), service::KindOf(base));
    if (const auto* csp = std::get_if<service::SolveCspRequest>(&copy)) {
      const service::CanonicalCsp a = service::CanonicalizeCsp(csp->instance);
      const service::CanonicalCsp b = service::CanonicalizeCsp(
          std::get<service::SolveCspRequest>(base).instance);
      if (a.fingerprint.exact && b.fingerprint.exact) {
        EXPECT_EQ(a.fingerprint, b.fingerprint);
      }
      std::vector<uint8_t> scratch;
      EXPECT_NE(w.Payload(entry, &scratch), w.table[entry.index]);
      if (++relabeled == 20) break;
    }
  }
  EXPECT_EQ(relabeled, 20);
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenInsideTheParent) {
  const std::vector<Span> spans = {
      MakeSpan(0, 100, -1),  // 0: root
      MakeSpan(10, 30, 0),   // 1: child
      MakeSpan(25, 50, 0),   // 2: overlaps child 1 by 5
      MakeSpan(90, 120, 0),  // 3: runs 20 past the root's end
      MakeSpan(12, 20, 1),   // 4: grandchild, counts against 1 only
      MakeSpan(200, 260, -1),  // 5: second root, no children
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10));  // children cover [10,50) and [90,100)
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 25);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 8);
  EXPECT_EQ(self[5], 60);
}

TEST(Trace, WritesNestedBalancedEvents) {
  SpanLane lane("lane");
  {
    ScopedSpan root(&lane, "root.span", 1, -1);
    ScopedSpan child(&lane, "child.span", 1, root.index());
  }
  Span explicit_span = MakeSpan(lane.spans()[0].end_ns + 10,
                                lane.spans()[0].end_ns + 20, -1);
  explicit_span.arg_names[0] = "server_handle_us";
  explicit_span.arg_values[0] = 1.5;
  lane.Add(explicit_span);
  std::ostringstream out;
  WriteChromeTrace({&lane}, out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  const std::string order[] = {"\"root.span\",\"ph\":\"B\"",
                               "\"child.span\",\"ph\":\"B\"",
                               "\"child.span\",\"ph\":\"E\"",
                               "\"root.span\",\"ph\":\"E\"",
                               "\"s\",\"ph\":\"B\"", "\"s\",\"ph\":\"E\""};
  std::size_t at = 0;
  for (const std::string& event : order) {
    at = json.find(event, at);
    ASSERT_NE(at, std::string::npos) << event;
  }
  EXPECT_NE(json.find("\"server_handle_us\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

}  // namespace
}  // namespace servebench
