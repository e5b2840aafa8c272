// Tests for CspInstance and the CSP <-> homomorphism conversions of
// Section 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "analysis/validate_csp.h"
#include "boolean/hell_nesetril.h"
#include "csp/convert.h"
#include "csp/instance.h"
#include "gen/generators.h"
#include "net/wire.h"
#include "relational/homomorphism.h"
#include "service/request.h"
#include "util/rng.h"

namespace cspdb {
namespace {

// A small 3-coloring instance over a triangle.
CspInstance Triangle3Color() {
  CspInstance csp(3, 3);
  std::vector<Tuple> neq;
  for (int x = 0; x < 3; ++x) {
    for (int y = 0; y < 3; ++y) {
      if (x != y) neq.push_back({x, y});
    }
  }
  csp.AddConstraint({0, 1}, neq);
  csp.AddConstraint({1, 2}, neq);
  csp.AddConstraint({0, 2}, neq);
  return csp;
}

TEST(CspInstance, IsSolutionChecksConstraints) {
  CspInstance csp = Triangle3Color();
  EXPECT_TRUE(csp.IsSolution({0, 1, 2}));
  EXPECT_FALSE(csp.IsSolution({0, 0, 2}));
}

TEST(CspInstance, PartialSolutionIgnoresUncoveredConstraints) {
  CspInstance csp = Triangle3Color();
  EXPECT_TRUE(csp.IsPartialSolution({0, kUnassigned, kUnassigned}));
  EXPECT_TRUE(csp.IsPartialSolution({0, 1, kUnassigned}));
  EXPECT_FALSE(csp.IsPartialSolution({0, 0, kUnassigned}));
}

TEST(CspInstance, ConsolidationIntersectsSameScope) {
  CspInstance csp(2, 3);
  csp.AddConstraint({0, 1}, {{0, 1}, {1, 2}, {2, 0}});
  int id = csp.AddConstraint({0, 1}, {{1, 2}, {2, 0}, {2, 2}});
  EXPECT_EQ(csp.constraints().size(), 1u);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(csp.constraint(0).allowed.size(), 2u);
  EXPECT_TRUE(csp.constraint(0).allowed_set.count({1, 2}) > 0);
  EXPECT_TRUE(csp.constraint(0).allowed_set.count({2, 0}) > 0);
}

TEST(CspInstance, RepeatedTuplesKeepTheirFirstOccurrenceInOrder) {
  CspInstance csp(3, 3);
  csp.AddConstraint({0, 2},
                    {{2, 1}, {0, 0}, {2, 1}, {1, 2}, {0, 0}, {0, 0}, {1, 0}});
  const Constraint& c = csp.constraint(0);
  EXPECT_EQ(std::vector<Tuple>(c.allowed),
            (std::vector<Tuple>{{2, 1}, {0, 0}, {1, 2}, {1, 0}}));
  EXPECT_EQ(c.allowed_set.size(), 4u);

  // The membership rows are the same tuples, sorted.
  std::vector<Tuple> rows;
  for (std::size_t i = 0; i < c.allowed_set.size(); ++i) {
    rows.emplace_back(c.allowed_set.row(i),
                      c.allowed_set.row(i) + c.allowed_set.arity());
  }
  EXPECT_EQ(rows, (std::vector<Tuple>{{0, 0}, {1, 0}, {1, 2}, {2, 1}}));
}

TEST(CspInstance, ConsolidationKeepsTheExistingOrder) {
  CspInstance csp(2, 3);
  csp.AddConstraint({1, 0}, {{2, 2}, {0, 1}, {1, 1}, {2, 0}, {1, 2}});
  // Incoming order and repeats do not matter; (0, 0) is not in the
  // existing relation.
  csp.AddConstraint({1, 0}, {{1, 2}, {0, 0}, {2, 2}, {1, 2}, {2, 0}});
  ASSERT_EQ(csp.constraints().size(), 1u);
  const Constraint& c = csp.constraint(0);
  EXPECT_EQ(std::vector<Tuple>(c.allowed),
            (std::vector<Tuple>{{2, 2}, {2, 0}, {1, 2}}));
  EXPECT_EQ(c.allowed_set.size(), 3u);
  EXPECT_EQ(c.allowed_set.count({0, 1}), 0u);
  EXPECT_EQ(c.allowed_set.count({1, 1}), 0u);
  EXPECT_EQ(c.allowed_set.count({2, 0}), 1u);
  EXPECT_FALSE(HasErrors(ValidateCspInstance(csp)));

  // Intersecting with an empty relation empties it.
  csp.AddConstraint({1, 0}, {});
  EXPECT_TRUE(csp.constraint(0).allowed.empty());
  EXPECT_EQ(csp.constraint(0).allowed_set.size(), 0u);
  EXPECT_EQ(csp.constraint(0).allowed_set.count({2, 2}), 0u);
}

TEST(CspInstance, MembershipCountsByBinarySearch) {
  CspInstance csp(3, 4);
  csp.AddConstraint({0, 1, 2},
                    {{3, 3, 3}, {1, 0, 2}, {0, 0, 0}, {1, 0, 1}, {2, 3, 0}});
  const SortedRows& rows = csp.constraint(0).allowed_set;
  ASSERT_EQ(rows.arity(), 3);
  ASSERT_EQ(rows.size(), 5u);
  // The first and last rows, and one in the middle.
  EXPECT_EQ(rows.count({0, 0, 0}), 1u);
  EXPECT_EQ(rows.count({3, 3, 3}), 1u);
  EXPECT_EQ(rows.count({1, 0, 2}), 1u);
  // Absent tuples below, between and above the rows.
  EXPECT_EQ(rows.count({0, 0, 1}), 0u);
  EXPECT_EQ(rows.count({1, 0, 0}), 0u);
  EXPECT_EQ(rows.count({1, 1, 0}), 0u);
  EXPECT_EQ(rows.count({3, 3, 2}), 0u);
  EXPECT_EQ(rows.count({3, 3, 4}), 0u);
  // Tuples of another arity, including prefixes of a row.
  EXPECT_EQ(rows.count({}), 0u);
  EXPECT_EQ(rows.count({0}), 0u);
  EXPECT_EQ(rows.count({0, 0}), 0u);
  EXPECT_EQ(rows.count({0, 0, 0, 0}), 0u);

  // Every tuple of a random relation agrees with its insertion list.
  Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    CspInstance random(2, 5);
    std::vector<Tuple> allowed;
    for (int t = rng.UniformInt(0, 30); t > 0; --t) {
      allowed.push_back({rng.UniformInt(0, 4), rng.UniformInt(0, 4)});
    }
    random.AddConstraint({0, 1}, allowed);
    const Constraint& c = random.constraint(0);
    const std::vector<Tuple> list = c.allowed;
    for (int x = 0; x < 5; ++x) {
      for (int y = 0; y < 5; ++y) {
        const Tuple t = {x, y};
        const bool listed =
            std::find(list.begin(), list.end(), t) != list.end();
        EXPECT_EQ(c.allowed_set.count(t), listed ? 1u : 0u) << trial;
      }
    }
    EXPECT_EQ(c.allowed_set.size(), c.allowed.size()) << trial;
  }
}

TEST(CspInstance, MembershipRowsCompareAsSets) {
  CspInstance a(2, 3);
  a.AddConstraint({0, 1}, {{2, 0}, {0, 1}, {2, 0}});
  CspInstance b(2, 3);
  b.AddConstraint({0, 1}, {{0, 1}, {2, 0}});
  CspInstance c(2, 3);
  c.AddConstraint({0, 1}, {{0, 1}, {2, 1}});
  EXPECT_TRUE(a.constraint(0).allowed_set == b.constraint(0).allowed_set);
  EXPECT_FALSE(a.constraint(0).allowed_set == c.constraint(0).allowed_set);
  EXPECT_TRUE(SortedRows() == SortedRows());
}

// The validator's list/set agreement check still bites on the flat rows.
TEST(CspInstance, ValidatorFlagsAListTheMembershipRowsDisagreeWith) {
  CspInstance extra = Triangle3Color();
  // A list with one row more than the membership rows: (1, 1) appended.
  std::vector<Tuple> longer_list = extra.constraint(1).allowed;
  longer_list.push_back({1, 1});
  CspInstance longer(3, 3);
  longer.AddConstraint({1, 2}, longer_list);
  const_cast<Constraint&>(extra.constraint(1)).allowed =
      longer.constraint(0).allowed;
  Diagnostics diagnostics = ValidateCspInstance(extra);
  EXPECT_TRUE(HasErrors(diagnostics));
  bool missing = false;
  bool sizes = false;
  for (const Diagnostic& d : diagnostics) {
    missing = missing ||
              d.message.find("missing from the membership set") !=
                  std::string::npos;
    sizes = sizes || d.message.find("membership set has 6 tuples") !=
                         std::string::npos;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(sizes);

  CspInstance fewer = Triangle3Color();
  std::vector<int> rows = {0, 1, 1, 0};
  const_cast<Constraint&>(fewer.constraint(2)).allowed_set =
      SortedRows(2, &rows);
  EXPECT_TRUE(HasErrors(ValidateCspInstance(fewer)));
}

TEST(CspInstance, RowListReadsRowsInInsertionOrder) {
  CspInstance csp(3, 4);
  csp.AddConstraint({2, 0, 1}, {{3, 0, 1}, {0, 2, 2}, {3, 0, 1}, {1, 1, 0}});
  const RowList& rows = csp.constraint(0).allowed;
  EXPECT_EQ(rows.arity(), 3);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.data(), (std::vector<int>{3, 0, 1, 0, 2, 2, 1, 1, 0}));
  EXPECT_EQ(rows.row(1).ToTuple(), (Tuple{0, 2, 2}));
  std::vector<Tuple> visited;
  for (DbRelation::RowRef row : rows) visited.push_back(row.ToTuple());
  // The implicit conversion copies the rows out in the same order.
  const std::vector<Tuple> converted = rows;
  const std::vector<Tuple> expected = {{3, 0, 1}, {0, 2, 2}, {1, 1, 0}};
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(converted, expected);
  EXPECT_TRUE(csp.constraint(0).allowed_set.contains(rows.row(2).data()));
}

// One constraint as a client sends it: scopes may repeat, tuples may
// repeat, and nothing is consolidated yet.
struct RawConstraint {
  std::vector<int> scope;
  std::vector<Tuple> tuples;
};

// The SolveCsp request payload carrying `raw` as given, in the wire
// format EncodeRequestPayload writes: a kind byte, then little-endian
// counts and values.
std::vector<uint8_t> RawSolveCspPayload(int num_variables, int num_values,
                                        const std::vector<RawConstraint>& raw) {
  std::vector<uint8_t> out = {
      static_cast<uint8_t>(service::RequestKind::kSolveCsp)};
  auto put = [&out](std::size_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put(num_variables);
  put(num_values);
  put(raw.size());
  for (const RawConstraint& c : raw) {
    put(c.scope.size());
    for (int v : c.scope) put(v);
    put(c.tuples.size());
    for (const Tuple& t : c.tuples) {
      for (int x : t) put(x);
    }
  }
  return out;
}

std::vector<uint8_t> EncodedCsp(const CspInstance& csp) {
  std::vector<uint8_t> out;
  net::EncodeRequestPayload(service::SolveCspRequest{csp}, &out);
  return out;
}

// Random raw constraints of arity 1-4 over few variables, so scopes
// repeat variables; a third of them reuse an earlier scope with some of
// its tuples, so consolidation intersects; tuples repeat; some relations
// are empty.
std::vector<RawConstraint> RandomRawConstraints(int n, int d, Rng* rng) {
  std::vector<RawConstraint> raw;
  // At least one constraint: the decoder refuses a variable count above
  // the payload bytes that follow it.
  for (int m = rng->UniformInt(1, 10); m > 0; --m) {
    RawConstraint c;
    if (!raw.empty() && rng->Bernoulli(0.35)) {
      const RawConstraint& earlier =
          raw[rng->UniformInt(0, static_cast<int>(raw.size()) - 1)];
      c.scope = earlier.scope;
      for (const Tuple& t : earlier.tuples) {
        if (rng->Bernoulli(0.6)) c.tuples.push_back(t);
      }
    } else {
      for (int k = rng->UniformInt(1, 4); k > 0; --k) {
        c.scope.push_back(rng->UniformInt(0, n - 1));
      }
    }
    const int arity = static_cast<int>(c.scope.size());
    if (!rng->Bernoulli(0.1)) {
      for (int t = rng->UniformInt(0, 12); t > 0; --t) {
        if (!c.tuples.empty() && rng->Bernoulli(0.2)) {
          c.tuples.push_back(c.tuples[rng->UniformInt(
              0, static_cast<int>(c.tuples.size()) - 1)]);
          continue;
        }
        Tuple tuple(arity);
        for (int& x : tuple) x = rng->UniformInt(0, d - 1);
        c.tuples.push_back(std::move(tuple));
      }
    }
    std::shuffle(c.tuples.begin(), c.tuples.end(), rng->engine());
    raw.push_back(std::move(c));
  }
  return raw;
}

// The relations `raw` consolidates to, worked out without CspInstance:
// scopes in first-appearance order, each with the first occurrence of
// each tuple of its first constraint, then cut to the tuples every later
// constraint on that scope lists.
std::vector<RawConstraint> Consolidated(const std::vector<RawConstraint>& raw) {
  std::vector<RawConstraint> out;
  for (const RawConstraint& c : raw) {
    auto same = std::find_if(out.begin(), out.end(), [&](const auto& o) {
      return o.scope == c.scope;
    });
    if (same == out.end()) {
      RawConstraint first{c.scope, {}};
      for (const Tuple& t : c.tuples) {
        if (std::find(first.tuples.begin(), first.tuples.end(), t) ==
            first.tuples.end()) {
          first.tuples.push_back(t);
        }
      }
      out.push_back(std::move(first));
      continue;
    }
    std::erase_if(same->tuples, [&](const Tuple& t) {
      return std::find(c.tuples.begin(), c.tuples.end(), t) == c.tuples.end();
    });
  }
  return out;
}

// The flat construction path (the decoder appends rows straight into a
// constraint's buffer) and the tuple path (AddConstraint) build the same
// instance: same rows in the same order, same membership rows, slots,
// per-variable index and wire bytes.
TEST(CspInstance, DecodedFlatRowsMatchTheTupleBuild) {
  Rng rng(2718);
  int intersected = 0;
  int repeated_variables = 0;
  int empty = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int n = rng.UniformInt(1, 5);
    const int d = rng.UniformInt(1, 4);
    const std::vector<RawConstraint> raw = RandomRawConstraints(n, d, &rng);
    CspInstance built(n, d);
    for (const RawConstraint& c : raw) built.AddConstraint(c.scope, c.tuples);

    const std::vector<uint8_t> payload = RawSolveCspPayload(n, d, raw);
    std::string error;
    std::optional<service::ServiceRequest> request =
        net::DecodeRequestPayload(payload.data(), payload.size(), &error);
    ASSERT_TRUE(request.has_value()) << trial << ": " << error;
    const CspInstance& decoded =
        std::get<service::SolveCspRequest>(*request).instance;

    const std::vector<RawConstraint> expected = Consolidated(raw);
    intersected += static_cast<int>(raw.size() - expected.size());
    ASSERT_EQ(built.constraints().size(), expected.size()) << trial;
    ASSERT_EQ(decoded.constraints().size(), expected.size()) << trial;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const Constraint& a = built.constraint(static_cast<int>(i));
      const Constraint& b = decoded.constraint(static_cast<int>(i));
      EXPECT_EQ(a.scope, expected[i].scope) << trial;
      EXPECT_EQ(b.scope, expected[i].scope) << trial;
      EXPECT_EQ(std::vector<Tuple>(a.allowed), expected[i].tuples) << trial;
      EXPECT_EQ(std::vector<Tuple>(b.allowed), expected[i].tuples) << trial;
      EXPECT_EQ(a.allowed.data(), b.allowed.data()) << trial;
      EXPECT_EQ(a.allowed.arity(), b.allowed.arity()) << trial;
      EXPECT_TRUE(a.allowed_set == b.allowed_set) << trial;
      EXPECT_EQ(a.allowed_set.data(), b.allowed_set.data()) << trial;
      EXPECT_EQ(a.allowed_set.size(), expected[i].tuples.size()) << trial;
      EXPECT_EQ(a.distinct_slots, b.distinct_slots) << trial;
      repeated_variables += a.distinct_slots.size() < a.scope.size();
      empty += a.allowed.empty();
    }
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(built.ConstraintsOn(v), decoded.ConstraintsOn(v)) << trial;
    }
    EXPECT_EQ(EncodedCsp(built), EncodedCsp(decoded)) << trial;
    // The encoder writes the consolidated instance as a client would.
    EXPECT_EQ(EncodedCsp(built), RawSolveCspPayload(n, d, expected)) << trial;
    EXPECT_FALSE(HasErrors(ValidateCspInstance(decoded))) << trial;
  }
  // The corpus reaches every shape the flat path must handle.
  EXPECT_GT(intersected, 50);
  EXPECT_GT(repeated_variables, 50);
  EXPECT_GT(empty, 20);
}

TEST(CspInstance, ConstraintsOnTracksMembership) {
  CspInstance csp = Triangle3Color();
  EXPECT_EQ(csp.ConstraintsOn(0).size(), 2u);
  EXPECT_EQ(csp.ConstraintsOn(1).size(), 2u);
}

TEST(CspInstance, NormalizedDistinctScopesDropsDisagreeingTuples) {
  CspInstance csp(2, 2);
  // Scope (x0, x0): only tuples with equal entries survive, projected.
  csp.AddConstraint({0, 0}, {{0, 0}, {0, 1}, {1, 1}});
  CspInstance norm = csp.NormalizedDistinctScopes();
  ASSERT_EQ(norm.constraints().size(), 1u);
  EXPECT_EQ(norm.constraint(0).scope, (std::vector<int>{0}));
  EXPECT_EQ(norm.constraint(0).allowed.size(), 2u);  // {0} and {1}
}

TEST(CspInstance, NormalizationPreservesSolutions) {
  Rng rng(3);
  CspInstance csp(3, 2);
  csp.AddConstraint({0, 1, 0}, {{0, 1, 0}, {1, 0, 0}, {1, 1, 1}});
  csp.AddConstraint({2, 2}, {{0, 0}, {0, 1}});
  CspInstance norm = csp.NormalizedDistinctScopes();
  // Enumerate all assignments; both instances must agree.
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<int> a{bits & 1, (bits >> 1) & 1, (bits >> 2) & 1};
    EXPECT_EQ(csp.IsSolution(a), norm.IsSolution(a)) << bits;
  }
}

TEST(CspInstance, Names) {
  CspInstance csp(2, 2);
  EXPECT_EQ(csp.VariableName(0), "x0");
  EXPECT_EQ(csp.ValueName(1), "v1");
  csp.SetVariableName(0, "left");
  csp.SetValueName(1, "red");
  EXPECT_EQ(csp.VariableName(0), "left");
  EXPECT_EQ(csp.ValueName(1), "red");
}

TEST(Convert, RoundTripPreservesSolvability) {
  CspInstance csp = Triangle3Color();
  HomInstance hom = ToHomomorphismInstance(csp);
  auto h = FindHomomorphism(hom.a, hom.b);
  ASSERT_TRUE(h.has_value());
  // A homomorphism of the converted instance is a solution of the CSP.
  EXPECT_TRUE(csp.IsSolution(*h));
}

TEST(Convert, DistinctRelationsShared) {
  // Two constraints with the same allowed set share a template relation.
  CspInstance csp = Triangle3Color();
  HomInstance hom = ToHomomorphismInstance(csp);
  EXPECT_EQ(hom.b.vocabulary().size(), 1);
  EXPECT_EQ(hom.a.tuples(0).size(), 3u);
}

TEST(Convert, EmptyRelationsOfTwoAritiesGetTwoSymbols) {
  // Equal sorted rows do not make equal relations across arities: both
  // relations below are empty.
  CspInstance csp(2, 2);
  csp.AddConstraint({0}, {});
  csp.AddConstraint({0, 1}, {});
  HomInstance hom = ToHomomorphismInstance(csp);
  ASSERT_EQ(hom.b.vocabulary().size(), 2);
  EXPECT_EQ(hom.b.vocabulary().symbol(0).arity, 1);
  EXPECT_EQ(hom.b.vocabulary().symbol(1).arity, 2);
  EXPECT_FALSE(FindHomomorphism(hom.a, hom.b).has_value());
}

TEST(Convert, ToCspInstanceBreaksUpRelations) {
  Structure a = CycleGraph(5);
  Structure b = CliqueGraph(3);
  CspInstance csp = ToCspInstance(a, b);
  // One constraint per (deduplicated) tuple of A.
  EXPECT_EQ(csp.constraints().size(), a.tuples(0).size());
  EXPECT_EQ(csp.num_variables(), 5);
  EXPECT_EQ(csp.num_values(), 3);
}

TEST(Convert, SolutionsAreHomomorphisms) {
  Rng rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = RandomDigraph(4, 0.4, &rng);
    Structure b = RandomDigraph(3, 0.6, &rng, /*allow_loops=*/true);
    CspInstance csp = ToCspInstance(a, b);
    bool csp_solvable = false;
    // Enumerate all assignments of 4 variables over 3 values.
    std::vector<int> assignment(4);
    for (int code = 0; code < 81; ++code) {
      int c = code;
      for (int v = 0; v < 4; ++v) {
        assignment[v] = c % 3;
        c /= 3;
      }
      if (csp.IsSolution(assignment)) {
        csp_solvable = true;
        EXPECT_TRUE(IsHomomorphism(a, b, assignment));
      }
    }
    EXPECT_EQ(csp_solvable, FindHomomorphism(a, b).has_value());
  }
}

TEST(Convert, RoundTripBothDirections) {
  Rng rng(23);
  for (int trial = 0; trial < 10; ++trial) {
    Structure a = RandomDigraph(4, 0.5, &rng);
    Structure b = RandomDigraph(3, 0.5, &rng, /*allow_loops=*/true);
    CspInstance csp = ToCspInstance(a, b);
    HomInstance hom = ToHomomorphismInstance(csp);
    EXPECT_EQ(FindHomomorphism(a, b).has_value(),
              FindHomomorphism(hom.a, hom.b).has_value());
  }
}

}  // namespace
}  // namespace cspdb
