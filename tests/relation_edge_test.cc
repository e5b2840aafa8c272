// Edge-case regression tests for DbRelation's lazy row-hash index and
// unchecked-append path: empty relations through join/semijoin/hash-probe
// kernels (the RehashInto guards), and lookups after AppendRowUnchecked.

#include <vector>

#include <gtest/gtest.h>

#include "db/algebra.h"
#include "db/relation.h"

namespace cspdb {
namespace {

TEST(RelationEdge, EmptyRelationBasics) {
  DbRelation r({0, 1});
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.HasRow(Tuple{1, 2}));
  EXPECT_FALSE(r.HasRow(Tuple{0, 0}));
  int rows = 0;
  for (auto row : r.rows()) {
    (void)row;
    ++rows;
  }
  EXPECT_EQ(rows, 0);
}

TEST(RelationEdge, JoinAndSemijoinWithEmptySides) {
  DbRelation empty({0, 1});
  DbRelation full({1, 2});
  full.AddRow(Tuple{1, 2});
  full.AddRow(Tuple{3, 4});

  EXPECT_TRUE(NaturalJoin(empty, full).empty());
  EXPECT_TRUE(NaturalJoin(full, empty).empty());
  EXPECT_TRUE(NaturalJoin(empty, empty).empty());
  EXPECT_TRUE(Semijoin(empty, full).empty());
  EXPECT_TRUE(Semijoin(full, empty).empty());

  // Schemas still compose correctly on the empty outputs.
  DbRelation joined = NaturalJoin(empty, full);
  ASSERT_EQ(joined.arity(), 3);
  EXPECT_EQ(joined.schema(), (std::vector<int>{0, 1, 2}));
}

TEST(RelationEdge, ArityZeroRelations) {
  // Arity 0: the Boolean relations {()} (true) and {} (false).
  DbRelation truth({});
  truth.AddRow(Tuple{});
  EXPECT_EQ(truth.size(), 1u);
  truth.AddRow(Tuple{});  // duplicate of the empty row
  EXPECT_EQ(truth.size(), 1u);
  EXPECT_TRUE(truth.HasRow(Tuple{}));

  DbRelation falsity({});
  EXPECT_FALSE(falsity.HasRow(Tuple{}));
  EXPECT_EQ(NaturalJoin(truth, truth).size(), 1u);
  EXPECT_TRUE(NaturalJoin(truth, falsity).empty());
}

TEST(RelationEdge, HashProbeAfterManyAppendsAndRehashes) {
  // Push the open-addressed index through several growth rehashes, then
  // probe every row plus misses (guards in RehashInto must stay silent).
  DbRelation r({0, 1, 2});
  for (int i = 0; i < 5000; ++i) {
    r.AddRow(Tuple{i, i * 7 % 1000, i % 13});
  }
  EXPECT_EQ(r.size(), 5000u);
  for (int i = 0; i < 5000; i += 97) {
    EXPECT_TRUE(r.HasRow(Tuple{i, i * 7 % 1000, i % 13})) << i;
  }
  EXPECT_FALSE(r.HasRow(Tuple{5001, 0, 0}));
  EXPECT_FALSE(r.HasRow(Tuple{-1, -1, -1}));
}

TEST(RelationEdge, HasRowAfterUncheckedAppends) {
  DbRelation r({0, 1});
  for (int i = 0; i < 100; ++i) {
    const int row[] = {i, i * 3};
    r.AppendRowUnchecked(row);
  }
  EXPECT_EQ(r.size(), 100u);
  // The lazy index rebuilds correctly after the appends.
  EXPECT_TRUE(r.HasRow(Tuple{50, 150}));
  EXPECT_FALSE(r.HasRow(Tuple{50, 151}));
}

TEST(RelationEdge, SelfJoinAndProjectOnEmpty) {
  DbRelation empty({3, 5});
  DbRelation projected = Project(empty, {5});
  EXPECT_TRUE(projected.empty());
  EXPECT_EQ(projected.schema(), (std::vector<int>{5}));
  EXPECT_TRUE(SelectEquals(empty, 3, 7).empty());
}

}  // namespace
}  // namespace cspdb
