// Differential tests pinning the parallel natural join to its serial
// twin (the execution layer's determinism contract, DESIGN.md):
// NaturalJoinParallel must return output bit-identical to NaturalJoin,
// row order included, for every partition count, morsel size, and build
// path (partitioned build order plus morsel-ordered concatenation
// reproduce the serial probe order).
//
// Thresholds are forced to zero so the parallel path runs even on the
// small corpus relations; the pool is a local 4-worker pool so the tests
// exercise real concurrency regardless of the machine's core count.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/algebra.h"
#include "db/parallel_algebra.h"
#include "db/relation.h"
#include "exec/thread_pool.h"
#include "util/rng.h"

namespace cspdb {
namespace {

exec::ThreadPool& TestPool() {
  static exec::ThreadPool* pool = new exec::ThreadPool(4);
  return *pool;
}

ParallelDbOptions ForcedDbOptions() {
  ParallelDbOptions options;
  options.pool = &TestPool();
  options.min_probe_rows = 0;
  return options;
}

DbRelation RandomRelation(std::vector<int> schema, int num_values,
                          int num_rows, Rng* rng) {
  DbRelation out(std::move(schema));
  Tuple row(out.arity());
  for (int i = 0; i < num_rows; ++i) {
    for (std::size_t q = 0; q < row.size(); ++q) {
      row[q] = rng->UniformInt(0, num_values - 1);
    }
    out.AddRow(row);
  }
  return out;
}

std::vector<int> RandomSchema(int max_attr, int arity, Rng* rng) {
  std::vector<int> pool;
  for (int a = 0; a <= max_attr; ++a) pool.push_back(a);
  std::vector<int> schema;
  for (int i = 0; i < arity && !pool.empty(); ++i) {
    int pick = rng->UniformInt(0, static_cast<int>(pool.size()) - 1);
    schema.push_back(pool[pick]);
    pool.erase(pool.begin() + pick);
  }
  return schema;
}

// Bit-identical: same schema, same rows, same order.
void ExpectIdenticalRelations(const DbRelation& a, const DbRelation& b,
                              const std::string& label) {
  ASSERT_EQ(a.schema(), b.schema()) << label;
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.data(), b.data()) << label;
}

TEST(ParallelDifferential, JoinAndSemijoinBitIdenticalToSerial) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(53000 + seed);
    const std::string label = "join seed " + std::to_string(seed);
    int num_values = 2 + static_cast<int>(seed % 4);
    DbRelation r = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 200), &rng);
    DbRelation s = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 200), &rng);
    ExpectIdenticalRelations(NaturalJoinParallel(r, s, ForcedDbOptions()),
                             NaturalJoin(r, s), label + " join");
  }
}

TEST(ParallelDifferential, JoinCorpusPartitionedAndStripedMatchSerial) {
  // The full 250-seed join corpus with seed-varied partition counts
  // (including non-powers-of-two, which the index rounds up), morsel
  // sizes down to one row, and the forced three-pass parallel build on
  // every other seed. Every combination must reproduce the serial bytes
  // exactly.
  const std::size_t partition_choices[] = {0, 1, 3, 8, 64};
  const std::size_t morsel_choices[] = {1, 37, 2048};
  for (uint64_t seed = 0; seed < 250; ++seed) {
    Rng rng(54000 + seed);
    const std::string label = "corpus seed " + std::to_string(seed);
    int num_values = 2 + static_cast<int>(seed % 5);
    DbRelation r = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 200), &rng);
    DbRelation s = RandomRelation(RandomSchema(5, rng.UniformInt(1, 3), &rng),
                                  num_values, rng.UniformInt(0, 200), &rng);
    ParallelDbOptions options = ForcedDbOptions();
    options.num_partitions = partition_choices[seed % 5];
    options.morsel_rows = morsel_choices[seed % 3];
    options.force_parallel_build = (seed % 2) == 1;
    ExpectIdenticalRelations(NaturalJoinParallel(r, s, options),
                             NaturalJoin(r, s), label + " partitioned join");
  }
}

TEST(ParallelDifferential, JoinEdgeShapesMatchSerial) {
  Rng rng(61000);
  ParallelDbOptions options = ForcedDbOptions();
  options.num_partitions = 64;
  options.morsel_rows = 64;
  DbRelation r = RandomRelation({0, 1}, 6, 300, &rng);

  // Single-key build side: every s row carries the same join key, so one
  // partition owns a single maximal chain and the other 63 stay empty.
  DbRelation s({1, 2});
  for (int i = 0; i < 200; ++i) s.AddRow({3, rng.UniformInt(0, 5)});
  ExpectIdenticalRelations(NaturalJoinParallel(r, s, options),
                           NaturalJoin(r, s), "single-key join");

  // Empty probe side, empty build side.
  DbRelation empty_r({0, 1});
  DbRelation empty_s({1, 2});
  ExpectIdenticalRelations(NaturalJoinParallel(empty_r, s, options),
                           NaturalJoin(empty_r, s), "empty probe join");
  ExpectIdenticalRelations(NaturalJoinParallel(r, empty_s, options),
                           NaturalJoin(r, empty_s), "empty build join");

  // No shared attributes: a cross product, every probe row hits the one
  // chain set of the single trivial key.
  DbRelation t = RandomRelation({7, 8}, 4, 50, &rng);
  ExpectIdenticalRelations(NaturalJoinParallel(r, t, options),
                           NaturalJoin(r, t), "cross join");

  // Identical schemas: the whole row is the key (multi-column compare
  // path) and the join has no payload columns at all.
  DbRelation u = RandomRelation({0, 1}, 6, 250, &rng);
  ExpectIdenticalRelations(NaturalJoinParallel(r, u, options),
                           NaturalJoin(r, u), "same-schema join");
}

TEST(ParallelDifferential, JoinBitIdenticalAcrossPartitionAndMorselKnobs) {
  // Half the rows share one heavy key: chains of wildly different length
  // land in one partition while most partitions run near-empty, and tiny
  // morsels force many output buffers around the skew. Every knob
  // combination must still concatenate to the serial bytes.
  Rng rng(63000);
  DbRelation r({0, 1}), s({1, 2});
  for (int i = 0; i < 600; ++i) {
    int r_key = rng.UniformInt(0, 1) == 0 ? 0 : rng.UniformInt(0, 40);
    int s_key = rng.UniformInt(0, 1) == 0 ? 0 : rng.UniformInt(0, 40);
    r.AddRow({rng.UniformInt(0, 9), r_key});
    s.AddRow({s_key, rng.UniformInt(0, 9)});
  }
  const DbRelation join = NaturalJoin(r, s);
  for (std::size_t partitions : {1u, 2u, 8u, 256u}) {
    for (std::size_t morsel : {1u, 7u, 4096u}) {
      ParallelDbOptions options = ForcedDbOptions();
      options.num_partitions = partitions;
      options.morsel_rows = morsel;
      const std::string label = "P=" + std::to_string(partitions) +
                                " morsel=" + std::to_string(morsel);
      ExpectIdenticalRelations(NaturalJoinParallel(r, s, options), join,
                               label + " join");
    }
  }
}

TEST(ParallelDifferential, ForcedParallelBuildBitIdenticalToSerialBuild) {
  // The three-pass morsel-parallel partition build must lay out exactly
  // the bytes the fused serial build does (original row order within
  // each partition, push-front chains). On machines where the heuristic
  // would never pick it, force_parallel_build runs it anyway — and this
  // fixture runs under tsan in CI, so the histogram/scatter passes get
  // raced for real.
  Rng rng(62000);
  DbRelation r = RandomRelation({0, 1, 2}, 32, 6000, &rng);
  DbRelation s = RandomRelation({2, 3}, 32, 5000, &rng);
  const DbRelation join = NaturalJoin(r, s);
  for (std::size_t partitions : {1u, 8u, 64u}) {
    ParallelDbOptions options = ForcedDbOptions();
    options.force_parallel_build = true;
    options.num_partitions = partitions;
    options.morsel_rows = 512;  // several build and probe morsels per run
    const std::string label =
        "forced build P=" + std::to_string(partitions);
    ExpectIdenticalRelations(NaturalJoinParallel(r, s, options), join,
                             label + " join");
  }
}

TEST(ParallelDifferential, LargeJoinCrossesStripeBoundaries) {
  // Big enough that every worker gets several probe morsels, with key
  // skew so morsels produce different output sizes.
  Rng rng(60001);
  DbRelation r = RandomRelation({0, 1}, 8, 20000, &rng);
  DbRelation s = RandomRelation({1, 2}, 8, 5000, &rng);
  ParallelDbOptions options;
  options.pool = &TestPool();  // default min_probe_rows: threshold crossed
  ExpectIdenticalRelations(NaturalJoinParallel(r, s, options),
                           NaturalJoin(r, s), "large join");
}

}  // namespace
}  // namespace cspdb
