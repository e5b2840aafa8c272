// The parallel natural join on the work-stealing pool: a morsel-driven,
// radix-partitioned hash join.
//
// Design (DESIGN.md "Execution layer"): the build side is
// radix-partitioned by the top bits of the same FNV key hash the serial
// KeyIndex buckets with, giving one small, independently built KeyIndex
// per partition — workers never share a build structure, and each
// partition's chains stay cache-resident during probing. The probe side
// is NOT partitioned: workers pull fixed-size probe morsels from a
// shared cursor, route each probe row to its partition's index (equal
// keys hash equally, so every match lives in that one partition), and
// buffer output per morsel.
//
// Determinism contract: the output is bit-identical to the serial
// NaturalJoin in db/algebra.h, row order included.
//   * Within a partition the build scatter preserves original row order
//     (morsel-order concatenation per partition), so a partition-local
//     hash chain enumerates exactly the same matches in exactly the same
//     order as the serial KeyIndex chain.
//   * Per-morsel output buffers concatenate in morsel order, which is
//     probe-row order, which is the serial emission order.
// The join is not a cancellation point: it is one polynomial pass, and
// an interrupted join would be wrong rather than merely incomplete.

#ifndef CSPDB_DB_PARALLEL_ALGEBRA_H_
#define CSPDB_DB_PARALLEL_ALGEBRA_H_

#include <cstddef>

#include "db/relation.h"
#include "exec/thread_pool.h"

namespace cspdb {

struct ParallelDbOptions {
  /// Pool to run on; nullptr means ThreadPool::Global().
  exec::ThreadPool* pool = nullptr;

  /// Probe sides smaller than this fall back to the serial kernel — the
  /// per-morsel buffer and fork/join overhead beats the win below it.
  std::size_t min_probe_rows = 2048;

  /// Probe (and build-scatter) morsel size in rows. Workers claim one
  /// morsel at a time from a shared atomic cursor, so smaller morsels
  /// load-balance skewed match densities at the cost of more buffers.
  std::size_t morsel_rows = 2048;

  /// Number of radix partitions for the build side; 0 picks a power of
  /// two from the build size and worker count. Purely a performance
  /// knob: the output is bit-identical for every value.
  std::size_t num_partitions = 0;

  /// Testing hook: run the morsel-parallel three-pass partition build
  /// even where the heuristic would pick the fused serial build (small
  /// build sides, single-hardware-thread machines). Both builds produce
  /// bit-identical layouts; differential and tsan tests set this so the
  /// parallel build path is exercised on any machine.
  bool force_parallel_build = false;
};

/// NaturalJoin(r, s): build side s radix-partitioned into per-partition
/// KeyIndexes, probe side r morsel-driven across the pool.
/// Bit-identical to the serial NaturalJoin, including row order.
DbRelation NaturalJoinParallel(const DbRelation& r, const DbRelation& s,
                               const ParallelDbOptions& options = {});

}  // namespace cspdb

#endif  // CSPDB_DB_PARALLEL_ALGEBRA_H_
