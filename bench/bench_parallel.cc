// Parallel-vs-serial kernel benchmarks, the measured side of
// BENCH_parallel.json. Every op comes in a `t1` variant (the true serial
// kernel — NOT the parallel code on a one-thread pool, so the serial
// baseline carries zero scheduling overhead) and `t2`/`t4`/`t8` variants
// running the parallel kernel on a dedicated pool of that many workers,
// over identical seeded inputs, so bench/run_benchmarks.sh can distill
// per-(op, size) speedups relative to t1.
//
// Naming contracts with bench/distill_bench.py:
//   * BM_<op>_t<threads>/<size> — parallel mode. Every op has its own t1.
//   * BM_simd_<op>_(baseline|optimized)/<words> — kernels mode. baseline
//     runs the frozen scalar loops from simd_scalar_ref.cc (compiled with
//     the SIMD instruction sets disabled); optimized runs util/simd.h.
//
// Honesty note: the distiller records machine.num_cpus and stamps thread
// entries with oversubscribed=true where threads exceed it. On a
// single-core machine the t2/t4/t8 variants measure oversubscription
// overhead, not speedup — the numbers are still worth recording (they
// bound the cost of the parallel path), but EXPERIMENTS.md must not
// present them as scaling.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "db/algebra.h"
#include "db/parallel_algebra.h"
#include "db/relation.h"
#include "exec/thread_pool.h"
#include "simd_scalar_ref.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cspdb {
namespace {

// One long-lived pool per thread count; constructing a pool inside the
// timed loop would measure thread spawn, not kernel work.
exec::ThreadPool& PoolFor(int threads) {
  static exec::ThreadPool* pools[9] = {};
  if (pools[threads] == nullptr) pools[threads] = new exec::ThreadPool(threads);
  return *pools[threads];
}

ParallelDbOptions DbOptionsFor(int threads) {
  ParallelDbOptions options;
  options.pool = &PoolFor(threads);
  options.min_probe_rows = 0;  // always take the parallel path
  return options;
}

// --------------------------------------------------------------------------
// Natural join: R(0,1) ⋈ S(1,2) with value range n/4 (~4n output rows),
// the workload bench_report uses — probe morsels spread across workers,
// the build side is radix-partitioned.

void MakeJoinInputs(int n, DbRelation* r, DbRelation* s) {
  Rng rng(777 + n);
  int values = std::max(4, n / 4);
  *r = DbRelation({0, 1});
  *s = DbRelation({1, 2});
  r->Reserve(n);
  s->Reserve(n);
  for (int i = 0; i < n; ++i) {
    r->AddRow({rng.UniformInt(0, values - 1), rng.UniformInt(0, values - 1)});
    s->AddRow({rng.UniformInt(0, values - 1), rng.UniformInt(0, values - 1)});
  }
}

void BM_natural_join_t1(benchmark::State& state) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  for (auto _ : state) {
    DbRelation out = NaturalJoin(r, s);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_natural_join_t1)->Arg(10000)->Arg(50000)->Arg(200000);

void NaturalJoinBody(benchmark::State& state, int threads) {
  DbRelation r({0}), s({0});
  MakeJoinInputs(static_cast<int>(state.range(0)), &r, &s);
  ParallelDbOptions options = DbOptionsFor(threads);
  for (auto _ : state) {
    DbRelation out = NaturalJoinParallel(r, s, options);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_natural_join_t2(benchmark::State& state) {
  NaturalJoinBody(state, 2);
}
void BM_natural_join_t4(benchmark::State& state) {
  NaturalJoinBody(state, 4);
}
void BM_natural_join_t8(benchmark::State& state) {
  NaturalJoinBody(state, 8);
}
BENCHMARK(BM_natural_join_t2)->Arg(10000)->Arg(50000)->Arg(200000);
BENCHMARK(BM_natural_join_t4)->Arg(10000)->Arg(50000)->Arg(200000);
BENCHMARK(BM_natural_join_t8)->Arg(10000)->Arg(50000)->Arg(200000);

// --------------------------------------------------------------------------
// SIMD-vs-scalar word kernels (kernels-mode naming: _baseline/_optimized).
// The argument is the span length in 64-bit WORDS: 64 (one Bitset of a
// 4k-tuple constraint, L1), 1024 (64k tuples, L1/L2 boundary), 16384
// (1M tuples / 128 KiB per operand, L2 — the memory-bound regime).
// Baselines call the frozen no-SIMD TU (bench/simd_scalar_ref.cc);
// optimized calls the dispatched util/simd.h kernels the library runs.

std::vector<uint64_t> RandomWords(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) w = rng.engine()();
  return words;
}

// Sparse words (one bit in ~8 set) — the regime support masks live in.
std::vector<uint64_t> SparseWords(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> words(n);
  for (uint64_t& w : words) {
    w = rng.engine()() & rng.engine()() & rng.engine()();
  }
  return words;
}

void BM_simd_and_baseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<uint64_t> dst = RandomWords(n, 11);
  const std::vector<uint64_t> src = RandomWords(n, 12);
  for (auto _ : state) {
    benchref::AndInPlace(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
}
void BM_simd_and_optimized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<uint64_t> dst = RandomWords(n, 11);
  const std::vector<uint64_t> src = RandomWords(n, 12);
  for (auto _ : state) {
    simd::AndInPlace(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_simd_and_baseline)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_simd_and_optimized)->Arg(64)->Arg(1024)->Arg(16384);

void BM_simd_popcount_baseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<uint64_t> words = RandomWords(n, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchref::PopCount(words.data(), n));
  }
}
void BM_simd_popcount_optimized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<uint64_t> words = RandomWords(n, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::PopCount(words.data(), n));
  }
}
BENCHMARK(BM_simd_popcount_baseline)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_simd_popcount_optimized)->Arg(64)->Arg(1024)->Arg(16384);

// Disjoint operands (even bits vs odd bits): the probe scans the whole
// span, the worst case a support probe hits when a value is dead.
void BM_simd_intersects_baseline(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<uint64_t> a(n, 0x5555555555555555ull);
  const std::vector<uint64_t> b(n, 0xaaaaaaaaaaaaaaaaull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchref::Intersects(a.data(), b.data(), n));
  }
}
void BM_simd_intersects_optimized(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::vector<uint64_t> a(n, 0x5555555555555555ull);
  const std::vector<uint64_t> b(n, 0xaaaaaaaaaaaaaaaaull);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::Intersects(a.data(), b.data(), n));
  }
}
BENCHMARK(BM_simd_intersects_baseline)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_simd_intersects_optimized)->Arg(64)->Arg(1024)->Arg(16384);

// The GAC revision sweep shape: 64 values, each with a support row of
// `arg` words, probed against one sparse valid mask. Mirrors
// ConstraintSupport::CollectUnsupported without the Bitset plumbing.
void BM_simd_support_sweep_baseline(benchmark::State& state) {
  const std::size_t row_words = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kValues = 64;
  const std::vector<uint64_t> valid = SparseWords(row_words, 31);
  const std::vector<uint64_t> rows = SparseWords(row_words * kValues, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(benchref::CountUnsupported(
        valid.data(), rows.data(), row_words, kValues));
  }
}
void BM_simd_support_sweep_optimized(benchmark::State& state) {
  const std::size_t row_words = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kValues = 64;
  const std::vector<uint64_t> valid = SparseWords(row_words, 31);
  const std::vector<uint64_t> rows = SparseWords(row_words * kValues, 32);
  for (auto _ : state) {
    int64_t unsupported = 0;
    for (std::size_t v = 0; v < kValues; ++v) {
      if (!simd::Intersects(valid.data(), rows.data() + v * row_words,
                            row_words)) {
        ++unsupported;
      }
    }
    benchmark::DoNotOptimize(unsupported);
  }
}
BENCHMARK(BM_simd_support_sweep_baseline)->Arg(64)->Arg(1024)->Arg(16384);
BENCHMARK(BM_simd_support_sweep_optimized)->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace cspdb
