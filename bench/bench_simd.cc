// SIMD-vs-scalar word-kernel benchmarks, distilled into
// BENCH_kernels.json next to bench_report's pairs (the kernels distill
// merges both raws). Naming contract with bench/distill_bench.py:
// BM_simd_<op>_(baseline|optimized)/<words>. The baseline side runs the
// frozen scalar loops from simd_scalar_ref.cc, compiled with the SIMD
// instruction sets disabled; the optimized side runs util/simd.h.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <benchmark/benchmark.h>

#include "simd_scalar_ref.h"
#include "util/rng.h"
#include "util/simd.h"

namespace cspdb {
namespace {

// The argument is the span length in 64-bit WORDS: 64 (one Bitset of a
// 4k-tuple constraint, L1), 1024 (64k tuples, L1/L2 boundary), 16384
// (1M tuples / 128 KiB per operand, L2 — the memory-bound regime).

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
