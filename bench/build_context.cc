// Stamps the JSON context of every benchmark binary with the build it
// measures: the project's CMAKE_BUILD_TYPE, the util/simd.h backend and
// the compiler. Google Benchmark's own `library_build_type` describes
// how libbenchmark itself was compiled, not cspdb, so
// bench/distill_bench.py reads these keys instead.

#include <benchmark/benchmark.h>

#include "util/simd.h"

namespace cspdb {
namespace {

[[maybe_unused]] const bool kBuildContextRegistered = [] {
  benchmark::AddCustomContext("cspdb_build_type", CSPDB_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("cspdb_simd", simd::BackendName());
  benchmark::AddCustomContext("cspdb_compiler", CSPDB_BENCH_COMPILER);
  return true;
}();

}  // namespace
}  // namespace cspdb
