// Frozen scalar word-loop references for the SIMD-vs-scalar benchmarks in
// bench_simd.cc. These are hand-written copies of the pre-SIMD bitset
// kernels, deliberately NOT routed through util/simd.h: that header's
// scalar namespace is inline and would be compiled under the library's
// SIMD flags (and comdat-merged across TUs), which is exactly the
// contamination a baseline must avoid. This TU is compiled with the SIMD
// instruction sets disabled (see bench/CMakeLists.txt), so the measured
// baseline is what the repo shipped before the SIMD pass.

#ifndef CSPDB_BENCH_SIMD_SCALAR_REF_H_
#define CSPDB_BENCH_SIMD_SCALAR_REF_H_

#include <cstddef>
#include <cstdint>

namespace cspdb::benchref {

void AndInPlace(uint64_t* dst, const uint64_t* src, std::size_t n);

int64_t PopCount(const uint64_t* words, std::size_t n);

bool Intersects(const uint64_t* a, const uint64_t* b, std::size_t n);

/// The support-mask revision sweep shape: how many of `num_rows` rows
/// (each `row_words` words, laid out contiguously) share no set bit with
/// `valid` — the scalar twin of ConstraintSupport::CollectUnsupported.
int64_t CountUnsupported(const uint64_t* valid, const uint64_t* rows,
                         std::size_t row_words, std::size_t num_rows);

}  // namespace cspdb::benchref

#endif  // CSPDB_BENCH_SIMD_SCALAR_REF_H_
