// Internal glue between the GEMM registry (gemm.cpp) and the ISA-specific
// backend translation units. Not part of the public util/gemm.h API.

#pragma once

#include <cstddef>
#include <cstdint>

namespace dtsnn::util {

class GemmBackend;
class QuantizedMatrix;

/// The AVX2 backend instance, or nullptr when the toolchain could not build
/// it (gemm_avx2.cpp compiles its kernels only under DTSNN_HAVE_AVX2, which
/// CMake defines when -mavx2 is supported). Runtime CPUID gating happens
/// separately through GemmBackend::available().
const GemmBackend* avx2_backend_or_null();

/// The AVX-512 backend instance, or nullptr when gemm_avx512.cpp compiled to
/// its stub (toolchain lacks -mavx512f, or -DDTSNN_DISABLE_AVX512=ON forced
/// the fallback build). Same compile-time/runtime split as avx2.
const GemmBackend* avx512_backend_or_null();

/// The quantized-tier backend singletons (gemm_lut.cpp). Always compiled in
/// and available — their kernels are portable scalar/omp-simd code (the LUT
/// accumulate upgrades itself to AVX2 at runtime); what gates their use is
/// calibrated weights, enforced at dispatch time.
const GemmBackend* int8_lut_backend();
const GemmBackend* int4_lut_backend();

namespace internal {

/// Column-block width of the packed B^T scheme shared by the blocked and
/// AVX2 gemm_bt kernels. These helpers encode the bitwise accumulation
/// contract exactly once: eight independent per-column accumulators advance
/// sequentially in ascending-k order, and leftover columns run sequential
/// scalar dots — so all backends built on them agree bit-for-bit. (The
/// AVX-512 kernel widens the column block to 16 lanes; per-column sums stay
/// independent, so the contract is unchanged.)
inline constexpr std::size_t kBtLanes = 8;

/// Pack B^T rows [j0, j0 + kBtLanes) of B[n,k] k-major into
/// packed[k * kBtLanes] so the dot loops run contiguous loads.
void pack_bt_columns(const float* b, std::size_t k, std::size_t j0, float* packed);

/// C[:, j0..n) += A * B^T for the remainder columns: sequential scalar dot
/// per output element (one local accumulator, one add into C).
void gemm_bt_scalar_tail(const float* a, const float* b, float* c, std::size_t m,
                         std::size_t k, std::size_t n, std::size_t j0);

/// Flags returned by LutMaskBuildFn.
inline constexpr unsigned kLutHasBinary = 1u;
inline constexpr unsigned kLutHasGraded = 2u;

/// Build one scale group's chunk masks from `len` consecutive A-row values:
/// bin[t] gets the 4-bit "spiked with value exactly 1.0" mask of chunk t,
/// graded[t] the "spiked with any other value" mask (t over ceil(len / 4)
/// chunks; the last chunk may be narrower and its high bits stay 0). Returns
/// kLutHasBinary / kLutHasGraded ORed for whichever masks are non-zero
/// anywhere — 0 means the group is spike-free. The AVX2 variant classifies 8
/// values per compare+movemask instead of element-by-element, which is where
/// a sparse row's time goes once the accumulate is table-driven.
using LutMaskBuildFn = unsigned (*)(const float* a, std::size_t len,
                                    std::uint8_t* bin, std::uint8_t* graded);

/// int32 accumulate of one scale group's worth of int16 LUT rows:
/// acc[j] += sum over s < count of table[entries[s] * n + j], where each
/// entry is chunk_in_group * kLutMaskCount + mask, pre-compressed to active
/// chunks only so the inner loop is branch-free. `table` points at the
/// group's first chunk block. Batching the whole group into one call lets
/// the AVX2 variant keep the accumulator tile in registers across chunks
/// (one acc read-modify-write per column tile per group instead of per
/// chunk); the integer adds are exact, so every variant and association
/// order is bit-identical.
using LutGroupAccumFn = void (*)(const std::int16_t* table,
                                 const std::uint32_t* entries, std::size_t count,
                                 std::int32_t* acc, std::size_t n);

/// Portable scalar variants (gemm_lut.cpp).
unsigned lut_mask_build_scalar(const float* a, std::size_t len, std::uint8_t* bin,
                               std::uint8_t* graded);
void lut_group_accum_scalar(const std::int16_t* table, const std::uint32_t* entries,
                            std::size_t count, std::int32_t* acc, std::size_t n);

/// The variants the LUT kernels should use: AVX2 when compiled in and the
/// CPU supports it, else the scalar fallbacks (gemm_lut_avx2.cpp).
LutMaskBuildFn lut_mask_build_fn();
LutGroupAccumFn lut_group_accum_fn();

/// The spike-path quantized kernel (gemm_quant.cpp): the LUT backends'
/// small-batch fallback, and the bitwise reference for their table path
/// (tests and bench/gemm_microbench compare against it directly). bits must
/// be 8 or 4; the caller has already validated shapes and zeroed/kept C
/// (always accumulates).
void qgemm_spike_kernel(int bits, const float* a, const QuantizedMatrix& q,
                        float* c, std::size_t m, std::size_t k, std::size_t n);

}  // namespace internal

}  // namespace dtsnn::util
