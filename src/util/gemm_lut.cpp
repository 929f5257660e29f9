// LUT-accelerated quantized GEMM backends: int8_lut and int4_lut.
//
// Same consumed data as the spike kernel in gemm_quant.cpp
// (util::QuantizedMatrix, k-major packed codes, group-wise symmetric
// scales), but the inner loop is driven by a precomputed spike-mask lookup
// table (util::QuantLut): the k dimension is cut into chunks of
// kLutChunkWidth positions (clipped at scale-group boundaries), each A row's
// chunk becomes a 4-bit mask of "spiked here", and the table directly yields
// the per-output-column sum of the selected integer codes. One table gather
// + one exact int16->int32 accumulate (AVX2-vectorized in
// gemm_lut_avx2.cpp) replaces up to four per-spike unpack-and-add passes —
// and, for INT4, all nibble decoding.
//
// Bitwise identity with the spike kernel holds by construction: group sums
// of integer codes are exact whichever way they are associated, graded
// (non-binary) spikes accumulate v * code into the float side in the same
// ascending-k order, spike-free groups are skipped (never flushed), and the
// per-group dequantize flush is the identical expression. Hence the same
// tolerance-gated identity tier and batch-composition invariance as the
// spike kernel.
//
// Table sourcing per call: a LUT cached on the matrix (ensure_lut, built
// once by the layers) is used directly; otherwise a per-call table is built
// when the batch is large enough to amortize it, and tiny batches fall back
// to the shared spike kernel. All three paths produce identical bits.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/gemm.h"
#include "util/gemm_internal.h"
#include "util/quant.h"

namespace dtsnn::util {

namespace internal {

unsigned lut_mask_build_scalar(const float* a, std::size_t len, std::uint8_t* bin,
                               std::uint8_t* graded) {
  unsigned any_bin = 0, any_graded = 0;
  std::size_t t = 0;
  for (std::size_t kc = 0; kc < len; kc += kLutChunkWidth, ++t) {
    const std::size_t w = std::min(kLutChunkWidth, len - kc);
    unsigned b = 0, g = 0;
    for (std::size_t i = 0; i < w; ++i) {
      const float v = a[kc + i];
      const unsigned nz = v != 0.0f ? 1u : 0u;
      const unsigned is_one = v == 1.0f ? 1u : 0u;
      b |= (nz & is_one) << i;
      g |= (nz & (1u - is_one)) << i;
    }
    bin[t] = static_cast<std::uint8_t>(b);
    graded[t] = static_cast<std::uint8_t>(g);
    any_bin |= b;
    any_graded |= g;
  }
  return (any_bin != 0 ? kLutHasBinary : 0u) |
         (any_graded != 0 ? kLutHasGraded : 0u);
}

void lut_group_accum_scalar(const std::int16_t* table, const std::uint32_t* entries,
                            std::size_t count, std::int32_t* acc, std::size_t n) {
  for (std::size_t s = 0; s < count; ++s) {
    const std::int16_t* row = table + entries[s] * n;
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) acc[j] += row[j];
  }
}

}  // namespace internal

namespace {

const GemmBackend& blocked_backend() {
  static const GemmBackend& backend = *find_gemm_backend("blocked_omp");
  return backend;
}

/// Below this many A rows a per-call table build costs more than it saves;
/// the spike kernel runs instead (bit-identical either way).
constexpr std::size_t kLutLocalBuildMinRows = 8;

void qgemm_lut_kernel(const float* a, const QuantizedMatrix& q, const QuantLut& lut,
                      float* c, std::size_t m, std::size_t k, std::size_t n) {
  const std::size_t gs = q.group_size();
  const float* scales = q.scales().data();
  const std::int16_t* table = lut.table.data();
  const internal::LutMaskBuildFn mask_build = internal::lut_mask_build_fn();
  const internal::LutGroupAccumFn group_accum = internal::lut_group_accum_fn();
  // Chunks per group (the last group may be shorter; its mask slots are
  // simply left zero).
  const std::size_t group_span = std::min(gs, k);
  const std::size_t chunks_per_group =
      (group_span + kLutChunkWidth - 1) / kLutChunkWidth;
#pragma omp parallel
  {
    std::vector<std::int32_t> iacc(n);
    std::vector<float> facc(n);
    // Per-group chunk masks: binary spikes (served by one table gather per
    // chunk) and graded spikes (float fallback), plus the compressed list
    // of active binary entries handed to the accumulate.
    std::vector<std::uint8_t> bin_masks(chunks_per_group);
    std::vector<std::uint8_t> graded_masks(chunks_per_group);
    std::vector<std::uint32_t> entries(chunks_per_group);
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      // Chunk enumeration mirrors build_spike_lut exactly: ascending groups,
      // ascending chunks within a group, chunks clipped at group edges.
      std::size_t chunk = 0;
      for (std::size_t g = 0; g * gs < k; ++g) {
        const std::size_t k0 = g * gs;
        const std::size_t k1 = std::min(k0 + gs, k);
        const std::size_t group_chunks =
            (k1 - k0 + kLutChunkWidth - 1) / kLutChunkWidth;
        // Pass 1: vectorized spike classification into per-chunk masks.
        const unsigned have =
            mask_build(arow + k0, k1 - k0, bin_masks.data(), graded_masks.data());
        if (have == 0) {
          // Spike-free group: never flushed, exactly like the spike kernel.
          chunk += group_chunks;
          continue;
        }
        const std::int16_t* base = table + chunk * kLutMaskCount * n;
        chunk += group_chunks;
        // Pass 2: integer accumulate — compress to active chunks, then one
        // call per group, so the vectorized accumulator tile stays in
        // registers across chunks. Integer sums are exact in any
        // association order.
        std::fill(iacc.begin(), iacc.end(), 0);
        if ((have & internal::kLutHasBinary) != 0) {
          std::size_t count = 0;
          for (std::size_t t = 0; t < group_chunks; ++t) {
            entries[count] =
                static_cast<std::uint32_t>(t * kLutMaskCount + bin_masks[t]);
            count += bin_masks[t] != 0 ? 1 : 0;
          }
          group_accum(base, entries.data(), count, iacc.data(), n);
        }
        // Pass 3 (rare): graded spikes accumulate v * code into the float
        // side in ascending-k order — the spike kernel's order. Single-bit
        // table rows are exactly the decoded code rows.
        const bool any_graded = (have & internal::kLutHasGraded) != 0;
        if (any_graded) {
          std::fill(facc.begin(), facc.end(), 0.0f);
          for (std::size_t tc = 0; tc < group_chunks; ++tc) {
            const unsigned gmask = graded_masks[tc];
            if (gmask == 0) continue;
            for (std::size_t b = 0; b < kLutChunkWidth; ++b) {
              if ((gmask & (1u << b)) == 0) continue;
              const float v = arow[k0 + tc * kLutChunkWidth + b];
              const std::int16_t* row =
                  base + (tc * kLutMaskCount + (std::size_t{1} << b)) * n;
#pragma omp simd
              for (std::size_t j = 0; j < n; ++j) {
                facc[j] += v * static_cast<float>(row[j]);
              }
            }
          }
        }
        const float* srow = scales + g * n;
        if (any_graded) {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] += (static_cast<float>(iacc[j]) + facc[j]) * srow[j];
          }
        } else {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) {
            crow[j] += static_cast<float>(iacc[j]) * srow[j];
          }
        }
      }
    }
  }
}

template <int kBits>
class QuantLutBackend final : public QuantizedGemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return kBits == 8 ? "int8_lut" : "int4_lut";
  }
  [[nodiscard]] int weight_bits() const override { return kBits; }

 protected:
  void do_qgemm(const float* a, const QuantizedMatrix& q, float* c, std::size_t m,
                std::size_t k, std::size_t n) const override {
    if (q.has_lut()) {
      qgemm_lut_kernel(a, q, q.lut(), c, m, k, n);
    } else if (m >= kLutLocalBuildMinRows) {
      const QuantLut local = build_spike_lut(q);
      qgemm_lut_kernel(a, q, local, c, m, k, n);
    } else {
      internal::qgemm_spike_kernel(kBits, a, q, c, m, k, n);
    }
  }

  // Float ops (training, non-weight GEMMs) have nothing to quantize;
  // delegate to the blocked kernels, which keep the bitwise contract.
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
    blocked_backend().gemm(a, b, c, m, k, n, /*accumulate=*/true);
  }
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_backend().gemm_at(a, b, c, m, k, n, /*accumulate=*/true);
  }
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_backend().gemm_bt(a, b, c, m, k, n, /*accumulate=*/true);
  }
};

}  // namespace

const GemmBackend* int8_lut_backend() {
  static const QuantLutBackend<8> backend;
  return &backend;
}

const GemmBackend* int4_lut_backend() {
  static const QuantLutBackend<4> backend;
  return &backend;
}

}  // namespace dtsnn::util
