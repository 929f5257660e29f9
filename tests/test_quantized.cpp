// Tests for the quantized GEMM tier: INT8/INT4 packing, the spike qgemm
// kernels, loud typed failures, checkpointing of calibrated state, the
// per-preset tolerance gate, and quantized serving.
//
// The quantized backends are tolerance-gated, not bitwise (util/gemm.h):
// comparisons against float references here go through EXPECT_NEAR bounds or
// core::compare_decisions — never a bitwise float EXPECT_EQ against the
// scalar reference (enforced by the quant-bitwise-oracle lint rule).

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "core/inference.h"
#include "core/quantize.h"
#include "serve/fleet.h"
#include "snn/models.h"
#include "snn/network.h"
#include "snn/quantize.h"
#include "snn/serialize.h"
#include "util/gemm.h"
#include "util/gemm_internal.h"
#include "util/quant.h"
#include "util/rng.h"

namespace dtsnn {
namespace {

core::Experiment micro_experiment(const std::string& dataset, std::size_t timesteps) {
  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  return run_experiment(spec);
}

/// Slightly-trained model for the tolerance-gate test: enough epochs/data
/// that decisions carry real margins (a 1-epoch micro model is near chance
/// and flips on any perturbation), still seconds to train per preset.
core::Experiment gate_experiment(const std::string& dataset, std::size_t timesteps) {
  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 4;
  spec.timesteps = timesteps;
  spec.data_scale = 0.1;
  spec.loss = core::LossKind::kPerTimestep;
  return run_experiment(spec);
}

std::vector<float> random_weights(std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> w(count);
  for (float& v : w) v = static_cast<float>(rng.gaussian(0.0, 0.5));
  return w;
}

/// Binary spike matrix with the requested ones-density, plus optional graded
/// (non-binary) entries exercising the kernels' float fallback path.
std::vector<float> spike_matrix(std::size_t count, double density, double graded_share,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> a(count, 0.0f);
  for (float& v : a) {
    if (!rng.bernoulli(density)) continue;
    v = rng.bernoulli(graded_share) ? static_cast<float>(rng.uniform(0.2, 0.8)) : 1.0f;
  }
  return a;
}

/// What the quantized kernels effectively compute: A against the dequantized
/// weights, in plain float arithmetic. The kernels' integer-accumulate /
/// group-flush ordering differs, hence EXPECT_NEAR at the call sites.
std::vector<float> dequantized_product(const std::vector<float>& a,
                                       const util::QuantizedMatrix& q, std::size_t m,
                                       std::size_t k, std::size_t n) {
  std::vector<float> c(m * n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = a[i * k + kk];
      if (aval == 0.0f) continue;
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += aval * q.dequantized(j, kk);
      }
    }
  }
  return c;
}

const util::QuantizedGemmBackend& quant_backend(const char* name) {
  const util::QuantizedGemmBackend* qb =
      util::as_quantized_backend(util::find_gemm_backend(name));
  EXPECT_NE(qb, nullptr) << name;
  return *qb;
}

/// Test-local quantized backend over the spike kernel
/// (util::internal::qgemm_spike_kernel), the LUT backends' bitwise
/// reference. It runs through the same QuantizedGemmBackend wrapper (shape
/// and bit-width checks, C zeroing) as the registered tier and, like it,
/// delegates the float ops to blocked_omp.
template <int kBits>
class SpikeKernelBackend final : public util::QuantizedGemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override {
    return kBits == 8 ? "int8_spike_kernel" : "int4_spike_kernel";
  }
  [[nodiscard]] int weight_bits() const override { return kBits; }

 protected:
  void do_qgemm(const float* a, const util::QuantizedMatrix& q, float* c, std::size_t m,
                std::size_t k, std::size_t n) const override {
    util::internal::qgemm_spike_kernel(kBits, a, q, c, m, k, n);
  }
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
    blocked().gemm(a, b, c, m, k, n, /*accumulate=*/true);
  }
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked().gemm_at(a, b, c, m, k, n, /*accumulate=*/true);
  }
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked().gemm_bt(a, b, c, m, k, n, /*accumulate=*/true);
  }

 private:
  static const util::GemmBackend& blocked() {
    return *util::find_gemm_backend("blocked_omp");
  }
};

const SpikeKernelBackend<8> kInt8SpikeKernel;
const SpikeKernelBackend<4> kInt4SpikeKernel;

/// Every quantized kernel under test: the spike kernel at both widths and
/// the registered LUT backends.
std::vector<const util::QuantizedGemmBackend*> quant_kernels() {
  return {&kInt8SpikeKernel, &kInt4SpikeKernel, &quant_backend("int8_lut"),
          &quant_backend("int4_lut")};
}

/// The network's quantizable layers, in visit order.
std::vector<snn::QuantizedWeightHolder*> quant_holders(snn::SpikingNetwork& net) {
  std::vector<snn::QuantizedWeightHolder*> holders;
  net.visit([&](snn::Layer& layer) {
    if (auto* holder = dynamic_cast<snn::QuantizedWeightHolder*>(&layer)) {
      holders.push_back(holder);
    }
  });
  return holders;
}

// ------------------------------------------------------------ spec & packing

TEST(QuantSpec, ValidatesAndResolvesGroupSize) {
  EXPECT_NO_THROW((util::QuantSpec{.bits = 8}.validate()));
  EXPECT_NO_THROW((util::QuantSpec{.bits = 4}.validate()));
  try {
    util::QuantSpec{.bits = 5}.validate();
    FAIL() << "bits=5 must be rejected";
  } catch (const util::QuantizationError& err) {
    EXPECT_EQ(err.kind(), util::QuantizationError::Kind::kBadSpec);
  }

  EXPECT_EQ((util::QuantSpec{.bits = 8}.resolved_group_size()), 64u);
  EXPECT_EQ((util::QuantSpec{.bits = 4}.resolved_group_size()), 32u);
  EXPECT_EQ((util::QuantSpec{.bits = 8, .group_size = 16}.resolved_group_size()), 16u);

  // The env knob overrides the per-width default but not an explicit size.
  ASSERT_EQ(setenv("DTSNN_QUANT_GROUP_SIZE", "48", 1), 0);
  EXPECT_EQ((util::QuantSpec{.bits = 8}.resolved_group_size()), 48u);
  EXPECT_EQ((util::QuantSpec{.bits = 4, .group_size = 8}.resolved_group_size()), 8u);
  ASSERT_EQ(unsetenv("DTSNN_QUANT_GROUP_SIZE"), 0);
  EXPECT_EQ((util::QuantSpec{.bits = 8}.resolved_group_size()), 64u);
}

TEST(QuantizedMatrix, Int8RoundTripWithinHalfScale) {
  const std::size_t out = 6, in = 10;
  const std::vector<float> w = random_weights(out * in, 101);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 8, .group_size = 4});
  EXPECT_EQ(q.bits(), 8);
  EXPECT_EQ(q.group_size(), 4u);
  EXPECT_EQ(q.num_groups(), 3u);  // ceil(10 / 4)
  EXPECT_EQ(q.row_stride(), out);
  EXPECT_EQ(q.packed_bytes(), out * in);
  EXPECT_EQ(q.float_bytes(), out * in * sizeof(float));

  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t kk = 0; kk < in; ++kk) {
      const int code = q.q(j, kk);
      EXPECT_GE(code, -127);
      EXPECT_LE(code, 127);
      // Symmetric rounding: reconstruction lands within half a scale step.
      const float step = q.scale(j, kk / q.group_size());
      EXPECT_NEAR(q.dequantized(j, kk), w[j * in + kk], 0.5f * step + 1e-6f)
          << "j=" << j << " kk=" << kk;
    }
  }
}

TEST(QuantizedMatrix, GroupScalesAreMaxabsOverQmax) {
  const std::size_t out = 3, in = 8, gs = 4;
  const std::vector<float> w = random_weights(out * in, 102);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 4, .group_size = gs});
  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t g = 0; g < q.num_groups(); ++g) {
      float maxabs = 0.0f;
      for (std::size_t kk = g * gs; kk < std::min(in, (g + 1) * gs); ++kk) {
        maxabs = std::max(maxabs, std::abs(w[j * in + kk]));
      }
      EXPECT_FLOAT_EQ(q.scale(j, g), maxabs / 7.0f) << "j=" << j << " g=" << g;
    }
  }
}

TEST(QuantizedMatrix, Int4PackingRoundTripOddOutDim) {
  // Odd out dim: the last packed byte of every k-row carries a single low
  // nibble; decode must still reproduce every code exactly.
  const std::size_t out = 5, in = 7;
  const std::vector<float> w = random_weights(out * in, 103);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 4, .group_size = 3});
  EXPECT_EQ(q.row_stride(), 3u);  // ceil(5 / 2)
  EXPECT_EQ(q.packed_bytes(), in * 3u);
  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t kk = 0; kk < in; ++kk) {
      const int code = q.q(j, kk);
      EXPECT_GE(code, -7);
      EXPECT_LE(code, 7);
      const float step = q.scale(j, kk / q.group_size());
      EXPECT_NEAR(q.dequantized(j, kk), w[j * in + kk], 0.5f * step + 1e-6f)
          << "j=" << j << " kk=" << kk;
    }
  }
}

TEST(QuantizedMatrix, Int4OffsetBinaryNibbleLayout) {
  // w = {0.7, -0.7}: scale 0.1, codes +7 / -7, stored offset-binary as
  // 15 (low nibble, j=0) and 1 (high nibble, j=1) in one byte.
  const std::vector<float> w{0.7f, -0.7f};
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), 2, 1, {.bits = 4});
  ASSERT_EQ(q.packed_bytes(), 1u);
  EXPECT_EQ(q.packed()[0], 0x1F);
  EXPECT_EQ(q.q(0, 0), 7);
  EXPECT_EQ(q.q(1, 0), -7);
}

TEST(QuantizedMatrix, AllZeroGroupGetsZeroScaleAndCodes) {
  std::vector<float> w(4 * 8, 0.0f);
  w[0 * 8 + 6] = 1.0f;  // only the second group of row 0 is nonzero
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), 4, 8, {.bits = 8, .group_size = 4});
  EXPECT_FLOAT_EQ(q.scale(0, 0), 0.0f);
  EXPECT_GT(q.scale(0, 1), 0.0f);
  for (std::size_t kk = 0; kk < 4; ++kk) EXPECT_EQ(q.q(0, kk), 0);
  EXPECT_EQ(q.q(0, 6), 127);
  EXPECT_FLOAT_EQ(q.dequantized(0, 6), 1.0f);
}

TEST(QuantizedMatrix, FromRawRejectsCorruptSections) {
  const std::size_t out = 4, in = 4;
  const std::vector<float> w = random_weights(out * in, 104);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 8, .group_size = 4});
  std::vector<std::uint8_t> packed(q.packed().begin(), q.packed().end());
  std::vector<float> scales(q.scales().begin(), q.scales().end());

  // Intact sections round-trip.
  const util::QuantizedMatrix rebuilt =
      util::QuantizedMatrix::from_raw(out, in, 8, 4, packed, scales);
  EXPECT_EQ(rebuilt.packed_bytes(), q.packed_bytes());
  for (std::size_t j = 0; j < out; ++j) {
    for (std::size_t kk = 0; kk < in; ++kk) EXPECT_EQ(rebuilt.q(j, kk), q.q(j, kk));
  }

  const auto expect_bad = [&](std::size_t o, std::size_t i, int bits, std::size_t gs,
                              std::vector<std::uint8_t> p, std::vector<float> s) {
    try {
      util::QuantizedMatrix::from_raw(o, i, bits, gs, std::move(p), std::move(s));
      FAIL() << "corrupt section must be rejected";
    } catch (const util::QuantizationError& err) {
      EXPECT_EQ(err.kind(), util::QuantizationError::Kind::kBadCheckpoint);
    }
  };
  auto short_packed = packed;
  short_packed.pop_back();
  expect_bad(out, in, 8, 4, short_packed, scales);
  auto long_scales = scales;
  long_scales.push_back(1.0f);
  expect_bad(out, in, 8, 4, packed, long_scales);
  expect_bad(out, in, 3, 4, packed, scales);   // unsupported width
  expect_bad(out, in, 8, 0, packed, scales);   // zero group size
}

// ---------------------------------------------------------------- LUT tables

TEST(QuantLut, BuildTablesAreExactCodeSums) {
  // Odd group size (5): each group splits into one width-4 chunk plus one
  // clipped width-1 chunk, and the last group is short — the table must clip
  // at group boundaries and never sum codes across groups.
  const std::size_t out = 5, in = 13, gs = 5;
  const std::vector<float> w = random_weights(out * in, 201);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 4, .group_size = gs});
  const util::QuantLut lut = util::build_spike_lut(q);
  // Groups cover k-ranges [0,5) [5,10) [10,13): chunk widths 4,1 / 4,1 / 3.
  ASSERT_EQ(lut.chunks, 5u);
  ASSERT_EQ(lut.out, out);
  ASSERT_EQ(lut.table.size(), lut.chunks * util::kLutMaskCount * out);
  EXPECT_EQ(lut.bytes(), lut.table.size() * sizeof(std::int16_t));

  // Reconstruct every entry the slow way from the decoded codes. Mask bits
  // past a clipped chunk's width select nothing by construction.
  std::size_t chunk = 0;
  for (std::size_t g = 0; g < q.num_groups(); ++g) {
    const std::size_t k0 = g * gs, k1 = std::min(k0 + gs, in);
    for (std::size_t kc = k0; kc < k1; kc += util::kLutChunkWidth, ++chunk) {
      const std::size_t width = std::min(util::kLutChunkWidth, k1 - kc);
      for (std::size_t mask = 0; mask < util::kLutMaskCount; ++mask) {
        for (std::size_t j = 0; j < out; ++j) {
          int expected = 0;
          for (std::size_t b = 0; b < width; ++b) {
            if ((mask & (std::size_t{1} << b)) != 0) expected += q.q(j, kc + b);
          }
          EXPECT_EQ(lut.table[(chunk * util::kLutMaskCount + mask) * out + j], expected)
              << "chunk " << chunk << " mask " << mask << " j " << j;
        }
      }
    }
  }
  EXPECT_EQ(chunk, lut.chunks);
}

TEST(QuantLut, EnsureLutCachesOnceAndSkipsEmpty) {
  const std::size_t out = 4, in = 20;
  const std::vector<float> w = random_weights(out * in, 202);
  util::QuantizedMatrix q = util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 8});
  EXPECT_FALSE(q.has_lut());
  q.ensure_lut();
  ASSERT_TRUE(q.has_lut());
  EXPECT_FALSE(q.lut().empty());
  const std::int16_t* table = q.lut().table.data();
  q.ensure_lut();  // idempotent: the cached table is not rebuilt
  EXPECT_EQ(q.lut().table.data(), table);
  // Uncalibrated matrices stay LUT-less (nothing to tabulate).
  util::QuantizedMatrix uncalibrated;
  uncalibrated.ensure_lut();
  EXPECT_FALSE(uncalibrated.has_lut());
}

/// The cached table is counted in the resident footprint — 16 int16 entries
/// per 4 k positions per column, i.e. twice the float weights — and copies
/// share it instead of duplicating it.
TEST(QuantLut, CachedTableIsCountedAndSharedByCopies) {
  const std::size_t out = 6, in = 64;
  const std::vector<float> w = random_weights(out * in, 203);
  util::QuantizedMatrix q = util::QuantizedMatrix::quantize(w.data(), out, in, {.bits = 8});
  const util::QuantizedMatrix before = q;
  EXPECT_EQ(q.lut_bytes(), 0u);
  EXPECT_EQ(q.footprint_bytes(), q.packed_bytes() + q.scale_bytes());

  q.ensure_lut();
  EXPECT_EQ(q.lut_bytes(), (in / util::kLutChunkWidth) * util::kLutMaskCount * out *
                               sizeof(std::int16_t));
  EXPECT_EQ(q.lut_bytes(), 2 * q.float_bytes());
  EXPECT_EQ(q.footprint_bytes(), q.packed_bytes() + q.scale_bytes() + q.lut_bytes());
  EXPECT_GT(q.footprint_bytes(), q.float_bytes());

  const util::QuantizedMatrix copy = q;
  ASSERT_TRUE(copy.has_lut());
  EXPECT_EQ(copy.lut().table.data(), q.lut().table.data());
  EXPECT_FALSE(before.has_lut());  // a copy taken earlier does not gain it
}

// ------------------------------------------------------------------- kernels

TEST(QuantGemm, MatchesDequantizedProductBinarySpikes) {
  const std::size_t m = 9, k = 70, n = 13;  // spans multiple groups, odd n
  const std::vector<float> w = random_weights(n * k, 105);
  const std::vector<float> a = spike_matrix(m * k, 0.3, 0.0, 106);
  for (const util::QuantizedGemmBackend* kernel : quant_kernels()) {
    const util::QuantizedGemmBackend& qb = *kernel;
    const std::string name(qb.name());
    const util::QuantizedMatrix q =
        util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = qb.weight_bits()});
    const std::vector<float> expected = dequantized_product(a, q, m, k, n);
    std::vector<float> c(m * n, -1.0f);  // must be overwritten, not accumulated
    qb.qgemm(a.data(), q, c.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], expected[i], 1e-4f * (1.0f + std::abs(expected[i])))
          << name << " elem " << i;
    }
  }
}

TEST(QuantGemm, GradedSpikesTakeFloatFallback) {
  const std::size_t m = 5, k = 40, n = 8;
  const std::vector<float> w = random_weights(n * k, 107);
  const std::vector<float> a = spike_matrix(m * k, 0.5, 0.5, 108);
  for (const util::QuantizedGemmBackend* kernel : quant_kernels()) {
    const util::QuantizedGemmBackend& qb = *kernel;
    const std::string name(qb.name());
    const util::QuantizedMatrix q =
        util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = qb.weight_bits()});
    const std::vector<float> expected = dequantized_product(a, q, m, k, n);
    std::vector<float> c(m * n, 0.0f);
    qb.qgemm(a.data(), q, c.data(), m, k, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], expected[i], 1e-4f * (1.0f + std::abs(expected[i])))
          << name << " elem " << i;
    }
    // accumulate=true adds on top instead of overwriting.
    qb.qgemm(a.data(), q, c.data(), m, k, n, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(c[i], 2.0f * expected[i], 2e-4f * (1.0f + std::abs(expected[i])))
          << name << " elem " << i;
    }
  }
}

TEST(QuantGemm, BatchCompositionInvariant) {
  // Row i of a batched qgemm is bitwise the same as running row i alone —
  // the property that makes served quantized decisions independent of pool
  // composition.
  const std::size_t m = 6, k = 96, n = 10;
  const std::vector<float> w = random_weights(n * k, 109);
  const std::vector<float> a = spike_matrix(m * k, 0.4, 0.2, 110);
  for (const util::QuantizedGemmBackend* kernel : quant_kernels()) {
    const util::QuantizedGemmBackend& qb = *kernel;
    const std::string name(qb.name());
    util::QuantizedMatrix q =
        util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = qb.weight_bits()});
    // Exercise the real cached-table path for the LUT backends (these small
    // batches would otherwise take their spike-kernel fallback).
    q.ensure_lut();
    std::vector<float> batched(m * n);
    qb.qgemm(a.data(), q, batched.data(), m, k, n);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<float> solo(n);
      qb.qgemm(a.data() + i * k, q, solo.data(), 1, k, n);
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(solo[j], batched[i * n + j]) << name << " row " << i << " col " << j;
      }
    }
  }
}

TEST(QuantGemm, DegenerateShapes) {
  const std::size_t k = 12, n = 6;
  const std::vector<float> w = random_weights(n * k, 111);
  const std::vector<float> a = spike_matrix(2 * k, 0.5, 0.0, 112);
  for (const util::QuantizedGemmBackend* kernel : quant_kernels()) {
    const util::QuantizedGemmBackend& qb = *kernel;
    const std::string name(qb.name());
    const util::QuantizedMatrix q =
        util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = qb.weight_bits()});

    // m == 0: no output, kernel never entered.
    std::vector<float> empty_c;
    EXPECT_NO_THROW(qb.qgemm(nullptr, q, empty_c.data(), 0, k, n)) << name;

    // k == 0 and n == 0 with a default (uncalibrated) matrix.
    std::vector<float> untouched(4, 7.0f);
    EXPECT_NO_THROW(qb.qgemm(a.data(), util::QuantizedMatrix{}, untouched.data(), 2, 0, 0))
        << name;
    for (const float v : untouched) EXPECT_FLOAT_EQ(v, 7.0f) << name;

    // k == 0 with real output dims: C is zeroed (or preserved when
    // accumulating), matching the float ops' degenerate contract.
    const util::QuantizedMatrix q0 =
        util::QuantizedMatrix::quantize(nullptr, n, 0, {.bits = qb.weight_bits()});
    std::vector<float> c(2 * n, 3.0f);
    EXPECT_NO_THROW(qb.qgemm(a.data(), q0, c.data(), 2, 0, n)) << name;
    for (const float v : c) EXPECT_FLOAT_EQ(v, 0.0f) << name;
    std::vector<float> acc(2 * n, 3.0f);
    EXPECT_NO_THROW(qb.qgemm(a.data(), q0, acc.data(), 2, 0, n, /*accumulate=*/true))
        << name;
    for (const float v : acc) EXPECT_FLOAT_EQ(v, 3.0f) << name;
  }
}

/// The LUT backends' defining property: bit-for-bit the same output as the
/// spike kernel (util::internal::qgemm_spike_kernel) at the same width —
/// integer group sums are exact, and the graded-spike / flush float ordering
/// is unchanged — across spike mixes, awkward group sizes (chunk clipping),
/// and all three table-sourcing paths: cached LUT, per-call build (large
/// batches), and spike-kernel fallback (small batches without a cached
/// table).
TEST(QuantGemm, LutBitwiseMatchesSpikeBackends) {
  const std::size_t k = 70, n = 13;
  const std::vector<float> w = random_weights(n * k, 203);
  struct Mix {
    double density, graded;
  };
  for (const char* lut_name : {"int8_lut", "int4_lut"}) {
    const util::QuantizedGemmBackend& lb = quant_backend(lut_name);
    const int bits = lb.weight_bits();
    for (const std::size_t gs : {std::size_t{2}, std::size_t{5}, std::size_t{32}}) {
      util::QuantizedMatrix q = util::QuantizedMatrix::quantize(
          w.data(), n, k, {.bits = lb.weight_bits(), .group_size = gs});
      const auto expect_bitwise_match = [&](const char* path) {
        for (const Mix mix :
             {Mix{0.1, 0.0}, Mix{0.3, 0.5}, Mix{1.0, 1.0}, Mix{0.0, 0.0}}) {
          // m = 16 crosses the per-call table-build threshold; m = 3 stays
          // below it (spike fallback unless a cached LUT exists).
          for (const std::size_t m : {std::size_t{16}, std::size_t{3}}) {
            const std::vector<float> a = spike_matrix(
                m * k, mix.density, mix.graded,
                205 + m * 17 + gs + static_cast<std::size_t>(mix.density * 10));
            // The kernel always accumulates: start its C from zero, as the
            // backends' non-accumulating qgemm does.
            std::vector<float> via_lut(m * n, -1.0f), via_spike(m * n, 0.0f);
            lb.qgemm(a.data(), q, via_lut.data(), m, k, n);
            util::internal::qgemm_spike_kernel(bits, a.data(), q, via_spike.data(), m, k,
                                               n);
            EXPECT_EQ(via_lut, via_spike)
                << lut_name << " " << path << " gs=" << gs << " m=" << m
                << " density=" << mix.density << " graded=" << mix.graded;
            // And with accumulation on top of an existing C.
            lb.qgemm(a.data(), q, via_lut.data(), m, k, n, /*accumulate=*/true);
            util::internal::qgemm_spike_kernel(bits, a.data(), q, via_spike.data(), m, k,
                                               n);
            EXPECT_EQ(via_lut, via_spike)
                << lut_name << " " << path << " accumulate gs=" << gs << " m=" << m;
          }
        }
      };
      expect_bitwise_match("uncached");
      q.ensure_lut();
      expect_bitwise_match("cached");
    }
  }
}

TEST(QuantGemm, LoudTypedErrors) {
  const std::size_t m = 2, k = 8, n = 4;
  const std::vector<float> w = random_weights(n * k, 113);
  const std::vector<float> a = spike_matrix(m * k, 0.5, 0.0, 114);
  std::vector<float> c(m * n);
  const util::QuantizedGemmBackend& int8 = quant_backend("int8_lut");

  const auto expect_kind = [](util::QuantizationError::Kind want, auto&& fn) {
    try {
      fn();
      FAIL() << "expected QuantizationError";
    } catch (const util::QuantizationError& err) {
      EXPECT_EQ(err.kind(), want) << err.what();
    }
  };

  // INT4 weights into the INT8 backend.
  const util::QuantizedMatrix q4 =
      util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = 4});
  expect_kind(util::QuantizationError::Kind::kBitsMismatch,
              [&] { int8.qgemm(a.data(), q4, c.data(), m, k, n); });

  // Dims disagreeing with the op.
  const util::QuantizedMatrix q8 =
      util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = 8});
  expect_kind(util::QuantizationError::Kind::kShapeMismatch,
              [&] { int8.qgemm(a.data(), q8, c.data(), m, k + 1, n); });

  // qgemm through a context whose backend is a float backend.
  util::GemmContext blocked(*util::find_gemm_backend("blocked_omp"));
  expect_kind(util::QuantizationError::Kind::kNotQuantized,
              [&] { blocked.qgemm(a.data(), q8, c.data(), m, k, n); });
}

TEST(QuantGemm, ContextRecordsQuantOpStats) {
  const std::size_t m = 3, k = 16, n = 5;
  const std::vector<float> w = random_weights(n * k, 115);
  const std::vector<float> a = spike_matrix(m * k, 0.5, 0.0, 116);
  const util::QuantizedMatrix q =
      util::QuantizedMatrix::quantize(w.data(), n, k, {.bits = 8});
  std::vector<float> c(m * n);

  util::GemmContext ctx(quant_backend("int8_lut"));
  ctx.qgemm(a.data(), q, c.data(), m, k, n);
  const util::GemmStats stats = ctx.stats();
  EXPECT_EQ(stats.quant.calls, 1u);
  EXPECT_EQ(stats.quant.flops, 2.0 * m * k * n);  // dense-equivalent FLOPs
  EXPECT_EQ(stats.calls(), 1u);
  EXPECT_GT(stats.quant.a_elements, 0.0);
}

// ----------------------------------------------------- network-level errors

TEST(QuantNetwork, UncalibratedAndMismatchedDispatchFailLoudly) {
  core::Experiment e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);
  const core::InferenceRequest request = core::InferenceRequest::first_n(2);
  core::BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/2);

  // Forcing a quantized backend on an uncalibrated network: the loud typed
  // failure a mis-set DTSNN_GEMM_BACKEND produces.
  util::GemmContext int8_ctx(quant_backend("int8_lut"));
  e.net.set_gemm_context(&int8_ctx);
  try {
    engine.run(*e.bundle.test, request);
    FAIL() << "uncalibrated network must be rejected";
  } catch (const util::QuantizationError& err) {
    EXPECT_EQ(err.kind(), util::QuantizationError::Kind::kUncalibrated);
    EXPECT_NE(std::string(err.what()).find("DTSNN_GEMM_BACKEND"), std::string::npos)
        << err.what();
  }

  // Calibrated at 4 bits but dispatched through the 8-bit backend.
  ASSERT_GT(snn::quantize_network_weights(e.net, {.bits = 4}), 0u);
  EXPECT_EQ(snn::network_quantized_bits(e.net), 4);
  try {
    engine.run(*e.bundle.test, request);
    FAIL() << "bit-width mismatch must be rejected";
  } catch (const util::QuantizationError& err) {
    EXPECT_EQ(err.kind(), util::QuantizationError::Kind::kBitsMismatch);
  }

  // Matching width runs.
  util::GemmContext int4_ctx(quant_backend("int4_lut"));
  e.net.set_gemm_context(&int4_ctx);
  EXPECT_NO_THROW(engine.run(*e.bundle.test, request));

  // Clearing drops back to the uncalibrated refusal.
  snn::clear_network_quantized_weights(e.net);
  EXPECT_EQ(snn::network_quantized_bits(e.net), 0);
  EXPECT_THROW(engine.run(*e.bundle.test, request), util::QuantizationError);
  e.net.set_gemm_context(nullptr);
}

/// End-to-end: dispatching a calibrated network through int4_lut produces
/// decisions — predictions, exit timesteps, entropies, full logit
/// trajectories — identical to the spike kernel it accelerates (the LUT tier
/// is a pure speedup, bitwise-equal to it). Also pins the layer-side hook:
/// every quantized dispatch builds the layer's cached weight LUT.
TEST(QuantNetwork, LutBackendDecisionsMatchSpikeBackend) {
  core::Experiment e = micro_experiment("sync10", 3);
  ASSERT_GT(snn::quantize_network_weights(e.net, {.bits = 4}), 0u);
  const auto lut_layers = [&] {
    std::size_t quantized = 0, cached = 0;
    e.net.visit([&](snn::Layer& layer) {
      if (const auto* holder = dynamic_cast<snn::QuantizedWeightHolder*>(&layer)) {
        quantized += holder->quantized_weights().empty() ? 0 : 1;
        cached += holder->quantized_weights().has_lut() ? 1 : 0;
      }
    });
    return std::pair{quantized, cached};
  };
  EXPECT_EQ(lut_layers().second, 0u);  // calibration alone builds no tables
  const core::EntropyExitPolicy policy(0.35);
  core::InferenceRequest request = core::InferenceRequest::first_n(
      std::min<std::size_t>(16, e.bundle.test->size()));
  request.record_logits = true;
  core::BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/4);

  util::GemmContext spike_ctx(kInt4SpikeKernel);
  e.net.set_gemm_context(&spike_ctx);
  const auto via_spike = engine.run(*e.bundle.test, request);

  util::GemmContext lut_ctx(quant_backend("int4_lut"));
  e.net.set_gemm_context(&lut_ctx);
  const auto via_lut = engine.run(*e.bundle.test, request);
  e.net.set_gemm_context(nullptr);

  ASSERT_EQ(via_lut.size(), via_spike.size());
  for (std::size_t i = 0; i < via_lut.size(); ++i) {
    EXPECT_EQ(via_lut[i].predicted_class, via_spike[i].predicted_class) << i;
    EXPECT_EQ(via_lut[i].exit_timestep, via_spike[i].exit_timestep) << i;
    EXPECT_EQ(via_lut[i].final_entropy, via_spike[i].final_entropy) << i;
    ASSERT_EQ(via_lut[i].timestep_logits.numel(), via_spike[i].timestep_logits.numel())
        << i;
    for (std::size_t j = 0; j < via_lut[i].timestep_logits.numel(); ++j) {
      ASSERT_EQ(via_lut[i].timestep_logits[j], via_spike[i].timestep_logits[j])
          << "sample " << i << " logit " << j;
    }
  }
  // The quant-op accounting lands on the LUT context like any other backend.
  EXPECT_GT(lut_ctx.stats().quant.calls, 0u);
  EXPECT_EQ(lut_ctx.stats().quant.calls, spike_ctx.stats().quant.calls);
  // Every quantized layer now holds its cached table.
  const auto [quantized, cached] = lut_layers();
  EXPECT_GT(quantized, 0u);
  EXPECT_EQ(cached, quantized);
}

// ------------------------------------------------------------ tolerance gate

TEST(QuantToleranceGate, AllPresetsPoliciesAndWidths) {
  const core::EntropyExitPolicy entropy(0.35);
  const core::MaxProbExitPolicy maxprob(0.5);
  const std::vector<std::pair<const char*, const core::ExitPolicy*>> policies{
      {"entropy", &entropy}, {"maxprob", &maxprob}};
  const std::vector<std::pair<const char*, std::size_t>> presets{
      {"sync10", 3}, {"sync100", 3}, {"syntin", 3}, {"syndvs", 5}};

  for (const auto& [preset, timesteps] : presets) {
    core::Experiment e = gate_experiment(preset, timesteps);
    for (const auto& [policy_name, policy] : policies) {
      for (const int bits : {8, 4}) {
        core::QuantCalibrationConfig config;
        config.spec.bits = bits;
        config.max_samples = 0;  // whole micro test split
        // Flip rate tracks the model's decision margins, not just quantizer
        // precision: these 4-epoch/10%-data models sit at 70-78% accuracy
        // where ~100-sample test splits make one flipped sample ~1.3%. The
        // production gate — INT8 <= 1% on fully trained models — is enforced
        // by bench/gemm_microbench; here the tolerances bound the measured
        // micro-model rates (worst observed: 2.0% INT8, 7.9% INT4, 2.6pp
        // accuracy delta) with ~2x headroom against sampling noise.
        config.flip_rate_tolerance = bits == 8 ? 0.05 : 0.12;
        config.accuracy_delta_tolerance = 0.06;
        const core::QuantCalibrationReport report = core::calibrate_quantized(
            e.net, *e.bundle.test, *policy, timesteps, config);
        const std::string tag = std::string(preset) + "/" + policy_name + "/int" +
                                std::to_string(bits);
        EXPECT_EQ(report.bits, bits) << tag;
        EXPECT_GT(report.layers_quantized, 0u) << tag;
        EXPECT_GT(report.samples, 0u) << tag;
        // The tolerance-gated identity contract, per preset and policy.
        EXPECT_LE(report.diff.prediction_flip_rate, config.flip_rate_tolerance) << tag;
        EXPECT_LE(std::abs(report.accuracy_delta), config.accuracy_delta_tolerance)
            << tag;
        EXPECT_TRUE(report.within_tolerance) << tag;
        // Packed codes: exact 4x / 8x smaller on these even-out models.
        EXPECT_GE(report.footprint_ratio, bits == 8 ? 4.0 : 8.0) << tag;
        EXPECT_GT(report.scale_bytes, 0u) << tag;
        // The quantized run leaves each layer's table cached: at least twice
        // the float weights (more where chunks clip at group edges).
        EXPECT_GE(report.lut_bytes, 2 * report.float_weight_bytes) << tag;
      }
    }
  }
}

// -------------------------------------------------------------- checkpoints

TEST(QuantCheckpoint, RoundTripCarriesQuantizedState) {
  core::Experiment e = micro_experiment("sync10", 3);
  ASSERT_GT(snn::quantize_network_weights(e.net, {.bits = 4}), 0u);
  const std::string path = testing::TempDir() + "/dtsnn_quant_ckpt.bin";
  snn::save_checkpoint(e.net, path);

  snn::SpikingNetwork restored = snn::make_model("vgg_micro", snn::ModelConfig{});
  snn::load_checkpoint(restored, path);
  std::filesystem::remove(path);
  EXPECT_EQ(snn::network_quantized_bits(restored), 4);
  const snn::QuantFootprint fa = snn::network_quant_footprint(e.net);
  const snn::QuantFootprint fb = snn::network_quant_footprint(restored);
  EXPECT_EQ(fa.packed_bytes, fb.packed_bytes);
  EXPECT_EQ(fa.scale_bytes, fb.scale_bytes);
  EXPECT_EQ(fa.quantized_layers, fb.quantized_layers);

  // Decisions of the restored net under the quantized tier are identical to
  // the original's (two runs of the same deterministic quantized kernel).
  const core::EntropyExitPolicy policy(0.35);
  const core::InferenceRequest request = core::InferenceRequest::first_n(
      std::min<std::size_t>(16, e.bundle.test->size()));
  util::GemmContext ctx_a(quant_backend("int4_lut"));
  util::GemmContext ctx_b(quant_backend("int4_lut"));
  e.net.set_gemm_context(&ctx_a);
  restored.set_gemm_context(&ctx_b);
  core::BatchedSequentialEngine engine_a(e.net, policy, 3, 4);
  core::BatchedSequentialEngine engine_b(restored, policy, 3, 4);
  const auto results_a = engine_a.run(*e.bundle.test, request);
  const auto results_b = engine_b.run(*e.bundle.test, request);
  ASSERT_EQ(results_a.size(), results_b.size());
  for (std::size_t i = 0; i < results_a.size(); ++i) {
    EXPECT_EQ(results_a[i].predicted_class, results_b[i].predicted_class) << i;
    EXPECT_EQ(results_a[i].exit_timestep, results_b[i].exit_timestep) << i;
    EXPECT_EQ(results_a[i].final_entropy, results_b[i].final_entropy) << i;
  }
  e.net.set_gemm_context(nullptr);
  restored.set_gemm_context(nullptr);
}

TEST(QuantCheckpoint, LoadWithoutQuantSectionClearsState) {
  snn::SpikingNetwork plain = snn::make_model("vgg_micro", snn::ModelConfig{});
  const std::string path = testing::TempDir() + "/dtsnn_quant_clear.bin";
  snn::save_checkpoint(plain, path);

  snn::SpikingNetwork target = snn::make_model("vgg_micro", snn::ModelConfig{});
  ASSERT_GT(snn::quantize_network_weights(target, {.bits = 8}), 0u);
  EXPECT_EQ(snn::network_quantized_bits(target), 8);
  snn::load_checkpoint(target, path);
  std::filesystem::remove(path);
  // A checkpoint carrying no calibrated state leaves none behind.
  EXPECT_EQ(snn::network_quantized_bits(target), 0);
}

TEST(QuantCheckpoint, CopyNetworkStateMirrorsQuantizedWeights) {
  snn::SpikingNetwork src = snn::make_model("vgg_micro", snn::ModelConfig{});
  ASSERT_GT(snn::quantize_network_weights(src, {.bits = 8}), 0u);
  snn::ModelConfig other;
  other.seed = 777;
  snn::SpikingNetwork replica = snn::make_model("vgg_micro", other);
  snn::copy_network_state(src, replica);
  EXPECT_EQ(snn::network_quantized_bits(replica), 8);
  const snn::QuantFootprint fs = snn::network_quant_footprint(src);
  const snn::QuantFootprint fr = snn::network_quant_footprint(replica);
  EXPECT_EQ(fs.packed_bytes, fr.packed_bytes);
  EXPECT_EQ(fs.quantized_layers, fr.quantized_layers);

  EXPECT_EQ(fr.lut_bytes, 0u);

  // Cached tables ride along shared, not duplicated, so serving replicas of
  // a network that already ran the quantized tier hold one table set.
  for (snn::QuantizedWeightHolder* holder : quant_holders(src)) {
    util::QuantizedMatrix q = holder->quantized_weights();
    q.ensure_lut();
    holder->set_quantized_weights(std::move(q));
  }
  snn::copy_network_state(src, replica);
  const std::vector<snn::QuantizedWeightHolder*> src_holders = quant_holders(src);
  const std::vector<snn::QuantizedWeightHolder*> replica_holders = quant_holders(replica);
  ASSERT_EQ(src_holders.size(), replica_holders.size());
  for (std::size_t i = 0; i < src_holders.size(); ++i) {
    ASSERT_TRUE(replica_holders[i]->quantized_weights().has_lut()) << i;
    EXPECT_EQ(replica_holders[i]->quantized_weights().lut().table.data(),
              src_holders[i]->quantized_weights().lut().table.data())
        << i;
  }
  EXPECT_GT(snn::network_quant_footprint(replica).lut_bytes, 0u);
  EXPECT_EQ(snn::network_quant_footprint(replica).lut_bytes,
            snn::network_quant_footprint(src).lut_bytes);

  // And copying from an uncalibrated source clears the replica again.
  snn::SpikingNetwork plain = snn::make_model("vgg_micro", snn::ModelConfig{});
  snn::copy_network_state(plain, replica);
  EXPECT_EQ(snn::network_quantized_bits(replica), 0);
}

// ------------------------------------------------------------------- serving

/// One model, one worker serving the experiment's test split.
serve::FleetModel fleet_model(core::Experiment& e, const core::ExitPolicy& policy) {
  serve::FleetModel m;
  m.network = &e.net;
  m.dataset = e.bundle.test.get();
  m.default_policy = &policy;
  m.max_timesteps = 3;
  return m;
}

TEST(QuantServer, RefusesUncalibratedNetworkAtConstruction) {
  core::Experiment e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);
  serve::FleetModel model = fleet_model(e, policy);
  model.gemm_backend = "int8_lut";
  try {
    serve::ServingFleet fleet({model});
    FAIL() << "uncalibrated network must be rejected at construction";
  } catch (const util::QuantizationError& err) {
    EXPECT_EQ(err.kind(), util::QuantizationError::Kind::kUncalibrated);
    EXPECT_NE(std::string(err.what()).find("int8_lut"), std::string::npos)
        << err.what();
  }
  // Unknown backend names still fail with the registry's invalid_argument.
  model.gemm_backend = "no_such_backend";
  EXPECT_THROW(serve::ServingFleet({model}), std::invalid_argument);
}

TEST(QuantServer, ServesQuantizedTierMatchingOfflineEngine) {
  core::Experiment e = micro_experiment("sync10", 3);
  const core::EntropyExitPolicy policy(0.35);
  core::QuantCalibrationConfig calib;
  calib.spec.bits = 8;
  const core::QuantCalibrationReport report =
      core::calibrate_quantized(e.net, *e.bundle.test, policy, 3, calib);
  ASSERT_GT(report.layers_quantized, 0u);

  const core::InferenceRequest request = core::InferenceRequest::first_n(
      std::min<std::size_t>(16, e.bundle.test->size()));
  std::vector<core::InferenceResult> offline;
  {
    util::GemmContext ctx(quant_backend("int8_lut"));
    e.net.set_gemm_context(&ctx);
    core::BatchedSequentialEngine engine(e.net, policy, 3, /*batch_size=*/4);
    offline = engine.run(*e.bundle.test, request);
    e.net.set_gemm_context(nullptr);
  }

  serve::FleetModel model = fleet_model(e, policy);
  model.gemm_backend = "int8_lut";
  model.max_pool = 3;
  serve::ServingFleet fleet({model});
  EXPECT_EQ(fleet.model_gemm_backend(0), "int8_lut");
  serve::FleetRequest sreq;
  sreq.request = request;
  const std::vector<core::InferenceResult> served =
      fleet.submit(std::move(sreq)).results.get();
  fleet.drain();

  // Quantized kernels are batch-composition invariant, so served decisions
  // match the offline quantized engine exactly regardless of pool makeup.
  ASSERT_EQ(served.size(), offline.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].sample, offline[i].sample) << i;
    EXPECT_EQ(served[i].predicted_class, offline[i].predicted_class) << i;
    EXPECT_EQ(served[i].exit_timestep, offline[i].exit_timestep) << i;
    EXPECT_EQ(served[i].final_entropy, offline[i].final_entropy) << i;
  }
}

}  // namespace
}  // namespace dtsnn
