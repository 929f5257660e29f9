// Post-training weight quantization: packed INT8/INT4 storage with
// group-wise symmetric scales.
//
// A QuantizedMatrix holds one layer's weight matrix W[out, in] quantized to
// b-bit signed integers. Scales are group-wise over the reduction (k)
// dimension: each output channel j owns one float scale per group of
// `group_size` consecutive k positions, so
//
//   W[j, kk] ~= q(j, kk) * scale(j, kk / group_size)
//
// with q in [-127, 127] (INT8) or [-7, 7] (INT4) and
// scale = maxabs(group) / qmax (symmetric, zero-point-free — spike GEMM adds
// selected weight rows, and a zero point would break the multiply-free path).
//
// Packed storage is k-major so the quantized spike kernels stream one
// contiguous quantized "row" per spiking k position:
//   INT8: data[kk * out + j] holds q(j, kk) as one signed byte.
//   INT4: data[kk * ceil(out/2) + j/2] holds two nibbles — low nibble is
//         column j even, high nibble j odd — in offset-binary form
//         (stored = q + 8, q in [-7, 7]) so unpacking is shift/mask/subtract
//         with no implementation-defined signed shifts.
//
// Quantization is deterministic: std::lround (half away from zero), clamped
// to [-qmax, qmax]; an all-zero group gets scale 0 and all-zero codes.
//
// Derived data: a QuantizedMatrix can additionally carry a spike-mask lookup
// table (QuantLut) consumed by the int8_lut/int4_lut GEMM backends. The k
// dimension is cut into chunks of kLutChunkWidth consecutive positions that
// never cross a scale-group boundary; for every chunk and every 4-bit mask of
// "these positions spiked", the table stores the per-output-column sum of the
// selected integer codes. The LUT is pure derived data — rebuilt on demand
// via ensure_lut(), never serialized, dropped by from_raw/quantize.
//
// Memory: the table holds 16 int16 entries per 4 k positions per output
// column, i.e. 8 bytes per weight — twice the float weights and 8x (INT8) /
// 16x (INT4) the packed codes. The quantized layers cache it on every
// quantized dispatch, so the resident quantized side of a layer is codes +
// scales + table (footprint_bytes()), about 2.2x its float weights; only the
// packed codes are 4x / 8x smaller than float. Copies of a matrix share one
// immutable table, so replicas made by copying a LUT'd network (serving
// workers, parallel evaluation) do not multiply it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace dtsnn::util {

// -------------------------------------------------------------------- errors

/// Typed failure for the quantized tier: forcing a quantized backend on an
/// uncalibrated network, feeding a backend weights quantized at different
/// bit-width, malformed specs, and corrupt checkpoints all throw this with a
/// machine-checkable Kind.
class QuantizationError : public std::runtime_error {
 public:
  enum class Kind {
    kUncalibrated,   ///< quantized backend selected but no calibrated scales
    kBitsMismatch,   ///< weights quantized at a different bit-width
    kShapeMismatch,  ///< quantized dims disagree with the op / float weights
    kBadSpec,        ///< unsupported bits / group size
    kBadCheckpoint,  ///< quantized checkpoint section fails validation
    kNotQuantized,   ///< qgemm dispatched to a non-quantized backend
  };

  QuantizationError(Kind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// ---------------------------------------------------------------------- spec

/// Quantizer configuration. bits must be 8 or 4. group_size 0 means
/// automatic: 64 for INT8, 32 for INT4 (tighter groups bound INT4's larger
/// per-code error), overridable process-wide via DTSNN_QUANT_GROUP_SIZE.
struct QuantSpec {
  int bits = 8;
  std::size_t group_size = 0;

  /// The effective group size after defaults and the environment override.
  /// Throws QuantizationError(kBadSpec) for unsupported bits.
  [[nodiscard]] std::size_t resolved_group_size() const;

  /// Throws QuantizationError(kBadSpec) unless bits is 8 or 4.
  void validate() const;
};

// ------------------------------------------------------------------- spike LUT

/// k positions per LUT chunk (and bits per spike mask). Chunks are clipped at
/// scale-group boundaries, so a group of width w contributes ceil(w / 4)
/// chunks.
inline constexpr std::size_t kLutChunkWidth = 4;
/// Mask entries per chunk: 1 << kLutChunkWidth.
inline constexpr std::size_t kLutMaskCount = 16;

/// Precomputed per-chunk spike-mask sums for one QuantizedMatrix:
/// table[(chunk * kLutMaskCount + mask) * out + j] is the sum of the integer
/// codes q(j, kc + b) over the bits b set in mask, where kc is the chunk's
/// first k position. int16 holds the worst case exactly (4 * 127 = 508).
/// Entries for mask bits beyond a clipped chunk's width select nothing.
struct QuantLut {
  std::size_t chunks = 0;  ///< total chunks across all scale groups
  std::size_t out = 0;     ///< output columns per entry
  std::vector<std::int16_t> table;

  [[nodiscard]] bool empty() const { return table.empty(); }
  [[nodiscard]] std::size_t bytes() const {
    return table.size() * sizeof(std::int16_t);
  }
};

// -------------------------------------------------------------- packed matrix

class QuantizedMatrix {
 public:
  /// Default-constructed state means "not calibrated".
  QuantizedMatrix() = default;

  /// Quantize row-major W[out, in]. Resolves spec.group_size as documented
  /// on QuantSpec.
  static QuantizedMatrix quantize(const float* w, std::size_t out, std::size_t in,
                                  const QuantSpec& spec);

  /// Rebuild from serialized pieces, validating sizes against the declared
  /// dims (throws QuantizationError(kBadCheckpoint) on any mismatch).
  static QuantizedMatrix from_raw(std::size_t out, std::size_t in, int bits,
                                  std::size_t group_size,
                                  std::vector<std::uint8_t> packed,
                                  std::vector<float> scales);

  [[nodiscard]] bool empty() const { return out_ == 0 && in_ == 0; }
  [[nodiscard]] std::size_t out() const { return out_; }
  [[nodiscard]] std::size_t in() const { return in_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] std::size_t group_size() const { return group_size_; }
  [[nodiscard]] std::size_t num_groups() const { return groups_; }
  [[nodiscard]] int qmax() const { return bits_ == 4 ? 7 : 127; }

  /// Bytes per packed k-row (out for INT8, ceil(out/2) for INT4).
  [[nodiscard]] std::size_t row_stride() const { return row_stride_; }

  /// Decoded integer code for logical element W[j, kk].
  [[nodiscard]] int q(std::size_t j, std::size_t kk) const;
  /// Scale for output channel j, k-group g (g-major storage: scales()[g*out + j]).
  [[nodiscard]] float scale(std::size_t j, std::size_t g) const {
    return scales_[g * out_ + j];
  }
  /// q(j, kk) * scale(j, kk / group_size): the value the quantized kernels
  /// effectively multiply against.
  [[nodiscard]] float dequantized(std::size_t j, std::size_t kk) const {
    return static_cast<float>(q(j, kk)) * scale(j, kk / group_size_);
  }

  /// Raw packed codes (k-major; see file comment for the INT4 nibble order).
  [[nodiscard]] std::span<const std::uint8_t> packed() const { return data_; }
  /// Raw scales, g-major: scales()[g * out + j].
  [[nodiscard]] std::span<const float> scales() const { return scales_; }

  /// Size of the packed integer codes alone — the bytes actually streamed
  /// per spike in the quantized kernels.
  [[nodiscard]] std::size_t packed_bytes() const { return data_.size(); }
  /// Size of the group scales.
  [[nodiscard]] std::size_t scale_bytes() const {
    return scales_.size() * sizeof(float);
  }
  /// Size of the cached spike-mask table (0 until ensure_lut() runs). Copies
  /// share one table, so each of them reports it.
  [[nodiscard]] std::size_t lut_bytes() const { return has_lut() ? lut_->bytes() : 0; }
  /// Resident quantized-side footprint: codes + scales + cached table. This is
  /// what a layer running int8_lut/int4_lut holds beside its float weights.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return packed_bytes() + scale_bytes() + lut_bytes();
  }
  /// Footprint of the float weights this matrix replaces.
  [[nodiscard]] std::size_t float_bytes() const {
    return out_ * in_ * sizeof(float);
  }

  /// Build the spike-mask LUT if not already built (no-op on an empty or
  /// already-LUT'd matrix). Not synchronized: call from single-threaded layer
  /// dispatch, like the layers' cached weight transposes. The LUT is derived,
  /// immutable data — copies share it, serialization does not carry it.
  void ensure_lut();
  [[nodiscard]] bool has_lut() const { return lut_ != nullptr; }
  /// The spike-mask LUT; empty() unless ensure_lut() ran.
  [[nodiscard]] const QuantLut& lut() const;

 private:
  std::size_t out_ = 0;
  std::size_t in_ = 0;
  int bits_ = 0;
  std::size_t group_size_ = 0;
  std::size_t groups_ = 0;
  std::size_t row_stride_ = 0;
  std::vector<std::uint8_t> data_;
  std::vector<float> scales_;
  std::shared_ptr<const QuantLut> lut_;
};

/// Build a QuantLut for `q` without caching it on the matrix — the LUT
/// backends use this for per-call tables when no cached LUT is present.
[[nodiscard]] QuantLut build_spike_lut(const QuantizedMatrix& q);

}  // namespace dtsnn::util
