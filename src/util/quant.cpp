#include "util/quant.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/env.h"
#include "util/logging.h"

namespace dtsnn::util {

namespace {

std::size_t default_group_size(int bits) { return bits == 4 ? 32 : 64; }

}  // namespace

void QuantSpec::validate() const {
  if (bits != 8 && bits != 4) {
    throw QuantizationError(
        QuantizationError::Kind::kBadSpec,
        format("QuantSpec.bits must be 8 or 4, got %d", bits));
  }
}

std::size_t QuantSpec::resolved_group_size() const {
  validate();
  if (group_size != 0) return group_size;
  if (const auto env = env_u64("DTSNN_QUANT_GROUP_SIZE", 1)) {
    return static_cast<std::size_t>(*env);
  }
  return default_group_size(bits);
}

QuantizedMatrix QuantizedMatrix::quantize(const float* w, std::size_t out,
                                          std::size_t in, const QuantSpec& spec) {
  const std::size_t gs = spec.resolved_group_size();

  QuantizedMatrix q;
  q.out_ = out;
  q.in_ = in;
  q.bits_ = spec.bits;
  q.group_size_ = gs;
  q.groups_ = in == 0 ? 0 : (in + gs - 1) / gs;
  q.row_stride_ = spec.bits == 4 ? (out + 1) / 2 : out;
  q.data_.assign(q.row_stride_ * in, 0);
  q.scales_.assign(q.groups_ * out, 0.0f);

  const int qmax = q.qmax();
  for (std::size_t j = 0; j < out; ++j) {
    const float* wrow = w + j * in;
    for (std::size_t g = 0; g < q.groups_; ++g) {
      const std::size_t k0 = g * gs;
      const std::size_t k1 = std::min(k0 + gs, in);
      float maxabs = 0.0f;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        maxabs = std::max(maxabs, std::fabs(wrow[kk]));
      }
      const float scale = maxabs > 0.0f ? maxabs / static_cast<float>(qmax) : 0.0f;
      q.scales_[g * out + j] = scale;
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const long code = std::lround(static_cast<double>(wrow[kk]) *
                                      static_cast<double>(inv));
        const int v = static_cast<int>(
            std::clamp(code, static_cast<long>(-qmax), static_cast<long>(qmax)));
        if (q.bits_ == 4) {
          // Offset-binary nibble (q + 8 in [1, 15]); low nibble = even j.
          std::uint8_t& byte = q.data_[kk * q.row_stride_ + j / 2];
          const auto nibble = static_cast<std::uint8_t>(v + 8);
          if (j % 2 == 0) {
            byte = static_cast<std::uint8_t>((byte & 0xF0u) | nibble);
          } else {
            byte = static_cast<std::uint8_t>((byte & 0x0Fu) |
                                             static_cast<std::uint8_t>(nibble << 4));
          }
        } else {
          q.data_[kk * q.row_stride_ + j] =
              static_cast<std::uint8_t>(static_cast<std::int8_t>(v));
        }
      }
    }
  }
  return q;
}

QuantizedMatrix QuantizedMatrix::from_raw(std::size_t out, std::size_t in, int bits,
                                          std::size_t group_size,
                                          std::vector<std::uint8_t> packed,
                                          std::vector<float> scales) {
  if (bits != 8 && bits != 4) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry has unsupported bit-width %d", bits));
  }
  if (group_size == 0 && in != 0) {
    throw QuantizationError(QuantizationError::Kind::kBadCheckpoint,
                            "quantized checkpoint entry has group_size 0");
  }
  QuantizedMatrix q;
  q.out_ = out;
  q.in_ = in;
  q.bits_ = bits;
  q.group_size_ = group_size;
  q.groups_ = in == 0 ? 0 : (in + group_size - 1) / group_size;
  q.row_stride_ = bits == 4 ? (out + 1) / 2 : out;
  if (packed.size() != q.row_stride_ * in || scales.size() != q.groups_ * out) {
    throw QuantizationError(
        QuantizationError::Kind::kBadCheckpoint,
        format("quantized checkpoint entry [%zu x %zu, %d-bit] has %zu packed "
               "bytes / %zu scales, expected %zu / %zu",
               out, in, bits, packed.size(), scales.size(), q.row_stride_ * in,
               q.groups_ * out));
  }
  q.data_ = std::move(packed);
  q.scales_ = std::move(scales);
  return q;
}

QuantLut build_spike_lut(const QuantizedMatrix& q) {
  QuantLut lut;
  if (q.empty()) return lut;
  const std::size_t out = q.out();
  const std::size_t in = q.in();
  const std::size_t gs = q.group_size();
  std::size_t chunks = 0;
  for (std::size_t g = 0; g < q.num_groups(); ++g) {
    const std::size_t k0 = g * gs;
    const std::size_t k1 = std::min(k0 + gs, in);
    chunks += (k1 - k0 + kLutChunkWidth - 1) / kLutChunkWidth;
  }
  lut.chunks = chunks;
  lut.out = out;
  lut.table.assign(chunks * kLutMaskCount * out, 0);

  // Per chunk: decode its (at most kLutChunkWidth) code rows once, then fill
  // the 16 mask entries incrementally — entry[mask] = entry[mask minus its
  // lowest bit] + codes[lowest bit] — so the build costs one add per table
  // element instead of popcount(mask) adds.
  std::vector<std::int16_t> codes(kLutChunkWidth * out);
  std::size_t chunk = 0;
  for (std::size_t g = 0; g < q.num_groups(); ++g) {
    const std::size_t k0 = g * gs;
    const std::size_t k1 = std::min(k0 + gs, in);
    for (std::size_t kc = k0; kc < k1; kc += kLutChunkWidth, ++chunk) {
      const std::size_t w = std::min(kLutChunkWidth, k1 - kc);
      for (std::size_t b = 0; b < w; ++b) {
        std::int16_t* crow = codes.data() + b * out;
        for (std::size_t j = 0; j < out; ++j) {
          crow[j] = static_cast<std::int16_t>(q.q(j, kc + b));
        }
      }
      std::int16_t* base = lut.table.data() + chunk * kLutMaskCount * out;
      for (std::size_t mask = 1; mask < kLutMaskCount; ++mask) {
        const std::size_t low = mask & (~mask + 1);
        const std::size_t bit = std::countr_zero(low);
        const std::int16_t* prev = base + (mask ^ low) * out;
        std::int16_t* dst = base + mask * out;
        if (bit >= w) {
          // Mask bit past a clipped chunk's width selects nothing; the
          // kernels never form such masks, but keep the table total anyway.
          std::copy(prev, prev + out, dst);
          continue;
        }
        const std::int16_t* crow = codes.data() + bit * out;
        for (std::size_t j = 0; j < out; ++j) {
          dst[j] = static_cast<std::int16_t>(prev[j] + crow[j]);
        }
      }
    }
  }
  return lut;
}

void QuantizedMatrix::ensure_lut() {
  if (has_lut() || empty()) return;
  lut_ = std::make_shared<const QuantLut>(build_spike_lut(*this));
}

const QuantLut& QuantizedMatrix::lut() const {
  static const QuantLut kNoLut;
  return has_lut() ? *lut_ : kNoLut;
}

int QuantizedMatrix::q(std::size_t j, std::size_t kk) const {
  if (bits_ == 4) {
    const std::uint8_t byte = data_[kk * row_stride_ + j / 2];
    const int nibble = j % 2 == 0 ? (byte & 0x0F) : (byte >> 4);
    return nibble - 8;
  }
  return static_cast<std::int8_t>(data_[kk * row_stride_ + j]);
}

}  // namespace dtsnn::util
