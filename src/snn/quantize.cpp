#include "snn/quantize.h"

#include "snn/network.h"
#include "util/logging.h"

namespace dtsnn::snn {

namespace {

template <typename Fn>
void visit_holders(SpikingNetwork& net, Fn&& fn) {
  net.visit([&](Layer& layer) {
    if (auto* holder = dynamic_cast<QuantizedWeightHolder*>(&layer)) fn(*holder);
  });
}

}  // namespace

std::size_t quantize_network_weights(SpikingNetwork& net, const util::QuantSpec& spec) {
  spec.validate();
  std::size_t count = 0;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    const Tensor& w = holder.quantizable_weight();
    holder.set_quantized_weights(
        util::QuantizedMatrix::quantize(w.data(), w.dim(0), w.dim(1), spec));
    ++count;
  });
  return count;
}

void clear_network_quantized_weights(SpikingNetwork& net) {
  visit_holders(net, [](QuantizedWeightHolder& holder) {
    holder.clear_quantized_weights();
  });
}

int network_quantized_bits(SpikingNetwork& net) {
  int bits = 0;
  bool mixed = false;
  bool first = true;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    const util::QuantizedMatrix& q = holder.quantized_weights();
    const int layer_bits = q.empty() ? 0 : q.bits();
    if (first) {
      bits = layer_bits;
      first = false;
    } else if (layer_bits != bits) {
      mixed = true;
    }
  });
  if (first) return 0;  // no weight-bearing layers
  return mixed ? -1 : bits;
}

QuantFootprint network_quant_footprint(SpikingNetwork& net) {
  QuantFootprint fp;
  visit_holders(net, [&](QuantizedWeightHolder& holder) {
    ++fp.layers;
    const Tensor& w = holder.quantizable_weight();
    fp.float_bytes += w.numel() * sizeof(float);
    const util::QuantizedMatrix& q = holder.quantized_weights();
    if (!q.empty()) {
      ++fp.quantized_layers;
      fp.packed_bytes += q.packed_bytes();
      fp.scale_bytes += q.scale_bytes();
      fp.lut_bytes += q.lut_bytes();
    }
  });
  return fp;
}

void require_quantized_weights(const util::QuantizedGemmBackend& backend,
                               const util::QuantizedMatrix& q, const char* layer_name) {
  if (q.empty()) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kUncalibrated,
        util::format(
            "GEMM backend '%.*s' selected but %s has no calibrated quantized "
            "weights; run snn::quantize_network_weights / "
            "core::calibrate_quantized before inference (is DTSNN_GEMM_BACKEND "
            "forcing a quantized backend on an uncalibrated network?)",
            static_cast<int>(backend.name().size()), backend.name().data(),
            layer_name));
  }
  if (q.bits() != backend.weight_bits()) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kBitsMismatch,
        util::format("GEMM backend '%.*s' consumes %d-bit weights but %s is "
                     "calibrated at %d bits; re-run calibration for this tier",
                     static_cast<int>(backend.name().size()), backend.name().data(),
                     backend.weight_bits(), layer_name, q.bits()));
  }
}

}  // namespace dtsnn::snn
