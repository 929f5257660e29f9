#include "core/quantize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/engine.h"
#include "snn/quantize.h"
#include "util/gemm.h"
#include "util/logging.h"

namespace dtsnn::core {

namespace {

/// Restores the network's GEMM context even when a measurement pass throws.
class GemmContextScope {
 public:
  GemmContextScope(snn::SpikingNetwork& net, util::GemmContext& context) : net_(net) {
    net_.set_gemm_context(&context);
  }
  ~GemmContextScope() { net_.set_gemm_context(nullptr); }
  GemmContextScope(const GemmContextScope&) = delete;
  GemmContextScope& operator=(const GemmContextScope&) = delete;

 private:
  snn::SpikingNetwork& net_;
};

double accuracy_of(std::span<const InferenceResult> results,
                   const data::Dataset& dataset) {
  if (results.empty()) return 0.0;
  std::size_t correct = 0;
  for (const InferenceResult& r : results) {
    correct += r.predicted_class == static_cast<std::size_t>(dataset.label(r.sample));
  }
  return static_cast<double>(correct) / static_cast<double>(results.size());
}

}  // namespace

DecisionDiff compare_decisions(std::span<const InferenceResult> oracle,
                               std::span<const InferenceResult> candidate) {
  if (oracle.size() != candidate.size()) {
    throw std::invalid_argument(
        util::format("compare_decisions: oracle ran %zu samples, candidate %zu",
                     oracle.size(), candidate.size()));
  }
  DecisionDiff diff;
  diff.samples = oracle.size();
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (oracle[i].sample != candidate[i].sample) {
      throw std::invalid_argument(
          util::format("compare_decisions: position %zu compares dataset sample "
                       "%zu against %zu",
                       i, oracle[i].sample, candidate[i].sample));
    }
    diff.prediction_flips += oracle[i].predicted_class != candidate[i].predicted_class;
    diff.exit_flips += oracle[i].exit_timestep != candidate[i].exit_timestep;
  }
  if (diff.samples > 0) {
    diff.prediction_flip_rate =
        static_cast<double>(diff.prediction_flips) / static_cast<double>(diff.samples);
    diff.exit_flip_rate =
        static_cast<double>(diff.exit_flips) / static_cast<double>(diff.samples);
  }
  return diff;
}

QuantCalibrationReport calibrate_quantized(snn::SpikingNetwork& net,
                                           const data::Dataset& dataset,
                                           const ExitPolicy& policy,
                                           std::size_t max_timesteps,
                                           const QuantCalibrationConfig& config) {
  config.spec.validate();

  QuantCalibrationReport report;
  report.bits = config.spec.bits;
  report.group_size = config.spec.resolved_group_size();
  report.layers_quantized = snn::quantize_network_weights(net, config.spec);
  if (report.layers_quantized == 0) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kBadSpec,
        "calibrate_quantized: network has no quantizable (weight-bearing) layers");
  }

  const snn::QuantFootprint footprint = snn::network_quant_footprint(net);
  report.float_weight_bytes = footprint.float_bytes;
  report.quant_weight_bytes = footprint.packed_bytes;
  report.scale_bytes = footprint.scale_bytes;
  report.footprint_ratio =
      footprint.packed_bytes > 0
          ? static_cast<double>(footprint.float_bytes) /
                static_cast<double>(footprint.packed_bytes)
          : 0.0;

  const std::size_t limit = config.max_samples == 0
                                ? dataset.size()
                                : std::min(config.max_samples, dataset.size());
  report.samples = limit;
  const InferenceRequest request = InferenceRequest::first_n(limit);

  const util::GemmBackend* oracle_backend = util::find_gemm_backend("scalar_ref");
  const util::GemmBackend* quant_backend = util::find_gemm_backend(
      config.spec.bits == 4 ? "int4_lut" : "int8_lut");

  std::vector<InferenceResult> oracle;
  {
    util::GemmContext context(*oracle_backend);
    GemmContextScope scope(net, context);
    BatchedSequentialEngine engine(net, policy, max_timesteps, config.batch_size);
    oracle = engine.run(dataset, request);
  }
  std::vector<InferenceResult> quant;
  {
    util::GemmContext context(*quant_backend);
    GemmContextScope scope(net, context);
    BatchedSequentialEngine engine(net, policy, max_timesteps, config.batch_size);
    quant = engine.run(dataset, request);
  }

  report.lut_bytes = snn::network_quant_footprint(net).lut_bytes;
  report.diff = compare_decisions(oracle, quant);
  report.accuracy_float = accuracy_of(oracle, dataset);
  report.accuracy_quant = accuracy_of(quant, dataset);
  report.accuracy_delta = report.accuracy_quant - report.accuracy_float;
  report.within_tolerance =
      report.diff.prediction_flip_rate <= config.flip_rate_tolerance &&
      std::abs(report.accuracy_delta) <= config.accuracy_delta_tolerance;
  return report;
}

}  // namespace dtsnn::core
