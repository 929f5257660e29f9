// Post-training quantization calibration and the shared tolerance gate.
//
// The quantized GEMM tier (util/gemm.h, int8_lut / int4_lut) trades the
// bitwise identity contract for a measured one: decisions may flip versus
// the float oracle, but the flip rate and accuracy delta must stay inside
// configured bounds per dataset preset. calibrate_quantized() is the
// one-stop entry: it quantizes the network's weights
// (snn::quantize_network_weights) and then streams a bounded sample of the
// dataset through the batched engine twice — once under scalar_ref, once
// under the quantized backend — comparing exit decisions sample by sample.
// The measurement pass rides the engine's BatchCursor-backed batching, so
// calibration never materializes the dataset.
//
// compare_decisions() is the shared gate helper: every quantized-tier test
// and bench goes through it (or an explicit EXPECT_NEAR bound) instead of
// comparing floats bitwise against the oracle — enforced by the
// quant-bitwise-oracle rule in scripts/check_invariants.py.

#pragma once

#include <cstddef>
#include <span>

#include "core/exit_policy.h"
#include "core/inference.h"
#include "data/dataset.h"
#include "snn/network.h"
#include "util/quant.h"

namespace dtsnn::core {

/// How a quantized run's decisions differ from the float oracle's, sample by
/// sample (same request order on both sides).
struct DecisionDiff {
  std::size_t samples = 0;
  std::size_t prediction_flips = 0;  ///< predicted_class differs
  std::size_t exit_flips = 0;        ///< exit_timestep differs
  double prediction_flip_rate = 0.0;
  double exit_flip_rate = 0.0;
};

/// The shared tolerance-gate helper: pair up oracle and candidate results by
/// request position and count decision flips. Throws std::invalid_argument
/// when the two runs cover different samples.
DecisionDiff compare_decisions(std::span<const InferenceResult> oracle,
                               std::span<const InferenceResult> candidate);

struct QuantCalibrationConfig {
  util::QuantSpec spec;
  /// Samples streamed through the measurement pass; 0 = the whole dataset.
  std::size_t max_samples = 256;
  /// Live-pool size of the batched measurement engine.
  std::size_t batch_size = 32;
  /// Gates evaluated into QuantCalibrationReport::within_tolerance.
  double flip_rate_tolerance = 0.01;
  double accuracy_delta_tolerance = 0.02;
};

struct QuantCalibrationReport {
  int bits = 0;
  std::size_t group_size = 0;
  std::size_t layers_quantized = 0;
  std::size_t samples = 0;
  DecisionDiff diff;
  double accuracy_float = 0.0;
  double accuracy_quant = 0.0;
  double accuracy_delta = 0.0;  ///< quant - float (signed)
  std::size_t float_weight_bytes = 0;
  std::size_t quant_weight_bytes = 0;  ///< packed integer codes
  std::size_t scale_bytes = 0;
  /// Spike-mask tables the quantized run left cached on the layers (8 bytes
  /// per weight; copies of the network share them).
  std::size_t lut_bytes = 0;
  /// float_weight_bytes / quant_weight_bytes: how much smaller the packed
  /// codes are than the float weights (4x INT8, 8x INT4). Not the resident
  /// saving: with scales and lut_bytes counted the quantized side is larger
  /// than the float weights, which stay resident beside it.
  double footprint_ratio = 0.0;
  bool within_tolerance = false;
};

/// Quantize `net`'s weights under config.spec and measure the tolerance gate
/// versus the scalar_ref oracle. On return the network carries calibrated
/// quantized weights (they checkpoint via snn::serialize) and its GEMM
/// context is left untouched. Throws QuantizationError(kBadSpec) when the
/// network has no quantizable layers.
QuantCalibrationReport calibrate_quantized(snn::SpikingNetwork& net,
                                           const data::Dataset& dataset,
                                           const ExitPolicy& policy,
                                           std::size_t max_timesteps,
                                           const QuantCalibrationConfig& config);

}  // namespace dtsnn::core
