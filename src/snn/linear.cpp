#include "snn/linear.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/gemm.h"
#include "util/logging.h"
#include "util/quant.h"

namespace dtsnn::snn {

Linear::Linear(std::size_t in_features, std::size_t out_features, bool bias, util::Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias),
      weight_("linear.weight", Tensor({out_features, in_features})),
      bias_("linear.bias", Tensor({out_features}), /*no_decay=*/true) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_features));
  for (auto& w : weight_.value.span()) w = static_cast<float>(rng.uniform(-bound, bound));
  if (has_bias_) {
    const float bbound = 1.0f / std::sqrt(static_cast<float>(in_features));
    for (auto& b : bias_.value.span()) b = static_cast<float>(rng.uniform(-bbound, bbound));
  }
}

void Linear::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  wt_dirty_ = true;
}

void Linear::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  wt_dirty_ = true;
}

const float* Linear::ensure_weight_transpose() {
  if (wt_dirty_ || wt_scratch_.numel() != in_features_ * out_features_) {
    if (wt_scratch_.numel() != in_features_ * out_features_) {
      wt_scratch_ = Tensor({in_features_, out_features_});
    }
    for (std::size_t c = 0; c < out_features_; ++c) {
      const float* src = weight_.value.data() + c * in_features_;
      for (std::size_t p = 0; p < in_features_; ++p) {
        wt_scratch_[p * out_features_ + c] = src[p];
      }
    }
    wt_dirty_ = false;
  }
  return wt_scratch_.data();
}

Tensor Linear::forward(const Tensor& x, bool train) {
  if (x.rank() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument("Linear: bad input shape " + shape_to_string(x.shape()));
  }
  const std::size_t n = x.dim(0);
  Tensor out({n, out_features_});
  util::GemmContext& gemm = gemm_context();
  const util::QuantizedGemmBackend* qb =
      train ? nullptr : util::as_quantized_backend(&gemm.backend());
  if (qb != nullptr) {
    // Quantized inference tier: spikes select quantized weight rows
    // (multiply-free integer accumulate, dequantized per scale group).
    // Requires calibrated weights at this backend's bit-width — fails loudly
    // otherwise. Training forwards never take this path.
    require_quantized_weights(*qb, qweight_, "Linear");
    // The quantized backends run off a cached spike-mask table; build it
    // once per quantized weight matrix (derived data, single-threaded
    // dispatch).
    qweight_.ensure_lut();
    gemm.qgemm(x.data(), qweight_, out.data(), n, in_features_, out_features_);
  } else if (!train && x.density() < kSparseDensityThreshold) {
    // out = x * W^T in the A-stationary zero-skip NN form against the cached
    // W^T: bitwise identical to the dense dot-product form below for finite
    // weights (same ascending-k accumulation from a zero start; skipped
    // zero-spike terms only ever contribute ±0, and the final add into the
    // zeroed output restores +0 in both forms), so — exactly as in
    // Conv2d::forward — this is purely a speed decision, and it hands the
    // sparse NN op to the backend (sparse_spike) that exploits it.
    gemm.gemm(x.data(), ensure_weight_transpose(), out.data(), n, in_features_,
              out_features_);
  } else {
    // out = x * W^T
    gemm.gemm_bt(x.data(), weight_.value.data(), out.data(), n, in_features_,
                 out_features_);
  }
  if (has_bias_) {
    const float* b = bias_.value.data();
#pragma omp parallel for schedule(static)
    for (std::size_t r = 0; r < n; ++r) {
      float* row = out.data() + r * out_features_;
      for (std::size_t c = 0; c < out_features_; ++c) row[c] += b[c];
    }
  }
  if (train) {
    input_cache_ = x;
    have_cache_ = true;
  } else {
    input_cache_ = Tensor();
    have_cache_ = false;
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  assert(have_cache_ && "Linear::backward requires a prior training forward");
  const std::size_t n = grad_out.dim(0);
  assert(grad_out.dim(1) == out_features_);

  // dW[out, in] += g^T[out, n] * x[n, in]
  gemm_context().gemm_at(grad_out.data(), input_cache_.data(), weight_.grad.data(),
                         out_features_, n, in_features_, /*accumulate=*/true);
  if (has_bias_) {
    float* db = bias_.grad.data();
    for (std::size_t r = 0; r < n; ++r) {
      const float* row = grad_out.data() + r * out_features_;
      for (std::size_t c = 0; c < out_features_; ++c) db[c] += row[c];
    }
  }
  // dx[n, in] = g[n, out] * W[out, in]
  Tensor dx({n, in_features_});
  gemm_context().gemm(grad_out.data(), weight_.value.data(), dx.data(), n, out_features_,
                      in_features_);
  return dx;
}

void Linear::set_quantized_weights(util::QuantizedMatrix q) {
  if (q.out() != out_features_ || q.in() != in_features_) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kShapeMismatch,
        util::format("Linear: quantized weights [%zu x %zu] do not match float "
                     "weights [%zu x %zu]",
                     q.out(), q.in(), out_features_, in_features_));
  }
  qweight_ = std::move(q);
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Shape Linear::infer_shape(const Shape& sample_shape) const {
  if (shape_numel(sample_shape) != in_features_) {
    throw std::invalid_argument("Linear::infer_shape: expected " +
                                std::to_string(in_features_) + " features, got " +
                                shape_to_string(sample_shape));
  }
  return {out_features_};
}

}  // namespace dtsnn::snn
