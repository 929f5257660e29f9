#include "snn/conv.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"

namespace dtsnn::snn {

namespace {

// The sparse/dense kernel decisions below key on snn::kSparseDensityThreshold
// (snn/layer.h), shared with Linear.

/// [N*OHW, Cout] row-per-pixel layout -> NCHW [N, Cout, OH, OW].
void pixels_to_nchw(const Tensor& pix, std::size_t n, std::size_t c, std::size_t oh,
                    std::size_t ow, Tensor& out) {
  out = Tensor({n, c, oh, ow});
  const std::size_t hw = oh * ow;
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    const float* src = pix.data() + img * hw * c;
    float* dst = out.data() + img * c * hw;
    for (std::size_t p = 0; p < hw; ++p) {
      for (std::size_t ch = 0; ch < c; ++ch) dst[ch * hw + p] = src[p * c + ch];
    }
  }
}

/// Direct sparse convolution into the [N*OHW, Cout] row-per-pixel layout:
/// iterate nonzero input pixels (c, y, x ascending) and scatter-accumulate
/// the matching weight columns into the touched output pixels. For every
/// output element this applies contributions in ascending (c, ky, kx) order
/// with zero inputs skipped — exactly the order and skip rule of the
/// A-stationary im2col GEMM — so the result is bitwise identical to
/// util::gemm on the im2col matrix, while the im2col materialization (the
/// dominant memory traffic at spike-level sparsity) is skipped entirely.
/// `wt` is W^T, [Cin*K*K, Cout]. Templated on the compile-time stride
/// (0 = generic runtime stride) so the hot loops carry no divisibility
/// checks for stride-1 convs and strength-reduced ones for stride-2.
template <std::size_t kStride>
void sparse_conv_scatter_impl(const Tensor& x, const float* wt, const ConvGeometry& g,
                              std::size_t cout, Tensor& pix) {
  const std::size_t n = x.dim(0);
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const auto stride =
      static_cast<std::ptrdiff_t>(kStride ? kStride : g.stride);
  const auto pad = static_cast<std::ptrdiff_t>(g.padding);
  const auto kk = static_cast<std::ptrdiff_t>(g.kernel);
  // The (ky, kx) loops only enumerate which outputs an input touches; the
  // per-output accumulation order is fixed by the (c, y, x) input visit
  // order alone, so the stride-specialized bounds below don't affect the
  // bitwise result.
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    const float* xp = x.data() + img * g.in_channels * g.in_h * g.in_w;
    float* pp = pix.data() + img * oh * ow * cout;
    for (std::size_t c = 0; c < g.in_channels; ++c) {
      const float* wc = wt + c * static_cast<std::size_t>(kk * kk) * cout;
      for (std::size_t y = 0; y < g.in_h; ++y) {
        const auto ypad = static_cast<std::ptrdiff_t>(y) + pad;
        // oy = (y + pad - ky) / stride with exact division and 0 <= oy < oh.
        const std::ptrdiff_t ky_lo =
            std::max<std::ptrdiff_t>(0, ypad - stride * (static_cast<std::ptrdiff_t>(oh) - 1));
        const std::ptrdiff_t ky_hi = std::min<std::ptrdiff_t>(kk - 1, ypad);
        for (std::size_t xx = 0; xx < g.in_w; ++xx) {
          const float v = xp[(c * g.in_h + y) * g.in_w + xx];
          if (v == 0.0f) continue;
          const auto xpad = static_cast<std::ptrdiff_t>(xx) + pad;
          const std::ptrdiff_t kx_lo = std::max<std::ptrdiff_t>(
              0, xpad - stride * (static_cast<std::ptrdiff_t>(ow) - 1));
          const std::ptrdiff_t kx_hi = std::min<std::ptrdiff_t>(kk - 1, xpad);
          for (std::ptrdiff_t ky = ky_lo; ky <= ky_hi; ++ky) {
            if (kStride != 1 && (ypad - ky) % stride != 0) continue;
            const auto oy = static_cast<std::size_t>((ypad - ky) / stride);
            float* prow = pp + oy * ow * cout;
            const float* wky = wc + static_cast<std::size_t>(ky * kk) * cout;
            for (std::ptrdiff_t kx = kx_lo; kx <= kx_hi; ++kx) {
              if (kStride != 1 && (xpad - kx) % stride != 0) continue;
              const auto ox = static_cast<std::size_t>((xpad - kx) / stride);
              float* dst = prow + ox * cout;
              const float* wrow = wky + static_cast<std::size_t>(kx) * cout;
#pragma omp simd
              for (std::size_t j = 0; j < cout; ++j) dst[j] += v * wrow[j];
            }
          }
        }
      }
    }
  }
}

void sparse_conv_scatter(const Tensor& x, const float* wt, const ConvGeometry& g,
                         std::size_t cout, Tensor& pix) {
  switch (g.stride) {
    case 1: sparse_conv_scatter_impl<1>(x, wt, g, cout, pix); break;
    case 2: sparse_conv_scatter_impl<2>(x, wt, g, cout, pix); break;
    default: sparse_conv_scatter_impl<0>(x, wt, g, cout, pix); break;
  }
}

/// NCHW [N, C, OH, OW] -> [N*OHW, C] row-per-pixel layout.
void nchw_to_pixels(const Tensor& x, Tensor& pix) {
  const std::size_t n = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  pix = Tensor({n * hw, c});
#pragma omp parallel for schedule(static)
  for (std::size_t img = 0; img < n; ++img) {
    const float* src = x.data() + img * c * hw;
    float* dst = pix.data() + img * hw * c;
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t p = 0; p < hw; ++p) dst[p * c + ch] = src[ch * hw + p];
    }
  }
}

}  // namespace

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, bool bias, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("conv.weight", Tensor({out_channels, in_channels * kernel * kernel})),
      bias_("conv.bias", Tensor({out_channels}), /*no_decay=*/true) {
  // Kaiming-uniform for ReLU-like nonlinearities; LIF firing behaves similarly.
  const std::size_t fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (auto& w : weight_.value.span()) w = static_cast<float>(rng.uniform(-bound, bound));
  if (has_bias_) {
    const float bbound = 1.0f / std::sqrt(static_cast<float>(fan_in));
    for (auto& b : bias_.value.span()) b = static_cast<float>(rng.uniform(-bbound, bbound));
  }
}

void Conv2d::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  wt_dirty_ = true;
}

void Conv2d::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  wt_dirty_ = true;
}

const float* Conv2d::ensure_weight_transpose() {
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  if (wt_dirty_ || wt_scratch_.numel() != patch * out_channels_) {
    if (wt_scratch_.numel() != patch * out_channels_) {
      wt_scratch_ = Tensor({patch, out_channels_});
    }
    for (std::size_t c = 0; c < out_channels_; ++c) {
      const float* src = weight_.value.data() + c * patch;
      for (std::size_t p = 0; p < patch; ++p) {
        wt_scratch_[p * out_channels_ + c] = src[p];
      }
    }
    wt_dirty_ = false;
  }
  return wt_scratch_.data();
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (x.rank() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d: bad input shape " + shape_to_string(x.shape()));
  }
  geom_ = ConvGeometry{in_channels_, x.dim(2), x.dim(3), kernel_, stride_, padding_};
  const std::size_t n = x.dim(0);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();

  // pix[N*OHW, Cout] = col[N*OHW, CKK] * W^T[CKK, Cout]
  Tensor pix({n * oh * ow, out_channels_});
  const std::size_t patch = geom_.patch_size();
  util::GemmContext& gemm = gemm_context();
  Tensor col;
  if (train) {
    // Training path: the im2col matrix is needed for backward either way.
    // Hidden-layer inputs are LIF spikes, so for sparse inputs the product
    // runs in the A-stationary form (zero-skip NN GEMM against W^T) instead
    // of the dense dot-product form — for the same accumulation order and
    // finite weights the two are bitwise identical (both sum each output's
    // contributions in ascending patch order from a zero start), so this is
    // purely a speed decision, like the eval-time kernel choice below.
    im2col(x, geom_, col);
    if (x.density() < kSparseDensityThreshold) {
      gemm.gemm(col.data(), ensure_weight_transpose(), pix.data(), n * oh * ow, patch,
                out_channels_);
    } else {
      gemm.gemm_bt(col.data(), weight_.value.data(), pix.data(), n * oh * ow, patch,
                   out_channels_);
    }
  } else if (const util::QuantizedGemmBackend* qb =
                 util::as_quantized_backend(&gemm.backend())) {
    // Quantized inference tier: im2col + qgemm. The quantized kernel already
    // streams only the spike-selected quantized weight rows, so the direct
    // scatter path is not used; results are deterministic and
    // batch-composition invariant, but tolerance-gated (not bitwise) versus
    // the float tier. Requires calibrated weights at this backend's
    // bit-width — fails loudly otherwise.
    require_quantized_weights(*qb, qweight_, "Conv2d");
    // The quantized backends run off a cached spike-mask table; build it
    // once per quantized weight matrix (derived data, same single-threaded
    // dispatch discipline as the cached W^T below).
    qweight_.ensure_lut();
    im2col(x, geom_, col);
    gemm.qgemm(col.data(), qweight_, pix.data(), n * oh * ow, patch, out_channels_);
  } else {
    // Inference path: LIF spike activations are mostly zeros, so the cost
    // scales with spike density instead of the dense FLOP count. Both eval
    // kernels skip zero inputs and accumulate every output element in
    // ascending (c, ky, kx) order, so they are bitwise identical to each
    // other and independent of the batch size — batched and batch-1
    // stepping agree bitwise even if they pick different kernels. Needs
    // W^T materialized; cached across the steps of one sequence (set_time
    // and begin_steps mark it dirty, and weights only change between them).
    const float* wt = ensure_weight_transpose();
    if (x.density() < kSparseDensityThreshold) {
      // Sparse enough that skipping the im2col materialization wins.
      sparse_conv_scatter(x, wt, geom_, out_channels_, pix);
    } else {
      im2col(x, geom_, col);
      gemm.gemm(col.data(), wt, pix.data(), n * oh * ow, patch, out_channels_);
    }
  }
  if (has_bias_) {
    const float* b = bias_.value.data();
#pragma omp parallel for schedule(static)
    for (std::size_t r = 0; r < n * oh * ow; ++r) {
      float* row = pix.data() + r * out_channels_;
      for (std::size_t c = 0; c < out_channels_; ++c) row[c] += b[c];
    }
  }

  Tensor out;
  pixels_to_nchw(pix, n, out_channels_, oh, ow, out);

  if (train) {
    col_cache_ = std::move(col);
    have_cache_ = true;
  } else {
    have_cache_ = false;
    col_cache_ = Tensor();
  }
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  assert(have_cache_ && "Conv2d::backward requires a prior training forward");
  const std::size_t n = grad_out.dim(0);
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t rows = n * oh * ow;
  const std::size_t patch = geom_.patch_size();

  Tensor gpix;  // [N*OHW, Cout]
  nchw_to_pixels(grad_out, gpix);

  // dW[Cout, CKK] += gpix^T[Cout, rows] * col[rows, CKK]
  util::GemmContext& gemm = gemm_context();
  gemm.gemm_at(gpix.data(), col_cache_.data(), weight_.grad.data(), out_channels_, rows,
               patch, /*accumulate=*/true);

  if (has_bias_) {
    float* db = bias_.grad.data();
    for (std::size_t r = 0; r < rows; ++r) {
      const float* row = gpix.data() + r * out_channels_;
      for (std::size_t c = 0; c < out_channels_; ++c) db[c] += row[c];
    }
  }

  // dcol[rows, CKK] = gpix[rows, Cout] * W[Cout, CKK]
  Tensor dcol({rows, patch});
  gemm.gemm(gpix.data(), weight_.value.data(), dcol.data(), rows, out_channels_, patch);

  Tensor dx;
  col2im(dcol, geom_, dx);
  return dx;
}

void Conv2d::set_quantized_weights(util::QuantizedMatrix q) {
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  if (q.out() != out_channels_ || q.in() != patch) {
    throw util::QuantizationError(
        util::QuantizationError::Kind::kShapeMismatch,
        util::format("Conv2d: quantized weights [%zu x %zu] do not match float "
                     "weights [%zu x %zu]",
                     q.out(), q.in(), out_channels_, patch));
  }
  qweight_ = std::move(q);
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps{&weight_};
  if (has_bias_) ps.push_back(&bias_);
  return ps;
}

Shape Conv2d::infer_shape(const Shape& sample_shape) const {
  if (sample_shape.size() != 3 || sample_shape[0] != in_channels_) {
    throw std::invalid_argument("Conv2d::infer_shape: bad sample shape " +
                                shape_to_string(sample_shape));
  }
  const ConvGeometry g{in_channels_, sample_shape[1], sample_shape[2], kernel_, stride_,
                       padding_};
  return {out_channels_, g.out_h(), g.out_w()};
}

}  // namespace dtsnn::snn
