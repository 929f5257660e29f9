// Multi-backend single-precision GEMM dispatch layer.
//
// Every convolution and linear layer funnels through one of three row-major
// GEMM ops (NN, A^T-stationary, B^T). They are served by runtime-selected
// backends behind the GemmBackend interface:
//
//   scalar_ref    plain triple loops; the oracle that *defines* the bitwise
//                 accumulation contract (see below).
//   blocked_omp   cache-blocked, OpenMP-parallel kernels (the historical
//                 default).
//   avx2          AVX2 kernels vectorized over independent output columns —
//                 each output element keeps its own sequential k-order
//                 accumulator lane, and mul/add stay separate instructions
//                 (no FMA contraction) — so results are bitwise identical to
//                 scalar_ref. Compiled only when the toolchain supports
//                 -mavx2; dispatch additionally gated by runtime CPUID.
//   sparse_spike  CSR-style row compression of A exploiting spike sparsity
//                 (zeros skipped, binary spikes take a multiply-free path);
//                 generalizes the eval-time zero-skip A-stationary kernel so
//                 training-time convolutions benefit too.
//   avx512        like avx2 but with 16-lane AVX-512F kernels; own TU
//                 compiled with -mavx512f -ffp-contract=off (AVX-512F
//                 implies FMA, and contraction would break the bitwise
//                 contract). Auto-selected above avx2 when the CPU has it.
//   int8_lut      quantized inference tier: weights pre-quantized to INT8
//   int4_lut      (or packed INT4) with group-wise symmetric scales
//                 (util::QuantizedMatrix). Per scale group, 4-position
//                 binary-spike masks index precomputed code-sum tables
//                 (util::QuantLut cached on the matrix), so one table gather
//                 + integer add per chunk replaces per-spike unpack+add, with
//                 one dequantize per group per output and a graded-spike
//                 float fallback. Small batches without a cached table run
//                 the spike kernel (internal::qgemm_spike_kernel), which is
//                 also the bitwise reference for the table path. Selected
//                 only by explicit name, never by auto-selection, and usable
//                 only on networks with calibrated scales (see
//                 snn/quantize.h).
//
// Identity contract tiers:
//
//   kBitwise (scalar_ref, blocked_omp, avx2, avx512, sparse_spike): for
//   every op, each output element accumulates its contributions in
//   ascending-k order with exact-zero A values skipped (NN / A^T ops), and
//   the B^T op sums each dot product sequentially into a local accumulator
//   before a single add into C. These backends follow the contract exactly,
//   so DT-SNN logits — and therefore early-exit decisions — are bitwise
//   identical no matter which backend runs, and the per-backend identity
//   suite enforces it against scalar_ref.
//
//   kToleranceGated (int8_lut, int4_lut): quantized weights cannot
//   reproduce float logits bitwise. These backends instead honor a tolerance
//   gate versus the scalar_ref oracle: per dataset preset, the early-exit
//   decision flip rate and accuracy delta are measured
//   (core::calibrate_quantized / core::compare_decisions) and must stay
//   within configured bounds. Their plain float ops (gemm / gemm_at /
//   gemm_bt, used by training and non-weight GEMMs) delegate to the blocked
//   kernels and so remain bitwise-tier.
//
// Selection: the DTSNN_GEMM_BACKEND environment variable forces a backend by
// name (unknown or unavailable names throw, listing the registry with
// availability); otherwise the best available dense backend: avx512 > avx2 >
// blocked_omp.
//
// Call sites do not invoke backends directly: they go through a GemmContext
// (selected backend + per-op call/FLOP/density accounting). Layers default
// to the process-wide GemmContext::global() and can be re-pointed per
// network (snn::SpikingNetwork::set_gemm_context).

#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace dtsnn::util {

class QuantizedMatrix;  // util/quant.h

// ------------------------------------------------------------------ backend

/// Which identity contract a backend honors (see file comment).
enum class GemmIdentityTier {
  kBitwise,         ///< bitwise identical to scalar_ref, always
  kToleranceGated,  ///< quantized: accuracy-delta / decision-flip-rate gate
};

class GemmBackend {
 public:
  virtual ~GemmBackend() = default;

  /// Stable identifier used by DTSNN_GEMM_BACKEND and reports.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Identity contract tier. Bitwise unless overridden.
  [[nodiscard]] virtual GemmIdentityTier identity_tier() const {
    return GemmIdentityTier::kBitwise;
  }

  /// Whether this backend can run on the current machine (runtime CPUID for
  /// ISA-specific backends). Unavailable backends stay listed but are never
  /// selected.
  [[nodiscard]] virtual bool available() const { return true; }

  /// C[m,n] (+)= A[m,k] * B[k,n]   (all row-major). With accumulate == false
  /// C is overwritten. Degenerate shapes (m, k, or n == 0) are handled
  /// deterministically here: C is zeroed when not accumulating and the
  /// kernel is never entered.
  void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n, bool accumulate = false) const;

  /// C[m,n] (+)= A^T * B where A is stored row-major as [k,m].
  void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) const;

  /// C[m,n] (+)= A * B^T where B is stored row-major as [n,k].
  void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false) const;

 protected:
  /// Kernels always accumulate into C (the public wrappers zero C first when
  /// not accumulating) and are only entered with m, k, n all nonzero.
  virtual void do_gemm(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n) const = 0;
  virtual void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) const = 0;
  virtual void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n) const = 0;
};

// ------------------------------------------------------------ quantized tier

/// Base of the tolerance-gated quantized backends (int8_lut, int4_lut).
/// Adds the quantized-weight op: C[m,n] (+)= A[m,k] * Q^T where Q is a
/// QuantizedMatrix of shape [n, k] (output-channel major, like the layers'
/// float weights). A carries spike activations; exact-zero entries are
/// skipped, exact-1.0 entries take the multiply-free integer path, anything
/// else falls back to graded float accumulation. Accumulation is ascending-k
/// within each scale group and row-independent, so results are deterministic
/// and batch-composition invariant — but NOT bitwise comparable to the float
/// backends (identity_tier() == kToleranceGated).
class QuantizedGemmBackend : public GemmBackend {
 public:
  [[nodiscard]] GemmIdentityTier identity_tier() const final {
    return GemmIdentityTier::kToleranceGated;
  }

  /// Weight bit-width this backend consumes (8 or 4). Feeding it a
  /// QuantizedMatrix of any other width throws
  /// QuantizationError(kBitsMismatch).
  [[nodiscard]] virtual int weight_bits() const = 0;

  /// C[m,n] (+)= A[m,k] * Q^T, Q quantized [n, k]. Degenerate shapes
  /// (m, k, or n == 0) are handled like the float ops: C is zeroed when not
  /// accumulating and the kernel is never entered. Throws QuantizationError
  /// for bit-width (kBitsMismatch) or dimension (kShapeMismatch) disagreements.
  void qgemm(const float* a, const QuantizedMatrix& q, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate = false) const;

 protected:
  /// Same always-accumulate / nonzero-shapes contract as the float kernels.
  virtual void do_qgemm(const float* a, const QuantizedMatrix& q, float* c,
                        std::size_t m, std::size_t k, std::size_t n) const = 0;
};

/// Downcast helper: the backend as a quantized backend, or nullptr when it
/// is a plain float (bitwise-tier) backend.
const QuantizedGemmBackend* as_quantized_backend(const GemmBackend* backend);

// ----------------------------------------------------------------- registry

/// All compiled-in backends in registration order: scalar_ref, blocked_omp,
/// avx2 (when the toolchain supported -mavx2), avx512 (when the toolchain
/// supported -mavx512f and the build did not disable it), sparse_spike,
/// int8_lut, int4_lut.
std::span<const GemmBackend* const> gemm_backends();

/// Lookup by name; nullptr when no such backend is compiled in.
const GemmBackend* find_gemm_backend(std::string_view name);

/// Resolve an explicit override (nullptr or empty = automatic selection:
/// preferred_dense_gemm_backend()). Throws std::invalid_argument for unknown
/// names and std::runtime_error for known backends this machine cannot run —
/// both list every registered backend and its availability — so a typo'd or
/// impossible DTSNN_GEMM_BACKEND fails loudly instead of silently falling
/// back.
const GemmBackend& resolve_gemm_backend(const char* override_name);

/// The process default: resolve_gemm_backend(getenv("DTSNN_GEMM_BACKEND")),
/// evaluated once and cached.
const GemmBackend& default_gemm_backend();

/// The best dense bitwise backend this machine can run: avx512 > avx2 >
/// blocked_omp. Automatic selection uses this.
const GemmBackend& preferred_dense_gemm_backend();

/// Runtime CPUID check used to gate the avx2 backend.
bool cpu_supports_avx2();

/// Runtime CPUID check (AVX-512 Foundation) used to gate the avx512 backend.
bool cpu_supports_avx512();

// -------------------------------------------------------------------- stats

/// Accounting for one GEMM op kind.
struct GemmOpStats {
  std::size_t calls = 0;
  double flops = 0.0;       ///< dense FLOP count, 2*m*k*n per call
  double a_elements = 0.0;  ///< total elements of A seen
  double a_nonzeros = 0.0;  ///< nonzero elements of A seen
  /// Element-weighted nonzero density of A across all calls (spike density
  /// when A carries spike activations).
  [[nodiscard]] double density() const {
    return a_elements > 0.0 ? a_nonzeros / a_elements : 0.0;
  }
};

/// Per-op accounting for one attribution bucket (the context total, or one
/// executed backend's slice under GemmStats::by_backend).
struct GemmOpBreakdown {
  GemmOpStats nn;     ///< gemm
  GemmOpStats at;     ///< gemm_at
  GemmOpStats bt;     ///< gemm_bt
  GemmOpStats quant;  ///< qgemm (quantized-weight op; flops = dense equivalent)
  [[nodiscard]] std::size_t calls() const {
    return nn.calls + at.calls + bt.calls + quant.calls;
  }
  [[nodiscard]] double flops() const {
    return nn.flops + at.flops + bt.flops + quant.flops;
  }
  [[nodiscard]] double elements() const {
    return nn.a_elements + at.a_elements + bt.a_elements + quant.a_elements;
  }
  [[nodiscard]] double nonzeros() const {
    return nn.a_nonzeros + at.a_nonzeros + bt.a_nonzeros + quant.a_nonzeros;
  }
  [[nodiscard]] double density() const {
    const double e = elements();
    return e > 0.0 ? nonzeros() / e : 0.0;
  }
};

struct GemmStats : GemmOpBreakdown {
  /// The same accounting attributed to the backend that executed each call,
  /// keyed by backend name: one entry per backend the context ran between
  /// resets (set_backend can switch it). Conservation holds exactly: summing
  /// any counter across by_backend reproduces the aggregate above.
  std::map<std::string, GemmOpBreakdown, std::less<>> by_backend;
};

// ------------------------------------------------------------------ context

/// A backend selection plus per-op accounting, threaded through every GEMM
/// call site. Thread-safe for concurrent GEMM calls (parallel evaluation
/// replicas share the global context); set_backend is not synchronized
/// against in-flight calls and must happen between them.
class GemmContext {
 public:
  /// Uses default_gemm_backend().
  GemmContext();
  explicit GemmContext(const GemmBackend& backend) : backend_(&backend) {}

  /// Process-wide default context used by layers with no explicit context.
  static GemmContext& global();

  [[nodiscard]] const GemmBackend& backend() const { return *backend_; }
  void set_backend(const GemmBackend& backend) { backend_ = &backend; }

  /// Accounting costs one pass over A per call (the nonzero count) plus a
  /// mutex acquisition — cheap next to the GEMM itself, but measurable on
  /// very sparse or tiny ops. Latency-critical callers can turn it off;
  /// disabled calls record nothing at all.
  void set_stats_enabled(bool enabled) { stats_enabled_ = enabled; }
  [[nodiscard]] bool stats_enabled() const { return stats_enabled_; }

  void gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
            std::size_t n, bool accumulate = false);
  void gemm_at(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);
  void gemm_bt(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);

  /// Quantized-weight op; valid only when the selected backend is a
  /// QuantizedGemmBackend (throws QuantizationError(kNotQuantized)
  /// otherwise — layers check as_quantized_backend before dispatching here).
  void qgemm(const float* a, const QuantizedMatrix& q, float* c, std::size_t m,
             std::size_t k, std::size_t n, bool accumulate = false);

  [[nodiscard]] GemmStats stats() const DTSNN_EXCLUDES(mutex_);
  void reset_stats() DTSNN_EXCLUDES(mutex_);

 private:
  /// Shared accounting step: when stats are on, measure A's density and
  /// record the call under both the aggregate stats and the selected
  /// backend's attribution slice. Disabled stats skip the density pass.
  void record(GemmOpStats GemmOpBreakdown::* op, const float* a, std::size_t m,
              std::size_t k, std::size_t n) DTSNN_EXCLUDES(mutex_);

  const GemmBackend* backend_;
  bool stats_enabled_ = true;
  mutable Mutex mutex_;
  GemmStats stats_ DTSNN_GUARDED_BY(mutex_);
};

}  // namespace dtsnn::util
