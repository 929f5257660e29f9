#include "util/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/env.h"
#include "util/gemm_internal.h"
#include "util/logging.h"
#include "util/quant.h"

namespace dtsnn::util {

// ------------------------------------------------------- base-class guards

namespace {

/// Shared degenerate-shape handling: zero C when overwriting, and report
/// whether the kernel has any work to do. k == 0 with accumulate == true is
/// a deterministic no-op; with accumulate == false it deterministically
/// zeroes C instead of relying on kernel loop fall-through.
bool prepare_output(float* c, std::size_t m, std::size_t k, std::size_t n,
                    bool accumulate) {
  if (!accumulate && m != 0 && n != 0) std::memset(c, 0, m * n * sizeof(float));
  return m != 0 && k != 0 && n != 0;
}

}  // namespace

void GemmBackend::gemm(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate) const {
  if (prepare_output(c, m, k, n, accumulate)) do_gemm(a, b, c, m, k, n);
}

void GemmBackend::gemm_at(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n, bool accumulate) const {
  if (prepare_output(c, m, k, n, accumulate)) do_gemm_at(a, b, c, m, k, n);
}

void GemmBackend::gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n, bool accumulate) const {
  if (prepare_output(c, m, k, n, accumulate)) do_gemm_bt(a, b, c, m, k, n);
}

void QuantizedGemmBackend::qgemm(const float* a, const QuantizedMatrix& q, float* c,
                                 std::size_t m, std::size_t k, std::size_t n,
                                 bool accumulate) const {
  if (q.bits() != weight_bits() && !(q.empty() && k == 0 && n == 0)) {
    throw QuantizationError(
        QuantizationError::Kind::kBitsMismatch,
        format("GEMM backend '%.*s' consumes %d-bit weights but was given a "
               "%d-bit QuantizedMatrix",
               static_cast<int>(name().size()), name().data(), weight_bits(),
               q.bits()));
  }
  if (q.out() != n || q.in() != k) {
    throw QuantizationError(
        QuantizationError::Kind::kShapeMismatch,
        format("qgemm shape mismatch: op expects Q[%zu x %zu] but the "
               "QuantizedMatrix is [%zu x %zu]",
               n, k, q.out(), q.in()));
  }
  if (prepare_output(c, m, k, n, accumulate)) do_qgemm(a, q, c, m, k, n);
}

const QuantizedGemmBackend* as_quantized_backend(const GemmBackend* backend) {
  return dynamic_cast<const QuantizedGemmBackend*>(backend);
}

// ------------------------------------------------------------------ kernels

namespace {

// ---- scalar reference: the plain loops that define the bitwise contract.

void scalar_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0f) continue;  // spikes are sparse; zero rows contribute nothing
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void scalar_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  // A^T row i is column i of A[k,m]; k-major iteration streams A and B while
  // every output element still accumulates in ascending-k order.
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aval = arow[i];
      if (aval == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void scalar_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  // Sequential per-output dot product: one local accumulator per element,
  // added into C once. No reassociation — this order is the contract the
  // vectorized backends reproduce lane-per-column.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

// ---- blocked + OpenMP: the historical cache-blocked kernels. The omp simd
// pragmas sit on loops over *independent* output columns, so vector lanes
// never share an accumulator and the scalar_ref order is preserved.

constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockN = 256;

void blocked_gemm(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) {
#pragma omp parallel for schedule(static)
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::size_t i1 = std::min(i0 + kBlockM, m);
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::size_t k1 = std::min(k0 + kBlockK, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::size_t j1 = std::min(j0 + kBlockN, n);
        for (std::size_t i = i0; i < i1; ++i) {
          float* crow = c + i * n;
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const float aval = a[i * k + kk];
            if (aval == 0.0f) continue;
            const float* brow = b + kk * n;
#pragma omp simd
            for (std::size_t j = j0; j < j1; ++j) crow[j] += aval * brow[j];
          }
        }
      }
    }
  }
}

void blocked_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
#pragma omp parallel for schedule(static)
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockM) {
    const std::size_t i1 = std::min(i0 + kBlockM, m);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* arow = a + kk * m;
      const float* brow = b + kk * n;
      for (std::size_t i = i0; i < i1; ++i) {
        const float aval = arow[i];
        if (aval == 0.0f) continue;
        float* crow = c + i * n;
#pragma omp simd
        for (std::size_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      }
    }
  }
}

void blocked_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  // A simd reduction over k would reassociate the dot product and break the
  // bitwise contract. Instead vectorize across independent output columns:
  // eight B^T rows are packed k-major and eight per-column accumulators
  // advance together through k — each output still sums sequentially in
  // ascending-k order with one add into C, exactly like scalar_ref, but the
  // lane updates auto-vectorize portably.
  constexpr std::size_t kLanes = internal::kBtLanes;
  std::vector<float> packed(k * kLanes);
  std::size_t j0 = 0;
  for (; j0 + kLanes <= n; j0 += kLanes) {
    internal::pack_bt_columns(b, k, j0, packed.data());
    const float* pk = packed.data();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float acc[kLanes] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aval = arow[kk];
        const float* prow = pk + kk * kLanes;
#pragma omp simd
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] += aval * prow[l];
      }
      float* cj = c + i * n + j0;
      for (std::size_t l = 0; l < kLanes; ++l) cj[l] += acc[l];
    }
  }
  internal::gemm_bt_scalar_tail(a, b, c, m, k, n, j0);
}

// ---- sparse_spike: CSR-style row compression of A. Each row of A is first
// compressed (branchlessly) into (index, value) pairs, then only the
// touched B rows are streamed. Binary spikes (value exactly 1.0f) take a
// multiply-free accumulation — 1.0f * x == x bitwise, so the fast path does
// not disturb the contract. Visit order stays ascending-k per output with
// the same zero-skip rule, hence bitwise identity with scalar_ref.

void sparse_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n) {
#pragma omp parallel
  {
    std::vector<std::uint32_t> idx(k);
    std::vector<float> val(k);
#pragma omp for schedule(static) nowait
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      std::size_t nnz = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        idx[nnz] = static_cast<std::uint32_t>(kk);
        val[nnz] = arow[kk];
        nnz += arow[kk] != 0.0f;  // branchless compress: predictable pipeline
      }
      float* crow = c + i * n;
      for (std::size_t s = 0; s < nnz; ++s) {
        const float* brow = b + static_cast<std::size_t>(idx[s]) * n;
        const float v = val[s];
        if (v == 1.0f) {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) crow[j] += brow[j];
        } else {
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) crow[j] += v * brow[j];
        }
      }
    }
  }
}

// ------------------------------------------------------------- backend defs

class ScalarRefBackend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "scalar_ref"; }

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
    scalar_gemm(a, b, c, m, k, n);
  }
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    scalar_gemm_at(a, b, c, m, k, n);
  }
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    scalar_gemm_bt(a, b, c, m, k, n);
  }
};

class BlockedOmpBackend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "blocked_omp"; }

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
    blocked_gemm(a, b, c, m, k, n);
  }
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_gemm_at(a, b, c, m, k, n);
  }
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_gemm_bt(a, b, c, m, k, n);
  }
};

class SparseSpikeBackend final : public GemmBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "sparse_spike"; }

 protected:
  void do_gemm(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
               std::size_t n) const override {
    sparse_gemm(a, b, c, m, k, n);
  }
  // The A^T (dense gradients) and B^T (dense dot products) ops have no spike
  // structure to exploit; delegate to the blocked kernels, which follow the
  // same bitwise contract.
  void do_gemm_at(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_gemm_at(a, b, c, m, k, n);
  }
  void do_gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t k, std::size_t n) const override {
    blocked_gemm_bt(a, b, c, m, k, n);
  }
};

std::size_t count_nonzeros(const float* a, std::size_t count) {
  std::size_t zeros = 0;
  // Integer reduction: addition over size_t is associative, so the lanes'
  // reassociation cannot change the count — the float-accumulation
  // reassociation hazard the invariant linter bans does not apply here.
  // lint:allow(omp-simd-reduction): integer count, no float accumulation.
#pragma omp simd reduction(+ : zeros)
  for (std::size_t i = 0; i < count; ++i) zeros += a[i] == 0.0f;
  return count - zeros;
}

}  // namespace

// ------------------------------------------------- shared gemm_bt helpers

namespace internal {

void pack_bt_columns(const float* b, std::size_t k, std::size_t j0, float* packed) {
  for (std::size_t l = 0; l < kBtLanes; ++l) {
    const float* brow = b + (j0 + l) * k;
    for (std::size_t kk = 0; kk < k; ++kk) packed[kk * kBtLanes + l] = brow[kk];
  }
}

void gemm_bt_scalar_tail(const float* a, const float* b, float* c, std::size_t m,
                         std::size_t k, std::size_t n, std::size_t j0) {
  if (j0 >= n) return;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t j = j0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

}  // namespace internal

// ----------------------------------------------------------------- registry

bool cpu_supports_avx2() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

std::span<const GemmBackend* const> gemm_backends() {
  static const std::vector<const GemmBackend*> backends = [] {
    static const ScalarRefBackend scalar_ref;
    static const BlockedOmpBackend blocked_omp;
    static const SparseSpikeBackend sparse_spike;
    std::vector<const GemmBackend*> v{&scalar_ref, &blocked_omp};
    if (const GemmBackend* avx2 = avx2_backend_or_null()) v.push_back(avx2);
    if (const GemmBackend* avx512 = avx512_backend_or_null()) v.push_back(avx512);
    v.push_back(&sparse_spike);
    // Quantized tier: listed and forceable by name, but never auto-selected
    // (resolve_gemm_backend's automatic path considers bitwise backends only,
    // since the quantized tier additionally requires calibrated weights).
    v.push_back(int8_lut_backend());
    v.push_back(int4_lut_backend());
    return v;
  }();
  return backends;
}

const GemmBackend* find_gemm_backend(std::string_view name) {
  for (const GemmBackend* backend : gemm_backends()) {
    if (backend->name() == name) return backend;
  }
  return nullptr;
}

namespace {

/// "name, name (unavailable on this machine), ..." across the registry —
/// appended to every resolution failure so a typo'd or impossible
/// DTSNN_GEMM_BACKEND is self-diagnosing.
std::string describe_registered_backends() {
  std::string out;
  for (const GemmBackend* backend : gemm_backends()) {
    out += out.empty() ? "" : ", ";
    out += backend->name();
    if (!backend->available()) out += " (unavailable on this machine)";
  }
  return out;
}

}  // namespace

const GemmBackend& preferred_dense_gemm_backend() {
  for (const char* name : {"avx512", "avx2"}) {
    if (const GemmBackend* backend = find_gemm_backend(name);
        backend != nullptr && backend->available()) {
      return *backend;
    }
  }
  return *find_gemm_backend("blocked_omp");
}

const GemmBackend& resolve_gemm_backend(const char* override_name) {
  if (override_name != nullptr && *override_name != '\0') {
    const GemmBackend* forced = find_gemm_backend(override_name);
    if (forced == nullptr) {
      throw std::invalid_argument("unknown GEMM backend '" + std::string(override_name) +
                                  "' (registered: " + describe_registered_backends() +
                                  ")");
    }
    if (!forced->available()) {
      throw std::runtime_error("GEMM backend '" + std::string(override_name) +
                               "' is not available on this machine (registered: " +
                               describe_registered_backends() + ")");
    }
    return *forced;
  }
  return preferred_dense_gemm_backend();
}

const GemmBackend& default_gemm_backend() {
  // Read exactly once (static init is itself serialized), never after
  // threads that might setenv exist.
  static const GemmBackend& selected = [] {
    const auto env = env_string("DTSNN_GEMM_BACKEND");
    return std::cref(resolve_gemm_backend(env ? env->c_str() : nullptr));
  }();
  return selected;
}

// ------------------------------------------------------------------ context

GemmContext::GemmContext() : backend_(&default_gemm_backend()) {}

GemmContext& GemmContext::global() {
  static GemmContext context;
  return context;
}

void GemmContext::record(GemmOpStats GemmOpBreakdown::* op, const float* a,
                         std::size_t m, std::size_t k, std::size_t n) {
  if (!stats_enabled_) return;
  const double elements = static_cast<double>(m) * static_cast<double>(k);
  const std::size_t nnz = m && k ? count_nonzeros(a, m * k) : 0;
  const double flops = 2.0 * elements * static_cast<double>(n);
  MutexLock lock(mutex_);
  for (GemmOpStats* s :
       {&(stats_.*op), &(stats_.by_backend[std::string(backend_->name())].*op)}) {
    ++s->calls;
    s->flops += flops;
    s->a_elements += elements;
    s->a_nonzeros += static_cast<double>(nnz);
  }
}

void GemmContext::gemm(const float* a, const float* b, float* c, std::size_t m,
                       std::size_t k, std::size_t n, bool accumulate) {
  record(&GemmOpBreakdown::nn, a, m, k, n);
  backend_->gemm(a, b, c, m, k, n, accumulate);
}

void GemmContext::gemm_at(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n, bool accumulate) {
  // A is stored [k, m]; element count is the same either way.
  record(&GemmOpBreakdown::at, a, m, k, n);
  backend_->gemm_at(a, b, c, m, k, n, accumulate);
}

void GemmContext::gemm_bt(const float* a, const float* b, float* c, std::size_t m,
                          std::size_t k, std::size_t n, bool accumulate) {
  record(&GemmOpBreakdown::bt, a, m, k, n);
  backend_->gemm_bt(a, b, c, m, k, n, accumulate);
}

void GemmContext::qgemm(const float* a, const QuantizedMatrix& q, float* c,
                        std::size_t m, std::size_t k, std::size_t n,
                        bool accumulate) {
  const QuantizedGemmBackend* qb = as_quantized_backend(backend_);
  if (qb == nullptr) {
    throw QuantizationError(
        QuantizationError::Kind::kNotQuantized,
        format("qgemm dispatched to non-quantized GEMM backend '%.*s'",
               static_cast<int>(backend_->name().size()), backend_->name().data()));
  }
  record(&GemmOpBreakdown::quant, a, m, k, n);
  qb->qgemm(a, q, c, m, k, n, accumulate);
}

GemmStats GemmContext::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void GemmContext::reset_stats() {
  MutexLock lock(mutex_);
  stats_ = GemmStats{};
}

}  // namespace dtsnn::util
