// GEMM backend-dispatch subsystem tests.
//
// The load-bearing property is the bitwise identity contract (util/gemm.h):
// every registered backend must produce bit-for-bit the same output as
// scalar_ref for all three ops, on awkward shapes (1, primes, larger than
// the cache blocks), dense, all-zero, and spike-sparse operands — because
// DT-SNN's early-exit *decisions* gate on exact logit values, and backends
// must be swappable without changing any decision. The suite closes with an
// end-to-end check that BatchedSequentialEngine emits identical results
// under every backend, on every dataset preset.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "snn/conv.h"
#include "util/gemm.h"
#include "util/rng.h"

namespace dtsnn {
namespace {

enum class Fill { kDense, kAllZero, kSparse90Binary, kSparse70Graded };

std::vector<float> make_matrix(std::size_t rows, std::size_t cols, Fill fill,
                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> m(rows * cols, 0.0f);
  switch (fill) {
    case Fill::kDense:
      for (auto& v : m) v = static_cast<float>(rng.gaussian());
      break;
    case Fill::kAllZero:
      break;
    case Fill::kSparse90Binary:  // LIF spike trains: 0/1 at ~10% density
      for (auto& v : m) v = rng.bernoulli(0.1) ? 1.0f : 0.0f;
      break;
    case Fill::kSparse70Graded:  // 30% nonzero, arbitrary magnitudes
      for (auto& v : m) v = rng.bernoulli(0.3) ? static_cast<float>(rng.gaussian()) : 0.0f;
      break;
  }
  return m;
}

const char* fill_name(Fill fill) {
  switch (fill) {
    case Fill::kDense: return "dense";
    case Fill::kAllZero: return "all_zero";
    case Fill::kSparse90Binary: return "sparse90_binary";
    case Fill::kSparse70Graded: return "sparse70_graded";
  }
  return "?";
}

// ----------------------------------------------------------------- registry

TEST(GemmRegistry, ShipsAllBackends) {
  // scalar_ref, blocked_omp, sparse_spike, and the quantized LUT tier are
  // unconditional; the ISA backends (avx2, avx512) are present whenever the
  // toolchain could target them (this repo's CI always can), and must be
  // consistently gated by runtime CPUID. Nothing else is registered.
  for (const char* name :
       {"scalar_ref", "blocked_omp", "sparse_spike", "int8_lut", "int4_lut"}) {
    const util::GemmBackend* backend = util::find_gemm_backend(name);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_TRUE(backend->available()) << name;
    EXPECT_EQ(backend->name(), name);
  }
  std::vector<std::string> expected{"scalar_ref", "blocked_omp"};
  if (const util::GemmBackend* avx2 = util::find_gemm_backend("avx2")) {
    EXPECT_EQ(avx2->available(), util::cpu_supports_avx2());
    expected.emplace_back("avx2");
  }
  if (const util::GemmBackend* avx512 = util::find_gemm_backend("avx512")) {
    EXPECT_EQ(avx512->available(), util::cpu_supports_avx512());
    expected.emplace_back("avx512");
  }
  for (const char* name : {"sparse_spike", "int8_lut", "int4_lut"}) {
    expected.emplace_back(name);
  }
  std::vector<std::string> registered;
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    registered.emplace_back(backend->name());
  }
  EXPECT_EQ(registered, expected);
  EXPECT_EQ(util::find_gemm_backend("no_such_backend"), nullptr);

  // Names that are no longer registered must fail loudly with the registry
  // listing, so a stale DTSNN_GEMM_BACKEND value cannot fall back silently.
  for (const char* retired : {"adaptive", "int8_spike", "int4_spike"}) {
    EXPECT_EQ(util::find_gemm_backend(retired), nullptr) << retired;
    try {
      util::resolve_gemm_backend(retired);
      FAIL() << "retired backend name " << retired << " must not resolve";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(retired), std::string::npos) << msg;
      for (const std::string& name : registered) {
        EXPECT_NE(msg.find(name), std::string::npos) << msg << " should list " << name;
      }
    }
  }
}

TEST(GemmRegistry, IdentityTiers) {
  // The float backends honor the bitwise contract; only the quantized tier
  // is tolerance-gated, and exactly those backends downcast to
  // QuantizedGemmBackend.
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    const bool quantized =
        backend->identity_tier() == util::GemmIdentityTier::kToleranceGated;
    EXPECT_EQ(util::as_quantized_backend(backend) != nullptr, quantized)
        << backend->name();
  }
  EXPECT_EQ(util::find_gemm_backend("scalar_ref")->identity_tier(),
            util::GemmIdentityTier::kBitwise);
  // Exactly the two LUT backends form the quantized tier, one per bit-width.
  std::size_t quantized = 0;
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    quantized += util::as_quantized_backend(backend) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(quantized, 2u);
  const auto* int8_lut = util::as_quantized_backend(util::find_gemm_backend("int8_lut"));
  const auto* int4_lut = util::as_quantized_backend(util::find_gemm_backend("int4_lut"));
  ASSERT_NE(int8_lut, nullptr);
  ASSERT_NE(int4_lut, nullptr);
  EXPECT_EQ(int8_lut->weight_bits(), 8);
  EXPECT_EQ(int4_lut->weight_bits(), 4);
  // Auto-selection must never pick the quantized tier (it additionally
  // requires calibrated weights).
  EXPECT_EQ(util::resolve_gemm_backend(nullptr).identity_tier(),
            util::GemmIdentityTier::kBitwise);
}

TEST(GemmRegistry, ResolutionRules) {
  // Explicit names resolve to themselves; unknown names throw (a typo'd
  // DTSNN_GEMM_BACKEND must fail loudly, not fall back silently), and the
  // message lists every registered backend so the failure is self-diagnosing.
  EXPECT_EQ(&util::resolve_gemm_backend("scalar_ref"),
            util::find_gemm_backend("scalar_ref"));
  try {
    util::resolve_gemm_backend("no_such_backend");
    FAIL() << "unknown backend name must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_backend"), std::string::npos) << msg;
    for (const util::GemmBackend* backend : util::gemm_backends()) {
      EXPECT_NE(msg.find(std::string(backend->name())), std::string::npos)
          << msg << " should list " << backend->name();
    }
  }
  // Known-but-impossible names throw a distinct error with the same registry
  // listing, marking which entries this machine cannot run.
  for (const util::GemmBackend* backend : util::gemm_backends()) {
    if (backend->available()) continue;
    try {
      util::resolve_gemm_backend(std::string(backend->name()).c_str());
      FAIL() << backend->name() << " is unavailable here and must not resolve";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not available"), std::string::npos) << msg;
      EXPECT_NE(msg.find("unavailable on this machine"), std::string::npos) << msg;
    }
  }

  // Automatic selection: the best dense bitwise backend this machine can
  // run — avx512 > avx2 > blocked_omp.
  const util::GemmBackend& automatic = util::resolve_gemm_backend(nullptr);
  EXPECT_EQ(&automatic, &util::preferred_dense_gemm_backend());
  const util::GemmBackend* avx512 = util::find_gemm_backend("avx512");
  const util::GemmBackend* avx2 = util::find_gemm_backend("avx2");
  if (avx512 != nullptr && avx512->available()) {
    EXPECT_EQ(&automatic, avx512);
  } else if (avx2 != nullptr && avx2->available()) {
    EXPECT_EQ(&automatic, avx2);
  } else {
    EXPECT_EQ(&automatic, util::find_gemm_backend("blocked_omp"));
  }
  EXPECT_EQ(&util::resolve_gemm_backend(""), &automatic);
}

TEST(GemmContext, TracksCallsFlopsAndDensity) {
  util::GemmContext ctx(*util::find_gemm_backend("scalar_ref"));
  const std::size_t m = 4, k = 8, n = 6;
  std::vector<float> a(m * k, 0.0f), b(k * n, 1.0f), c(m * n);
  for (std::size_t i = 0; i < a.size(); i += 2) a[i] = 1.0f;  // density 0.5

  ctx.gemm(a.data(), b.data(), c.data(), m, k, n);
  ctx.gemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  util::GemmStats s = ctx.stats();
  EXPECT_EQ(s.nn.calls, 2u);
  EXPECT_EQ(s.calls(), 2u);
  EXPECT_DOUBLE_EQ(s.nn.flops, 2.0 * 2 * m * k * n);
  EXPECT_DOUBLE_EQ(s.nn.density(), 0.5);

  std::vector<float> at(k * m, 1.0f), bt(n * k, 1.0f);
  ctx.gemm_at(at.data(), b.data(), c.data(), m, k, n);
  ctx.gemm_bt(a.data(), bt.data(), c.data(), m, k, n);
  s = ctx.stats();
  EXPECT_EQ(s.at.calls, 1u);
  EXPECT_EQ(s.bt.calls, 1u);
  EXPECT_EQ(s.calls(), 4u);
  EXPECT_DOUBLE_EQ(s.at.density(), 1.0);
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 4 * m * k * n);

  // by_backend attributes every call to the backend that executed it: one
  // slice matching the aggregate here ...
  ASSERT_EQ(s.by_backend.size(), 1u);
  EXPECT_EQ(s.by_backend.begin()->first, "scalar_ref");
  EXPECT_EQ(s.by_backend.begin()->second.calls(), s.calls());
  EXPECT_DOUBLE_EQ(s.by_backend.begin()->second.flops(), s.flops());

  // ... and, after a backend switch, slices that sum exactly to it.
  ctx.set_backend(*util::find_gemm_backend("blocked_omp"));
  ctx.gemm(a.data(), b.data(), c.data(), m, k, n);
  ctx.gemm_at(at.data(), b.data(), c.data(), m, k, n);
  s = ctx.stats();
  ASSERT_EQ(s.by_backend.size(), 2u);
  const util::GemmOpBreakdown& ref = s.by_backend.at("scalar_ref");
  const util::GemmOpBreakdown& blocked = s.by_backend.at("blocked_omp");
  EXPECT_EQ(ref.calls(), 4u);
  EXPECT_EQ(blocked.nn.calls, 1u);
  EXPECT_EQ(blocked.at.calls, 1u);
  EXPECT_EQ(blocked.bt.calls, 0u);
  EXPECT_EQ(ref.calls() + blocked.calls(), s.calls());
  EXPECT_EQ(ref.nn.calls + blocked.nn.calls, s.nn.calls);
  EXPECT_DOUBLE_EQ(ref.flops() + blocked.flops(), s.flops());
  EXPECT_DOUBLE_EQ(ref.nn.flops + blocked.nn.flops, s.nn.flops);
  EXPECT_DOUBLE_EQ(ref.elements() + blocked.elements(), s.elements());
  EXPECT_DOUBLE_EQ(ref.nonzeros() + blocked.nonzeros(), s.nonzeros());
  ctx.set_backend(*util::find_gemm_backend("scalar_ref"));

  ctx.reset_stats();
  EXPECT_EQ(ctx.stats().calls(), 0u);

  // Disabled accounting records nothing (the opt-out for latency-critical
  // callers); the math itself is unaffected.
  std::vector<float> expected(m * n), c2(m * n);
  ctx.gemm(a.data(), b.data(), expected.data(), m, k, n);
  EXPECT_EQ(ctx.stats().calls(), 1u);
  ctx.set_stats_enabled(false);
  ctx.gemm(a.data(), b.data(), c2.data(), m, k, n);
  EXPECT_EQ(ctx.stats().calls(), 1u);
  EXPECT_EQ(expected, c2);
  ctx.set_stats_enabled(true);
}

// ------------------------------------------------- degenerate-shape guards

class GemmBackendEach : public testing::TestWithParam<const util::GemmBackend*> {};

TEST_P(GemmBackendEach, DegenerateShapesAreDeterministic) {
  const util::GemmBackend& backend = *GetParam();
  if (!backend.available()) GTEST_SKIP() << backend.name() << " unavailable here";

  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};

  // k == 0, overwrite: C must be zeroed (not left with stale garbage).
  std::vector<float> c(6, 42.0f);
  backend.gemm(a, b, c.data(), 2, 0, 3);
  for (const float v : c) EXPECT_EQ(v, 0.0f);

  // k == 0, accumulate: C must be untouched.
  std::vector<float> c2(6, 42.0f);
  backend.gemm(a, b, c2.data(), 2, 0, 3, /*accumulate=*/true);
  for (const float v : c2) EXPECT_EQ(v, 42.0f);

  // m == 0 / n == 0: C has no elements; the call must simply not crash —
  // including with null data pointers, which is what a zero-sized Tensor
  // hands out.
  backend.gemm(nullptr, nullptr, nullptr, 0, 4, 3);
  backend.gemm(a, b, nullptr, 2, 2, 0);
  backend.gemm_at(nullptr, nullptr, nullptr, 0, 0, 0);
  backend.gemm_bt(nullptr, nullptr, nullptr, 0, 0, 0, /*accumulate=*/true);

  // Same guards via the dispatching context.
  util::GemmContext ctx(backend);
  std::vector<float> c3(6, 7.0f);
  ctx.gemm_at(a, b, c3.data(), 2, 0, 3);
  for (const float v : c3) EXPECT_EQ(v, 0.0f);
  ctx.gemm_bt(a, b, c3.data(), 2, 0, 3, /*accumulate=*/true);
  for (const float v : c3) EXPECT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, GemmBackendEach,
                         testing::ValuesIn(util::gemm_backends().begin(),
                                           util::gemm_backends().end()),
                         [](const auto& param_info) {
                           return std::string(param_info.param->name());
                         });

// ------------------------------------------------- bitwise identity suite

struct IdentityCase {
  std::size_t m, k, n;
  Fill fill;
};

class GemmBackendIdentity
    : public testing::TestWithParam<std::tuple<const util::GemmBackend*, IdentityCase>> {};

/// Every backend op must be bit-for-bit equal to scalar_ref — EXPECT_EQ on
/// floats, no tolerance. Shapes mix 1s, primes, and dimensions larger than
/// the blocked kernel's tiles (64/256) so every block-boundary and tail path
/// is crossed.
TEST_P(GemmBackendIdentity, BitwiseEqualToScalarRef) {
  const auto& [backend, c] = GetParam();
  if (!backend->available()) GTEST_SKIP() << backend->name() << " unavailable here";
  const util::GemmBackend& ref = *util::find_gemm_backend("scalar_ref");

  for (const bool accumulate : {false, true}) {
    // NN: A [m,k] carries the (possibly sparse) activations.
    {
      const auto a = make_matrix(c.m, c.k, c.fill, 11);
      const auto b = make_matrix(c.k, c.n, Fill::kDense, 12);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 13);  // accumulate seed
      auto expected = out;
      backend->gemm(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm acc=" << accumulate << " elem " << i;
      }
    }
    // A^T: A stored [k,m].
    {
      const auto a = make_matrix(c.k, c.m, c.fill, 14);
      const auto b = make_matrix(c.k, c.n, Fill::kDense, 15);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 16);
      auto expected = out;
      backend->gemm_at(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm_at(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm_at acc=" << accumulate << " elem " << i;
      }
    }
    // B^T: B stored [n,k]; A carries the activations (train-forward form).
    {
      const auto a = make_matrix(c.m, c.k, c.fill, 17);
      const auto b = make_matrix(c.n, c.k, Fill::kDense, 18);
      auto out = make_matrix(c.m, c.n, Fill::kDense, 19);
      auto expected = out;
      backend->gemm_bt(a.data(), b.data(), out.data(), c.m, c.k, c.n, accumulate);
      ref.gemm_bt(a.data(), b.data(), expected.data(), c.m, c.k, c.n, accumulate);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], expected[i])
            << backend->name() << " gemm_bt acc=" << accumulate << " elem " << i;
      }
    }
  }
}

std::vector<IdentityCase> identity_cases() {
  const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes{
      {1, 1, 1},        // minimal
      {1, 7, 1},        // vector-ish primes
      {3, 5, 7},        // small primes
      {13, 31, 11},     // primes below the vector width boundary
      {31, 97, 17},     // primes straddling the 8-lane tail handling
      {65, 257, 33},    // one past the 64/256 cache blocks, odd n
      {70, 300, 72},    // beyond all block sizes, n not a multiple of 8
  };
  std::vector<IdentityCase> cases;
  for (const auto& [m, k, n] : shapes) {
    for (const Fill fill :
         {Fill::kDense, Fill::kAllZero, Fill::kSparse90Binary, Fill::kSparse70Graded}) {
      cases.push_back({m, k, n, fill});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Contract, GemmBackendIdentity,
    testing::Combine(testing::ValuesIn(util::gemm_backends().begin(),
                                       util::gemm_backends().end()),
                     testing::ValuesIn(identity_cases())),
    [](const auto& param_info) {
      const util::GemmBackend* backend = std::get<0>(param_info.param);
      const IdentityCase& c = std::get<1>(param_info.param);
      return std::string(backend->name()) + "_" + std::to_string(c.m) + "x" +
             std::to_string(c.k) + "x" + std::to_string(c.n) + "_" + fill_name(c.fill);
    });

// -------------------------------------------- conv sparse-train equivalence

/// The training forward picks the A-stationary zero-skip form for sparse
/// inputs and the dense dot-product form otherwise; the eval forward picks
/// scatter or im2col GEMM. All four must agree bitwise on the same input —
/// this pins the kernel-form equivalence the sparse_spike training path
/// relies on, on both sides of the density threshold.
TEST(ConvSparseTraining, TrainAndEvalForwardsBitwiseEqual) {
  util::Rng rng(5);
  snn::Conv2d conv(4, 8, 3, 1, 1, /*bias=*/true, rng);
  for (const double density : {0.05, 0.2, 0.6, 1.0}) {
    snn::Tensor x({3, 4, 9, 9});
    util::Rng xr(static_cast<std::uint64_t>(density * 100) + 1);
    for (auto& v : x.span()) {
      v = xr.bernoulli(density) ? static_cast<float>(xr.gaussian()) : 0.0f;
    }
    conv.set_time(1, 3);
    const snn::Tensor train_out = conv.forward(x, /*train=*/true);
    conv.set_time(1, 3);
    const snn::Tensor eval_out = conv.forward(x, /*train=*/false);
    ASSERT_EQ(train_out.shape(), eval_out.shape()) << density;
    for (std::size_t i = 0; i < train_out.numel(); ++i) {
      ASSERT_EQ(train_out.data()[i], eval_out.data()[i])
          << "density " << density << " elem " << i;
    }
  }
}

// --------------------------------------------------- end-to-end decisions

core::Experiment micro_experiment(const std::string& dataset, std::size_t timesteps) {
  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  return run_experiment(spec);
}

/// Acceptance: BatchedSequentialEngine decisions — predictions, exit
/// timesteps, entropies, and full logit trajectories — are identical under
/// every bitwise-tier backend, on all four dataset presets. The quantized
/// tier is tolerance-gated instead (tests/test_quantized.cpp) and needs
/// calibrated weights, so it is excluded here.
TEST(GemmBackendEndToEnd, BatchedEngineDecisionsIdenticalUnderEveryBackend) {
  const core::EntropyExitPolicy policy(0.35);
  for (const std::string preset : {"sync10", "sync100", "syntin", "syndvs"}) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    core::Experiment e = micro_experiment(preset, timesteps);
    const auto& ds = *e.bundle.test;
    core::InferenceRequest request =
        core::InferenceRequest::first_n(std::min<std::size_t>(20, ds.size()));
    request.record_logits = true;

    util::GemmContext ref_ctx(*util::find_gemm_backend("scalar_ref"));
    e.net.set_gemm_context(&ref_ctx);
    core::BatchedSequentialEngine engine(e.net, policy, timesteps, /*batch_size=*/7);
    EXPECT_EQ(engine.gemm_backend(), "scalar_ref");
    const auto reference = engine.run(ds, request);
    EXPECT_GT(ref_ctx.stats().calls(), 0u) << "context not threaded through " << preset;

    for (const util::GemmBackend* backend : util::gemm_backends()) {
      if (!backend->available() ||
          backend->identity_tier() != util::GemmIdentityTier::kBitwise) {
        continue;
      }
      util::GemmContext ctx(*backend);
      e.net.set_gemm_context(&ctx);
      EXPECT_EQ(engine.gemm_backend(), backend->name());
      const auto got = engine.run(ds, request);
      ASSERT_EQ(got.size(), reference.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string context =
            preset + "/" + std::string(backend->name()) + " sample " + std::to_string(i);
        EXPECT_EQ(got[i].predicted_class, reference[i].predicted_class) << context;
        EXPECT_EQ(got[i].exit_timestep, reference[i].exit_timestep) << context;
        EXPECT_EQ(got[i].final_entropy, reference[i].final_entropy) << context;
        ASSERT_EQ(got[i].timestep_logits.numel(), reference[i].timestep_logits.numel())
            << context;
        for (std::size_t j = 0; j < got[i].timestep_logits.numel(); ++j) {
          ASSERT_EQ(got[i].timestep_logits[j], reference[i].timestep_logits[j])
              << context << " logit " << j;
        }
      }
    }
    e.net.set_gemm_context(nullptr);
  }
}

}  // namespace
}  // namespace dtsnn
