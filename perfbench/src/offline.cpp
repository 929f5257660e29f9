// offline_float / offline_int8: closed-loop passes of BatchedSequentialEngine
// (batch 32, continuous batching) over the in-memory test split at the
// iso-accuracy entropy threshold. offline_int8 runs the same checkpoint,
// samples and theta after int8 post-training quantization on the int8_lut
// backend, so the GEMM tier is the only difference.
//
// Each pass submits the whole split in a seeded order as one request and
// waits for it (one closed-loop client); passes repeat until the run's
// seconds are spent. Latency per image: "interactive" is admission into the
// live pool to exit, "bulk" is the pass's submission to the image's exit.

#include <cstdio>

#include "common.h"
#include "core/engine.h"
#include "core/exit_policy.h"
#include "core/quantize.h"
#include "snn/quantize.h"
#include "trace.h"
#include "util/gemm.h"
#include "util/quant.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 32;

/// One set-up: the network the engine steps and the GEMM context it runs on.
struct SetUp {
  std::unique_ptr<util::GemmContext> gemm;  // outlives the network using it
  std::unique_ptr<snn::SpikingNetwork> net;
};

SetUp set_up(const Assets& assets, bool int8, const core::ExitPolicy& policy) {
  SetUp s;
  s.gemm = int8 ? std::make_unique<util::GemmContext>(*util::find_gemm_backend("int8_lut"))
                : std::make_unique<util::GemmContext>();
  s.net = std::make_unique<snn::SpikingNetwork>(load_network(assets));
  if (int8) {
    util::QuantSpec spec;
    spec.bits = 8;
    snn::quantize_network_weights(*s.net, spec);
  }
  s.net->set_gemm_context(s.gemm.get());
  // Two pools' worth of samples builds every lazy cache (weight transposes,
  // spike LUTs) before anything is timed.
  core::BatchedSequentialEngine warm(*s.net, policy, kTimesteps, kBatch);
  (void)warm.run(*assets.test, core::InferenceRequest::first_n(2 * kBatch));
  return s;
}

/// Per-pass figures; a run reports their medians, so one pass slowed by a
/// burst of host CPU steal does not move the run's figure.
struct Phase {
  std::vector<double> pass_img_s;
  std::vector<double> in_pool_p50_ms, in_pool_p99_ms;
  std::vector<double> from_submit_p50_ms, from_submit_p99_ms;
  std::vector<core::InferenceResult> decisions;  ///< by sample, first pass
  std::size_t images = 0;
  bool passes_agree = true;  ///< every pass decided like the first
};

Phase run_passes(snn::SpikingNetwork& net, const core::ExitPolicy& policy,
                 const data::Dataset& split, Tracer* tracer, double seconds,
                 std::uint64_t seed, std::uint64_t stream) {
  const std::size_t n = split.size();
  AdmissionLog admitted(n);
  const ObservedDataset dataset(split, admitted, tracer);
  core::BatchedSequentialEngine engine(net, policy, kTimesteps, kBatch);
  Phase p;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pass = 0; pass == 0 || seconds_since(t0) < seconds; ++pass) {
    core::InferenceRequest request;
    request.samples = permutation(n, seed, stream + pass);
    std::vector<core::InferenceResult> got(n);
    std::vector<double> in_pool_ms, from_submit_ms;
    const Clock::time_point submitted = Clock::now();
    engine.run_streaming(dataset, request, [&](const core::InferenceResult& r) {
      const Clock::time_point now = Clock::now();
      in_pool_ms.push_back(ms_between(admitted.at(r.sample), now));
      from_submit_ms.push_back(ms_between(submitted, now));
      got[r.sample] = r;
    });
    p.pass_img_s.push_back(static_cast<double>(n) / seconds_since(submitted));
    p.in_pool_p50_ms.push_back(quantile(in_pool_ms, 0.5));
    p.in_pool_p99_ms.push_back(quantile(in_pool_ms, 0.99));
    p.from_submit_p50_ms.push_back(quantile(from_submit_ms, 0.5));
    p.from_submit_p99_ms.push_back(quantile(from_submit_ms, 0.99));
    p.images += n;
    if (pass == 0) {
      p.decisions = std::move(got);
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        p.passes_agree = p.passes_agree && same_decision(got[s], p.decisions[s]);
      }
    }
  }
  return p;
}

std::vector<std::size_t> exit_steps(const std::vector<core::InferenceResult>& decisions) {
  std::vector<std::size_t> steps;
  for (const auto& r : decisions) steps.push_back(r.exit_timestep);
  return steps;
}

}  // namespace

RunOutcome run_offline(const Options& o, Assets& assets, bool int8) {
  RunOutcome out;
  const data::Dataset& split = *assets.test;
  const std::size_t n = split.size();
  const core::EntropyExitPolicy policy(assets.op.theta);

  std::vector<double> setup_s;
  SetUp s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.net.reset();  // before the GEMM context it points at
    s.gemm.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(assets, int8, policy);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("%s: backend %s, %d set-ups, median %.4f s\n", o.workload.c_str(),
              std::string(s.gemm->backend().name()).c_str(), kSetupReps, median(setup_s));

  // Untraced passes; a traced run spends half its time on them and half on
  // the traced view of the same network, whose decisions must not differ.
  const double untraced_s = o.trace ? o.seconds / 2.0 : o.seconds;
  const Phase a = run_passes(*s.net, policy, split, nullptr, untraced_s, o.seed, 0);
  out.attempted += a.images;
  if (!a.passes_agree) out.fail("a pass decided differently from the first pass");

  if (o.trace) {
    Tracer tracer(weight_layer_count(*s.net));
    snn::SpikingNetwork view = traced_view(*s.net, tracer);
    const TracedPolicy traced_policy(policy, tracer);
    s.gemm->reset_stats();
    const Phase b =
        run_passes(view, traced_policy, split, &tracer, o.seconds / 2.0, o.seed, 1 << 20);
    const util::GemmStats gemm = s.gemm->stats();
    out.attempted += b.images;
    if (!b.passes_agree) out.fail("a traced pass decided differently from its first pass");
    for (std::size_t i = 0; i < n; ++i) {
      if (!same_decision(a.decisions[i], b.decisions[i])) {
        out.fail("traced decisions differ from untraced decisions");
        break;
      }
    }
    const ThreadTrace t = tracer.merged();
    MetricTable& m = out.per_layer;
    report_trace(t, b.images, kBatch, /*storage_backed=*/false, m);
    report_gemm(gemm, b.images, m);
    report_exits_and_energy(t, *s.net, assets.op.model, exit_steps(b.decisions), m);
    m.set("trace.overhead_share", median(a.pass_img_s) / median(b.pass_img_s) - 1.0);
  }

  // ---- Correctness, outside set-up and the timed window.
  std::size_t agree = 0;
  if (!int8) {
    // Batch-1 oracle: every decision bitwise equal.
    core::SequentialEngine oracle(*s.net, policy, kTimesteps);
    const auto want = oracle.run(split, core::InferenceRequest::first_n(n));
    for (std::size_t i = 0; i < n; ++i) agree += same_decision(want[i], a.decisions[i]);
    if (agree != n) {
      out.fail(std::to_string(n - agree) + " decisions differ from the batch-1 oracle");
    }
  } else {
    // Float decisions of the same checkpoint on the same samples; the int8
    // tier is tolerance-gated (prediction flips <= 1%).
    snn::SpikingNetwork float_net = load_network(assets);
    core::BatchedSequentialEngine reference(float_net, policy, kTimesteps, kBatch);
    const auto want = reference.run(split, core::InferenceRequest::first_n(n));
    const core::DecisionDiff diff = core::compare_decisions(want, a.decisions);
    for (std::size_t i = 0; i < n; ++i) {
      agree += want[i].predicted_class == a.decisions[i].predicted_class &&
               want[i].exit_timestep == a.decisions[i].exit_timestep;
    }
    out.extras.emplace_back("int8.prediction_flip_share", diff.prediction_flip_rate);
    out.extras.emplace_back("int8.exit_flip_share", diff.exit_flip_rate);
    if (diff.prediction_flip_rate > 0.01) {
      out.fail("int8 prediction flips " + std::to_string(diff.prediction_flip_rate) +
               " exceed the 1% gate");
    }
  }

  std::size_t correct = 0;
  double steps = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    correct += a.decisions[i].predicted_class == static_cast<std::size_t>(split.label(i));
    steps += static_cast<double>(a.decisions[i].exit_timestep);
  }
  const double accuracy = static_cast<double>(correct) / static_cast<double>(n);
  if (accuracy < assets.op.static_t4_accuracy - 0.01) {
    out.fail("accuracy " + std::to_string(accuracy) +
             " is more than 1 pp below the static T=4 accuracy " +
             std::to_string(assets.op.static_t4_accuracy));
  }

  MetricTable& e = out.end_to_end;
  e.set("setup_s", median(setup_s));
  e.set("throughput_img_s", median(a.pass_img_s));
  e.set("accuracy", accuracy);
  e.set("avg_timesteps", steps / static_cast<double>(n));
  e.set("edp_pj_ns", assets.energy->mean_edp(exit_steps(a.decisions)));
  e.set("peak_rss_mb", peak_rss_mib());
  e.set("decision_agreement_share", static_cast<double>(agree) / static_cast<double>(n));
  e.set("interactive_p50_ms", median(a.in_pool_p50_ms));
  e.set("interactive_p99_ms", median(a.in_pool_p99_ms));
  e.set("bulk_p50_ms", median(a.from_submit_p50_ms));
  e.set("deadline_met_share", 1.0);  // no request of a closed loop carries a deadline
  out.extras.emplace_back("bulk_p99_ms", median(a.from_submit_p99_ms));
  out.extras.emplace_back("passes", static_cast<double>(a.pass_img_s.size()));
  return out;
}

}  // namespace perfbench
