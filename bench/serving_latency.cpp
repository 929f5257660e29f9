// Serving-latency bench: the online serving layer under a deterministic
// asynchronous arrival trace.
//
// A one-model, one-worker serve::ServingFleet (continuous batching over the
// live pool) is
// driven by a seeded Poisson arrival trace (util::make_arrival_trace — the
// workload *shape* never touches wall-clock randomness, so every run replays
// the identical request sequence). For each entropy threshold the bench
// replays the trace open-loop, then reports end-to-end latency percentiles
// (p50/p95/p99 via the shared util percentile helper), throughput, and mean
// exit timestep — the serving-side view of the paper's accuracy/latency
// trade: lower theta = more timesteps = higher latency per request.
//
// A decision-identity gate re-runs every served sample through the offline
// batch-1 SequentialEngine oracle and fails the bench on any mismatch in
// prediction, exit timestep, or exit entropy — asynchronous arrivals and
// pool churn must not change a single decision.
//
// BENCH_serving.json carries per-theta blocks plus headline
// p50/p95/p99_latency_ms and throughput_sps fields (from the middle theta).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/fleet.h"
#include "util/arrival_trace.h"
#include "util/gemm.h"

using namespace dtsnn;

namespace {

struct ServingRun {
  serve::FleetStats stats;
  std::vector<core::InferenceResult> results;  ///< one per arrival, trace order
  double wall_seconds = 0.0;
  double throughput_sps = 0.0;
  double accuracy = 0.0;
};

/// Replay `trace` against a fresh fleet and gather per-arrival results.
ServingRun replay_trace(snn::SpikingNetwork& net, const data::Dataset& ds,
                        const core::ExitPolicy& policy, std::size_t timesteps,
                        const std::vector<util::Arrival>& trace) {
  serve::FleetModel model;
  model.network = &net;
  model.dataset = &ds;
  model.default_policy = &policy;
  model.max_timesteps = timesteps;
  model.max_pool = 8;
  ServingRun run;
  std::vector<std::future<std::vector<core::InferenceResult>>> futures;
  futures.reserve(trace.size());

  const auto t0 = serve::ServeClock::now();
  {
    serve::ServingFleet fleet({model});
    for (const util::Arrival& a : trace) {
      std::this_thread::sleep_until(t0 + std::chrono::microseconds(a.offset_us));
      serve::FleetRequest req;
      req.request.samples.push_back(a.sample);
      futures.push_back(fleet.submit(std::move(req)).results);
    }
    fleet.drain();
    run.wall_seconds =
        std::chrono::duration<double>(serve::ServeClock::now() - t0).count();
    run.stats = fleet.stats();
  }

  std::size_t correct = 0;
  for (auto& f : futures) {
    std::vector<core::InferenceResult> r = f.get();
    correct += r.at(0).predicted_class ==
               static_cast<std::size_t>(ds.label(r.at(0).sample));
    run.results.push_back(std::move(r.at(0)));
  }
  run.throughput_sps = static_cast<double>(run.results.size()) / run.wall_seconds;
  run.accuracy = static_cast<double>(correct) / static_cast<double>(run.results.size());
  return run;
}

/// Served decisions must equal the offline batch-1 oracle's, per sample.
bool identical_to_oracle(const ServingRun& run, snn::SpikingNetwork& net,
                         const data::Dataset& ds, const core::ExitPolicy& policy,
                         std::size_t timesteps) {
  std::map<std::size_t, core::InferenceResult> oracle;
  core::SequentialEngine batch1(net, policy, timesteps);
  core::InferenceRequest unique;
  for (const auto& r : run.results) {
    if (oracle.emplace(r.sample, core::InferenceResult{}).second) {
      unique.samples.push_back(r.sample);
    }
  }
  for (auto& r : batch1.run(ds, unique)) oracle[r.sample] = std::move(r);
  for (const auto& served : run.results) {
    const core::InferenceResult& want = oracle.at(served.sample);
    if (served.predicted_class != want.predicted_class ||
        served.exit_timestep != want.exit_timestep ||
        served.final_entropy != want.final_entropy) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions options = bench::parse_options(argc, argv);

  bench::banner("Serving latency: continuous batching under a Poisson arrival trace");
  bench::BenchReport report("serving", options);

  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = 4;
  spec.epochs = 14;
  spec.loss = core::LossKind::kPerTimestep;
  core::Experiment e = bench::run(spec, options);
  const auto& ds = *e.bundle.test;

  util::ArrivalTraceSpec trace_spec;
  trace_spec.arrivals = static_cast<std::size_t>(192 * options.scale) + 64;
  // ~2ms per sample offered load (bursts of 2 every ~4ms): near the 1-core
  // service rate, so latency reflects service + moderate queueing instead of
  // pure saturation drain.
  trace_spec.mean_gap_us = 4000.0;
  trace_spec.burst = 2;  // pairs of simultaneous clients
  trace_spec.sample_limit = ds.size();
  trace_spec.seed = 0x5e51;
  const std::vector<util::Arrival> trace = util::make_arrival_trace(trace_spec);
  report.set("arrivals", static_cast<double>(trace.size()));
  report.set("mean_gap_us", trace_spec.mean_gap_us);
  report.set("max_pool", 8.0);
  report.set("trace_seed", static_cast<double>(trace_spec.seed));
  report.set("gemm_backend", std::string(util::default_gemm_backend().name()));

  bench::TablePrinter table({"theta", "avgT", "Acc.", "p50 ms", "p95 ms", "p99 ms",
                             "p99.9 ms", "queue p95 ms", "req/s"},
                            {7, 7, 9, 9, 9, 9, 9, 13, 9});
  util::CsvWriter csv(options.csv_dir + "/serving_latency.csv");
  csv.write_header({"theta", "mean_exit_timestep", "accuracy", "p50_latency_ms",
                    "p95_latency_ms", "p99_latency_ms", "p999_latency_ms",
                    "p95_queue_ms", "throughput_sps"});

  // theta = 0 never exits early (the static-T4 serving baseline); the
  // middle threshold is the headline operating point.
  const std::vector<double> thetas{0.0, 0.1, 0.3, 0.6};
  const double headline_theta = 0.3;
  bool all_identical = true;

  for (const double theta : thetas) {
    const core::EntropyExitPolicy policy(theta);
    const ServingRun run = replay_trace(e.net, ds, policy, spec.timesteps, trace);
    all_identical =
        all_identical && identical_to_oracle(run, e.net, ds, policy, spec.timesteps);

    const util::PercentileSummary& lat = run.stats.latency_us;
    const util::PercentileSummary& queue = run.stats.queue_us;
    table.row({bench::fmt("%.2f", theta),
               bench::fmt("%.2f", run.stats.mean_exit_timestep),
               bench::fmt("%.2f%%", 100 * run.accuracy),
               bench::fmt("%.2f", lat.p50 / 1000.0), bench::fmt("%.2f", lat.p95 / 1000.0),
               bench::fmt("%.2f", lat.p99 / 1000.0),
               bench::fmt("%.2f", lat.p999 / 1000.0),
               bench::fmt("%.2f", queue.p95 / 1000.0),
               bench::fmt("%.1f", run.throughput_sps)});
    csv.row(theta, run.stats.mean_exit_timestep, 100 * run.accuracy, lat.p50 / 1000.0,
            lat.p95 / 1000.0, lat.p99 / 1000.0, lat.p999 / 1000.0,
            queue.p95 / 1000.0, run.throughput_sps);

    const std::string prefix = bench::fmt("theta_%.2f_", theta);
    report.set(prefix + "mean_exit_timestep", run.stats.mean_exit_timestep);
    report.set(prefix + "accuracy", run.accuracy);
    report.set(prefix + "p50_latency_ms", lat.p50 / 1000.0);
    report.set(prefix + "p95_latency_ms", lat.p95 / 1000.0);
    report.set(prefix + "p99_latency_ms", lat.p99 / 1000.0);
    report.set(prefix + "p999_latency_ms", lat.p999 / 1000.0);
    report.set(prefix + "throughput_sps", run.throughput_sps);
    if (theta == headline_theta) {
      report.set("headline_theta", theta);
      report.set("p50_latency_ms", lat.p50 / 1000.0);
      report.set("p95_latency_ms", lat.p95 / 1000.0);
      report.set("p99_latency_ms", lat.p99 / 1000.0);
      report.set("p999_latency_ms", lat.p999 / 1000.0);
      report.set("throughput_sps", run.throughput_sps);
      report.set("mean_exit_timestep", run.stats.mean_exit_timestep);
    }
  }

  report.set("served_vs_oracle_identical", all_identical ? 1.0 : 0.0);
  report.set_dataset(ds);
  if (!all_identical) {
    std::printf("\nFAIL: served decisions diverged from the batch-1 oracle\n");
    return 1;
  }
  std::printf("\nAll served decisions bitwise-identical to the batch-1 oracle.\n");
  return 0;
}
