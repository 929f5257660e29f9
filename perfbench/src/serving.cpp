// serve_two_tenant: a closed loop against serve::ServingFleet (1 worker,
// pool 8, EDF) serving the float checkpoint from a ShardedDataset whose
// cache holds a quarter of the shards.
//
// Two tenants share the fleet. "interactive" is 4 clients, each keeping one
// request with a 10 ms deadline in flight (weight 4). "bulk" is one client
// keeping a burst of 8 requests without deadline in flight (weight 1). One
// generator thread sends each client's next request as soon as its reply
// arrived, so latency is timed from the send. With 12 requests in flight
// and 8 pool slots, EDF decides who waits.
//
// One worker, not two, and a closed loop, not an open one: with two
// workers (each opening nproc-wide OpenMP teams) or with Poisson arrivals,
// this fleet flips between a fast and a slow mode within a run on a host
// with CPU steal, and no run-level figure repeats. README.md records the
// measurements.
//
// Samples follow a seeded permutation of the split, so one sample is never
// in flight twice and its admission time is unambiguous.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <utility>

#include "common.h"
#include "core/engine.h"
#include "core/exit_policy.h"
#include "data/shard.h"
#include "data/sharded_dataset.h"
#include "serve/fleet.h"
#include "trace.h"
#include "util/gemm.h"
#include "util/sync.h"

namespace perfbench {

namespace serve = dtsnn::serve;

namespace {

/// One worker: see the file comment. More workers also need
/// FleetModel::make_replica, and a traced replica must get its state copied
/// into the inner network before it is wrapped, since the traced view
/// forwards parameters but not the BatchNorm buffers.
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kPool = 8;
constexpr std::size_t kSamplesPerShard = 32;
constexpr std::size_t kInteractiveClients = 4;
constexpr std::size_t kBulkBurst = 8;
constexpr serve::TenantId kInteractive = 1;
constexpr serve::TenantId kBulk = 2;
constexpr double kWindowSeconds = 2.0;
/// A generator whose p99 lag behind due times exceeds this is flagged.
constexpr double kGeneratorLagLimitMs = 1.0;

struct SetUp {
  std::unique_ptr<snn::SpikingNetwork> net;
  std::unique_ptr<data::ShardedDataset> shards;
  std::unique_ptr<serve::ServingFleet> fleet;  // last: drained before the rest goes
};

std::unique_ptr<serve::ServingFleet> start_fleet(snn::SpikingNetwork& net,
                                                 const data::Dataset& dataset,
                                                 const core::ExitPolicy& policy) {
  serve::FleetModel model;
  model.name = "vgg_mini";
  model.network = &net;
  model.dataset = &dataset;
  model.default_policy = &policy;
  model.max_timesteps = kTimesteps;
  model.workers = kWorkers;
  model.max_pool = kPool;

  serve::FleetConfig config;
  config.scheduler = "edf";
  config.tenants.push_back({.name = "interactive", .weight = 4.0});
  config.tenants.push_back({.name = "bulk", .weight = 1.0});
  std::vector<serve::FleetModel> models;
  models.push_back(std::move(model));
  return std::make_unique<serve::ServingFleet>(std::move(models), config);
}

/// One single-sample request of the closed loop.
struct Request {
  std::size_t sample = 0;
  serve::TenantId tenant = kInteractive;
  /// Due when the client's previous reply arrived; sent when the generator
  /// got to it (the difference is the generator's lag).
  Clock::time_point due{}, sent{}, admitted{}, done{};
  core::InferenceResult result;
  bool completed = false;
};

/// What one closed-loop run observed.
struct LoopRun {
  std::deque<Request> requests;  ///< stable addresses for the callbacks
  std::size_t failed = 0;        ///< refused at submit or failed while served
  Clock::time_point start{};
  serve::FleetStats stats;

  [[nodiscard]] std::size_t completed_count() const {
    std::size_t c = 0;
    for (const Request& q : requests) c += q.completed;
    return c;
  }
  [[nodiscard]] std::vector<double> lag_ms() const {
    std::vector<double> v;
    for (const Request& q : requests) v.push_back(ms_between(q.due, q.sent));
    return v;
  }
  [[nodiscard]] std::vector<double> latency_ms(serve::TenantId tenant) const {
    std::vector<double> v;
    for (const Request& q : requests) {
      if (q.completed && q.tenant == tenant) v.push_back(ms_between(q.due, q.done));
    }
    return v;
  }
};

/// The closed loop, driven from this thread: kInteractiveClients clients
/// each keep one deadline-bearing request in flight, and one bulk client
/// keeps one burst of kBulkBurst requests in flight, each sending again as
/// soon as its previous reply (the whole burst, for bulk) arrived. A request
/// is due at that reply and timed from then. Runs for `seconds`, then drains.
LoopRun drive(serve::ServingFleet& fleet, double seconds, std::size_t samples,
              std::uint64_t seed, std::uint64_t stream, const AdmissionLog* admissions) {
  LoopRun r;
  util::Mutex mu;
  util::CondVar cv;
  // Guarded by mu: when each idle interactive client became idle, the bulk
  // client's outstanding requests and when its last burst finished.
  std::deque<Clock::time_point> idle_interactive;
  std::size_t bulk_pending = 0;
  Clock::time_point bulk_idle_since{};
  std::vector<std::future<std::vector<core::InferenceResult>>> futures;
  std::vector<std::size_t> order;
  std::size_t sent = 0;

  const auto release = [&](serve::TenantId tenant, Clock::time_point now) {  // holds mu
    if (tenant == kInteractive) {
      idle_interactive.push_back(now);
    } else if (--bulk_pending == 0) {
      bulk_idle_since = now;
    }
    cv.notify_one();
  };
  const auto submit = [&](serve::TenantId tenant, Clock::time_point due) {
    if (sent % samples == 0) order = permutation(samples, seed, stream + sent / samples);
    Request& q = r.requests.emplace_back();
    q.sample = order[sent++ % samples];
    q.tenant = tenant;
    q.due = due;
    q.sent = Clock::now();
    serve::FleetRequest req;
    req.request.samples.push_back(q.sample);
    req.tenant = tenant;
    if (tenant == kInteractive) {
      req.deadline = q.due + std::chrono::microseconds(
                                  static_cast<std::int64_t>(kInteractiveDeadlineMs * 1e3));
    }
    req.on_result = [&, qp = &q](const core::InferenceResult& result) {
      const Clock::time_point now = Clock::now();
      util::MutexLock lock(mu);
      qp->done = now;
      qp->result = result;
      if (admissions != nullptr) qp->admitted = admissions->at(result.sample);
      release(qp->tenant, now);
    };
    try {
      futures.push_back(fleet.submit(std::move(req)).results);
    } catch (const std::exception&) {
      futures.emplace_back();
      const Clock::time_point now = Clock::now();
      util::MutexLock lock(mu);
      release(tenant, now);
    }
  };

  r.start = Clock::now();
  const Clock::time_point end =
      r.start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  {
    util::MutexLock lock(mu);
    idle_interactive.assign(kInteractiveClients, r.start);
    bulk_idle_since = r.start;
  }
  while (true) {
    std::deque<Clock::time_point> interactive;
    bool bulk = false;
    Clock::time_point bulk_due{};
    {
      util::MutexLock lock(mu);
      while (idle_interactive.empty() && bulk_pending > 0 && Clock::now() < end) {
        (void)cv.wait_until(lock, end);
      }
      if (Clock::now() >= end) break;
      interactive = std::exchange(idle_interactive, {});
      bulk = bulk_pending == 0;
      if (bulk) bulk_pending = kBulkBurst;
      bulk_due = bulk_idle_since;
    }
    for (const Clock::time_point due : interactive) submit(kInteractive, due);
    for (std::size_t i = 0; bulk && i < kBulkBurst; ++i) submit(kBulk, bulk_due);
  }
  fleet.drain();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].valid()) {
      ++r.failed;  // refused: counts as failed and as a missed deadline
      continue;
    }
    try {
      (void)futures[i].get();
      r.requests[i].completed = true;
    } catch (const std::exception&) {
      ++r.failed;
    }
  }
  r.stats = fleet.stats();
  return r;
}

/// The rule of bench/serving_fleet: a served decision equals the batch-1
/// oracle at full budget, or — only for a deadline-bearing request that
/// exited earlier — the oracle truncated to the observed exit timestep.
/// Returns the mismatch count; `agree` counts full-budget matches.
std::size_t oracle_mismatches(const LoopRun& r, snn::SpikingNetwork& net,
                              const data::Dataset& split, const core::ExitPolicy& policy,
                              const std::vector<core::InferenceResult>& full,
                              std::size_t& agree) {
  std::map<std::pair<std::size_t, std::size_t>, core::InferenceResult> truncated;
  std::size_t mismatches = 0;
  agree = 0;
  for (const Request& q : r.requests) {
    if (!q.completed) continue;
    const core::InferenceResult& served = q.result;
    const core::InferenceResult* expect = &full.at(served.sample);
    if (served.exit_timestep != expect->exit_timestep) {
      if (q.tenant != kInteractive || served.exit_timestep > expect->exit_timestep) {
        ++mismatches;
        continue;
      }
      const auto key = std::make_pair(served.sample, served.exit_timestep);
      auto [it, fresh] = truncated.try_emplace(key);
      if (fresh) {
        core::SequentialEngine cut(net, policy, served.exit_timestep);
        core::InferenceRequest one;
        one.samples.push_back(served.sample);
        it->second = std::move(cut.run(split, one).at(0));
      }
      expect = &it->second;
    } else {
      agree += same_decision(served, *expect);
    }
    mismatches += !same_decision(served, *expect);
  }
  return mismatches;
}

}  // namespace

RunOutcome run_serving(const Options& o, Assets& assets) {
  RunOutcome out;
  const data::Dataset& split = *assets.test;
  const std::size_t n_samples = split.size();
  const core::EntropyExitPolicy policy(assets.op.theta);
  const std::filesystem::path shard_dir = o.work / "shards";

  std::vector<double> setup_s;
  SetUp s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.fleet.reset();  // the fleet borrows the network and the shard store
    s.shards.reset();
    s.net.reset();
    const Clock::time_point t0 = Clock::now();
    s.net = std::make_unique<snn::SpikingNetwork>(load_network(assets));
    data::export_shards(*assets.test, shard_dir, kSamplesPerShard);
    data::ShardCacheConfig cache;
    cache.cache_slots = (n_samples / kSamplesPerShard + 3) / 4;
    s.shards = std::make_unique<data::ShardedDataset>(shard_dir, cache);
    s.fleet = start_fleet(*s.net, *s.shards, policy);
    // Every worker's pool fills once, so lazy caches (weight transposes,
    // the first shards) are built before anything is timed.
    serve::FleetRequest warm;
    warm.request = core::InferenceRequest::first_n(2 * kWorkers * kPool);
    (void)s.fleet->submit(std::move(warm)).results.get();
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("%s: %zu shards, %zu cache slots, %d set-ups, median %.4f s\n",
              o.workload.c_str(), s.shards->num_shards(), s.shards->cache_slots(),
              kSetupReps, median(setup_s));

  const double untraced_s = o.trace ? o.seconds / 2.0 : o.seconds;
  const LoopRun a = drive(*s.fleet, untraced_s, n_samples, o.seed, 0, nullptr);
  s.fleet.reset();
  out.attempted += a.requests.size();
  out.failed += a.failed;

  const double lag_p99 = quantile(a.lag_ms(), 0.99);
  out.extras.emplace_back("bench.generator_lag_p99_ms", lag_p99);
  if (lag_p99 > kGeneratorLagLimitMs) {
    std::printf("WARNING: the generator fell behind (lag p99 %.3f ms > %.1f ms); latency "
                "still counts from due times\n", lag_p99, kGeneratorLagLimitMs);
    out.extras.emplace_back("bench.generator_behind", 1.0);
  }

  // Full-budget batch-1 decisions of every sample: the oracle both gates use.
  core::SequentialEngine oracle(*s.net, policy, kTimesteps);
  const std::vector<core::InferenceResult> full =
      oracle.run(split, core::InferenceRequest::first_n(n_samples));
  std::size_t agree = 0;
  if (const std::size_t bad = oracle_mismatches(a, *s.net, split, policy, full, agree)) {
    out.fail(std::to_string(bad) + " served decisions differ from the (truncated) oracle");
  }

  if (o.trace) {
    Tracer tracer(weight_layer_count(*s.net));
    snn::SpikingNetwork view = traced_view(*s.net, tracer);
    const TracedPolicy traced_policy(policy, tracer);
    AdmissionLog admitted(n_samples);
    const ObservedDataset dataset(*s.shards, admitted, &tracer);
    auto fleet = start_fleet(view, dataset, traced_policy);
    const data::DatasetStorageStats before = s.shards->storage_stats();
    util::GemmContext::global().reset_stats();
    const LoopRun b = drive(*fleet, o.seconds / 2.0, n_samples, o.seed, 1 << 20, &admitted);
    fleet.reset();
    const util::GemmStats gemm = util::GemmContext::global().stats();
    const data::DatasetStorageStats after = s.shards->storage_stats();
    out.attempted += b.requests.size();
    out.failed += b.failed;
    std::size_t agree_b = 0;
    if (const std::size_t bad = oracle_mismatches(b, *s.net, split, policy, full, agree_b)) {
      out.fail(std::to_string(bad) + " traced served decisions differ from the oracle");
    }

    const std::size_t served = b.completed_count();
    const ThreadTrace t = tracer.merged();
    MetricTable& m = out.per_layer;
    report_trace(t, served, kPool, /*storage_backed=*/true, m);
    report_gemm(gemm, served, m);
    std::vector<std::size_t> exits;
    std::vector<double> queue_ms, service_ms;
    for (const Request& q : b.requests) {
      if (!q.completed) continue;
      exits.push_back(q.result.exit_timestep);
      queue_ms.push_back(ms_between(q.due, q.admitted));
      service_ms.push_back(ms_between(q.admitted, q.done));
    }
    report_exits_and_energy(t, *s.net, assets.op.model, exits, m);
    m.set("serve.queue_p50_ms", quantile(queue_ms, 0.5));
    m.set("serve.queue_p99_ms", quantile(queue_ms, 0.99));
    m.set("serve.service_p50_ms", quantile(service_ms, 0.5));
    m.set("serve.service_p99_ms", quantile(service_ms, 0.99));
    m.set("serve.peak_pool", static_cast<double>(b.stats.peak_pool));
    m.set("serve.deadline_forced_share",
          served ? static_cast<double>(b.stats.deadline_forced_exits) / served : 0.0);
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double misses = static_cast<double>(after.cache_misses - before.cache_misses);
    m.set("data.cache_hit_share", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
    m.set("data.cache_misses_per_img", served ? misses / static_cast<double>(served) : 0.0);
    m.set("bench.generator_lag_p99_ms", quantile(b.lag_ms(), 0.99));
    m.set("trace.overhead_share", quantile(b.latency_ms(kInteractive), 0.5) /
                                          quantile(a.latency_ms(kInteractive), 0.5) -
                                      1.0);
  }

  // ---- End-to-end figures of the untraced run. Timings are medians over
  // two-second windows (by completion time): host CPU steal comes in
  // bursts, and a window median keeps a burst from moving the run's figure.
  const std::size_t served = a.completed_count();
  const auto windows =
      static_cast<std::size_t>(std::max(1.0, std::floor(untraced_s / kWindowSeconds)));
  std::vector<std::vector<double>> interactive_ms(windows), bulk_ms(windows);
  std::vector<double> window_done(windows, 0.0), window_met(windows, 0.0),
      window_interactive(windows, 0.0);
  std::size_t correct = 0;
  std::vector<std::size_t> exits;
  double steps = 0.0;
  for (const Request& q : a.requests) {
    const bool is_interactive = q.tenant == kInteractive;
    const Clock::time_point at = q.completed ? q.done : q.sent;
    const double since_start = std::chrono::duration<double>(at - a.start).count();
    const auto w = std::min(windows - 1,
                            static_cast<std::size_t>(std::max(0.0, since_start / kWindowSeconds)));
    window_interactive[w] += is_interactive;
    if (!q.completed) continue;  // failed: counts as a missed deadline
    correct += q.result.predicted_class == static_cast<std::size_t>(split.label(q.sample));
    steps += static_cast<double>(q.result.exit_timestep);
    exits.push_back(q.result.exit_timestep);
    const double ms = ms_between(q.due, q.done);
    window_done[w] += 1.0;
    (is_interactive ? interactive_ms : bulk_ms)[w].push_back(ms);
    window_met[w] += is_interactive && ms <= kInteractiveDeadlineMs;
  }
  std::vector<double> img_s, p50, p99, bulk_p50, bulk_p99, met;
  for (std::size_t w = 0; w < windows; ++w) {
    img_s.push_back(window_done[w] / kWindowSeconds);
    p50.push_back(quantile(interactive_ms[w], 0.5));
    p99.push_back(quantile(interactive_ms[w], 0.99));
    bulk_p50.push_back(quantile(bulk_ms[w], 0.5));
    bulk_p99.push_back(quantile(bulk_ms[w], 0.99));
    met.push_back(window_interactive[w] > 0.0 ? window_met[w] / window_interactive[w] : 0.0);
  }
  const double n = static_cast<double>(std::max<std::size_t>(served, 1));
  MetricTable& e = out.end_to_end;
  e.set("setup_s", median(setup_s));
  e.set("throughput_img_s", median(img_s));
  e.set("accuracy", static_cast<double>(correct) / n);
  e.set("avg_timesteps", steps / n);
  e.set("edp_pj_ns", exits.empty() ? 0.0 : assets.energy->mean_edp(exits));
  e.set("peak_rss_mb", peak_rss_mib());
  e.set("decision_agreement_share", static_cast<double>(agree) / n);
  e.set("interactive_p50_ms", median(p50));
  e.set("interactive_p99_ms", median(p99));
  e.set("bulk_p50_ms", median(bulk_p50));
  e.set("deadline_met_share", median(met));
  // The bulk tail is reported, not gated: every stall of a shared host's
  // CPU lands in it (README.md, "Why bulk latency is gated at the median").
  out.extras.emplace_back("bulk_p99_ms", median(bulk_p99));
  out.extras.emplace_back("requests", static_cast<double>(a.requests.size()));
  out.extras.emplace_back("deadline_forced_share",
                          static_cast<double>(a.stats.deadline_forced_exits) / n);
  return out;
}

}  // namespace perfbench
