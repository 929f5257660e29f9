// Serving-layer tests on the single-model, single-worker shape of
// ServingFleet. The load-bearing property is the bitwise identity contract:
// every served result — prediction, exit timestep, exit entropy, recorded
// cumulative-logit trajectory — equals the offline batch-1 SequentialEngine
// oracle, on every dataset preset and both shipped policy families, under
// concurrent submission from multiple client threads and mid-flight
// admission into a busy pool. Plus the serving-only behaviors:
// deadline-forced exits, drain-on-shutdown, submission-time validation, and
// fleet stats. (Multi-worker, multi-model, scheduler, quota and
// cancellation coverage lives in test_fleet.cpp.)

#include <atomic>
#include <chrono>
#include <future>
#include <thread>  // std::this_thread::sleep_for (client pacing only)

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/evaluator.h"
#include "core/exit_policy.h"
#include "serve/fleet.h"
#include "util/thread.h"

namespace dtsnn::serve {
namespace {

using core::InferenceRequest;
using core::InferenceResult;

core::Experiment micro_experiment(const std::string& dataset, std::size_t timesteps,
                                  std::uint64_t seed = 1) {
  core::ExperimentSpec spec;
  spec.model = "vgg_micro";
  spec.dataset = dataset;
  spec.epochs = 1;
  spec.timesteps = timesteps;
  spec.data_scale = 0.05;
  spec.seed = seed;
  return core::run_experiment(spec);
}

/// The single-network serving shape: one model, one worker, `max_pool`
/// live-pool rows. The fleet takes exclusive use of `net` until drain().
std::vector<FleetModel> one_model(snn::SpikingNetwork& net, const data::Dataset& ds,
                                  const core::ExitPolicy& policy, std::size_t timesteps,
                                  std::size_t max_pool = 8) {
  FleetModel m;
  m.network = &net;
  m.dataset = &ds;
  m.default_policy = &policy;
  m.max_timesteps = timesteps;
  m.max_pool = max_pool;
  return {m};
}

/// Request for an explicit index list. (push_back instead of an
/// initializer-list assignment: GCC 12's -Wnonnull trips on the latter's
/// inlined memmove at -O2.)
FleetRequest request_for(std::initializer_list<std::size_t> samples,
                         bool record_logits = false) {
  FleetRequest req;
  for (const std::size_t s : samples) req.request.samples.push_back(s);
  req.request.record_logits = record_logits;
  return req;
}

/// Bitwise comparison of a served result against the oracle's.
void expect_identical(const InferenceResult& served, const InferenceResult& oracle,
                      const std::string& context) {
  EXPECT_EQ(served.sample, oracle.sample) << context;
  EXPECT_EQ(served.predicted_class, oracle.predicted_class) << context;
  EXPECT_EQ(served.exit_timestep, oracle.exit_timestep) << context;
  EXPECT_EQ(served.final_entropy, oracle.final_entropy) << context;
  ASSERT_EQ(served.timestep_logits.shape(), oracle.timestep_logits.shape()) << context;
  for (std::size_t j = 0; j < served.timestep_logits.numel(); ++j) {
    ASSERT_EQ(served.timestep_logits[j], oracle.timestep_logits[j])
        << context << " logit " << j;
  }
}

/// The headline acceptance property: served results are bitwise identical
/// to the offline batch-1 oracle on all four dataset presets, under both
/// entropy and max-prob policies, with >= 4 client threads submitting
/// concurrently into a pool the threads contend for.
TEST(SingleModelFleet, ServedBitwiseIdenticalToOfflineOracleAcrossPresets) {
  for (const std::string preset : {"sync10", "sync100", "syntin", "syndvs"}) {
    const std::size_t timesteps = preset == "syndvs" ? 5 : 3;
    core::Experiment e = micro_experiment(preset, timesteps);
    const auto& ds = *e.bundle.test;
    const std::size_t n = std::min<std::size_t>(24, ds.size());

    const core::EntropyExitPolicy entropy(0.35);
    const core::MaxProbExitPolicy maxprob(0.6);
    for (const core::ExitPolicy* policy :
         {static_cast<const core::ExitPolicy*>(&entropy),
          static_cast<const core::ExitPolicy*>(&maxprob)}) {
      const std::string context = preset + "/" + policy->name();

      // Offline oracle first — the network is shared, and the fleet takes
      // exclusive use of it between construction and drain().
      core::SequentialEngine batch1(e.net, *policy, timesteps);
      InferenceRequest all = InferenceRequest::first_n(n);
      all.record_logits = true;
      const std::vector<InferenceResult> oracle = batch1.run(ds, all);

      constexpr std::size_t kPool = 5;  // smaller than n: constant admission churn
      std::vector<std::future<std::vector<InferenceResult>>> futures(n);
      {
        ServingFleet fleet(one_model(e.net, ds, *policy, timesteps, kPool));
        // 4 client threads submit interleaved single-sample requests.
        constexpr std::size_t kClients = 4;
        std::vector<util::Thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
          clients.emplace_back([&, c] {
            for (std::size_t s = c; s < n; s += kClients) {
              futures[s] = fleet.submit(request_for({s}, /*record_logits=*/true)).results;
            }
          });
        }
        for (auto& t : clients) t.join();
        fleet.drain();
      }
      for (std::size_t s = 0; s < n; ++s) {
        const std::vector<InferenceResult> got = futures[s].get();
        ASSERT_EQ(got.size(), 1u) << context;
        expect_identical(got[0], oracle[s], context + " sample " + std::to_string(s));
      }
    }
  }
}

/// Samples admitted into a half-busy pool mid-flight must neither perturb
/// residents nor be perturbed themselves: everyone matches the oracle.
TEST(SingleModelFleet, MidFlightAdmissionPreservesIdentity) {
  core::Experiment e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(12, ds.size());

  // Residents run the full budget (never exit), so late arrivals are
  // admitted into free slots while residents hold theirs across timesteps.
  const core::NeverExitPolicy never;
  core::SequentialEngine batch1(e.net, never, 4);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  const std::vector<InferenceResult> oracle = batch1.run(ds, all);

  constexpr std::size_t kPool = 8;  // residents occupy 3 slots; arrivals join the rest
  ServingFleet fleet(one_model(e.net, ds, never, 4, kPool));

  auto resident_future = fleet.submit(request_for({0, 1, 2}, /*record_logits=*/true)).results;

  // Trickle in the rest from another thread while the pool is running.
  std::vector<std::future<std::vector<InferenceResult>>> later;
  for (std::size_t s = 3; s < n; ++s) {
    later.push_back(fleet.submit(request_for({s}, /*record_logits=*/true)).results);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  fleet.drain();

  const std::vector<InferenceResult> resident_results = resident_future.get();
  ASSERT_EQ(resident_results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_identical(resident_results[i], oracle[i], "resident " + std::to_string(i));
    EXPECT_EQ(resident_results[i].exit_timestep, 4u);
  }
  for (std::size_t i = 0; i < later.size(); ++i) {
    const auto got = later[i].get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[3 + i], "arrival " + std::to_string(3 + i));
  }

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.submitted_samples, n);
  EXPECT_EQ(stats.completed_samples, n);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.live_samples, 0u);
  EXPECT_GE(stats.peak_pool, 3u);
  EXPECT_LE(stats.peak_pool, kPool);
  EXPECT_EQ(stats.exit_timesteps.total(), n);
  EXPECT_EQ(stats.exit_timesteps.count(3), n);  // everyone exits at t=4
  EXPECT_DOUBLE_EQ(stats.mean_exit_timestep, 4.0);
  EXPECT_EQ(stats.latency_us.count, n);
  EXPECT_GE(stats.latency_us.p99, stats.latency_us.p50);
}

/// An expired deadline forces exit at the first timestep boundary, with the
/// same quantities a budget-1 oracle reports — not a dropped request.
TEST(SingleModelFleet, DeadlineForcedExitMatchesBudget1Oracle) {
  core::Experiment e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(6, ds.size());

  const core::NeverExitPolicy never;  // only the deadline can end these early
  core::SequentialEngine batch1(e.net, never, 4);
  InferenceRequest all = InferenceRequest::first_n(n);
  all.record_logits = true;
  all.max_timesteps = 1;  // the oracle for a deadline hit at t=1
  const std::vector<InferenceResult> oracle = batch1.run(ds, all);

  ServingFleet fleet(one_model(e.net, ds, never, 4));
  FleetRequest req;
  req.request = InferenceRequest::first_n(n);
  req.request.record_logits = true;
  req.deadline = ServeClock::now() - std::chrono::seconds(1);  // already past
  auto future = fleet.submit(std::move(req)).results;
  fleet.drain();

  const std::vector<InferenceResult> got = future.get();
  ASSERT_EQ(got.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].exit_timestep, 1u);
    expect_identical(got[i], oracle[i], "deadline sample " + std::to_string(i));
  }
  EXPECT_EQ(fleet.stats().deadline_forced_exits, n);
}

TEST(SingleModelFleet, DrainCompletesAcceptedWorkAndRejectsNew) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);

  ServingFleet fleet(one_model(e.net, ds, policy, 3, 4));
  std::vector<std::future<std::vector<InferenceResult>>> futures;
  const std::size_t n = std::min<std::size_t>(10, ds.size());
  for (std::size_t s = 0; s < n; ++s) {
    futures.push_back(fleet.submit(request_for({s})).results);
  }
  fleet.drain();

  // Every accepted sample completed; its future is ready, not abandoned.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().size(), 1u);
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed_samples, n);
  EXPECT_EQ(stats.queue_depth, 0u);

  EXPECT_THROW(fleet.submit(request_for({0})), std::runtime_error);
  fleet.drain();  // idempotent
}

TEST(SingleModelFleet, SubmitValidatesUpFront) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  ServingFleet fleet(one_model(e.net, ds, policy, 3));

  FleetRequest out_of_range = request_for({0});
  out_of_range.request.samples.push_back(ds.size());
  EXPECT_THROW(fleet.submit(std::move(out_of_range)), std::out_of_range);

  EXPECT_THROW(fleet.submit(request_for({1, 2, 1})), std::invalid_argument);

  FleetRequest over_budget = request_for({0});
  over_budget.request.max_timesteps = 4;  // fleet budget is 3
  EXPECT_THROW(fleet.submit(std::move(over_budget)), std::invalid_argument);

  // Nothing was accepted by the rejected submissions.
  EXPECT_EQ(fleet.stats().submitted_samples, 0u);

  // An empty request expands to the whole dataset, like the offline run().
  FleetRequest everything;
  auto future = fleet.submit(std::move(everything)).results;
  EXPECT_EQ(future.get().size(), ds.size());

  // Over an *empty* dataset the expansion stays empty: the future resolves
  // immediately with no results instead of hanging forever.
  data::ArrayDataset empty_ds(ds.frame_shape(), 1, ds.num_classes());
  ServingFleet empty_fleet(one_model(e.net, empty_ds, policy, 3));
  EXPECT_EQ(empty_fleet.submit(FleetRequest{}).results.get().size(), 0u);

  EXPECT_THROW(ServingFleet(one_model(e.net, ds, policy, 0)), std::invalid_argument);
  EXPECT_THROW(ServingFleet(one_model(e.net, ds, policy, 3, /*max_pool=*/0)),
               std::invalid_argument);
}

/// Per-request policy and budget overrides behave exactly as they do on the
/// offline engines, and streaming callbacks fire once per sample with the
/// right request mapping, before the future resolves.
TEST(SingleModelFleet, OverridesAndStreamingCallbacks) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(9, ds.size());

  const core::NeverExitPolicy never;  // fleet default: run the full budget
  ServingFleet fleet(one_model(e.net, ds, never, 3, 4));

  // Policy override: exit everything at t=1.
  const core::EntropyExitPolicy immediate(1.01);
  std::atomic<std::size_t> streamed{0};
  FleetRequest req;
  req.request = InferenceRequest::first_n(n);
  req.request.policy = &immediate;
  req.on_result = [&](const InferenceResult& r) {
    ++streamed;
    EXPECT_LT(r.request_index, n);
    EXPECT_EQ(r.sample, r.request_index);  // first_n maps position == sample
    EXPECT_EQ(r.exit_timestep, 1u);
  };
  const auto results = fleet.submit(std::move(req)).results.get();
  EXPECT_EQ(streamed.load(), n);
  ASSERT_EQ(results.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(results[i].request_index, i);
    EXPECT_EQ(results[i].exit_timestep, 1u);
  }

  // Budget override below the fleet budget: forced exit moves to t=2.
  FleetRequest shorter;
  shorter.request = InferenceRequest::first_n(n);
  shorter.request.max_timesteps = 2;
  for (const auto& r : fleet.submit(std::move(shorter)).results.get()) {
    EXPECT_EQ(r.exit_timestep, 2u);
  }
}

/// Concurrent multi-sample requests with mixed per-request policies resolve
/// independently and still match their respective oracles.
TEST(SingleModelFleet, ConcurrentMixedPolicyRequests) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const std::size_t n = std::min<std::size_t>(16, ds.size());

  const core::EntropyExitPolicy tight(0.2);
  const core::EntropyExitPolicy loose(0.6);
  core::SequentialEngine batch1_tight(e.net, tight, 3);
  core::SequentialEngine batch1_loose(e.net, loose, 3);
  const auto oracle_tight = batch1_tight.run(ds, InferenceRequest::first_n(n));
  const auto oracle_loose = batch1_loose.run(ds, InferenceRequest::first_n(n));

  ServingFleet fleet(one_model(e.net, ds, tight, 3, 6));
  std::vector<std::future<std::vector<InferenceResult>>> tight_futs(4), loose_futs(4);
  std::vector<util::Thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      // Each client submits one 4-sample tight request and one loose
      // override request over the same disjoint slice.
      FleetRequest a;
      FleetRequest b;
      for (std::size_t s = c * 4; s < c * 4 + 4 && s < n; ++s) {
        a.request.samples.push_back(s);
        b.request.samples.push_back(s);
      }
      tight_futs[c] = fleet.submit(std::move(a)).results;
      b.request.policy = &loose;
      loose_futs[c] = fleet.submit(std::move(b)).results;
    });
  }
  for (auto& t : clients) t.join();
  fleet.drain();

  for (std::size_t c = 0; c < 4; ++c) {
    const auto ta = tight_futs[c].get();
    const auto tb = loose_futs[c].get();
    for (std::size_t i = 0; i < ta.size(); ++i) {
      expect_identical(ta[i], oracle_tight[ta[i].sample], "tight");
      expect_identical(tb[i], oracle_loose[tb[i].sample], "loose");
    }
  }
}

/// A throwing user exit policy must not take the fleet down: the affected
/// request's future carries the exception, and the fleet keeps serving
/// later requests correctly.
TEST(SingleModelFleet, WorkerExceptionFailsRequestNotFleet) {
  struct ThrowingPolicy final : core::ExitPolicy {
    [[nodiscard]] bool should_exit(std::span<const float>) const override {
      throw std::runtime_error("policy bug");
    }
    [[nodiscard]] std::string name() const override { return "throwing"; }
  };

  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy good(0.35);
  core::SequentialEngine batch1(e.net, good, 3);
  const auto oracle = batch1.run(ds, InferenceRequest::first_n(4));

  ServingFleet fleet(one_model(e.net, ds, good, 3, 4));
  const ThrowingPolicy bad;
  FleetRequest poisoned = request_for({0, 1});
  poisoned.request.policy = &bad;
  auto poisoned_future = fleet.submit(std::move(poisoned)).results;
  EXPECT_THROW(poisoned_future.get(), std::runtime_error);

  // The fleet survives and subsequent requests still match the oracle.
  for (std::size_t s = 0; s < 4; ++s) {
    const auto got = fleet.submit(request_for({s})).results.get();
    ASSERT_EQ(got.size(), 1u);
    expect_identical(got[0], oracle[s], "after worker failure");
  }

  // A throwing result callback fails only its own request the same way.
  FleetRequest bad_callback = request_for({5});
  bad_callback.on_result = [](const InferenceResult&) {
    throw std::runtime_error("callback bug");
  };
  auto cb_future = fleet.submit(std::move(bad_callback)).results;
  EXPECT_THROW(cb_future.get(), std::runtime_error);
  const auto after = fleet.submit(request_for({1})).results.get();
  expect_identical(after.at(0), oracle[1], "after callback failure");

  // At quiescence, completed + failed partition the submitted samples:
  // discarded work of failed requests never counts as completed. (Checked
  // after drain — the worker publishes stats after resolving the futures.)
  fleet.drain();
  const FleetStats final_stats = fleet.stats();
  EXPECT_EQ(final_stats.submitted_samples, 8u);
  EXPECT_EQ(final_stats.completed_samples, 5u);
  EXPECT_EQ(final_stats.failed_samples, 3u);  // 2 policy-poisoned + 1 callback
  EXPECT_EQ(final_stats.exit_timesteps.total(), final_stats.completed_samples);
}

/// The exit policy is consulted for exactly the same cum rows as on the
/// batch-1 oracle: never at the budget-exhaustion step (short-circuit
/// parity), so a policy only defined below the budget behaves identically.
TEST(SingleModelFleet, PolicyConsultedOnlyBelowBudget) {
  struct CountingPolicy final : core::ExitPolicy {
    mutable std::atomic<std::size_t> calls{0};
    [[nodiscard]] bool should_exit(std::span<const float>) const override {
      ++calls;
      return false;
    }
    [[nodiscard]] std::string name() const override { return "counting"; }
  };

  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const CountingPolicy counting;
  {
    ServingFleet fleet(one_model(e.net, ds, counting, 3, 4));
    FleetRequest req;
    req.request = InferenceRequest::first_n(5);
    fleet.submit(std::move(req)).results.get();
  }
  // 5 samples x budget 3: consulted at t=1 and t=2, never at the forced
  // exit — exactly what SequentialEngine does.
  EXPECT_EQ(counting.calls.load(), 10u);
}

/// The destructor alone drains gracefully: accepted work completes even if
/// the client never calls drain().
TEST(SingleModelFleet, DestructorDrains) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  std::future<std::vector<InferenceResult>> future;
  {
    ServingFleet fleet(one_model(e.net, ds, policy, 3, 2));
    FleetRequest req;
    req.request = InferenceRequest::first_n(std::min<std::size_t>(8, ds.size()));
    future = fleet.submit(std::move(req)).results;
  }
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(future.get().size(), std::min<std::size_t>(8, ds.size()));
}

/// Regression: a deadline landing exactly on the timestep-budget boundary
/// must report ONE consistent forced-exit reason. The decision order is
/// budget first, deadline only when the budget did not already claim the
/// exit — so an expired deadline on a budget-1 request counts as budget
/// exhaustion (deadline_forced_exits == 0), an expired deadline under a
/// larger budget counts as a deadline force, and in both cases the exit
/// histogram's total equals completed_samples exactly (never double
/// counted).
TEST(SingleModelFleet, DeadlineOnBudgetBoundaryCountsOnce) {
  core::Experiment e = micro_experiment("sync10", 4);
  const auto& ds = *e.bundle.test;
  const core::NeverExitPolicy never;

  {
    // Both conditions true at the same boundary: budget 1 exhausts at t=1,
    // and the deadline has already passed when the decision is made.
    ServingFleet fleet(one_model(e.net, ds, never, 4));
    FleetRequest req;
    req.request = InferenceRequest::first_n(3);
    req.request.max_timesteps = 1;
    req.deadline = ServeClock::now() - std::chrono::seconds(1);
    auto future = fleet.submit(std::move(req)).results;
    future.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.completed_samples, 3u);
    EXPECT_EQ(stats.deadline_forced_exits, 0u)
        << "budget exhaustion owns the boundary exit";
    EXPECT_EQ(stats.exit_timesteps.total(), stats.completed_samples)
        << "one histogram entry per completion, never two";
    EXPECT_EQ(stats.exit_timesteps.count(0), 3u);
  }
  {
    // Same deadline, room in the budget: now the deadline owns the exit,
    // with the identical once-only histogram accounting.
    ServingFleet fleet(one_model(e.net, ds, never, 4));
    FleetRequest req;
    req.request = InferenceRequest::first_n(3);
    req.deadline = ServeClock::now() - std::chrono::seconds(1);
    auto future = fleet.submit(std::move(req)).results;
    future.get();
    fleet.drain();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.completed_samples, 3u);
    EXPECT_EQ(stats.deadline_forced_exits, 3u);
    EXPECT_EQ(stats.exit_timesteps.total(), stats.completed_samples);
    EXPECT_EQ(stats.exit_timesteps.count(0), 3u) << "still a t=1 exit";
  }
}

/// The scheduler, tenant, and cancellation surfaces work on the single-model
/// shape: FleetConfig selects the policy and tenant classes, submit() hands
/// out a working cancellation handle, and FleetStats reports cancelled work
/// distinctly from completions and failures.
TEST(SingleModelFleet, SchedulerTenantsAndCancellation) {
  core::Experiment e = micro_experiment("sync10", 3);
  const auto& ds = *e.bundle.test;
  const core::EntropyExitPolicy policy(0.35);
  FleetConfig config;
  config.scheduler = "edf";
  config.tenants = {TenantSpec{.name = "interactive", .weight = 2.0, .max_queued = 4}};
  ServingFleet fleet(one_model(e.net, ds, policy, 3), config);
  EXPECT_EQ(fleet.scheduler_kind(), SchedulerKind::kEdf);

  FleetRequest tagged = {};
  tagged.request.samples = {0, 1};
  tagged.tenant = 1;
  Submission sub = fleet.submit(std::move(tagged));
  EXPECT_NE(sub.handle.id, 0u);
  sub.results.get();
  EXPECT_FALSE(fleet.cancel(sub.handle)) << "already completed";
  fleet.drain();

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed_samples, 2u);
  EXPECT_EQ(stats.cancelled_requests, 0u);
  EXPECT_EQ(stats.cancelled_queued_samples, 0u);
  EXPECT_EQ(stats.cancelled_live_samples, 0u);
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[1].name, "interactive");
  EXPECT_EQ(stats.tenants[1].completed_samples, 2u);
}

}  // namespace
}  // namespace dtsnn::serve
