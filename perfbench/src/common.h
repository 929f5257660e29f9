// Shared pieces of the DT-SNN benchmark driver: options, the checked-in
// operating point (checkpoint + entropy threshold), the metric tables every
// run prints, and small statistics helpers.
//
// Every workload prints every metric of both tables (README.md explains
// each one); a metric a workload has no use for reads 0 in the per-layer
// table, while every end-to-end metric has a definition on every workload.

#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/inference.h"
#include "data/dataset.h"
#include "imc/energy_model.h"
#include "snn/network.h"

namespace perfbench {

namespace core = dtsnn::core;
namespace data = dtsnn::data;
namespace imc = dtsnn::imc;
namespace snn = dtsnn::snn;
namespace util = dtsnn::util;

using Clock = std::chrono::steady_clock;

/// Timestep budget of the static reference and of every DT-SNN run.
inline constexpr std::size_t kTimesteps = 4;
/// Deadline of the interactive serving tenant.
inline constexpr double kInteractiveDeadlineMs = 10.0;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path assets;  ///< checkpoint + operating point
  std::filesystem::path work;    ///< scratch space (shard store)
};

/// The checked-in operating point (assets/checkpoint.json), written by the
/// regen step next to the checkpoint it describes.
struct OperatingPoint {
  std::string model;
  std::string dataset;
  std::size_t epochs = 0;
  double theta = 0.0;               ///< iso-accuracy entropy threshold
  double static_t4_accuracy = 0.0;  ///< static T=4 accuracy on the test split
  double dtsnn_accuracy = 0.0;      ///< DT-SNN accuracy at theta (replay)
  double dtsnn_avg_timesteps = 0.0;
  std::size_t test_samples = 0;
  std::string split_digest;  ///< FNV-1a over the encoded test split
};

/// What every workload borrows: the verified test split, the checkpoint, the
/// operating point and an energy model with probe-measured LIF activity.
struct Assets {
  std::unique_ptr<data::ArrayDataset> test;
  std::filesystem::path checkpoint;
  OperatingPoint op;
  std::unique_ptr<imc::EnergyModel> energy;
};

/// Regenerates the sync10 test split (the train split is not needed to run).
std::unique_ptr<data::ArrayDataset> make_test_split(const std::string& dataset);
/// FNV-1a 64 over every label and every encoded frame t < kTimesteps.
std::string split_digest(const data::Dataset& split);
/// The checkpoint's architecture for the split's geometry, loaded.
snn::SpikingNetwork load_network(const Assets& assets);
/// IMC energy model of `net` with per-weight-layer input activities.
std::unique_ptr<imc::EnergyModel> energy_model(snn::SpikingNetwork& net,
                                               const std::string& name,
                                               const std::vector<double>& activities);

// ------------------------------------------------------------------ metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kEndToEnd;
/// Per-layer metrics (--trace 1), in BENCHMARK.json order.
extern const std::vector<MetricSpec> kPerLayer;

/// Values for one metric table, every entry starting at 0.
class MetricTable {
 public:
  explicit MetricTable(const std::vector<MetricSpec>& specs);
  /// Throws std::logic_error for a name outside the table.
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<MetricSpec>& specs() const { return specs_; }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  [[nodiscard]] std::size_t index(const std::string& name) const;
  std::vector<MetricSpec> specs_;
  std::vector<double> values_;
};

/// A finished run: the gate verdict, operation counts, both tables, and
/// extra figures that go into the report but not into the metric set.
struct RunOutcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricTable end_to_end{kEndToEnd};
  MetricTable per_layer{kPerLayer};
  std::vector<std::pair<std::string, double>> extras;
  std::vector<std::string> gate_failures;

  void fail(const std::string& why) {
    correct = false;
    gate_failures.push_back(why);
  }
};

RunOutcome run_offline(const Options& options, Assets& assets, bool int8);
RunOutcome run_serving(const Options& options, Assets& assets);

// ------------------------------------------------------------------ helpers

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolation quantile (util::quantile); 0 for an empty sample.
[[nodiscard]] double quantile(const std::vector<double>& values, double p);
/// Seeded permutation of [0, n); `stream` selects an independent sequence.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                                   std::uint64_t stream);
/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();
/// Bitwise decision identity: prediction, exit timestep and exit entropy.
[[nodiscard]] bool same_decision(const core::InferenceResult& a,
                                 const core::InferenceResult& b);

}  // namespace perfbench
