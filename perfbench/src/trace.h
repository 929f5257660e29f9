// Traced run: decorators over the library's public interfaces.
//
// The per-layer numbers come from outside the program. TracedLayer wraps an
// snn::Layer, ObservedDataset a data::Dataset and TracedPolicy a
// core::ExitPolicy; each times the calls the engines and the serving fleet
// make into them and forwards every call unchanged, so traced decisions are
// the untraced ones (the traced run checks this). GEMM and fleet figures
// come from util::GemmContext and serve::FleetStats snapshots.
//
// Spans accumulate per thread without locks and are merged once every
// traced thread has joined. A thread's "step" is one stepping-core cycle:
// it opens at the first frame fetch after the network stepped and closes
// at the end of the last span before the next one (idle waits between
// cycles are excluded). Within a cycle, the time no span covers is the
// engine's own work (cumulative mean, bookkeeping, admission) and is
// reported as core.overhead_us_per_step.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "core/exit_policy.h"
#include "snn/layer.h"
#include "util/gemm.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace perfbench {

enum class LayerKind { kConv, kLif, kPool, kNorm, kLinear, kOther };
inline constexpr std::size_t kLayerKinds = 6;
inline constexpr std::array<const char*, kLayerKinds> kLayerKindNames = {
    "conv", "lif", "pool", "norm", "linear", "other"};

/// One thread's span and count accumulators.
struct ThreadTrace {
  std::array<double, kLayerKinds> layer_ns{};  ///< step self time per kind
  std::array<double, kLayerKinds> layer_rows{};
  /// Nonzeros / elements of each weight layer's step inputs (visit order).
  std::vector<double> weight_in_nz, weight_in_el;
  double lif_out_nz = 0.0, lif_out_el = 0.0;
  double compact_ns = 0.0;
  double decide_ns = 0.0;
  std::size_t decides = 0;
  double frame_ns = 0.0;
  std::size_t admissions = 0;     ///< frames fetched at t = 0
  std::size_t hinted_samples = 0; ///< samples in prefetch hints serviced
  std::size_t steps = 0;
  double step_rows = 0.0;
  double cycle_ns = 0.0;  ///< step wall time
  double span_ns = 0.0;   ///< spans inside cycles

  /// A frame fetch starts; opens a cycle when the network stepped since.
  void frame_begin(Clock::time_point now);
  /// Records a span (counted toward coverage when inside a cycle).
  void span(Clock::time_point begin, Clock::time_point end);
  /// The network's last layer finished a step of `rows` live rows.
  void step_done(std::size_t rows);
  /// Closes the open cycle (after the thread's last event).
  void finish();

 private:
  bool in_cycle_ = false;
  bool stepped_ = false;
  Clock::time_point cycle_start_{};
  Clock::time_point last_span_end_{};
};

/// Registry of per-thread traces for one traced phase.
class Tracer {
 public:
  explicit Tracer(std::size_t weight_layers);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's accumulator, registered on first use.
  ThreadTrace& local() DTSNN_EXCLUDES(mu_);
  /// Sum over all threads; call only after every traced thread joined.
  [[nodiscard]] ThreadTrace merged() DTSNN_EXCLUDES(mu_);

 private:
  const std::uint64_t id_;
  const std::size_t weight_layers_;
  util::Mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_ DTSNN_GUARDED_BY(mu_);
};

/// Wraps one layer; forwards every call, timing step() and compact_state().
class TracedLayer final : public snn::Layer {
 public:
  /// `weight_index` is the layer's position among conv/linear layers (-1
  /// for others); `last` marks the network's final layer (a step ends).
  TracedLayer(snn::Layer& inner, Tracer& tracer, int weight_index, bool last);

  void set_time(std::size_t timesteps, std::size_t batch) override;
  snn::Tensor forward(const snn::Tensor& x, bool train) override;
  snn::Tensor backward(const snn::Tensor& grad_out) override;
  void begin_steps(std::size_t batch) override;
  snn::Tensor step(const snn::Tensor& x) override;
  void compact_state(std::span<const std::size_t> keep) override;
  std::vector<snn::Param*> params() override { return inner_.params(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] snn::Shape infer_shape(const snn::Shape& s) const override {
    return inner_.infer_shape(s);
  }

 private:
  snn::Layer& inner_;
  Tracer& tracer_;
  LayerKind kind_;
  int weight_index_;
  bool last_;
};

/// A network whose top-level layers are TracedLayers over `base`'s layers.
/// `base` (borrowed) keeps its weights, state and GEMM context and must
/// outlive the view.
snn::SpikingNetwork traced_view(snn::SpikingNetwork& base, Tracer& tracer);
/// Number of conv/linear layers at the top level of `net`.
std::size_t weight_layer_count(snn::SpikingNetwork& net);

/// Per-sample admission clock: the time a sample's t = 0 frame was fetched,
/// which is when a live pool admitted it.
class AdmissionLog {
 public:
  explicit AdmissionLog(std::size_t samples) : ns_(samples) {}
  void stamp(std::size_t sample, Clock::time_point now) {
    ns_[sample].store(now.time_since_epoch().count(), std::memory_order_relaxed);
  }
  [[nodiscard]] Clock::time_point at(std::size_t sample) const {
    return Clock::time_point(Clock::duration(ns_[sample].load(std::memory_order_relaxed)));
  }

 private:
  std::vector<std::atomic<Clock::rep>> ns_;
};

/// Forwards to `inner`; stamps admissions into `log` and, with a tracer,
/// times frame fetches and counts serviced prefetch hints.
class ObservedDataset final : public data::Dataset {
 public:
  ObservedDataset(const data::Dataset& inner, AdmissionLog& log, Tracer* tracer)
      : inner_(inner), log_(log), tracer_(tracer) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t num_classes() const override { return inner_.num_classes(); }
  [[nodiscard]] snn::Shape frame_shape() const override { return inner_.frame_shape(); }
  [[nodiscard]] int label(std::size_t s) const override { return inner_.label(s); }
  [[nodiscard]] double difficulty(std::size_t s) const override {
    return inner_.difficulty(s);
  }
  [[nodiscard]] std::size_t native_frames() const override {
    return inner_.native_frames();
  }
  void write_frame(std::size_t sample, std::size_t t, std::span<float> dst) const override;
  void prefetch(std::span<const std::size_t> samples) const override;
  [[nodiscard]] data::DatasetStorageStats storage_stats() const override {
    return inner_.storage_stats();
  }

 private:
  const data::Dataset& inner_;
  AdmissionLog& log_;
  Tracer* tracer_;
};

/// Forwards to `inner`, timing each exit decision.
class TracedPolicy final : public core::ExitPolicy {
 public:
  TracedPolicy(const core::ExitPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] bool should_exit(std::span<const float> cum_logits) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const core::ExitPolicy& inner_;
  Tracer& tracer_;
};

/// Fills the per-layer metrics the trace alone determines (snn.*, core
/// stepping, data.frame/prefetch, trace.coverage_share) for `images`
/// completed images on pools of `pool_capacity` rows.
void report_trace(const ThreadTrace& t, std::size_t images, std::size_t pool_capacity,
                  bool storage_backed, MetricTable& per_layer);
/// gemm.*: a GemmContext stats delta over `images` completed images.
void report_gemm(const util::GemmStats& stats, std::size_t images, MetricTable& per_layer);
/// core.exit_share.t1..t4 and imc.*: the energy model of `net` fed with the
/// traced weight-layer input densities, over the observed exit timesteps.
void report_exits_and_energy(const ThreadTrace& t, snn::SpikingNetwork& net,
                             const std::string& model,
                             const std::vector<std::size_t>& exit_timesteps,
                             MetricTable& per_layer);

}  // namespace perfbench
