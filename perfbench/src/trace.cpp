#include "trace.h"

#include <algorithm>

namespace perfbench {

namespace {

double ns(Clock::duration d) {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double nonzeros(const snn::Tensor& x) {
  return static_cast<double>(
      std::count_if(x.data(), x.data() + x.numel(), [](float v) { return v != 0.0f; }));
}

LayerKind kind_of(const snn::Layer& layer) {
  const std::string name = layer.name();
  if (name == "Conv2d") return LayerKind::kConv;
  if (name == "Lif") return LayerKind::kLif;
  if (name == "AvgPool2d" || name == "MaxPool2d") return LayerKind::kPool;
  if (name == "BatchNorm2d") return LayerKind::kNorm;
  if (name == "Linear") return LayerKind::kLinear;
  return LayerKind::kOther;
}

bool is_weight_layer(LayerKind kind) {
  return kind == LayerKind::kConv || kind == LayerKind::kLinear;
}

std::atomic<std::uint64_t> next_tracer_id{1};

}  // namespace

// ------------------------------------------------------------- ThreadTrace

void ThreadTrace::frame_begin(Clock::time_point now) {
  if (!in_cycle_) {
    in_cycle_ = true;
    cycle_start_ = now;
    last_span_end_ = now;
  } else if (stepped_) {
    cycle_ns += ns(last_span_end_ - cycle_start_);
    cycle_start_ = now;
    last_span_end_ = now;
  }
  stepped_ = false;
}

void ThreadTrace::span(Clock::time_point begin, Clock::time_point end) {
  if (!in_cycle_) return;
  span_ns += ns(end - begin);
  last_span_end_ = end;
}

void ThreadTrace::step_done(std::size_t rows) {
  ++steps;
  step_rows += static_cast<double>(rows);
  stepped_ = true;
}

void ThreadTrace::finish() {
  if (!in_cycle_) return;
  cycle_ns += ns(last_span_end_ - cycle_start_);
  in_cycle_ = false;
}

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(std::size_t weight_layers)
    : id_(next_tracer_id.fetch_add(1)), weight_layers_(weight_layers) {}

ThreadTrace& Tracer::local() {
  // Keyed by tracer id, not address: a later tracer may reuse the address.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadTrace* cached = nullptr;
  if (cached_id == id_) return *cached;
  auto trace = std::make_unique<ThreadTrace>();
  trace->weight_in_nz.assign(weight_layers_, 0.0);
  trace->weight_in_el.assign(weight_layers_, 0.0);
  cached = trace.get();
  cached_id = id_;
  util::MutexLock lock(mu_);
  threads_.push_back(std::move(trace));
  return *cached;
}

ThreadTrace Tracer::merged() {
  util::MutexLock lock(mu_);
  ThreadTrace sum;
  sum.weight_in_nz.assign(weight_layers_, 0.0);
  sum.weight_in_el.assign(weight_layers_, 0.0);
  for (const auto& t : threads_) {
    t->finish();
    for (std::size_t k = 0; k < kLayerKinds; ++k) {
      sum.layer_ns[k] += t->layer_ns[k];
      sum.layer_rows[k] += t->layer_rows[k];
    }
    for (std::size_t w = 0; w < weight_layers_; ++w) {
      sum.weight_in_nz[w] += t->weight_in_nz[w];
      sum.weight_in_el[w] += t->weight_in_el[w];
    }
    sum.lif_out_nz += t->lif_out_nz;
    sum.lif_out_el += t->lif_out_el;
    sum.compact_ns += t->compact_ns;
    sum.decide_ns += t->decide_ns;
    sum.decides += t->decides;
    sum.frame_ns += t->frame_ns;
    sum.admissions += t->admissions;
    sum.hinted_samples += t->hinted_samples;
    sum.steps += t->steps;
    sum.step_rows += t->step_rows;
    sum.cycle_ns += t->cycle_ns;
    sum.span_ns += t->span_ns;
  }
  return sum;
}

// ------------------------------------------------------------- TracedLayer

TracedLayer::TracedLayer(snn::Layer& inner, Tracer& tracer, int weight_index, bool last)
    : inner_(inner),
      tracer_(tracer),
      kind_(kind_of(inner)),
      weight_index_(weight_index),
      last_(last) {}

void TracedLayer::set_time(std::size_t timesteps, std::size_t batch) {
  Layer::set_time(timesteps, batch);
  inner_.set_time(timesteps, batch);
}

snn::Tensor TracedLayer::forward(const snn::Tensor& x, bool train) {
  return inner_.forward(x, train);
}

snn::Tensor TracedLayer::backward(const snn::Tensor& grad_out) {
  return inner_.backward(grad_out);
}

void TracedLayer::begin_steps(std::size_t batch) {
  Layer::begin_steps(batch);
  inner_.begin_steps(batch);
}

snn::Tensor TracedLayer::step(const snn::Tensor& x) {
  ThreadTrace& t = tracer_.local();
  const std::size_t rows = x.shape().empty() ? 0 : x.shape()[0];
  // Densities are counted outside the span: they are tracing cost, not
  // layer time.
  if (weight_index_ >= 0) {
    t.weight_in_nz[static_cast<std::size_t>(weight_index_)] += nonzeros(x);
    t.weight_in_el[static_cast<std::size_t>(weight_index_)] += static_cast<double>(x.numel());
  }
  const Clock::time_point begin = Clock::now();
  snn::Tensor y = inner_.step(x);
  const Clock::time_point end = Clock::now();
  t.span(begin, end);
  const auto k = static_cast<std::size_t>(kind_);
  t.layer_ns[k] += ns(end - begin);
  t.layer_rows[k] += static_cast<double>(rows);
  if (kind_ == LayerKind::kLif) {
    t.lif_out_nz += nonzeros(y);
    t.lif_out_el += static_cast<double>(y.numel());
  }
  if (last_) t.step_done(rows);
  return y;
}

void TracedLayer::compact_state(std::span<const std::size_t> keep) {
  Layer::compact_state(keep);
  ThreadTrace& t = tracer_.local();
  const Clock::time_point begin = Clock::now();
  inner_.compact_state(keep);
  const Clock::time_point end = Clock::now();
  t.span(begin, end);
  t.compact_ns += ns(end - begin);
}

std::size_t weight_layer_count(snn::SpikingNetwork& net) {
  std::size_t n = 0;
  snn::Sequential& body = net.body();
  for (std::size_t i = 0; i < body.size(); ++i) n += is_weight_layer(kind_of(body.layer(i)));
  return n;
}

snn::SpikingNetwork traced_view(snn::SpikingNetwork& base, Tracer& tracer) {
  snn::Sequential body;
  snn::Sequential& inner = base.body();
  int weight_index = 0;
  for (std::size_t i = 0; i < inner.size(); ++i) {
    snn::Layer& layer = inner.layer(i);
    const bool weights = is_weight_layer(kind_of(layer));
    body.append(std::make_unique<TracedLayer>(layer, tracer, weights ? weight_index : -1,
                                              i + 1 == inner.size()));
    weight_index += weights ? 1 : 0;
  }
  return snn::SpikingNetwork(std::move(body), base.num_classes(), base.sample_shape());
}

// --------------------------------------------------------- ObservedDataset

void ObservedDataset::write_frame(std::size_t sample, std::size_t t,
                                  std::span<float> dst) const {
  if (tracer_ == nullptr) {
    if (t == 0) log_.stamp(sample, Clock::now());
    inner_.write_frame(sample, t, dst);
    return;
  }
  ThreadTrace& tt = tracer_->local();
  const Clock::time_point begin = Clock::now();
  tt.frame_begin(begin);
  if (t == 0) {
    log_.stamp(sample, begin);
    ++tt.admissions;
  }
  inner_.write_frame(sample, t, dst);
  const Clock::time_point end = Clock::now();
  tt.span(begin, end);
  tt.frame_ns += ns(end - begin);
}

void ObservedDataset::prefetch(std::span<const std::size_t> samples) const {
  if (tracer_ != nullptr) tracer_->local().hinted_samples += samples.size();
  inner_.prefetch(samples);
}

// ------------------------------------------------------------ TracedPolicy

bool TracedPolicy::should_exit(std::span<const float> cum_logits) const {
  ThreadTrace& t = tracer_.local();
  const Clock::time_point begin = Clock::now();
  const bool exit = inner_.should_exit(cum_logits);
  const Clock::time_point end = Clock::now();
  t.span(begin, end);
  t.decide_ns += ns(end - begin);
  ++t.decides;
  return exit;
}

// ---------------------------------------------------------------- metrics

void report_trace(const ThreadTrace& t, std::size_t images, std::size_t pool_capacity,
                  bool storage_backed, MetricTable& m) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  for (std::size_t k = 0; k < kLayerKinds; ++k) {
    if (static_cast<LayerKind>(k) == LayerKind::kOther) continue;
    m.set(std::string("snn.") + kLayerKindNames[k] + ".us_per_row",
          ratio(t.layer_ns[k] / 1e3, t.layer_rows[k]));
  }
  // Weight layer 0 reads the analog frames; the conv density is that of
  // the spike-carrying convs, the linear density that of the classifier.
  double conv_nz = 0.0, conv_el = 0.0;
  for (std::size_t w = 1; w + 1 < t.weight_in_nz.size(); ++w) {
    conv_nz += t.weight_in_nz[w];
    conv_el += t.weight_in_el[w];
  }
  m.set("snn.conv.in_density", ratio(conv_nz, conv_el));
  if (!t.weight_in_nz.empty()) {
    m.set("snn.linear.in_density", ratio(t.weight_in_nz.back(), t.weight_in_el.back()));
  }
  m.set("snn.lif.out_rate", ratio(t.lif_out_nz, t.lif_out_el));
  const double steps = static_cast<double>(t.steps);
  m.set("snn.compact_us_per_step", ratio(t.compact_ns / 1e3, steps));
  m.set("core.pool_fill_share",
        ratio(t.step_rows, steps * static_cast<double>(pool_capacity)));
  m.set("core.steps_per_img", ratio(steps, static_cast<double>(images)));
  m.set("core.overhead_us_per_step", ratio((t.cycle_ns - t.span_ns) / 1e3, steps));
  m.set("core.decide_us_per_row", ratio(t.decide_ns / 1e3, static_cast<double>(t.decides)));
  m.set("data.frame_us_per_img", ratio(t.frame_ns / 1e3, static_cast<double>(images)));
  if (storage_backed) {
    m.set("data.prefetch_dropped_share",
          std::max(0.0, 1.0 - ratio(static_cast<double>(t.hinted_samples),
                                    static_cast<double>(t.admissions))));
  }
  m.set("trace.coverage_share", ratio(t.span_ns, t.cycle_ns));
}

void report_gemm(const util::GemmStats& stats, std::size_t images, MetricTable& m) {
  const double n = static_cast<double>(std::max<std::size_t>(images, 1));
  m.set("gemm.calls_per_img", static_cast<double>(stats.calls()) / n);
  m.set("gemm.gflop_per_img", stats.flops() / 1e9 / n);
  m.set("gemm.a_density", stats.density());
  for (const char* backend : {"avx512", "avx2", "blocked_omp", "sparse_spike", "int8_lut"}) {
    const auto it = stats.by_backend.find(backend);
    const double flops = it == stats.by_backend.end() ? 0.0 : it->second.flops();
    m.set(std::string("gemm.") + backend + ".flop_share",
          stats.flops() > 0.0 ? flops / stats.flops() : 0.0);
  }
}

void report_exits_and_energy(const ThreadTrace& t, snn::SpikingNetwork& net,
                             const std::string& model,
                             const std::vector<std::size_t>& exit_timesteps,
                             MetricTable& m) {
  std::array<double, kTimesteps> exits{};
  for (const std::size_t step : exit_timesteps) exits.at(step - 1) += 1.0;
  const double n = static_cast<double>(std::max<std::size_t>(exit_timesteps.size(), 1));
  for (std::size_t i = 0; i < kTimesteps; ++i) {
    m.set("core.exit_share.t" + std::to_string(i + 1), exits[i] / n);
  }
  std::vector<double> activities(t.weight_in_nz.size());
  for (std::size_t w = 0; w < activities.size(); ++w) {
    activities[w] = t.weight_in_el[w] > 0.0 ? t.weight_in_nz[w] / t.weight_in_el[w] : 0.0;
  }
  const auto energy = energy_model(net, model, activities);
  double delay_ns = 0.0;
  for (const std::size_t step : exit_timesteps) {
    delay_ns += energy->latency_ns(static_cast<double>(step));
  }
  m.set("imc.energy_pj_per_img", energy->mean_energy_pj(exit_timesteps));
  m.set("imc.delay_ns_per_img", delay_ns / n);
  m.set("imc.hidden_activity", t.lif_out_el > 0.0 ? t.lif_out_nz / t.lif_out_el : 0.0);
}

}  // namespace perfbench
