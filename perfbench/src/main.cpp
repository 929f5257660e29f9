// DT-SNN benchmark driver.
//
//   dtsnn_perfbench run --workload W --seed N --seconds S --trace 0|1
//                       --assets DIR --work DIR
//   dtsnn_perfbench regen --assets DIR
//
// `run` executes one workload (offline_float, offline_int8,
// serve_two_tenant) against the checked-in checkpoint and prints, last, one
// JSON line {"correct", "attempted", "failed", "metrics"}; --trace 1 prints
// the per-layer table instead of the end-to-end one. A line starting with
// "fingerprint: " before it describes the host and build. `regen` trains
// the checkpoint and writes the operating point next to it. README.md in
// this directory documents the workloads, the metrics and the gates.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "core/calibration.h"
#include "core/evaluator.h"
#include "data/synthetic.h"
#include "imc/mapping.h"
#include "imc/network_spec.h"
#include "snn/models.h"
#include "snn/serialize.h"
#include "util/gemm.h"
#include "util/rng.h"
#include "util/stats.h"

extern char** environ;

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_img_s", "img/s"},
    {"accuracy", "share"},
    {"avg_timesteps", "steps"},
    {"edp_pj_ns", "pJ.ns"},
    {"peak_rss_mb", "MiB"},
    {"decision_agreement_share", "share"},
    {"interactive_p50_ms", "ms"},
    {"interactive_p99_ms", "ms"},
    {"bulk_p50_ms", "ms"},
    {"deadline_met_share", "share"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"snn.conv.us_per_row", "us"},
    {"snn.lif.us_per_row", "us"},
    {"snn.pool.us_per_row", "us"},
    {"snn.norm.us_per_row", "us"},
    {"snn.linear.us_per_row", "us"},
    {"snn.conv.in_density", "share"},
    {"snn.linear.in_density", "share"},
    {"snn.lif.out_rate", "share"},
    {"snn.compact_us_per_step", "us"},
    {"gemm.calls_per_img", "count"},
    {"gemm.gflop_per_img", "GFLOP"},
    {"gemm.a_density", "share"},
    {"gemm.avx512.flop_share", "share"},
    {"gemm.avx2.flop_share", "share"},
    {"gemm.blocked_omp.flop_share", "share"},
    {"gemm.sparse_spike.flop_share", "share"},
    {"gemm.int8_lut.flop_share", "share"},
    {"core.pool_fill_share", "share"},
    {"core.steps_per_img", "count"},
    {"core.overhead_us_per_step", "us"},
    {"core.decide_us_per_row", "us"},
    {"core.exit_share.t1", "share"},
    {"core.exit_share.t2", "share"},
    {"core.exit_share.t3", "share"},
    {"core.exit_share.t4", "share"},
    {"serve.queue_p50_ms", "ms"},
    {"serve.queue_p99_ms", "ms"},
    {"serve.service_p50_ms", "ms"},
    {"serve.service_p99_ms", "ms"},
    {"serve.peak_pool", "count"},
    {"serve.deadline_forced_share", "share"},
    {"data.frame_us_per_img", "us"},
    {"data.cache_hit_share", "share"},
    {"data.cache_misses_per_img", "count"},
    {"data.prefetch_dropped_share", "share"},
    {"imc.energy_pj_per_img", "pJ"},
    {"imc.delay_ns_per_img", "ns"},
    {"imc.hidden_activity", "share"},
    {"trace.coverage_share", "share"},
    {"trace.overhead_share", "share"},
    {"bench.generator_lag_p99_ms", "ms"},
};

MetricTable::MetricTable(const std::vector<MetricSpec>& specs)
    : specs_(specs), values_(specs.size(), 0.0) {}

std::size_t MetricTable::index(const std::string& name) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (name == specs_[i].name) return i;
  }
  throw std::logic_error("unknown metric " + name);
}

void MetricTable::set(const std::string& name, double value) { values_[index(name)] = value; }

double MetricTable::get(const std::string& name) const { return values_[index(name)]; }

// ------------------------------------------------------------------ helpers

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : util::quantile(values, p);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t stream) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng = util::Rng(seed).fork(stream);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  return order;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool same_decision(const core::InferenceResult& a, const core::InferenceResult& b) {
  return a.predicted_class == b.predicted_class && a.exit_timestep == b.exit_timestep &&
         a.final_entropy == b.final_entropy;
}

// ------------------------------------------------------------------- assets

std::unique_ptr<data::ArrayDataset> make_test_split(const std::string& dataset) {
  data::SyntheticSpec spec = data::synthetic_preset(dataset);
  // The train and test splits draw from independent forks of the prototype
  // stream, so skipping the train split leaves the test split bit-identical.
  spec.train_samples = 0;
  return std::move(data::make_synthetic_vision(spec).test);
}

std::string split_digest(const data::Dataset& split) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* bytes, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  std::vector<float> frame(snn::shape_numel(split.frame_shape()));
  for (std::size_t s = 0; s < split.size(); ++s) {
    const int label = split.label(s);
    mix(&label, sizeof(label));
    for (std::size_t t = 0; t < kTimesteps; ++t) {
      split.write_frame(s, t, frame);
      mix(frame.data(), frame.size() * sizeof(float));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

snn::SpikingNetwork load_network(const Assets& assets) {
  snn::ModelConfig mc;
  mc.num_classes = assets.test->num_classes();
  mc.input_shape = assets.test->frame_shape();
  snn::SpikingNetwork net = snn::make_model(assets.op.model, mc);
  snn::load_checkpoint(net, assets.checkpoint.string());
  return net;
}

std::unique_ptr<imc::EnergyModel> energy_model(snn::SpikingNetwork& net,
                                               const std::string& name,
                                               const std::vector<double>& activities) {
  const imc::NetworkSpec spec = imc::spec_from_network(net, name, activities);
  return std::make_unique<imc::EnergyModel>(imc::map_network(spec, imc::ImcConfig{}));
}

namespace {

constexpr const char* kCheckpointFile = "vgg_mini_sync10.dtsnn";
constexpr const char* kOperatingPointFile = "checkpoint.json";
/// The training budget of the repository's INT8 flip gate on sync10
/// (bench/gemm_microbench): the float model's decisions have converged.
constexpr std::size_t kRegenEpochs = 60;

/// Per-weight-layer input activity from a T=4 probe over the first 256 test
/// samples: the analog first layer reads 1, every later weight layer the
/// spike rate of the LIF in front of it.
std::vector<double> probe_activities(snn::SpikingNetwork& net, const data::Dataset& split) {
  std::vector<std::size_t> probe(std::min<std::size_t>(256, split.size()));
  for (std::size_t i = 0; i < probe.size(); ++i) probe[i] = i;
  const snn::EncodedBatch batch = data::materialize_batch(split, probe, kTimesteps);
  net.forward(batch.x, kTimesteps, /*train=*/false);
  std::vector<double> activities;
  double rate_in = 1.0;  // analog frames feed the first layer
  net.visit([&](snn::Layer& l) {
    if (const auto* lif = dynamic_cast<const snn::Lif*>(&l)) {
      rate_in = lif->last_spike_rate();
    } else if (l.name() == "Conv2d" || l.name() == "Linear") {
      activities.push_back(rate_in);
    }
  });
  return activities;
}

// --- flat JSON (the operating-point file holds one level of keys)

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::map<std::string, std::string> read_flat_json(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::map<std::string, std::string> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    const std::size_t colon = text.find(':', key_end);
    if (key_end == std::string::npos || colon == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t v = text.find_first_not_of(" \t\r\n", colon + 1);
    if (v == std::string::npos) break;
    std::string value;
    if (text[v] == '"') {
      const std::size_t v_end = text.find('"', v + 1);
      value = text.substr(v + 1, v_end - v - 1);
      pos = v_end + 1;
    } else {
      const std::size_t v_end = text.find_first_of(",}\n", v);
      value = text.substr(v, v_end - v);
      while (!value.empty() && std::isspace(static_cast<unsigned char>(value.back()))) {
        value.pop_back();
      }
      pos = v_end;
    }
    out[key] = value;
  }
  return out;
}

OperatingPoint read_operating_point(const std::filesystem::path& path) {
  const auto kv = read_flat_json(path);
  const auto get = [&kv, &path](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::runtime_error(path.string() + " lacks \"" + key + "\"");
    }
    return it->second;
  };
  OperatingPoint op;
  op.model = get("model");
  op.dataset = get("dataset");
  op.epochs = std::stoull(get("epochs"));
  op.theta = std::stod(get("theta"));
  op.static_t4_accuracy = std::stod(get("static_t4_accuracy"));
  op.dtsnn_accuracy = std::stod(get("dtsnn_accuracy"));
  op.dtsnn_avg_timesteps = std::stod(get("dtsnn_avg_timesteps"));
  op.test_samples = std::stoull(get("test_samples"));
  op.split_digest = get("split_digest");
  return op;
}

void write_operating_point(const std::filesystem::path& path, const OperatingPoint& op) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"model\": \"" << json_escape(op.model) << "\",\n"
      << "  \"dataset\": \"" << json_escape(op.dataset) << "\",\n"
      << "  \"timesteps\": " << kTimesteps << ",\n"
      << "  \"epochs\": " << op.epochs << ",\n"
      << "  \"theta\": " << fmt_number(op.theta) << ",\n"
      << "  \"static_t4_accuracy\": " << fmt_number(op.static_t4_accuracy) << ",\n"
      << "  \"dtsnn_accuracy\": " << fmt_number(op.dtsnn_accuracy) << ",\n"
      << "  \"dtsnn_avg_timesteps\": " << fmt_number(op.dtsnn_avg_timesteps) << ",\n"
      << "  \"test_samples\": " << op.test_samples << ",\n"
      << "  \"split_digest\": \"" << op.split_digest << "\"\n"
      << "}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Loads and verifies the assets; throws when the checkpoint is missing or
/// the regenerated test split differs from the one it was calibrated on.
Assets load_assets(const std::filesystem::path& dir) {
  Assets a;
  a.checkpoint = dir / kCheckpointFile;
  if (!std::filesystem::exists(a.checkpoint) ||
      !std::filesystem::exists(dir / kOperatingPointFile)) {
    throw std::runtime_error("checkpoint missing in " + dir.string() +
                             " (run: python3 perfbench/run.py --regen)");
  }
  a.op = read_operating_point(dir / kOperatingPointFile);
  a.test = make_test_split(a.op.dataset);
  const std::string digest = split_digest(*a.test);
  if (a.test->size() != a.op.test_samples || digest != a.op.split_digest) {
    throw std::runtime_error("regenerated " + a.op.dataset + " test split (" + digest +
                             ", " + std::to_string(a.test->size()) +
                             " samples) differs from the checkpoint's (" +
                             a.op.split_digest + ", " +
                             std::to_string(a.op.test_samples) + "); rerun --regen");
  }
  snn::SpikingNetwork net = load_network(a);
  a.energy = energy_model(net, a.op.model, probe_activities(net, *a.test));
  return a;
}

/// Trains the checkpoint and writes its operating point.
int regen(const std::filesystem::path& dir) {
  core::ExperimentSpec spec;
  spec.model = "vgg_mini";
  spec.dataset = "sync10";
  spec.timesteps = kTimesteps;
  spec.epochs = kRegenEpochs;
  spec.loss = core::LossKind::kPerTimestep;
  core::Experiment e = core::run_experiment(spec);

  Assets a;
  a.checkpoint = dir / kCheckpointFile;
  OperatingPoint& op = a.op;
  op.model = spec.model;
  op.dataset = spec.dataset;
  op.epochs = spec.epochs;
  a.test = make_test_split(spec.dataset);
  op.test_samples = a.test->size();
  op.split_digest = split_digest(*a.test);
  if (split_digest(*e.bundle.test) != op.split_digest) {
    std::fprintf(stderr, "regen: the stand-alone test split differs from the trained one\n");
    return 1;
  }
  std::filesystem::create_directories(dir);
  snn::save_checkpoint(e.net, a.checkpoint.string());
  snn::SpikingNetwork net = load_network(a);

  // Iso-accuracy operating point (Table II): the largest theta whose DT-SNN
  // accuracy stays within half a point of the static T=4 accuracy, which
  // leaves headroom under the runs' 1 pp accuracy gate.
  constexpr double kIsoTolerance = 0.005;
  const core::TimestepOutputs outputs = core::collect_outputs(net, *a.test, kTimesteps);
  op.static_t4_accuracy = core::static_accuracy(outputs, kTimesteps);
  const core::CalibrationResult calib =
      core::calibrate_theta(outputs, op.static_t4_accuracy, kIsoTolerance);
  op.theta = calib.theta;
  op.dtsnn_accuracy = calib.result.accuracy;
  op.dtsnn_avg_timesteps = calib.result.avg_timesteps;
  write_operating_point(dir / kOperatingPointFile, op);
  std::printf("regen: %s/%s %zu epochs, static T=4 accuracy %.4f, theta %.6g -> "
              "accuracy %.4f at %.3f timesteps%s\n",
              op.model.c_str(), op.dataset.c_str(), op.epochs, op.static_t4_accuracy,
              op.theta, op.dtsnn_accuracy, op.dtsnn_avg_timesteps,
              calib.met_target ? "" : " (target NOT met)");
  return calib.met_target ? 0 : 1;
}

// ------------------------------------------------------------- fingerprint

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// The host's CPU time from the "cpu" line of /proc/stat, in clock ticks:
/// {all, steal}, where steal is time the hypervisor gave to other guests.
/// {0, 0} where the file is missing.
std::pair<double, double> host_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double all = 0.0, steal = 0.0, ticks = 0.0;
  for (int field = 0; field < 8 && in >> ticks; ++field) {  // user .. steal
    all += ticks;
    if (field == 7) steal = ticks;
  }
  return {all, steal};
}

std::string fingerprint_json() {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\""
     << ", \"avx2\": " << (util::cpu_supports_avx2() ? "true" : "false")
     << ", \"avx512f\": " << (util::cpu_supports_avx512() ? "true" : "false")
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"eval_threads\": " << core::evaluation_threads()
     << ", \"gemm_backend\": \"" << util::default_gemm_backend().name() << "\""
     << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER) << "\""
     << ", \"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\""
     << ", \"omp_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) != 0) continue;
    const std::string kv = *e;
    const std::size_t eq = kv.find('=');
    os << (first ? "" : ", ") << "\"" << json_escape(kv.substr(0, eq)) << "\": \""
       << json_escape(kv.substr(eq + 1)) << "\"";
    first = false;
  }
  os << "}}";
  return os.str();
}

/// The DTSNN_* knobs change kernels, cache sizes and schedulers behind the
/// API; a benchmark run must measure the defaults.
std::vector<std::string> dtsnn_knobs() {
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DTSNN_", 6) == 0) knobs.emplace_back(*e);
  }
  return knobs;
}

// ------------------------------------------------------------------ output

void print_table(const char* title, const MetricTable& table) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < table.specs().size(); ++i) {
    std::printf("  %-32s %14.6g %s\n", table.specs()[i].name, table.values()[i],
                table.specs()[i].unit);
  }
}

void print_result(const RunOutcome& r, bool trace) {
  const MetricTable& table = trace ? r.per_layer : r.end_to_end;
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < table.specs().size(); ++i) {
    const double v = std::isfinite(table.values()[i]) ? table.values()[i] : 0.0;  // gated above
    os << (i ? ", " : "") << "\"" << table.specs()[i].name << "\": {\"value\": "
       << fmt_number(v) << ", \"unit\": \"" << table.specs()[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: dtsnn_perfbench run --workload offline_float|offline_int8|"
               "serve_two_tenant --seed N --seconds S --trace 0|1 --assets DIR "
               "--work DIR\n"
               "       dtsnn_perfbench regen --assets DIR\n");
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return usage();
  const auto arg = [&args](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };

  if (const auto knobs = dtsnn_knobs(); !knobs.empty()) {
    std::fprintf(stderr, "refusing to run with DT-SNN tuning knobs set: %s\n",
                 knobs.front().c_str());
    return 2;
  }

  try {
    if (command == "regen") {
      return regen(arg("assets", ""));
    }
    if (command != "run") return usage();

    Options o;
    o.workload = arg("workload", "");
    o.seed = std::stoull(arg("seed", "1"));
    o.seconds = std::stod(arg("seconds", "10"));
    o.trace = arg("trace", "0") == "1";
    o.assets = arg("assets", "");
    o.work = arg("work", "");
    if (o.seconds <= 0.0 || o.assets.empty() || o.work.empty()) return usage();
    if (o.workload != "offline_float" && o.workload != "offline_int8" &&
        o.workload != "serve_two_tenant") {
      return usage();
    }

    Assets assets = load_assets(o.assets);
    std::printf("operating point: %s/%s, theta %.6g, static T=4 accuracy %.4f\n",
                assets.op.model.c_str(), assets.op.dataset.c_str(), assets.op.theta,
                assets.op.static_t4_accuracy);
    const auto cpu_before = host_cpu_ticks();
    RunOutcome r = o.workload == "serve_two_tenant"
                       ? run_serving(o, assets)
                       : run_offline(o, assets, o.workload == "offline_int8");
    // A noisy host shows here: steal moves every timing of the run.
    const auto cpu_after = host_cpu_ticks();
    if (cpu_after.first > cpu_before.first) {
      r.extras.emplace_back("host.cpu_steal_share", (cpu_after.second - cpu_before.second) /
                                                        (cpu_after.first - cpu_before.first));
    }
    for (const MetricTable* table : {&r.end_to_end, &r.per_layer}) {
      for (std::size_t i = 0; i < table->specs().size(); ++i) {
        if (!std::isfinite(table->values()[i])) {
          r.fail(std::string(table->specs()[i].name) + " is not a finite number");
        }
      }
    }

    print_table("end-to-end:", r.end_to_end);
    if (o.trace) print_table("per-layer:", r.per_layer);
    for (const auto& [name, value] : r.extras) {
      std::printf("extra: %s %.6g\n", name.c_str(), value);
    }
    for (const std::string& why : r.gate_failures) std::printf("GATE FAILED: %s\n", why.c_str());
    std::printf("fingerprint: %s\n", fingerprint_json().c_str());
    std::fflush(stdout);
    print_result(r, o.trace);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dtsnn_perfbench: %s\n", e.what());
    return 1;
  }
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
