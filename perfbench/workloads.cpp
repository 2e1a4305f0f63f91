#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpwl/segment_table.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "tensor/kernels/pack.hpp"

namespace perfbench {

using namespace onesa;

const std::vector<Workload>& workloads() {
  using serve::Precision;
  // Rates are absolute requests per second, fixed here so that two runs of
  // the same code always offer the same load (never a multiple of a per-run
  // capacity probe). Each nominal rate sits near a third of the workload's
  // capacity or below, so that a host running 30% slower for a while moves
  // the nominal latencies by about that much, not by the queueing blow-up
  // near the knee. Each overload rate is at least 1.3x the capacity measured
  // in the host's fast state (which runs about 35% above its slow one): it
  // saturates the fleet in either state, without so much traffic that
  // generating and shedding it takes the cores the workers need.
  static const std::vector<Workload> all = {
      // BERT-FFN on the INT16 lane, 16-row requests (98 KB each way): the
      // INT16 GEMM + CPWL epilogue dominates.
      {"ffn-int16",
       {{"ffn", 768, 3072, 768, true, Precision::kInt16, 0.0, 1.0}},
       16, 300.0, 2000.0, 8, 1100.0, 0.0, 32, 32, 0.2},
      // The same FFN on the double lane, 1-row requests batched inside a
      // small window, while the model is republished on a fixed period.
      {"ffn-double-swap",
       {{"ffn", 768, 3072, 768, true, Precision::kDouble, 2.0, 1.0}},
       1, 1000.0, 8000.0, 64, 4800.0, 3000.0, 128, 64, 0.1},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return w;
  throw Error("unknown workload '" + name + "'");
}

namespace {

/// One GELU table for the process; every FFN activation borrows it, so it
/// must outlive every model (and every registry entry) built here.
const cpwl::SegmentTable& gelu_table() {
  static const cpwl::SegmentTable table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  return table;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream, std::size_t index) {
  // splitmix64 finalizer: distinct, well-spread seeds per (run seed, use, model).
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream * 131 + index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::unique_ptr<nn::Sequential> build_model(const ModelSpec& spec, std::uint64_t seed,
                                            std::size_t model_index) {
  Rng rng(mix(seed, 1, model_index));
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(spec.in, spec.hidden, rng));
  if (spec.gelu) {
    auto act = std::make_unique<nn::Activation>(cpwl::FunctionKind::kGelu);
    act->use_table(&gelu_table());
    model->add(std::move(act));
  } else {
    model->add(nn::make_relu());
  }
  model->add(std::make_unique<nn::Linear>(spec.hidden, spec.out, rng));
  return model;
}

std::vector<tensor::Matrix> build_inputs(const ModelSpec& spec, std::size_t rows,
                                         std::size_t count, std::uint64_t seed,
                                         std::size_t model_index) {
  Rng rng(mix(seed, 2, model_index));
  std::vector<tensor::Matrix> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    inputs.push_back(tensor::random_uniform(rows, spec.in, rng, -1.0, 1.0));
  return inputs;
}

const char* double_kernel_name() {
  // gemm.cpp selects by the same CPU checks; its sliver width confirms it.
  if (tensor::kernels::sliver_width() == 16) return "avx512f";
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return "avx2";
  return "portable";
}

serve::FleetConfig fleet_config(const Workload& w) {
  serve::FleetConfig cfg;
  cfg.shards = kShards;
  cfg.workers_per_shard = kWorkersPerShard;
  cfg.accelerator.mode = ExecutionMode::kAnalytic;
  cfg.admission.max_pending_requests = w.max_pending;
  return cfg;
}

serve::ModelOptions model_options(const ModelSpec& spec) {
  serve::ModelOptions options;
  options.batchable = true;
  options.batch_window_ms = spec.batch_window_ms;
  options.precision = spec.precision;
  return options;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

JsonLine& JsonLine::num(const std::string& k, double value) {
  key(k);
  char buf[64];
  // Non-finite values are not JSON; null makes the consumer fail loudly.
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::str(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n' ? ' ' : c);
  }
  body_ += '"';
  return *this;
}

JsonLine& JsonLine::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
