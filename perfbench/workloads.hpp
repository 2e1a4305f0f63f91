// The benchmark's workloads, shared by its three roles (serve, load, probe)
// so the server, the load generator and the layer probes agree on every
// model shape, seed, rate and fleet size. Every number that shapes a run is
// a constant here; run.py and BENCHMARK.json repeat the rates and sizing.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "serve/fleet.hpp"
#include "tensor/matrix.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One served model: an MLP in -> hidden (activation) -> out.
struct ModelSpec {
  const char* name;
  std::size_t in;
  std::size_t hidden;
  std::size_t out;
  bool gelu;  // GELU through the CPWL table; ReLU otherwise
  onesa::serve::Precision precision;
  double batch_window_ms;
  double share;  // fraction of the workload's requests
};

struct Workload {
  const char* name;
  std::vector<ModelSpec> models;
  std::size_t rows;          // rows per request
  double nominal_rps;        // open-loop rate the latency metrics are taken at
  double overload_rps;       // open-loop rate of the overload phase
  std::size_t outstanding;   // closed-loop window of the capacity phase
  double closed_rps;         // expected closed-loop rate; sizes the closed phases' counts
  double swap_period_ms;     // Fleet::swap_model period in the server; 0 = none
  std::size_t max_pending;   // fleet admission bound (overload sheds beyond it)
  std::size_t inputs;        // distinct request payloads per model
  double trace_rate;         // request sampling rate of the traced run
};

/// Fleet sizing shared by every workload. With the load generator's single
/// thread, the busy threads are 1 reactor + kShards * kWorkersPerShard
/// workers + 1 client = 4: the server and client together fit a 4-core host.
/// Kernel GEMMs run inline on the worker threads (ONESA_KERNEL_THREADS=1 in
/// the server's environment, set by run.py).
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kWorkersPerShard = 1;
inline constexpr double kInteractiveShare = 0.3;

const std::vector<Workload>& workloads();
/// Throws onesa::Error for an unknown name.
const Workload& find_workload(const std::string& name);

/// The model a spec describes, with weights drawn from `seed` and the model's
/// index: the server and the load generator's reference copy build
/// bit-identical weights from the same seed.
std::unique_ptr<onesa::nn::Sequential> build_model(const ModelSpec& spec,
                                                   std::uint64_t seed,
                                                   std::size_t model_index);

/// Request payloads of one model: `count` inputs of `rows` x spec.in,
/// uniform in [-1, 1), drawn from `seed`.
std::vector<onesa::tensor::Matrix> build_inputs(const ModelSpec& spec, std::size_t rows,
                                                std::size_t count, std::uint64_t seed,
                                                std::size_t model_index);

/// Micro-kernel tier the double GEMM lane dispatches to on this host.
const char* double_kernel_name();

onesa::serve::FleetConfig fleet_config(const Workload& w);
onesa::serve::ModelOptions model_options(const ModelSpec& spec);

// ------------------------------------------------------------- utilities

double ms_between(Clock::time_point a, Clock::time_point b);
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// Minimal single-line JSON object writer for the roles' result lines.
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double value);
  JsonLine& str(const std::string& key, const std::string& value);
  JsonLine& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

}  // namespace perfbench
