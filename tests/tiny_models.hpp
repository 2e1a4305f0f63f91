// Tiny registered models shared by the serve-tier suites (test_serve,
// test_fleet, test_obs): cheap, deterministic request payloads with a fixed
// simulated cost, so scheduling, admission and routing tests can reason
// about exact per-request MAC budgets. A gate model holds a worker inside
// its forward for exactly as long as a test needs, so backlog, admission
// and shutdown tests never depend on host timing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "nn/workload.hpp"
#include "serve/registry.hpp"
#include "tensor/ops.hpp"

namespace onesa::serve::test_models {

/// Simulated cost of one input row of a tiny model unless a test asks for
/// another (2 MACs per element of a 4-wide row).
inline constexpr std::uint64_t kTinyMacsPerRow = 8;

/// A one-layer model: exact element-wise `fn` (ReLU by default), so every
/// row is an independent sample and served output equals the direct
/// forward bit for bit.
inline std::unique_ptr<nn::Sequential> tiny_model(
    cpwl::FunctionKind fn = cpwl::FunctionKind::kRelu) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Activation>(fn));
  return model;
}

/// Registration options for a tiny model: a fixed per-row MAC cost (the
/// census of an activation-only model sees nothing), batchable unless a test
/// needs every request in its own pass, and an optional batching window.
inline ModelOptions tiny_options(std::uint64_t mac_ops_per_row = kTinyMacsPerRow,
                                 bool batchable = true, double batch_window_ms = 0.0) {
  ModelOptions options;
  options.mac_ops_per_row = mac_ops_per_row;
  options.batchable = batchable;
  options.batch_window_ms = batch_window_ms;
  return options;
}

/// Registration options that make a tiny model the serving entry of a
/// whole-network workload trace: each request is charged the trace's
/// simulated cycles and MACs, and never batches.
inline ModelOptions trace_options(std::shared_ptr<const nn::WorkloadTrace> trace) {
  ModelOptions options;
  options.cost_trace = std::move(trace);
  options.batchable = false;
  return options;
}

/// Register a tiny model on anything with register_model (ServerPool, Fleet).
template <typename Host>
ModelHandle register_tiny(Host& host, std::string name, ModelOptions options = tiny_options(),
                          cpwl::FunctionKind fn = cpwl::FunctionKind::kRelu) {
  return host.register_model(std::move(name), tiny_model(fn), std::move(options));
}

/// ...and on a bare registry.
inline ModelHandle register_tiny(ModelRegistry& registry, std::string name,
                                 ModelOptions options = tiny_options(),
                                 cpwl::FunctionKind fn = cpwl::FunctionKind::kRelu) {
  return registry.add(std::move(name), tiny_model(fn), std::move(options));
}

/// Blocks the worker that runs a gate model's forward: `entered` fires when
/// the first forward starts, and every forward returns once open() is
/// called.
struct Gate {
  std::promise<void> enter;
  std::shared_future<void> entered = enter.get_future().share();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> fired{false};

  /// Wait until a worker is inside the gate; false after ten seconds.
  bool wait_entered() const {
    return entered.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  }
  void open() { release.set_value(); }
};

/// Identity layer whose inference waits on a Gate.
class GateLayer : public nn::Layer {
 public:
  explicit GateLayer(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gate"; }
  tensor::Matrix forward(const tensor::Matrix& x) override { return x; }
  tensor::Matrix backward(const tensor::Matrix& grad_out) override { return grad_out; }
  tensor::Matrix infer(const tensor::Matrix& x) const override {
    if (!gate_->fired.exchange(true)) gate_->enter.set_value();
    gate_->released.wait();
    return x;
  }
  tensor::FixMatrix forward_accel(OneSaAccelerator&, const tensor::FixMatrix& x) override {
    return x;
  }
  void count_ops(nn::OpCensus&, std::size_t) const override {}

 private:
  std::shared_ptr<Gate> gate_;
};

/// Register a gate model (tiny cost, own name so nothing batches with it)
/// on anything with register_model (ServerPool, Fleet).
template <typename Host>
ModelHandle register_gate(Host& host, const std::shared_ptr<Gate>& gate,
                          std::string name = "gate") {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<GateLayer>(gate));
  return host.register_model(std::move(name), std::move(model), tiny_options());
}

/// A rows x cols request input in [-2, 2).
inline tensor::Matrix tiny_input(std::size_t rows, Rng& rng, std::size_t cols = 4) {
  return tensor::random_uniform(rows, cols, rng, -2.0, 2.0);
}

}  // namespace onesa::serve::test_models
