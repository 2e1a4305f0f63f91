// Layer abstraction for the neural-network library.
//
// Every layer supports three uses:
//   forward()/backward() — double-precision training path (the repo trains
//       its own small models on synthetic data so the accuracy-vs-
//       granularity experiment of Table III can run end-to-end offline).
//   forward_accel()      — INT16 inference lowered onto a OneSaAccelerator:
//       GEMMs run on the array's linear path, nonlinear ops through
//       IPF + MHP with CPWL tables. Cycle costs accumulate in the
//       accelerator's lifetime counters.
//   count_ops()          — static op census for the computation-breakdown
//       analysis (Fig. 1).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "onesa/accelerator.hpp"
#include "tensor/matrix.hpp"

namespace onesa::nn {

/// A trainable parameter: value and accumulated gradient. The gradient is
/// allocated on first use (grad_buffer(), zero_grad(), or an optimizer over
/// the parameter), so a model that is only built and served never holds one.
struct Param {
  tensor::Matrix value;
  tensor::Matrix grad;

  /// Bumped by every optimizer step that rewrites `value`. Layers that
  /// derive state from the value (Linear's packed-weight cache) key their
  /// caches on this, so serving a frozen model never re-derives while a
  /// training loop invalidates automatically. Code that assigns `value`
  /// directly (outside the optimizers) must bump this itself — or call the
  /// owning layer's invalidation hook.
  std::uint64_t version = 0;

  explicit Param(tensor::Matrix v = {}) : value(std::move(v)) {}

  /// The gradient to accumulate into, zero-filled to the value's shape on
  /// first use. Every backward pass writes through this.
  tensor::Matrix& grad_buffer() {
    if (grad.empty()) zero_grad();
    return grad;
  }
  void zero_grad() { grad = tensor::Matrix(value.rows(), value.cols(), 0.0); }
};

/// Operation census for Fig. 1's computation-breakdown pie. Counts are in
/// scalar operations (one multiply or one add = one op; a MAC = two ops).
struct OpCensus {
  double gemm = 0.0;       // matrix-multiply ops (conv via im2col included)
  double multiply = 0.0;   // standalone element-wise multiplies
  double add = 0.0;        // standalone element-wise adds (residual, bias)
  double softmax = 0.0;
  double batchnorm = 0.0;
  double layernorm = 0.0;
  double relu = 0.0;
  double gelu = 0.0;

  double total() const {
    return gemm + multiply + add + softmax + batchnorm + layernorm + relu + gelu;
  }
  OpCensus& operator+=(const OpCensus& o);
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Training-time forward (batch rows x features); caches whatever the
  /// backward pass needs.
  virtual tensor::Matrix forward(const tensor::Matrix& x) = 0;

  /// Backward: consumes dL/d(output), returns dL/d(input), accumulates
  /// parameter gradients. Must be called after forward() on the same batch.
  virtual tensor::Matrix backward(const tensor::Matrix& grad_out) = 0;

  /// Thread-safe inference forward: identical arithmetic to forward() (the
  /// serving tier asserts bit-identical outputs) but const — no backward
  /// caches are written, no running statistics updated — so N pool workers
  /// can run it concurrently against one shared model instance. Layers with
  /// train/eval duality (BatchNorm) always use their inference statistics
  /// here. The default throws for layers without an inference path.
  virtual tensor::Matrix infer(const tensor::Matrix& x) const;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  /// Build any derived inference-time state ahead of serving — Linear packs
  /// its weight matrix into the kernel layer's PackedB form here, containers
  /// recurse. Safe to skip (infer() builds lazily); the serving registry
  /// calls it at registration so worker threads never pack on the request
  /// path. Const because it only touches mutable caches.
  virtual void prepack() const {}

  /// INT16 inference on the ONE-SA accelerator.
  virtual tensor::FixMatrix forward_accel(OneSaAccelerator& accel,
                                          const tensor::FixMatrix& x) = 0;

  /// Add this layer's inference op counts for a batch of `batch` samples.
  virtual void count_ops(OpCensus& census, std::size_t batch) const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

inline tensor::Matrix Layer::infer(const tensor::Matrix&) const {
  throw Error("layer '" + name() + "' has no thread-safe inference path (infer)");
}

}  // namespace onesa::nn
