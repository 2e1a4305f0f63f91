// OneSaAccelerator — the public façade of the ONE-SA architecture.
//
// One object owns the systolic array, the CPWL table set, and the IPF
// datapath (DataAddressing + DataRearrange), and exposes every operation a
// network needs:
//
//   linear    : gemm()
//   nonlinear : elementwise(f) for any catalog function — IPF + MHP
//   composite : softmax_rows(), layernorm_rows(), batchnorm
//               (decomposed into GEMM reductions + CPWL elementwise passes
//               + parameterized MHPs, all running on the *same* array — the
//               one-size-fits-all claim of the paper)
//
// Every call returns the INT16 result together with a CycleStats breakdown;
// lifetime counters accumulate for the power model.
//
// Two execution modes (OneSaConfig::mode):
//   kCycleAccurate — INT16 data physically moves through PE registers.
//   kAnalytic      — identical arithmetic computed functionally, cycles from
//                    the closed-form TimingModel (validated against the
//                    detailed simulator in tests/test_accelerator.cpp).
#pragma once

#include <memory>
#include <optional>

#include "cpwl/segment_table.hpp"
#include "onesa/config.hpp"
#include "onesa/data_addressing.hpp"
#include "onesa/rearrange.hpp"
#include "sim/array.hpp"
#include "sim/timing.hpp"
#include "tensor/matrix.hpp"

namespace onesa {

/// Result of one accelerator operation.
struct PassOutput {
  tensor::FixMatrix y;
  sim::CycleStats cycles;
};

class OneSaAccelerator {
 public:
  explicit OneSaAccelerator(OneSaConfig config = {});

  const OneSaConfig& config() const { return config_; }
  const cpwl::TableSet& tables() const { return tables_; }
  const sim::TimingModel& timing() const { return timing_; }

  // ---------------------------------------------------------------- linear

  /// C = A * B on the array (tiled, output-stationary).
  PassOutput gemm(const tensor::FixMatrix& a, const tensor::FixMatrix& b);

  // ------------------------------------------------------------- nonlinear

  /// Y = f(X) element-wise via CPWL: DataAddressing computes the segment
  /// matrix and fetches K/B, DataRearrange builds the interleaved streams,
  /// and the array runs the MHP with diagonal Computation PEs.
  PassOutput elementwise(cpwl::FunctionKind f, const tensor::FixMatrix& x);

  /// Y = X (.) K + B with caller-supplied parameter matrices (no table
  /// lookup; used by the composite ops for broadcast scale/shift passes).
  PassOutput mhp(const tensor::FixMatrix& x, const tensor::FixMatrix& k,
                 const tensor::FixMatrix& b);

  // ------------------------------------------------------------- composite

  /// Row-wise softmax: max-subtract, CPWL exp, ones-vector GEMM row sum,
  /// CPWL reciprocal, broadcast multiply.
  PassOutput softmax_rows(const tensor::FixMatrix& x);

  /// Row-wise LayerNorm with affine parameters gamma/beta (1 x cols):
  /// mean & variance via ones-vector GEMMs, squaring as a self-Hadamard MHP,
  /// CPWL rsqrt, broadcast scale + affine MHP.
  PassOutput layernorm_rows(const tensor::FixMatrix& x, const tensor::FixMatrix& gamma,
                            const tensor::FixMatrix& beta, double epsilon = 1e-3);

  /// Inference-time BatchNorm folded to a per-column affine y = x*k + b,
  /// executed as a single parameterized MHP.
  PassOutput batchnorm_cols(const tensor::FixMatrix& x, const tensor::FixMatrix& scale,
                            const tensor::FixMatrix& shift);

  /// Row-wise max reduction performed by the streaming comparator in the L3
  /// output path (used by softmax's max-subtraction and by max pooling,
  /// where each row holds one pooling window).
  PassOutput reduce_rows_max(const tensor::FixMatrix& x);

  // ------------------------------------------------------------ statistics

  /// Cycles accumulated over the object's lifetime.
  const sim::CycleStats& lifetime_cycles() const { return lifetime_; }
  /// MAC operations issued over the lifetime (dynamic-power input).
  std::uint64_t lifetime_mac_ops() const { return lifetime_macs_; }
  void reset_lifetime();

 private:
  /// Charge a pass to the lifetime counters and return it.
  PassOutput charge(PassOutput pass, std::uint64_t mac_ops);

  OneSaConfig config_;
  cpwl::TableSet tables_;
  sim::TimingModel timing_;
  std::unique_ptr<sim::SystolicArraySim> array_;  // only in cycle-accurate mode
  DataAddressing addressing_;
  DataRearrange rearrange_;
  sim::CycleStats lifetime_;
  std::uint64_t lifetime_macs_ = 0;
};

}  // namespace onesa
