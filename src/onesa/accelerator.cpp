#include "onesa/accelerator.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace onesa {

namespace {

/// IPF lane width in elements per cycle, shared with TimingModel so the
/// addressing/rearrange cycle counts agree between execution modes.
std::size_t ipf_lanes(const sim::ArrayConfig& a) {
  return sim::TimingModel::ipf_lanes_per_cycle(a);
}

/// Validate before any member construction: building CPWL tables for an
/// invalid granularity would be arbitrarily expensive (or throw the wrong
/// exception type).
OneSaConfig validated(OneSaConfig config) {
  config.validate();
  return config;
}

}  // namespace

OneSaAccelerator::OneSaAccelerator(OneSaConfig config)
    : config_(validated(std::move(config))),
      tables_(config_.granularity, config_.frac_bits),
      timing_(config_.array),
      addressing_(/*fifo_depth=*/16, ipf_lanes(config_.array),
                  config_.array.dram_latency_cycles),
      rearrange_(ipf_lanes(config_.array), config_.array.dram_latency_cycles) {
  if (config_.mode == ExecutionMode::kCycleAccurate) {
    array_ = std::make_unique<sim::SystolicArraySim>(config_.array);
  }
}

void OneSaAccelerator::reset_lifetime() {
  lifetime_ = {};
  lifetime_macs_ = 0;
}

PassOutput OneSaAccelerator::charge(PassOutput pass, std::uint64_t mac_ops) {
  lifetime_ += pass.cycles;
  lifetime_macs_ += mac_ops;
  return pass;
}

PassOutput OneSaAccelerator::gemm(const tensor::FixMatrix& a, const tensor::FixMatrix& b) {
  const std::uint64_t macs =
      static_cast<std::uint64_t>(a.rows()) * a.cols() * b.cols();
  if (array_) {
    auto [c, cycles] = array_->gemm(a, b);
    return charge({std::move(c), cycles}, macs);
  }
  sim::GemmShape shape{a.rows(), a.cols(), b.cols()};
  return charge({tensor::matmul(a, b), timing_.gemm_cycles(shape)}, macs);
}

PassOutput OneSaAccelerator::elementwise(cpwl::FunctionKind f,
                                         const tensor::FixMatrix& x) {
  // IPF stage 1: segment computation + parameter fetch in the L3 buffer.
  addressing_.load_table(tables_.get(f));
  AddressingResult fetched = addressing_.process(x);
  // IPF stage 2: merge (k, b) and pair (x, 1).
  RearrangedStreams streams = rearrange_.process(x, fetched.k, fetched.b);

  PassOutput out;
  if (array_) {
    auto [y, cycles] = array_->mhp(x, fetched.k, fetched.b);
    out.y = std::move(y);
    out.cycles = cycles;
  } else {
    out.y = tensor::mhp_affine(x, fetched.k, fetched.b);
    out.cycles = timing_.mhp_cycles(x.size());
  }
  out.cycles += fetched.cycles;
  out.cycles += streams.cycles;
  return charge(std::move(out), 2 * static_cast<std::uint64_t>(x.size()));
}

PassOutput OneSaAccelerator::mhp(const tensor::FixMatrix& x, const tensor::FixMatrix& k,
                                 const tensor::FixMatrix& b) {
  // Parameterized MHP: K/B are produced by the L3 control (broadcast
  // registers) rather than table lookup, so only the rearrange pass and the
  // array pass are charged.
  RearrangedStreams streams = rearrange_.process(x, k, b);

  PassOutput out;
  if (array_) {
    auto [y, cycles] = array_->mhp(x, k, b);
    out.y = std::move(y);
    out.cycles = cycles;
  } else {
    out.y = tensor::mhp_affine(x, k, b);
    out.cycles = timing_.mhp_cycles(x.size());
  }
  out.cycles += streams.cycles;
  return charge(std::move(out), 2 * static_cast<std::uint64_t>(x.size()));
}

PassOutput OneSaAccelerator::reduce_rows_max(const tensor::FixMatrix& x) {
  ONESA_CHECK_SHAPE(x.cols() > 0, "reduce_rows_max of empty matrix");
  tensor::FixMatrix out(x.rows(), 1);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    fixed::Fix16 m = x(i, 0);
    for (std::size_t j = 1; j < x.cols(); ++j) m = std::max(m, x(i, j));
    out(i, 0) = m;
  }
  // Streaming comparator in the L3 output path: one pass over the matrix at
  // the IPF lane width.
  PassOutput pass;
  pass.y = std::move(out);
  const std::size_t lanes = ipf_lanes(config_.array);
  pass.cycles.memory_cycles =
      config_.array.dram_latency_cycles + (x.size() + lanes - 1) / lanes;
  return charge(std::move(pass), 0);
}

PassOutput OneSaAccelerator::softmax_rows(const tensor::FixMatrix& x) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();

  // 1. Row maxima (streaming comparator).
  PassOutput rowmax = reduce_rows_max(x);
  sim::CycleStats total = rowmax.cycles;

  // 2. Subtract the max: MHP with K = 1, B = -max (broadcast).
  tensor::FixMatrix neg_max(rows, 1);
  for (std::size_t i = 0; i < rows; ++i) neg_max(i, 0) = -rowmax.y(i, 0);
  PassOutput shifted = mhp(x, tensor::constant_fix(rows, cols, 1.0),
                           tensor::broadcast_col(neg_max, cols));
  total += shifted.cycles;

  // 3. CPWL exp.
  PassOutput exps = elementwise(cpwl::FunctionKind::kExp, shifted.y);
  total += exps.cycles;

  // 4. Row sums via a ones-vector GEMM (linear pass on the same array).
  PassOutput sums = gemm(exps.y, tensor::constant_fix(cols, 1, 1.0));
  total += sums.cycles;

  // 5. CPWL reciprocal of the sums.
  PassOutput recip = elementwise(cpwl::FunctionKind::kReciprocal, sums.y);
  total += recip.cycles;

  // 6. Broadcast multiply: MHP with K = 1/sum, B = 0.
  PassOutput out = mhp(exps.y, tensor::broadcast_col(recip.y, cols),
                       tensor::constant_fix(rows, cols, 0.0));
  total += out.cycles;

  return {std::move(out.y), total};  // sub-ops already charged the lifetime
}

PassOutput OneSaAccelerator::layernorm_rows(const tensor::FixMatrix& x,
                                            const tensor::FixMatrix& gamma,
                                            const tensor::FixMatrix& beta,
                                            double epsilon) {
  const std::size_t rows = x.rows();
  const std::size_t cols = x.cols();
  ONESA_CHECK_SHAPE(gamma.rows() == 1 && gamma.cols() == cols, "layernorm gamma shape");
  ONESA_CHECK_SHAPE(beta.rows() == 1 && beta.cols() == cols, "layernorm beta shape");

  const auto inv_n = tensor::constant_fix(cols, 1, 1.0 / static_cast<double>(cols));

  // 1. Row means via GEMM with a 1/N vector.
  PassOutput mean = gemm(x, inv_n);
  sim::CycleStats total = mean.cycles;

  // 2. Center: MHP with K = 1, B = -mean.
  tensor::FixMatrix neg_mean(rows, 1);
  for (std::size_t i = 0; i < rows; ++i) neg_mean(i, 0) = -mean.y(i, 0);
  PassOutput centered = mhp(x, tensor::constant_fix(rows, cols, 1.0),
                            tensor::broadcast_col(neg_mean, cols));
  total += centered.cycles;

  // 3. Square: self-Hadamard MHP (K = centered, B = 0).
  PassOutput squared =
      mhp(centered.y, centered.y, tensor::constant_fix(rows, cols, 0.0));
  total += squared.cycles;

  // 4. Row variances via GEMM with the 1/N vector.
  PassOutput var = gemm(squared.y, inv_n);
  total += var.cycles;

  // 5. rstd = rsqrt(var + eps): epsilon shift folded into a 1-column MHP,
  //    then the CPWL rsqrt.
  PassOutput var_eps = mhp(var.y, tensor::constant_fix(rows, 1, 1.0),
                           tensor::constant_fix(rows, 1, epsilon));
  total += var_eps.cycles;
  PassOutput rstd = elementwise(cpwl::FunctionKind::kRsqrt, var_eps.y);
  total += rstd.cycles;

  // 6. Normalize: MHP with K = rstd (broadcast), B = 0.
  PassOutput normed = mhp(centered.y, tensor::broadcast_col(rstd.y, cols),
                          tensor::constant_fix(rows, cols, 0.0));
  total += normed.cycles;

  // 7. Affine: MHP with K = gamma, B = beta (row-broadcast).
  PassOutput out = mhp(normed.y, tensor::broadcast_row(gamma, rows),
                       tensor::broadcast_row(beta, rows));
  total += out.cycles;

  return {std::move(out.y), total};
}

PassOutput OneSaAccelerator::batchnorm_cols(const tensor::FixMatrix& x,
                                            const tensor::FixMatrix& scale,
                                            const tensor::FixMatrix& shift) {
  ONESA_CHECK_SHAPE(scale.rows() == 1 && scale.cols() == x.cols(), "batchnorm scale shape");
  ONESA_CHECK_SHAPE(shift.rows() == 1 && shift.cols() == x.cols(), "batchnorm shift shape");
  return mhp(x, tensor::broadcast_row(scale, x.rows()),
             tensor::broadcast_row(shift, x.rows()));
}

}  // namespace onesa
