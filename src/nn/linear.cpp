#include "nn/linear.hpp"

#include <cmath>

#include "cpwl/segment_table.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/ops.hpp"

namespace onesa::nn {

namespace {

/// Epilogue adapter: the kernel layer stays free of cpwl includes, so the
/// table evaluation crosses as an opaque batch function pointer.
void table_batch_adapter(const void* table, const double* x, double* y, std::size_t len) {
  static_cast<const cpwl::SegmentTable*>(table)->eval_batch({x, len}, {y, len});
}

}  // namespace

OpCensus& OpCensus::operator+=(const OpCensus& o) {
  gemm += o.gemm;
  multiply += o.multiply;
  add += o.add;
  softmax += o.softmax;
  batchnorm += o.batchnorm;
  layernorm += o.layernorm;
  relu += o.relu;
  gelu += o.gelu;
  return *this;
}

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features), out_(out_features) {
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features));
  weight_ = Param(tensor::random_uniform(in_, out_, rng, -bound, bound));
  bias_ = Param(tensor::Matrix(1, out_, 0.0));
}

tensor::Matrix Linear::forward(const tensor::Matrix& x) {
  cached_input_ = x;
  // Training path: compute on the raw weights, never through the packed
  // cache — gradient checks and ad-hoc weight edits must always see the
  // current values, and training rewrites the weights every step anyway so
  // a pack would never be reused. Bit-identical to infer() (the packed GEMM
  // contract, tensor/kernels/gemm.hpp).
  return tensor::add_row_broadcast(tensor::matmul(x, weight_.value), bias_.value);
}

std::shared_ptr<const tensor::kernels::PackedB> Linear::packed_weight() const {
  return packed_cache_.get(weight_);
}

void Linear::prepack() const { packed_weight(); }

void Linear::invalidate_packed() const { packed_cache_.invalidate(); }

tensor::Matrix Linear::infer(const tensor::Matrix& x) const {
  return infer_with_epilogue(x, tensor::kernels::Epilogue::Kind::kBias, nullptr);
}

tensor::Matrix Linear::infer_with_epilogue(const tensor::Matrix& x,
                                           tensor::kernels::Epilogue::Kind kind,
                                           const cpwl::SegmentTable* table) const {
  ONESA_CHECK_SHAPE(x.cols() == in_, "linear infer " << x.rows() << "x" << x.cols()
                                                     << " into " << in_ << "x" << out_);
  const std::shared_ptr<const tensor::kernels::PackedB> packed = packed_weight();
  tensor::kernels::Epilogue epi;
  epi.kind = kind;
  epi.bias = bias_.value.data().data();
  if (kind == tensor::kernels::Epilogue::Kind::kBiasTable) {
    ONESA_CHECK(table != nullptr, "linear kBiasTable epilogue needs a segment table");
    epi.table = table;
    epi.table_eval = table_batch_adapter;
  }
  // The output buffer recycles through the tensor buffer pool (see
  // DefaultInitAllocator), and the view overload shape-checks the GEMM
  // against the packed weights — the serve path's zero-alloc staging runs
  // through exactly this call.
  tensor::Matrix y(x.rows(), out_, tensor::kUninitialized);
  tensor::kernels::gemm_packed(x.cview(), *packed, y.view(), epi);
  return y;
}

tensor::Matrix Linear::backward(const tensor::Matrix& grad_out) {
  // dW = x^T g, db = column sums of g, dx = g W^T.
  tensor::add_inplace(weight_.grad_buffer(),
                      tensor::matmul(tensor::transpose(cached_input_), grad_out));
  tensor::Matrix& db = bias_.grad_buffer();
  for (std::size_t i = 0; i < grad_out.rows(); ++i)
    for (std::size_t j = 0; j < grad_out.cols(); ++j) db(0, j) += grad_out(i, j);
  return tensor::matmul(grad_out, tensor::transpose(weight_.value));
}

tensor::FixMatrix Linear::forward_accel(OneSaAccelerator& accel,
                                        const tensor::FixMatrix& x) {
  // GEMM on the array's linear path; the bias is fused as an MHP pass
  // (K = 1, B = bias) — the same broadcast-affine primitive the nonlinear
  // pipeline uses.
  auto y = accel.gemm(x, tensor::to_fixed(weight_.value));
  auto biased = accel.mhp(
      y.y, tensor::constant_fix(y.y.rows(), y.y.cols(), 1.0),
      tensor::broadcast_row(tensor::to_fixed(bias_.value), y.y.rows()));
  return biased.y;
}

void Linear::count_ops(OpCensus& census, std::size_t batch) const {
  census.gemm += 2.0 * static_cast<double>(batch) * in_ * out_;
  census.add += static_cast<double>(batch) * out_;  // bias
}

}  // namespace onesa::nn
