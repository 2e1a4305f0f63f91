#include "nn/graph.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace onesa::nn {

tensor::Matrix normalized_adjacency(
    std::size_t num_nodes,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
  tensor::Matrix a(num_nodes, num_nodes, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) a(i, i) = 1.0;  // self loops
  for (const auto& [u, v] : edges) {
    ONESA_CHECK(u < num_nodes && v < num_nodes, "edge (" << u << "," << v
                                                         << ") out of range");
    a(u, v) = 1.0;
    a(v, u) = 1.0;
  }
  std::vector<double> rsqrt_deg(num_nodes, 0.0);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    double deg = 0.0;
    for (std::size_t j = 0; j < num_nodes; ++j) deg += a(i, j);
    rsqrt_deg[i] = 1.0 / std::sqrt(deg);
  }
  for (std::size_t i = 0; i < num_nodes; ++i)
    for (std::size_t j = 0; j < num_nodes; ++j) a(i, j) *= rsqrt_deg[i] * rsqrt_deg[j];
  return a;
}

GraphConv::GraphConv(tensor::Matrix adjacency, std::size_t in_features,
                     std::size_t out_features, Rng& rng)
    : adjacency_(std::move(adjacency)), in_(in_features), out_(out_features) {
  ONESA_CHECK_SHAPE(adjacency_.rows() == adjacency_.cols(), "adjacency must be square");
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features));
  weight_ = Param(tensor::random_uniform(in_, out_, rng, -bound, bound));
  bias_ = Param(tensor::Matrix(1, out_, 0.0));
}

tensor::Matrix GraphConv::propagate(const tensor::Matrix& x, tensor::Matrix* ax_out) const {
  ONESA_CHECK_SHAPE(x.rows() == adjacency_.rows(), "graph_conv node count "
                                                       << x.rows() << " vs "
                                                       << adjacency_.rows());
  tensor::Matrix ax = tensor::matmul(adjacency_, x);
  tensor::Matrix out =
      tensor::add_row_broadcast(tensor::matmul(ax, weight_.value), bias_.value);
  if (ax_out != nullptr) *ax_out = std::move(ax);
  return out;
}

tensor::Matrix GraphConv::forward(const tensor::Matrix& x) {
  return propagate(x, &cached_ax_);
}

tensor::Matrix GraphConv::infer(const tensor::Matrix& x) const {
  return propagate(x, nullptr);
}

tensor::Matrix GraphConv::backward(const tensor::Matrix& grad_out) {
  tensor::add_inplace(weight_.grad_buffer(),
                      tensor::matmul(tensor::transpose(cached_ax_), grad_out));
  tensor::Matrix& db = bias_.grad_buffer();
  for (std::size_t i = 0; i < grad_out.rows(); ++i)
    for (std::size_t j = 0; j < grad_out.cols(); ++j) db(0, j) += grad_out(i, j);
  // dX = A_hat^T (g W^T); A_hat is symmetric but we transpose for generality.
  const tensor::Matrix gw = tensor::matmul(grad_out, tensor::transpose(weight_.value));
  return tensor::matmul(tensor::transpose(adjacency_), gw);
}

tensor::FixMatrix GraphConv::forward_accel(OneSaAccelerator& accel,
                                           const tensor::FixMatrix& x) {
  const auto ax = accel.gemm(tensor::to_fixed(adjacency_), x);
  const auto axw = accel.gemm(ax.y, tensor::to_fixed(weight_.value));
  return accel
      .mhp(axw.y, tensor::constant_fix(axw.y.rows(), axw.y.cols(), 1.0),
           tensor::broadcast_row(tensor::to_fixed(bias_.value), axw.y.rows()))
      .y;
}

void GraphConv::count_ops(OpCensus& census, std::size_t) const {
  const double n = static_cast<double>(adjacency_.rows());
  census.gemm += 2.0 * n * n * static_cast<double>(in_) +
                 2.0 * n * static_cast<double>(in_) * static_cast<double>(out_);
  census.add += n * static_cast<double>(out_);
}

}  // namespace onesa::nn
