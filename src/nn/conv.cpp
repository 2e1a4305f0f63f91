#include "nn/conv.hpp"

#include <cmath>
#include <limits>

#include "tensor/kernels/gemm.hpp"
#include "tensor/ops.hpp"

namespace onesa::nn {

Conv2d::Conv2d(tensor::ConvShape shape, std::size_t out_channels, Rng& rng)
    : shape_(shape), out_channels_(out_channels) {
  const double fan_in = static_cast<double>(shape_.patch_cols());
  const double bound = std::sqrt(6.0 / fan_in);
  weight_ = Param(tensor::random_uniform(shape_.patch_cols(), out_channels_, rng,
                                         -bound, bound));
  bias_ = Param(tensor::Matrix(1, out_channels_, 0.0));
}

std::size_t Conv2d::out_features() const {
  return out_channels_ * shape_.out_height() * shape_.out_width();
}

tensor::Matrix Conv2d::forward(const tensor::Matrix& x) {
  cached_input_ = x;
  // Training path: the raw-weight im2col GEMM, never the packed cache —
  // same rationale as Linear::forward (gradient checks and ad-hoc weight
  // edits must always see the current values). Bit-identical to infer():
  // gemm_packed matches the dispatched matmul bit for bit, and the kBias
  // epilogue is the same `result + bias` add this path performs.
  return tensor::conv2d_via_gemm(x, weight_.value, bias_.value, shape_);
}

tensor::Matrix Conv2d::infer(const tensor::Matrix& x) const {
  // Inference path: the per-sample patch GEMMs consume the cached PackedB
  // (packed once at registration via prepack(), shared read-only across
  // worker threads) with the bias broadcast fused into the output store.
  // conv2d_apply owns the im2col loop and output layout, shared with the
  // raw-weight path above.
  const std::shared_ptr<const tensor::kernels::PackedB> packed = packed_cache_.get(weight_);
  tensor::kernels::Epilogue epi;
  epi.kind = tensor::kernels::Epilogue::Kind::kBias;
  epi.bias = bias_.value.data().data();
  return tensor::conv2d_apply(
      x, shape_, out_channels_, [&](const tensor::Matrix& patches, tensor::Matrix& result) {
        tensor::kernels::gemm_packed(patches.data().data(), *packed,
                                     result.data().data(), patches.rows(), epi);
      });
}

void Conv2d::prepack() const { packed_cache_.get(weight_); }

tensor::Matrix Conv2d::backward(const tensor::Matrix& grad_out) {
  const std::size_t oh = shape_.out_height();
  const std::size_t ow = shape_.out_width();
  const std::size_t pixels = oh * ow;
  tensor::Matrix grad_in(cached_input_.rows(), cached_input_.cols(), 0.0);

  for (std::size_t n = 0; n < cached_input_.rows(); ++n) {
    // Rebuild this sample's patch matrix and reorder its output gradient
    // from channel-major rows back to (pixel x channel).
    tensor::Matrix row(1, cached_input_.cols());
    for (std::size_t j = 0; j < cached_input_.cols(); ++j) row(0, j) = cached_input_(n, j);
    const tensor::Matrix patches = tensor::im2col(row, shape_);

    tensor::Matrix grad_result(pixels, out_channels_);
    for (std::size_t c = 0; c < out_channels_; ++c)
      for (std::size_t p = 0; p < pixels; ++p)
        grad_result(p, c) = grad_out(n, c * pixels + p);

    // dW += patches^T * g ; db += column sums ; dpatches = g * W^T.
    tensor::add_inplace(weight_.grad_buffer(),
                        tensor::matmul(tensor::transpose(patches), grad_result));
    tensor::Matrix& db = bias_.grad_buffer();
    for (std::size_t p = 0; p < pixels; ++p)
      for (std::size_t c = 0; c < out_channels_; ++c) db(0, c) += grad_result(p, c);

    const tensor::Matrix grad_patches =
        tensor::matmul(grad_result, tensor::transpose(weight_.value));
    const tensor::Matrix grad_image = tensor::col2im(grad_patches, shape_);
    for (std::size_t j = 0; j < grad_in.cols(); ++j) grad_in(n, j) = grad_image(0, j);
  }
  return grad_in;
}

tensor::FixMatrix Conv2d::forward_accel(OneSaAccelerator& accel,
                                        const tensor::FixMatrix& x) {
  // im2col is an addressing transformation done by the DMA/data-layout
  // engine; the arithmetic is the patch GEMM + bias MHP on the array.
  const std::size_t oh = shape_.out_height();
  const std::size_t ow = shape_.out_width();
  const std::size_t pixels = oh * ow;
  const tensor::FixMatrix w = tensor::to_fixed(weight_.value);

  tensor::FixMatrix out(x.rows(), out_features());
  for (std::size_t n = 0; n < x.rows(); ++n) {
    tensor::Matrix row(1, x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) row(0, j) = x(n, j).to_double();
    const tensor::FixMatrix patches = tensor::to_fixed(tensor::im2col(row, shape_));
    auto result = accel.gemm(patches, w);
    auto biased = accel.mhp(
        result.y, tensor::constant_fix(pixels, out_channels_, 1.0),
        tensor::broadcast_row(tensor::to_fixed(bias_.value), pixels));
    for (std::size_t c = 0; c < out_channels_; ++c)
      for (std::size_t p = 0; p < pixels; ++p) out(n, c * pixels + p) = biased.y(p, c);
  }
  return out;
}

void Conv2d::count_ops(OpCensus& census, std::size_t batch) const {
  const double pixels = static_cast<double>(shape_.out_height() * shape_.out_width());
  census.gemm += 2.0 * static_cast<double>(batch) * pixels *
                 static_cast<double>(shape_.patch_cols()) *
                 static_cast<double>(out_channels_);
  census.add += static_cast<double>(batch) * pixels * static_cast<double>(out_channels_);
}

MaxPool2d::MaxPool2d(std::size_t channels, std::size_t height, std::size_t width,
                     std::size_t pool)
    : channels_(channels), height_(height), width_(width), pool_(pool) {
  ONESA_CHECK(pool >= 1 && height % pool == 0 && width % pool == 0,
              "maxpool window " << pool << " must divide " << height << "x" << width);
  out_h_ = height_ / pool_;
  out_w_ = width_ / pool_;
}

std::size_t MaxPool2d::window_origin(std::size_t c, std::size_t oy, std::size_t ox,
                                     std::size_t wy, std::size_t wx) const {
  return (c * height_ + oy * pool_ + wy) * width_ + ox * pool_ + wx;
}

tensor::Matrix MaxPool2d::pool(const tensor::Matrix& x,
                               std::vector<std::size_t>* argmax_out) const {
  ONESA_CHECK_SHAPE(x.cols() == channels_ * height_ * width_,
                    "maxpool expected " << channels_ * height_ * width_ << " cols");
  tensor::Matrix y(x.rows(), out_features());
  for (std::size_t n = 0; n < x.rows(); ++n) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t wy = 0; wy < pool_; ++wy) {
            for (std::size_t wx = 0; wx < pool_; ++wx) {
              const std::size_t idx = window_origin(c, oy, ox, wy, wx);
              if (x(n, idx) > best) {
                best = x(n, idx);
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = (c * out_h_ + oy) * out_w_ + ox;
          y(n, out_idx) = best;
          if (argmax_out != nullptr) (*argmax_out)[n * out_features() + out_idx] = best_idx;
        }
      }
    }
  }
  return y;
}

tensor::Matrix MaxPool2d::forward(const tensor::Matrix& x) {
  cached_batch_ = x.rows();
  argmax_.assign(x.rows() * out_features(), 0);
  return pool(x, &argmax_);
}

tensor::Matrix MaxPool2d::infer(const tensor::Matrix& x) const { return pool(x, nullptr); }

tensor::Matrix MaxPool2d::backward(const tensor::Matrix& grad_out) {
  tensor::Matrix grad_in(cached_batch_, channels_ * height_ * width_, 0.0);
  for (std::size_t n = 0; n < cached_batch_; ++n)
    for (std::size_t o = 0; o < out_features(); ++o)
      grad_in(n, argmax_[n * out_features() + o]) += grad_out(n, o);
  return grad_in;
}

tensor::FixMatrix MaxPool2d::forward_accel(OneSaAccelerator& accel,
                                           const tensor::FixMatrix& x) {
  // Reshape every pooling window into one row and reduce with the L3
  // streaming comparator.
  const std::size_t windows = x.rows() * out_features();
  tensor::FixMatrix rows(windows, pool_ * pool_);
  std::size_t r = 0;
  for (std::size_t n = 0; n < x.rows(); ++n) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox, ++r) {
          std::size_t lane = 0;
          for (std::size_t wy = 0; wy < pool_; ++wy)
            for (std::size_t wx = 0; wx < pool_; ++wx, ++lane)
              rows(r, lane) = x(n, window_origin(c, oy, ox, wy, wx));
        }
      }
    }
  }
  auto reduced = accel.reduce_rows_max(rows);
  tensor::FixMatrix y(x.rows(), out_features());
  r = 0;
  for (std::size_t n = 0; n < x.rows(); ++n)
    for (std::size_t o = 0; o < out_features(); ++o, ++r) y(n, o) = reduced.y(r, 0);
  return y;
}

void MaxPool2d::count_ops(OpCensus& census, std::size_t batch) const {
  // One compare per window element; counted with the ReLU/compare family.
  census.relu += static_cast<double>(batch) * static_cast<double>(out_features()) *
                 static_cast<double>(pool_ * pool_);
}

GlobalAvgPool::GlobalAvgPool(std::size_t channels, std::size_t height, std::size_t width)
    : channels_(channels), spatial_(height * width) {}

tensor::Matrix GlobalAvgPool::forward(const tensor::Matrix& x) {
  cached_batch_ = x.rows();
  return infer(x);
}

tensor::Matrix GlobalAvgPool::infer(const tensor::Matrix& x) const {
  ONESA_CHECK_SHAPE(x.cols() == channels_ * spatial_, "gap expected "
                                                          << channels_ * spatial_
                                                          << " cols, got " << x.cols());
  tensor::Matrix y(x.rows(), channels_, 0.0);
  for (std::size_t n = 0; n < x.rows(); ++n)
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t p = 0; p < spatial_; ++p) y(n, c) += x(n, c * spatial_ + p);
      y(n, c) /= static_cast<double>(spatial_);
    }
  return y;
}

tensor::Matrix GlobalAvgPool::backward(const tensor::Matrix& grad_out) {
  tensor::Matrix grad_in(cached_batch_, channels_ * spatial_);
  for (std::size_t n = 0; n < cached_batch_; ++n)
    for (std::size_t c = 0; c < channels_; ++c)
      for (std::size_t p = 0; p < spatial_; ++p)
        grad_in(n, c * spatial_ + p) = grad_out(n, c) / static_cast<double>(spatial_);
  return grad_in;
}

tensor::FixMatrix GlobalAvgPool::forward_accel(OneSaAccelerator& accel,
                                               const tensor::FixMatrix& x) {
  // GEMM against the fixed pooling matrix P (C*H*W x C), P[cp, c] = 1/(H*W).
  tensor::Matrix pooling(channels_ * spatial_, channels_, 0.0);
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t p = 0; p < spatial_; ++p)
      pooling(c * spatial_ + p, c) = 1.0 / static_cast<double>(spatial_);
  return accel.gemm(x, tensor::to_fixed(pooling)).y;
}

void GlobalAvgPool::count_ops(OpCensus& census, std::size_t batch) const {
  census.add += static_cast<double>(batch) * static_cast<double>(channels_ * spatial_);
}

}  // namespace onesa::nn
