#include "nn/norm.hpp"

#include <cmath>

#include "tensor/ops.hpp"

namespace onesa::nn {

LayerNorm::LayerNorm(std::size_t features, double epsilon)
    : features_(features), epsilon_(epsilon) {
  gamma_ = Param(tensor::Matrix(1, features, 1.0));
  beta_ = Param(tensor::Matrix(1, features, 0.0));
}

tensor::Matrix LayerNorm::normalize(const tensor::Matrix& x, tensor::Matrix* xhat_out,
                                    tensor::Matrix* rstd_out) const {
  ONESA_CHECK_SHAPE(x.cols() == features_, "layernorm features " << x.cols() << " vs "
                                                                 << features_);
  const tensor::Matrix mean = tensor::row_mean(x);
  const tensor::Matrix var = tensor::row_var(x);

  tensor::Matrix y(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double rstd = 1.0 / std::sqrt(var(i, 0) + epsilon_);
    if (rstd_out != nullptr) (*rstd_out)(i, 0) = rstd;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      const double xhat = (x(i, j) - mean(i, 0)) * rstd;
      if (xhat_out != nullptr) (*xhat_out)(i, j) = xhat;
      y(i, j) = xhat * gamma_.value(0, j) + beta_.value(0, j);
    }
  }
  return y;
}

tensor::Matrix LayerNorm::forward(const tensor::Matrix& x) {
  cached_xhat_ = tensor::Matrix(x.rows(), x.cols());
  cached_rstd_ = tensor::Matrix(x.rows(), 1);
  return normalize(x, &cached_xhat_, &cached_rstd_);
}

tensor::Matrix LayerNorm::infer(const tensor::Matrix& x) const {
  return normalize(x, nullptr, nullptr);
}

tensor::Matrix LayerNorm::backward(const tensor::Matrix& grad_out) {
  const std::size_t rows = grad_out.rows();
  const std::size_t n = features_;
  tensor::Matrix grad_in(rows, n);
  tensor::Matrix& dgamma = gamma_.grad_buffer();
  tensor::Matrix& dbeta = beta_.grad_buffer();
  for (std::size_t i = 0; i < rows; ++i) {
    // dxhat = dy * gamma; dx = rstd * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)).
    double mean_dxhat = 0.0;
    double mean_dxhat_xhat = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double dxhat = grad_out(i, j) * gamma_.value(0, j);
      mean_dxhat += dxhat;
      mean_dxhat_xhat += dxhat * cached_xhat_(i, j);
    }
    mean_dxhat /= static_cast<double>(n);
    mean_dxhat_xhat /= static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j) {
      const double dxhat = grad_out(i, j) * gamma_.value(0, j);
      grad_in(i, j) = cached_rstd_(i, 0) *
                      (dxhat - mean_dxhat - cached_xhat_(i, j) * mean_dxhat_xhat);
      dgamma(0, j) += grad_out(i, j) * cached_xhat_(i, j);
      dbeta(0, j) += grad_out(i, j);
    }
  }
  return grad_in;
}

tensor::FixMatrix LayerNorm::forward_accel(OneSaAccelerator& accel,
                                           const tensor::FixMatrix& x) {
  return accel
      .layernorm_rows(x, tensor::to_fixed(gamma_.value), tensor::to_fixed(beta_.value),
                      epsilon_)
      .y;
}

void LayerNorm::count_ops(OpCensus& census, std::size_t batch) const {
  // mean + var + normalize + affine: ~6 ops per element.
  census.layernorm += 6.0 * static_cast<double>(batch) * static_cast<double>(features_);
}

BatchNorm2d::BatchNorm2d(std::size_t channels, std::size_t height, std::size_t width,
                         double epsilon, double momentum)
    : channels_(channels),
      spatial_(height * width),
      epsilon_(epsilon),
      momentum_(momentum) {
  gamma_ = Param(tensor::Matrix(1, channels, 1.0));
  beta_ = Param(tensor::Matrix(1, channels, 0.0));
  running_mean_ = tensor::Matrix(1, channels, 0.0);
  running_var_ = tensor::Matrix(1, channels, 1.0);
}

tensor::Matrix BatchNorm2d::forward(const tensor::Matrix& x) {
  ONESA_CHECK_SHAPE(x.cols() == channels_ * spatial_,
                    "batchnorm2d expected " << channels_ * spatial_ << " cols, got "
                                            << x.cols());
  const std::size_t batch = x.rows();
  const double count = static_cast<double>(batch * spatial_);

  tensor::Matrix mean(1, channels_, 0.0);
  tensor::Matrix var(1, channels_, 0.0);
  if (training_) {
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t c = 0; c < channels_; ++c)
        for (std::size_t p = 0; p < spatial_; ++p) mean(0, c) += x(n, c * spatial_ + p);
    for (std::size_t c = 0; c < channels_; ++c) mean(0, c) /= count;
    for (std::size_t n = 0; n < batch; ++n)
      for (std::size_t c = 0; c < channels_; ++c)
        for (std::size_t p = 0; p < spatial_; ++p) {
          const double d = x(n, c * spatial_ + p) - mean(0, c);
          var(0, c) += d * d;
        }
    for (std::size_t c = 0; c < channels_; ++c) var(0, c) /= count;
    // Update running statistics.
    for (std::size_t c = 0; c < channels_; ++c) {
      running_mean_(0, c) =
          (1.0 - momentum_) * running_mean_(0, c) + momentum_ * mean(0, c);
      running_var_(0, c) = (1.0 - momentum_) * running_var_(0, c) + momentum_ * var(0, c);
    }
  } else {
    mean = running_mean_;
    var = running_var_;
  }

  cached_xhat_ = tensor::Matrix(batch, x.cols());
  cached_rstd_ = tensor::Matrix(1, channels_);
  return channel_affine(x, mean, var, &cached_xhat_, &cached_rstd_);
}

tensor::Matrix BatchNorm2d::channel_affine(const tensor::Matrix& x,
                                           const tensor::Matrix& mean,
                                           const tensor::Matrix& var,
                                           tensor::Matrix* xhat_out,
                                           tensor::Matrix* rstd_out) const {
  const std::size_t batch = x.rows();
  tensor::Matrix y(batch, x.cols());
  for (std::size_t c = 0; c < channels_; ++c) {
    const double rstd = 1.0 / std::sqrt(var(0, c) + epsilon_);
    if (rstd_out != nullptr) (*rstd_out)(0, c) = rstd;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t p = 0; p < spatial_; ++p) {
        const double xhat = (x(n, c * spatial_ + p) - mean(0, c)) * rstd;
        if (xhat_out != nullptr) (*xhat_out)(n, c * spatial_ + p) = xhat;
        y(n, c * spatial_ + p) = xhat * gamma_.value(0, c) + beta_.value(0, c);
      }
    }
  }
  return y;
}

tensor::Matrix BatchNorm2d::infer(const tensor::Matrix& x) const {
  // The inference-statistics branch of forward() without the cache writes —
  // one shared arithmetic body, so outputs are bit-identical to eval-mode
  // forward (the serving tier relies on this).
  ONESA_CHECK_SHAPE(x.cols() == channels_ * spatial_,
                    "batchnorm2d expected " << channels_ * spatial_ << " cols, got "
                                            << x.cols());
  return channel_affine(x, running_mean_, running_var_, nullptr, nullptr);
}

tensor::Matrix BatchNorm2d::backward(const tensor::Matrix& grad_out) {
  const std::size_t batch = grad_out.rows();
  const double count = static_cast<double>(batch * spatial_);
  tensor::Matrix grad_in(batch, grad_out.cols());
  for (std::size_t c = 0; c < channels_; ++c) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t p = 0; p < spatial_; ++p) {
        const double dy = grad_out(n, c * spatial_ + p);
        sum_dy += dy;
        sum_dy_xhat += dy * cached_xhat_(n, c * spatial_ + p);
      }
    }
    gamma_.grad_buffer()(0, c) += sum_dy_xhat;
    beta_.grad_buffer()(0, c) += sum_dy;
    const double g = gamma_.value(0, c);
    const double rstd = cached_rstd_(0, c);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t p = 0; p < spatial_; ++p) {
        const std::size_t j = c * spatial_ + p;
        grad_in(n, j) = g * rstd *
                        (grad_out(n, j) - sum_dy / count -
                         cached_xhat_(n, j) * sum_dy_xhat / count);
      }
    }
  }
  return grad_in;
}

tensor::FixMatrix BatchNorm2d::forward_accel(OneSaAccelerator& accel,
                                             const tensor::FixMatrix& x) {
  // The per-channel normalizer 1/sqrt(var + eps) is a nonlinear op and runs
  // through the CPWL rsqrt table on the array (this is where granularity
  // affects CNN accuracy — ReLU itself is exactly representable). The
  // resulting per-channel affine is then one parameterized MHP.
  tensor::Matrix var_eps(1, channels_);
  for (std::size_t c = 0; c < channels_; ++c) {
    var_eps(0, c) = running_var_(0, c) + epsilon_;
  }
  const tensor::FixMatrix rstd =
      accel.elementwise(cpwl::FunctionKind::kRsqrt, tensor::to_fixed(var_eps)).y;

  tensor::Matrix scale(1, channels_ * spatial_);
  tensor::Matrix shift(1, channels_ * spatial_);
  for (std::size_t c = 0; c < channels_; ++c) {
    const double s = gamma_.value(0, c) * rstd(0, c).to_double();
    const double t = beta_.value(0, c) - running_mean_(0, c) * s;
    for (std::size_t p = 0; p < spatial_; ++p) {
      scale(0, c * spatial_ + p) = s;
      shift(0, c * spatial_ + p) = t;
    }
  }
  return accel
      .batchnorm_cols(x, tensor::to_fixed(scale), tensor::to_fixed(shift))
      .y;
}

void BatchNorm2d::count_ops(OpCensus& census, std::size_t batch) const {
  // Folded affine: one multiply + one add per element, plus the statistics
  // maintenance the paper attributes to batchnorm (~4 ops/element total).
  census.batchnorm +=
      4.0 * static_cast<double>(batch) * static_cast<double>(channels_ * spatial_);
}

}  // namespace onesa::nn
