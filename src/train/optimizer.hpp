// Optimizers: SGD with momentum and Adam.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace onesa::train {

class Optimizer {
 public:
  /// Sizes every parameter's gradient: step() reads them whole.
  explicit Optimizer(std::vector<nn::Param*> params) : params_(std::move(params)) {
    for (auto* p : params_) p->grad_buffer();
  }
  virtual ~Optimizer() = default;

  /// Apply one update from the accumulated gradients.
  virtual void step() = 0;

  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

 protected:
  std::vector<nn::Param*> params_;
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<nn::Param*> params, double lr, double momentum = 0.9,
      double weight_decay = 0.0);
  void step() override;

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<tensor::Matrix> velocity_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<nn::Param*> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double epsilon = 1e-8);
  void step() override;

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double epsilon_;
  std::size_t t_ = 0;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
};

}  // namespace onesa::train
