// Integration tests for the OneSaAccelerator façade: golden-model
// equivalence, mode agreement (cycle-accurate vs analytic), and the
// decomposed composite operations (softmax, layernorm, batchnorm).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "onesa/accelerator.hpp"
#include "tensor/ops.hpp"

namespace onesa {
namespace {

using tensor::FixMatrix;
using tensor::Matrix;
using tensor::to_double;
using tensor::to_fixed;

OneSaConfig small_config(ExecutionMode mode) {
  OneSaConfig cfg;
  cfg.array.rows = 4;
  cfg.array.cols = 4;
  cfg.array.macs_per_pe = 4;
  cfg.mode = mode;
  return cfg;
}

TEST(Accelerator, GemmMatchesReference) {
  OneSaAccelerator accel(small_config(ExecutionMode::kCycleAccurate));
  Rng rng(1);
  const FixMatrix a = to_fixed(tensor::random_uniform(5, 6, rng));
  const FixMatrix b = to_fixed(tensor::random_uniform(6, 7, rng));
  const auto out = accel.gemm(a, b);
  EXPECT_EQ(out.y, tensor::matmul(a, b));
}

TEST(Accelerator, ElementwiseMatchesEvalFixedGolden) {
  OneSaAccelerator accel(small_config(ExecutionMode::kCycleAccurate));
  const auto& table = accel.tables().get(cpwl::FunctionKind::kGelu);
  Rng rng(2);
  const FixMatrix x = to_fixed(tensor::random_uniform(6, 6, rng, -8.0, 8.0));
  const auto out = accel.elementwise(cpwl::FunctionKind::kGelu, x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(out.y.at_flat(i).raw(), table.eval_fixed(x.at_flat(i)).raw()) << i;
  }
}

// Mode agreement: the analytic backend must produce identical outputs AND
// identical cycle counts to the cycle-accurate one for every operation.
class ModeAgreement : public ::testing::TestWithParam<cpwl::FunctionKind> {};

TEST_P(ModeAgreement, ElementwiseIdenticalAcrossModes) {
  OneSaAccelerator detailed(small_config(ExecutionMode::kCycleAccurate));
  OneSaAccelerator analytic(small_config(ExecutionMode::kAnalytic));
  Rng rng(3);
  const FixMatrix x = to_fixed(tensor::random_uniform(7, 5, rng, -3.0, 3.0));
  const auto a = detailed.elementwise(GetParam(), x);
  const auto b = analytic.elementwise(GetParam(), x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.cycles.total(), b.cycles.total());
}

INSTANTIATE_TEST_SUITE_P(Functions, ModeAgreement,
                         ::testing::Values(cpwl::FunctionKind::kGelu,
                                           cpwl::FunctionKind::kRelu,
                                           cpwl::FunctionKind::kTanh,
                                           cpwl::FunctionKind::kSigmoid,
                                           cpwl::FunctionKind::kExp),
                         [](const auto& info) {
                           return std::string(cpwl::function_name(info.param));
                         });

TEST(Accelerator, GemmModeAgreement) {
  OneSaAccelerator detailed(small_config(ExecutionMode::kCycleAccurate));
  OneSaAccelerator analytic(small_config(ExecutionMode::kAnalytic));
  Rng rng(4);
  const FixMatrix a = to_fixed(tensor::random_uniform(9, 7, rng));
  const FixMatrix b = to_fixed(tensor::random_uniform(7, 6, rng));
  const auto da = detailed.gemm(a, b);
  const auto an = analytic.gemm(a, b);
  EXPECT_EQ(da.y, an.y);
  EXPECT_EQ(da.cycles.total(), an.cycles.total());
}

TEST(Accelerator, MhpModeAgreement) {
  OneSaAccelerator detailed(small_config(ExecutionMode::kCycleAccurate));
  OneSaAccelerator analytic(small_config(ExecutionMode::kAnalytic));
  Rng rng(5);
  const FixMatrix x = to_fixed(tensor::random_uniform(6, 6, rng));
  const FixMatrix k = to_fixed(tensor::random_uniform(6, 6, rng));
  const FixMatrix b = to_fixed(tensor::random_uniform(6, 6, rng));
  const auto da = detailed.mhp(x, k, b);
  const auto an = analytic.mhp(x, k, b);
  EXPECT_EQ(da.y, an.y);
  EXPECT_EQ(da.cycles.total(), an.cycles.total());
}

TEST(Accelerator, SoftmaxCloseToReference) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  Rng rng(6);
  const Matrix x = tensor::random_uniform(6, 8, rng, -3.0, 3.0);
  const auto out = accel.softmax_rows(to_fixed(x));
  const Matrix got = to_double(out.y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    // Reference softmax.
    double mx = x(i, 0);
    for (std::size_t j = 1; j < x.cols(); ++j) mx = std::max(mx, x(i, j));
    double sum = 0.0;
    std::vector<double> e(x.cols());
    for (std::size_t j = 0; j < x.cols(); ++j) {
      e[j] = std::exp(x(i, j) - mx);
      sum += e[j];
    }
    double row_sum = 0.0;
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_NEAR(got(i, j), e[j] / sum, 0.03) << i << "," << j;
      row_sum += got(i, j);
    }
    // Probabilities approximately normalized.
    EXPECT_NEAR(row_sum, 1.0, 0.06) << i;
  }
}

TEST(Accelerator, SoftmaxPreservesArgmax) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Matrix x = tensor::random_uniform(1, 8, rng, -4.0, 4.0);
    const auto out = accel.softmax_rows(to_fixed(x));
    std::size_t want = 0;
    std::size_t got = 0;
    const Matrix y = to_double(out.y);
    for (std::size_t j = 1; j < 8; ++j) {
      if (x(0, j) > x(0, want)) want = j;
      if (y(0, j) > y(0, got)) got = j;
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(Accelerator, LayerNormCloseToReference) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  Rng rng(8);
  const std::size_t cols = 16;
  const Matrix x = tensor::random_uniform(5, cols, rng, -2.0, 2.0);
  Matrix gamma(1, cols, 1.0);
  Matrix beta(1, cols, 0.0);
  const double eps = 1e-3;
  const auto out =
      accel.layernorm_rows(to_fixed(x), to_fixed(gamma), to_fixed(beta), eps);
  const Matrix got = to_double(out.y);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < cols; ++j) mean += x(i, j);
    mean /= static_cast<double>(cols);
    double var = 0.0;
    for (std::size_t j = 0; j < cols; ++j) var += (x(i, j) - mean) * (x(i, j) - mean);
    var /= static_cast<double>(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      const double want = (x(i, j) - mean) / std::sqrt(var + eps);
      EXPECT_NEAR(got(i, j), want, 0.12) << i << "," << j;
    }
  }
}

TEST(Accelerator, LayerNormAffineApplied) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  Rng rng(9);
  const std::size_t cols = 8;
  const Matrix x = tensor::random_uniform(3, cols, rng, -1.0, 1.0);
  Matrix gamma(1, cols, 2.0);
  Matrix beta(1, cols, 0.5);
  const auto plain = accel.layernorm_rows(to_fixed(x), to_fixed(Matrix(1, cols, 1.0)),
                                          to_fixed(Matrix(1, cols, 0.0)));
  const auto affine =
      accel.layernorm_rows(to_fixed(x), to_fixed(gamma), to_fixed(beta));
  const Matrix p = to_double(plain.y);
  const Matrix a = to_double(affine.y);
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_NEAR(a.at_flat(i), 2.0 * p.at_flat(i) + 0.5, 0.02) << i;
  }
}

TEST(Accelerator, BatchNormColsAffine) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  const FixMatrix x = to_fixed(Matrix{{1.0, 2.0}, {3.0, 4.0}});
  const FixMatrix scale = to_fixed(Matrix{{2.0, 0.5}});
  const FixMatrix shift = to_fixed(Matrix{{1.0, -1.0}});
  const auto out = accel.batchnorm_cols(x, scale, shift);
  const Matrix y = to_double(out.y);
  EXPECT_DOUBLE_EQ(y(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 1.0);
}

TEST(Accelerator, ReduceRowsMax) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  const FixMatrix x = to_fixed(Matrix{{1.0, 5.0, -2.0}, {-7.0, -3.0, -4.0}});
  const auto out = accel.reduce_rows_max(x);
  EXPECT_DOUBLE_EQ(out.y(0, 0).to_double(), 5.0);
  EXPECT_DOUBLE_EQ(out.y(1, 0).to_double(), -3.0);
}

TEST(Accelerator, LifetimeCountersAccumulate) {
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  Rng rng(10);
  const FixMatrix a = to_fixed(tensor::random_uniform(4, 4, rng));
  accel.gemm(a, a);
  const auto after_gemm = accel.lifetime_cycles().total();
  EXPECT_GT(after_gemm, 0u);
  EXPECT_EQ(accel.lifetime_mac_ops(), 4u * 4u * 4u);
  accel.elementwise(cpwl::FunctionKind::kRelu, a);
  EXPECT_GT(accel.lifetime_cycles().total(), after_gemm);
  EXPECT_EQ(accel.lifetime_mac_ops(), 64u + 2u * 16u);
  accel.reset_lifetime();
  EXPECT_EQ(accel.lifetime_cycles().total(), 0u);
  EXPECT_EQ(accel.lifetime_mac_ops(), 0u);
}

TEST(Accelerator, BatchSweepPassesMatchThePaperFigures) {
  // bench_serving_throughput part 2: 64 GELU requests of 2 x 768 stacked
  // into array passes of a row budget, each pass padded to whole array-height
  // tiles of the reference design. Its passes, fill and cycles per request,
  // to the digit the bench record prints (analytic cycles depend on shapes
  // only, so the passes hold zeros).
  OneSaConfig cfg;
  cfg.mode = ExecutionMode::kAnalytic;
  OneSaAccelerator accel(cfg);
  constexpr std::size_t kRequests = 64;
  constexpr std::size_t kRequestRows = 2;
  constexpr std::size_t kCols = 768;
  struct Row {
    std::size_t budget;
    std::size_t passes;
    double fill;
    const char* cycles_per_request;
  };
  for (const Row& want : {Row{2, 64, 0.25, "711"}, Row{8, 16, 1.0, "177.75"},
                          Row{32, 4, 1.0, "170.438"}, Row{128, 1, 1.0, "168.609"}}) {
    const std::size_t per_pass = std::max<std::size_t>(1, want.budget / kRequestRows);
    const std::size_t tile = cfg.array.rows;
    std::uint64_t cycles = 0;
    std::size_t passes = 0;
    std::size_t streamed_rows = 0;
    for (std::size_t done = 0; done < kRequests; done += per_pass) {
      const std::size_t rows = std::min(per_pass, kRequests - done) * kRequestRows;
      const FixMatrix packed((rows + tile - 1) / tile * tile, kCols);
      cycles += accel.elementwise(cpwl::FunctionKind::kGelu, packed).cycles.total();
      ++passes;
      streamed_rows += packed.rows();
    }
    std::ostringstream per_request;
    per_request << static_cast<double>(cycles) / static_cast<double>(kRequests);
    EXPECT_EQ(passes, want.passes) << "budget " << want.budget;
    EXPECT_DOUBLE_EQ(static_cast<double>(kRequests * kRequestRows) / streamed_rows, want.fill);
    EXPECT_EQ(per_request.str(), want.cycles_per_request) << "budget " << want.budget;
  }
}

TEST(Accelerator, InvalidConfigRejected) {
  OneSaConfig cfg = small_config(ExecutionMode::kAnalytic);
  cfg.granularity = 0.0;
  EXPECT_THROW(OneSaAccelerator{cfg}, ConfigError);
  cfg = small_config(ExecutionMode::kAnalytic);
  cfg.granularity = 1e-6;  // below INT16 resolution
  EXPECT_THROW(OneSaAccelerator{cfg}, ConfigError);
  cfg = small_config(ExecutionMode::kAnalytic);
  cfg.frac_bits = 12;  // datapath is Q6.9; other formats are table-only
  EXPECT_THROW(OneSaAccelerator{cfg}, ConfigError);
}

TEST(Accelerator, BufferInventoryMatchesTableV) {
  // The paper's reference design (Table V): 3 L3 of 0.28 KB, 24 L2 of
  // 0.5 KB, 64 PE output buffers of 0.094 KB, 64 L1 of 0.031 KB.
  OneSaConfig cfg;  // defaults = reference design
  const auto inventory = buffer_inventory(cfg);
  ASSERT_EQ(inventory.size(), 4u);
  EXPECT_EQ(inventory[0].count, 3u);
  EXPECT_NEAR(inventory[0].kilobytes_each, 0.28, 0.01);
  EXPECT_EQ(inventory[1].count, 24u);
  EXPECT_NEAR(inventory[1].kilobytes_each, 0.5, 0.01);
  EXPECT_EQ(inventory[2].count, 64u);
  EXPECT_NEAR(inventory[2].kilobytes_each, 0.094, 0.002);
  EXPECT_EQ(inventory[3].count, 64u);
  EXPECT_NEAR(inventory[3].kilobytes_each, 0.031, 0.002);
}

}  // namespace
}  // namespace onesa
