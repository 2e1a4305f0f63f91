// The INT16 quantized serving lane, model layer up: QuantizedModel must
// track the double model within the CPWL-table-dominated error bound, stay
// bit-deterministic and row-stable (the batcher's contract), reject models
// it cannot run entirely in INT16 at BUILD time, and ride the registry's
// version-aware publication path (quantize-at-publish, route-at-infer).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpwl/segment_table.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/quantized.hpp"
#include "nn/sequential.hpp"
#include "serve/registry.hpp"
#include "tensor/kernels/pack.hpp"
#include "tensor/matrix.hpp"

namespace onesa {
namespace {

using tensor::Matrix;

/// Max |a - b| over all elements.
double max_abs_error(const Matrix& a, const Matrix& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::fabs(a.at_flat(i) - b.at_flat(i)));
  return err;
}

/// Linear -> GELU(table) -> Linear, the quantizable MLP shape. The table
/// must outlive the model (the serving tier keeps tables alive at fleet
/// scope; tests use a static).
const cpwl::SegmentTable& gelu_table() {
  static const cpwl::SegmentTable table =
      cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  return table;
}

std::unique_ptr<nn::Sequential> make_gelu_mlp(std::size_t in, std::size_t hidden,
                                              std::size_t out, Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  auto act = std::make_unique<nn::Activation>(cpwl::FunctionKind::kGelu);
  act->use_table(&gelu_table());
  model->add(std::move(act));
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

std::unique_ptr<nn::Sequential> make_relu_mlp(std::size_t in, std::size_t hidden,
                                              std::size_t out, Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

// ------------------------------------------------------------- model layer

TEST(QuantizedModel, TracksDoubleLaneWithinQuantizationBound) {
  // Q6.9 activations carry ~1e-3 resolution and the GELU table its own CPWL
  // approximation error; across two layers of this width the observed max
  // logit error sits near 2-4e-2 (same order as the table-3 accuracy-vs-
  // granularity ablation). Gate with slack so only a real regression trips.
  Rng rng(21);
  const auto model = make_gelu_mlp(32, 64, 8, rng);
  const nn::QuantizedModel q(*model);
  const Matrix x = tensor::random_uniform(16, 32, rng, -1.0, 1.0);
  const Matrix yd = std::as_const(*model).infer(x);
  const Matrix yq = q.infer(x);
  ASSERT_EQ(yq.rows(), yd.rows());
  ASSERT_EQ(yq.cols(), yd.cols());
  EXPECT_LT(max_abs_error(yd, yq), 0.08);
}

TEST(QuantizedModel, ReluFusionTracksDoubleLane) {
  Rng rng(22);
  const auto model = make_relu_mlp(24, 48, 6, rng);
  const nn::QuantizedModel q(*model);
  ASSERT_EQ(q.layer_count(), 2u);
  EXPECT_EQ(q.layer(0).kind, tensor::kernels::EpilogueInt16::Kind::kBiasRelu);
  EXPECT_EQ(q.layer(1).kind, tensor::kernels::EpilogueInt16::Kind::kBias);
  const Matrix x = tensor::random_uniform(9, 24, rng, -1.0, 1.0);
  EXPECT_LT(max_abs_error(std::as_const(*model).infer(x), q.infer(x)), 0.05);
}

TEST(QuantizedModel, DeterministicAndRowStable) {
  // Integer arithmetic end to end: repeated inference is bit-identical, and
  // a row's logits do not depend on which batch carried it — the property
  // that lets the batcher stack rows of different requests on the INT16
  // lane exactly as it does on the double lane.
  Rng rng(23);
  const auto model = make_gelu_mlp(16, 40, 5, rng);
  const nn::QuantizedModel q(*model);
  const Matrix x = tensor::random_uniform(7, 16, rng, -1.0, 1.0);
  const Matrix y1 = q.infer(x);
  const Matrix y2 = q.infer(x);
  EXPECT_EQ(y1, y2);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    Matrix row(1, x.cols(), tensor::kUninitialized);
    for (std::size_t j = 0; j < x.cols(); ++j) row(0, j) = x(r, j);
    const Matrix solo = q.infer(row);
    for (std::size_t j = 0; j < y1.cols(); ++j) ASSERT_EQ(solo(0, j), y1(r, j));
  }
}

TEST(QuantizedModel, RejectsUnsupportedLayersAtBuildTime) {
  Rng rng(24);
  {  // LayerNorm cannot run on the INT16 lane.
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>(8, 8, rng));
    model.add(std::make_unique<nn::LayerNorm>(8));
    EXPECT_THROW(nn::QuantizedModel{model}, Error);
  }
  {  // A curved activation without a CPWL table has no INT16 evaluation.
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>(8, 8, rng));
    model.add(nn::make_gelu());
    EXPECT_THROW(nn::QuantizedModel{model}, Error);
  }
  {  // A table built for a different Q-format is a contract violation.
    cpwl::SegmentTableConfig cfg;
    cfg.frac_bits = 8;
    const auto table8 = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu, cfg);
    nn::Sequential model;
    model.add(std::make_unique<nn::Linear>(8, 8, rng));
    auto act = std::make_unique<nn::Activation>(cpwl::FunctionKind::kGelu);
    act->use_table(&table8);
    model.add(std::move(act));
    EXPECT_THROW(nn::QuantizedModel{model}, Error);
  }
  {  // Empty model.
    nn::Sequential model;
    EXPECT_THROW(nn::QuantizedModel{model}, Error);
  }
}

TEST(QuantizedModel, WeightsRoundHalfAwayFromZero) {
  // Ties, signed zeros and the int16 rail, at the scale the quantizer picks
  // for max |w| just under 2 (14 fractional bits): raw = round-half-away(w
  // * 2^14), the rounding Fix16::from_double uses.
  Rng rng(28);
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(2, 6, rng));
  auto& lin = static_cast<nn::Linear&>(model->at(0));
  const double ulp = 1.0 / 16384.0;
  const std::vector<double> w = {3.5 * ulp,  -3.5 * ulp, 0.5 * ulp, -0.5 * ulp,
                                 0.0,        -0.0,       1.5,       -32767 * ulp,
                                 32766.5 * ulp, 0.49 * ulp, -2.5 * ulp, 1.25 * ulp};
  const std::vector<std::int16_t> raw = {4, -4, 1, -1, 0, 0, 24576, -32767, 32767, 0, -3, 1};
  for (std::size_t i = 0; i < w.size(); ++i) lin.weight().value.at_flat(i) = w[i];
  const nn::QuantizedModel q(*model);
  ASSERT_EQ(q.layer(0).w_frac_bits, 14);
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(q.layer(0).weight.at(i / 6, i % 6), raw[i]) << "w = " << w[i];
}

// ---------------------------------------------------------- registry layer

TEST(RegistryPrecision, QuantizesAtPublicationAndRoutesInfer) {
  Rng rng(25);
  serve::ModelRegistry registry;
  serve::ModelOptions options;
  options.batchable = true;
  options.precision = serve::Precision::kInt16;
  const auto handle = registry.add("q", make_gelu_mlp(12, 24, 4, rng), options);

  ASSERT_NE(handle->quantized, nullptr);
  EXPECT_EQ(handle->precision, serve::Precision::kInt16);
  EXPECT_EQ(handle->options().precision, serve::Precision::kInt16);

  // Entry::infer is the quantized lane, bit-for-bit.
  const Matrix x = tensor::random_uniform(3, 12, rng, -1.0, 1.0);
  EXPECT_EQ(handle->infer(x), handle->quantized->infer(x));

  // A double-lane entry carries no quantized rep and serves the model path.
  const auto dbl = registry.add("d", make_gelu_mlp(12, 24, 4, rng));
  EXPECT_EQ(dbl->quantized, nullptr);
  EXPECT_EQ(dbl->options().precision, serve::Precision::kDouble);
  EXPECT_EQ(dbl->infer(x), dbl->model->infer(x));
}

TEST(RegistryPrecision, Int16EntryPacksOnlyItsInt16Panels) {
  // An INT16 entry serves from its PackedBInt16 panels alone, so
  // registration builds those and not the double PackedB panels; a direct
  // model->infer still works, packing the double panels lazily.
  Rng rng(29);
  serve::ModelRegistry registry;
  serve::ModelOptions options;
  options.precision = serve::Precision::kInt16;
  tensor::kernels::reset_pack_panel_count();
  const auto handle = registry.add("q", make_gelu_mlp(12, 600, 4, rng), options);
  std::uint64_t int16_panels = 0;
  for (std::size_t l = 0; l < handle->quantized->layer_count(); ++l) {
    const auto& w = handle->quantized->layer(l).weight;
    int16_panels += w.nc_panels() * w.kc_panels();
  }
  if (tensor::kernels::pack_counter_enabled()) {
    EXPECT_EQ(tensor::kernels::pack_panel_count(), int16_panels);
  }

  Rng twin_rng(29);
  const auto twin = make_gelu_mlp(12, 600, 4, twin_rng);
  const Matrix x = tensor::random_uniform(3, 12, rng, -1.0, 1.0);
  EXPECT_EQ(handle->model->infer(x), twin->infer(x));
}

TEST(RegistryPrecision, OptionPreservingSwapKeepsTheInt16Lane) {
  Rng rng(26);
  serve::ModelRegistry registry;
  serve::ModelOptions options;
  options.precision = serve::Precision::kInt16;
  registry.add("q", make_relu_mlp(6, 12, 3, rng), options);

  const auto v2 = registry.swap("q", make_relu_mlp(6, 12, 3, rng));
  EXPECT_EQ(v2->version, 2u);
  ASSERT_NE(v2->quantized, nullptr) << "swap dropped the quantized rep";
  EXPECT_EQ(v2->options().precision, serve::Precision::kInt16);

  // An options-replacing swap can demote back to the double lane.
  const auto v3 = registry.swap("q", make_relu_mlp(6, 12, 3, rng), {});
  EXPECT_EQ(v3->quantized, nullptr);
  EXPECT_EQ(v3->options().precision, serve::Precision::kDouble);
}

TEST(RegistryPrecision, UnsupportedModelFailsAtAddNotOnTheRequestPath) {
  Rng rng(27);
  serve::ModelRegistry registry;
  serve::ModelOptions options;
  options.precision = serve::Precision::kInt16;
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(8, 8, rng));
  model->add(std::make_unique<nn::LayerNorm>(8));
  EXPECT_THROW(registry.add("bad", std::move(model), options), Error);
  EXPECT_EQ(registry.find("bad"), nullptr);
}

}  // namespace
}  // namespace onesa
