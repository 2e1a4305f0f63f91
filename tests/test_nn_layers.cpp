// Behavioural tests for the NN layers: forward semantics, accelerated
// (INT16 + CPWL) inference fidelity, and op census accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/activations.hpp"
#include "nn/attention.hpp"
#include "nn/conv.hpp"
#include "nn/embedding.hpp"
#include "nn/graph.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "nn/sequential.hpp"
#include "train/optimizer.hpp"
#include "tensor/kernels/pack.hpp"
#include "tensor/ops.hpp"

namespace onesa::nn {
namespace {

using tensor::Matrix;
using tensor::to_double;
using tensor::to_fixed;

OneSaConfig accel_config() {
  OneSaConfig cfg;
  cfg.array.rows = 4;
  cfg.array.cols = 4;
  cfg.array.macs_per_pe = 4;
  cfg.granularity = 0.125;
  cfg.mode = ExecutionMode::kAnalytic;
  return cfg;
}

TEST(LinearLayer, GradientsAreAllocatedOnFirstUse) {
  // A freshly built layer holds no gradient buffers: a model that is only
  // built and served never pays for them. The first backward sizes them.
  Rng rng(2);
  Linear layer(6, 4, rng);
  for (Param* p : layer.params()) EXPECT_TRUE(p->grad.empty());
  layer.forward(tensor::random_uniform(3, 6, rng));
  layer.backward(tensor::random_uniform(3, 4, rng));
  EXPECT_EQ(layer.weight().grad.rows(), 6u);
  EXPECT_EQ(layer.weight().grad.cols(), 4u);
  EXPECT_EQ(layer.bias().grad.cols(), 4u);
}

TEST(LinearLayer, AccelMatchesReferenceWithinQuantization) {
  Rng rng(1);
  Linear layer(6, 4, rng);
  const Matrix x = tensor::random_uniform(3, 6, rng, -1.0, 1.0);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.05);
}

TEST(ActivationLayer, GeluAccelTracksReference) {
  Rng rng(2);
  Activation layer(cpwl::FunctionKind::kGelu);
  const Matrix x = tensor::random_uniform(4, 8, rng, -4.0, 4.0);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  // CPWL error at g=0.125 plus quantization.
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.04);
}

TEST(ActivationLayer, ReluExactOnAccelerator) {
  Rng rng(3);
  Activation layer(cpwl::FunctionKind::kRelu);
  const Matrix x = to_double(to_fixed(tensor::random_uniform(4, 8, rng, -2.0, 2.0)));
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 2.5 * fixed::Fix16::resolution());
}

TEST(LayerNormLayer, NormalizesRows) {
  Rng rng(4);
  LayerNorm layer(8, 1e-5);
  const Matrix x = tensor::random_uniform(3, 8, rng, -2.0, 2.0);
  const Matrix y = layer.forward(x);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double mean = 0.0;
    for (std::size_t j = 0; j < 8; ++j) mean += y(i, j);
    EXPECT_NEAR(mean / 8.0, 0.0, 1e-9);
    double var = 0.0;
    for (std::size_t j = 0; j < 8; ++j) var += y(i, j) * y(i, j);
    EXPECT_NEAR(var / 8.0, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, TrainingNormalizesBatch) {
  Rng rng(5);
  BatchNorm2d layer(2, 2, 2);
  const Matrix x = tensor::random_uniform(16, 8, rng, 3.0, 5.0);  // offset data
  const Matrix y = layer.forward(x);
  // Per-channel batch mean ~0 after normalization.
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0;
    for (std::size_t n = 0; n < 16; ++n)
      for (std::size_t p = 0; p < 4; ++p) mean += y(n, c * 4 + p);
    EXPECT_NEAR(mean / 64.0, 0.0, 1e-9);
  }
}

TEST(BatchNormLayer, InferenceUsesRunningStats) {
  Rng rng(6);
  BatchNorm2d layer(1, 2, 2);
  // Feed several training batches so running stats converge.
  for (int i = 0; i < 50; ++i) layer.forward(tensor::random_uniform(8, 4, rng, 1.0, 3.0));
  layer.set_training(false);
  // A constant input at the running mean maps near beta = 0.
  const Matrix x(1, 4, 2.0);
  const Matrix y = layer.forward(x);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(y(0, j), 0.0, 0.5) << j;
}

TEST(BatchNormLayer, AccelMatchesFoldedAffine) {
  Rng rng(7);
  BatchNorm2d layer(2, 2, 2);
  for (int i = 0; i < 20; ++i) layer.forward(tensor::random_uniform(8, 8, rng));
  layer.set_training(false);
  const Matrix x = tensor::random_uniform(4, 8, rng);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.05);
}

TEST(ConvLayer, AccelMatchesReference) {
  Rng rng(8);
  tensor::ConvShape shape{1, 4, 4, 3, 1, 1};
  Conv2d layer(shape, 2, rng);
  const Matrix x = tensor::random_uniform(2, 16, rng, -1.0, 1.0);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.05);
}

TEST(MaxPoolLayer, AccelBitExact) {
  Rng rng(9);
  MaxPool2d layer(2, 4, 4);
  const Matrix x = to_double(to_fixed(tensor::random_uniform(3, 32, rng)));
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 1e-12);
}

TEST(AttentionLayer, RowsOfAttentionAreDistributions) {
  Rng rng(10);
  MultiHeadSelfAttention layer(8, 2, rng);
  const Matrix x = tensor::random_uniform(5, 8, rng, -1.0, 1.0);
  const Matrix y = layer.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
}

TEST(AttentionLayer, AccelTracksReference) {
  Rng rng(11);
  MultiHeadSelfAttention layer(8, 2, rng);
  const Matrix x = tensor::random_uniform(4, 8, rng, -0.5, 0.5);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  // Attention chains several quantized ops; tolerance reflects INT16+CPWL.
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.15);
}

TEST(GraphConvLayer, PropagatesNeighbourInfo) {
  Rng rng(12);
  const auto adj = normalized_adjacency(4, {{0, 1}, {2, 3}});
  GraphConv layer(adj, 2, 2, rng);
  Matrix x{{1.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.0, 1.0}};
  const Matrix y = layer.forward(x);
  // Nodes 0/1 share a component, 2/3 another: outputs within a component
  // match, across components differ.
  EXPECT_NEAR(y(0, 0), y(1, 0), 1e-9);
  EXPECT_NEAR(y(2, 0), y(3, 0), 1e-9);
}

TEST(GraphConvLayer, AccelMatchesReference) {
  Rng rng(13);
  const auto adj = normalized_adjacency(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  GraphConv layer(adj, 3, 2, rng);
  const Matrix x = tensor::random_uniform(5, 3, rng, -1.0, 1.0);
  const Matrix ref = layer.forward(x);
  OneSaAccelerator accel(accel_config());
  const Matrix got = to_double(layer.forward_accel(accel, to_fixed(x)));
  EXPECT_LT(tensor::max_abs_distance(ref, got), 0.05);
}

TEST(NormalizedAdjacency, RowsOfIsolatedNodeKeepSelfLoop) {
  const auto adj = normalized_adjacency(3, {});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(adj(i, i), 1.0, 1e-12);
  }
}

TEST(EmbeddingLayer, LookupAndPosition) {
  Rng rng(14);
  Embedding layer(8, 4, rng, /*positional=*/false);
  Matrix ids{{2.0, 2.0}};
  const Matrix y = layer.forward(ids);
  // Same token at two positions -> identical rows without positional terms.
  for (std::size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(y(0, j), y(1, j));

  Embedding positional(8, 4, rng, /*positional=*/true);
  const Matrix yp = positional.forward(ids);
  bool any_differs = false;
  for (std::size_t j = 0; j < 4; ++j) {
    if (std::abs(yp(0, j) - yp(1, j)) > 1e-9) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(EmbeddingLayer, OutOfVocabThrows) {
  Rng rng(15);
  Embedding layer(4, 4, rng);
  EXPECT_THROW(layer.forward(Matrix{{9.0}}), Error);
}

TEST(OpCensus, CnnGemmDominates) {
  // Fig. 1a: GEMM is by far the largest share in a CNN.
  Rng rng(16);
  CnnSpec spec;
  auto model = make_cnn_classifier(spec, rng);
  model->forward(tensor::random_uniform(1, spec.in_channels * spec.height * spec.width,
                                        rng));  // populate feature widths
  OpCensus census;
  model->count_ops(census, 1);
  EXPECT_GT(census.gemm / census.total(), 0.5);
  EXPECT_GT(census.batchnorm, 0.0);
  EXPECT_GT(census.relu, 0.0);
  EXPECT_DOUBLE_EQ(census.gelu, 0.0);
  EXPECT_DOUBLE_EQ(census.layernorm, 0.0);
}

TEST(OpCensus, TransformerHasGeluAndLayernorm) {
  Rng rng(17);
  TransformerSpec spec;
  auto model = make_transformer_classifier(spec, rng);
  Matrix ids(1, spec.seq_len, 3.0);
  model->forward(ids);
  OpCensus census;
  model->count_ops(census, 1);
  EXPECT_GT(census.gemm / census.total(), 0.5);
  EXPECT_GT(census.gelu, 0.0);
  EXPECT_GT(census.layernorm, 0.0);
  EXPECT_GT(census.softmax, 0.0);
  EXPECT_DOUBLE_EQ(census.batchnorm, 0.0);
}

// ------------------------------------------------- const inference path
//
// Layer::infer is the thread-safe forward the serving tier runs against
// shared model weights; its contract is bit-identical outputs to forward()
// (eval mode for BatchNorm). Exercised across all three model families so
// every layer type's infer override is covered.

TEST(InferPath, CnnMatchesEvalForwardBitExactly) {
  Rng rng(31);
  CnnSpec spec;
  auto model = make_cnn_classifier(spec, rng);
  set_training_mode(*model, false);  // BatchNorm running stats, like infer
  const std::size_t features = spec.in_channels * spec.height * spec.width;
  const Matrix x = tensor::random_uniform(3, features, rng, -1.0, 1.0);

  const Matrix want = model->forward(x);
  const nn::Sequential& frozen = *model;  // infer is const — usable via const ref
  EXPECT_EQ(frozen.infer(x), want);
}

TEST(InferPath, TransformerMatchesForwardBitExactly) {
  Rng rng(32);
  TransformerSpec spec;
  auto model = make_transformer_classifier(spec, rng);
  Matrix ids(1, spec.seq_len);
  for (std::size_t p = 0; p < spec.seq_len; ++p)
    ids(0, p) = static_cast<double>((p * 7) % spec.vocab);

  const Matrix want = model->forward(ids);
  EXPECT_EQ(std::as_const(*model).infer(ids), want);
}

TEST(InferPath, GcnMatchesForwardBitExactly) {
  Rng rng(33);
  const std::size_t nodes = 12;
  const auto adj = normalized_adjacency(
      nodes, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {6, 7}, {8, 9}, {10, 11}});
  GcnSpec spec;
  auto model = make_gcn_classifier(adj, spec, rng);
  const Matrix x = tensor::random_uniform(nodes, spec.features, rng, -1.0, 1.0);

  const Matrix want = model->forward(x);
  EXPECT_EQ(std::as_const(*model).infer(x), want);
}

TEST(InferPath, PackedWeightCacheInvalidatedByOptimizerStep) {
  // infer() caches the packed weights; an optimizer step bumps the weight
  // Param's version, so the next infer must re-pack and see the new values
  // (still bit-identical to the unfused training forward on them).
  Rng rng(44);
  Linear lin(6, 5, rng);
  const Matrix x = tensor::random_uniform(3, 6, rng, -1.0, 1.0);

  const Matrix before = lin.infer(x);  // builds the packed cache
  EXPECT_EQ(before, lin.forward(x));

  // One SGD step with a non-zero gradient rewrites the weights.
  lin.forward(x);
  lin.backward(tensor::random_uniform(3, 5, rng, -1.0, 1.0));
  train::Sgd sgd(lin.params(), /*lr=*/0.1);
  sgd.step();

  const Matrix after = lin.infer(x);
  EXPECT_NE(after, before);             // stale cache would reproduce `before`
  EXPECT_EQ(after, lin.forward(x));     // fresh pack matches the raw weights

  // Direct value assignment bypasses the version bump; the documented
  // escape hatch is invalidate_packed().
  lin.weight().value = tensor::random_uniform(6, 5, rng, -1.0, 1.0);
  lin.invalidate_packed();
  EXPECT_EQ(lin.infer(x), lin.forward(x));
}

TEST(InferPath, SequentialFusesLinearActivationPairsBitExactly) {
  // Sequential::infer runs Linear+ReLU (and Linear+table-activation) pairs
  // through the fused GEMM epilogue; the per-layer training forward is the
  // unfused reference, and both must agree bit for bit.
  Rng rng(45);
  Sequential model;
  model.add(std::make_unique<Linear>(7, 11, rng));
  model.add(make_relu());
  model.add(std::make_unique<Linear>(11, 9, rng));
  model.add(make_gelu());  // exact gelu: NOT fusable, runs as its own layer
  model.add(std::make_unique<Linear>(9, 4, rng));

  const Matrix x = tensor::random_uniform(5, 7, rng, -2.0, 2.0);
  EXPECT_EQ(std::as_const(model).infer(x), model.forward(x));

  // Table mode makes the gelu fusable through the kBiasTable epilogue.
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  dynamic_cast<Activation&>(model.at(3)).use_table(&table);
  EXPECT_EQ(std::as_const(model).infer(x), model.forward(x));
}

TEST(InferPath, ConvAndAttentionServeFromPrepackedWeights) {
  // Conv2d's im2col GEMM and the four attention projections route through
  // cached PackedB like Linear: prepack() builds every pack, after which
  // infer() packs NOTHING — the registry pre-pack covers every matmul a
  // served model executes.
  if (!tensor::kernels::pack_counter_enabled()) {
    GTEST_SKIP() << "pack counter compiled out (NDEBUG build)";
  }
  Rng rng(46);
  tensor::ConvShape shape;
  shape.in_channels = 2;
  shape.in_height = 6;
  shape.in_width = 6;
  Conv2d conv(shape, 3, rng);
  MultiHeadSelfAttention attention(8, 2, rng);

  conv.prepack();
  attention.prepack();
  tensor::kernels::reset_pack_panel_count();
  const Matrix image = tensor::random_uniform(2, shape.in_channels * 36, rng, -1.0, 1.0);
  const Matrix seq = tensor::random_uniform(4, 8, rng, -1.0, 1.0);
  const Matrix conv_served = conv.infer(image);
  const Matrix attn_served = attention.infer(seq);
  EXPECT_EQ(tensor::kernels::pack_panel_count(), 0u);  // zero request-path packs

  // The packed path must not move a bit vs the raw-weight training forward.
  EXPECT_EQ(conv_served, conv.forward(image));
  EXPECT_EQ(attn_served, attention.forward(seq));

  // An optimizer step bumps the Param versions, so the next infer re-packs
  // and sees the new values (stale packs would reproduce the old logits).
  conv.backward(tensor::random_uniform(2, conv.out_features(), rng, -1.0, 1.0));
  attention.backward(tensor::random_uniform(4, 8, rng, -1.0, 1.0));
  std::vector<Param*> params = conv.params();
  const std::vector<Param*> attn_params = attention.params();
  params.insert(params.end(), attn_params.begin(), attn_params.end());
  train::Sgd sgd(params, /*lr=*/0.1);
  sgd.step();
  EXPECT_EQ(conv.infer(image), conv.forward(image));
  EXPECT_EQ(attention.infer(seq), attention.forward(seq));
}

TEST(InferPath, InferNeverTouchesTrainingState) {
  // Running infer between forward and backward must not disturb the cached
  // activations: gradients match a run without the interleaved infer.
  Rng rng(34);
  Linear a(5, 4, rng);
  Linear b(5, 4, rng);
  // Same weights for both instances.
  b.weight().value = a.weight().value;
  b.bias().value = a.bias().value;

  const Matrix x = tensor::random_uniform(3, 5, rng, -1.0, 1.0);
  const Matrix grad = tensor::random_uniform(3, 4, rng, -1.0, 1.0);

  a.forward(x);
  a.backward(grad);

  b.forward(x);
  b.infer(tensor::random_uniform(6, 5, rng, -1.0, 1.0));  // interleaved inference
  b.backward(grad);

  EXPECT_EQ(a.weight().grad, b.weight().grad);
  EXPECT_EQ(a.bias().grad, b.bias().grad);
}

}  // namespace
}  // namespace onesa::nn
