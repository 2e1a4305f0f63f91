#include "nn/workload.hpp"

#include <algorithm>
#include <cstdint>

#include "common/error.hpp"

namespace onesa::nn {

double TraceOp::ops() const {
  switch (kind) {
    case Kind::kGemm:
      return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
             static_cast<double>(n);
    case Kind::kSoftmax:
      return 5.0 * static_cast<double>(elements());  // max, sub, exp, sum, div
    case Kind::kLayerNorm:
      return 6.0 * static_cast<double>(elements());
    case Kind::kBatchNorm:
      return 4.0 * static_cast<double>(elements());
    case Kind::kGelu:
      return 2.0 * static_cast<double>(elements());
    case Kind::kRelu:
    case Kind::kAdd:
    case Kind::kMultiply:
    case Kind::kMaxPool:
      return static_cast<double>(elements());
  }
  throw Error("unknown TraceOp kind");
}

double WorkloadTrace::total_ops() const {
  double total = 0.0;
  for (const auto& op : ops) total += op.ops();
  return total;
}

OpCensus WorkloadTrace::census() const {
  OpCensus census;
  for (const auto& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kGemm: census.gemm += op.ops(); break;
      case TraceOp::Kind::kSoftmax: census.softmax += op.ops(); break;
      case TraceOp::Kind::kLayerNorm: census.layernorm += op.ops(); break;
      case TraceOp::Kind::kBatchNorm: census.batchnorm += op.ops(); break;
      case TraceOp::Kind::kRelu: census.relu += op.ops(); break;
      case TraceOp::Kind::kGelu: census.gelu += op.ops(); break;
      case TraceOp::Kind::kAdd: census.add += op.ops(); break;
      case TraceOp::Kind::kMultiply: census.multiply += op.ops(); break;
      case TraceOp::Kind::kMaxPool: census.relu += op.ops(); break;
    }
  }
  return census;
}

namespace {

using Kind = TraceOp::Kind;

/// Append a conv layer as im2col GEMM + BatchNorm + optional ReLU.
void add_conv(WorkloadTrace& t, std::size_t in_c, std::size_t out_c, std::size_t out_hw,
              std::size_t kernel, bool relu) {
  const std::size_t pixels = out_hw * out_hw;
  t.ops.push_back({Kind::kGemm, pixels, in_c * kernel * kernel, out_c});
  t.ops.push_back({Kind::kBatchNorm, pixels, 0, out_c});
  if (relu) t.ops.push_back({Kind::kRelu, pixels, 0, out_c});
}

/// One ResNet bottleneck: 1x1 reduce, 3x3, 1x1 expand, residual add + ReLU.
void add_bottleneck(WorkloadTrace& t, std::size_t in_c, std::size_t mid_c,
                    std::size_t out_c, std::size_t out_hw, bool downsample) {
  add_conv(t, in_c, mid_c, out_hw, 1, true);
  add_conv(t, mid_c, mid_c, out_hw, 3, true);
  add_conv(t, mid_c, out_c, out_hw, 1, false);
  if (downsample) add_conv(t, in_c, out_c, out_hw, 1, false);  // projection skip
  t.ops.push_back({Kind::kAdd, out_hw * out_hw, 0, out_c});
  t.ops.push_back({Kind::kRelu, out_hw * out_hw, 0, out_c});
}

}  // namespace

WorkloadTrace resnet50_trace(std::size_t image) {
  ONESA_CHECK(image % 32 == 0, "ResNet-50 input must be divisible by 32");
  WorkloadTrace t;
  t.name = "ResNet-50/" + std::to_string(image);
  const std::size_t s = image / 32;  // spatial scale unit: 7 at 224

  // Stem: 7x7/2 conv to 64 channels, BN, ReLU, 3x3/2 maxpool.
  add_conv(t, 3, 64, 16 * s, 7, true);
  t.ops.push_back({Kind::kMaxPool, 8 * s * 8 * s * 64, 0, 9});

  // Stage 2: 3 bottlenecks at 56x56-equivalent (8s), 64/64/256.
  add_bottleneck(t, 64, 64, 256, 8 * s, true);
  add_bottleneck(t, 256, 64, 256, 8 * s, false);
  add_bottleneck(t, 256, 64, 256, 8 * s, false);
  // Stage 3: 4 bottlenecks at 4s, 128/512.
  add_bottleneck(t, 256, 128, 512, 4 * s, true);
  for (int i = 0; i < 3; ++i) add_bottleneck(t, 512, 128, 512, 4 * s, false);
  // Stage 4: 6 bottlenecks at 2s, 256/1024.
  add_bottleneck(t, 512, 256, 1024, 2 * s, true);
  for (int i = 0; i < 5; ++i) add_bottleneck(t, 1024, 256, 1024, 2 * s, false);
  // Stage 5: 3 bottlenecks at s, 512/2048.
  add_bottleneck(t, 1024, 512, 2048, s, true);
  for (int i = 0; i < 2; ++i) add_bottleneck(t, 2048, 512, 2048, s, false);

  // Head: global average pool + fc + softmax.
  t.ops.push_back({Kind::kAdd, s * s, 0, 2048});  // pooling accumulation
  t.ops.push_back({Kind::kGemm, 1, 2048, 1000});
  t.ops.push_back({Kind::kSoftmax, 1, 0, 1000});
  return t;
}

WorkloadTrace bert_base_trace(std::size_t seq) {
  WorkloadTrace t;
  t.name = "BERT-base/seq" + std::to_string(seq);
  constexpr std::size_t d = 768;
  constexpr std::size_t ffn = 3072;
  constexpr std::size_t heads = 12;
  constexpr std::size_t layers = 12;

  for (std::size_t layer = 0; layer < layers; ++layer) {
    // Q, K, V projections.
    for (int i = 0; i < 3; ++i) t.ops.push_back({Kind::kGemm, seq, d, d});
    // Attention scores and context, summed across heads (d_head*heads = d).
    t.ops.push_back({Kind::kGemm, seq, d, seq});       // Q K^T
    t.ops.push_back({Kind::kMultiply, seq * heads, 0, seq});  // 1/sqrt(dk)
    t.ops.push_back({Kind::kSoftmax, seq * heads, 0, seq});
    t.ops.push_back({Kind::kGemm, seq, seq, d});       // A V
    t.ops.push_back({Kind::kGemm, seq, d, d});         // output projection
    t.ops.push_back({Kind::kAdd, seq, 0, d});          // residual
    t.ops.push_back({Kind::kLayerNorm, seq, 0, d});
    // FFN.
    t.ops.push_back({Kind::kGemm, seq, d, ffn});
    t.ops.push_back({Kind::kGelu, seq, 0, ffn});
    t.ops.push_back({Kind::kGemm, seq, ffn, d});
    t.ops.push_back({Kind::kAdd, seq, 0, d});
    t.ops.push_back({Kind::kLayerNorm, seq, 0, d});
  }
  // Pooler + classifier head.
  t.ops.push_back({Kind::kGemm, 1, d, d});
  t.ops.push_back({Kind::kGemm, 1, d, 2});
  t.ops.push_back({Kind::kSoftmax, 1, 0, 2});
  return t;
}

WorkloadTrace gcn_trace(std::size_t nodes, std::size_t features, std::size_t hidden,
                        std::size_t classes, std::size_t avg_degree) {
  WorkloadTrace t;
  t.name = "GCN/" + std::to_string(nodes) + "n";
  // Layer 1: X W (dense GEMM), then A_hat (X W) as gathered accumulation —
  // nnz = nodes * avg_degree multiply-adds per output feature, charged as a
  // GEMM of equivalent MAC count (m = nodes, k = avg_degree, n = hidden).
  t.ops.push_back({Kind::kGemm, nodes, features, hidden});
  t.ops.push_back({Kind::kGemm, nodes, avg_degree, hidden});
  t.ops.push_back({Kind::kAdd, nodes, 0, hidden});  // bias
  t.ops.push_back({Kind::kRelu, nodes, 0, hidden});
  // Layer 2.
  t.ops.push_back({Kind::kGemm, nodes, hidden, classes});
  t.ops.push_back({Kind::kGemm, nodes, avg_degree, classes});
  t.ops.push_back({Kind::kAdd, nodes, 0, classes});
  t.ops.push_back({Kind::kSoftmax, nodes, 0, classes});
  return t;
}

OpCensus cpu_time_census(const WorkloadTrace& trace) {
  // CPU cycle costs. GEMM: 8 ops/cycle (256-bit FMA on INT16/FP32, well
  // blocked). Element-wise ops: cycles per element, dominated by libm calls
  // (exp ~40, erf ~40) and memory-bound normalization passes. These
  // constants reproduce the measured shares of the paper's Fig. 1.
  constexpr double kGemmOpsPerCycle = 8.0;
  constexpr double kBatchNormCyclesPerElem = 28.0;
  constexpr double kLayerNormCyclesPerElem = 43.0;
  constexpr double kSoftmaxCyclesPerElem = 70.0;
  constexpr double kGeluCyclesPerElem = 45.0;
  constexpr double kReluCyclesPerElem = 6.0;
  constexpr double kEltwiseCyclesPerElem = 3.0;

  OpCensus census;
  for (const auto& op : trace.ops) {
    const auto elems = static_cast<double>(op.elements());
    switch (op.kind) {
      case TraceOp::Kind::kGemm: census.gemm += op.ops() / kGemmOpsPerCycle; break;
      case TraceOp::Kind::kSoftmax: census.softmax += elems * kSoftmaxCyclesPerElem; break;
      case TraceOp::Kind::kLayerNorm:
        census.layernorm += elems * kLayerNormCyclesPerElem;
        break;
      case TraceOp::Kind::kBatchNorm:
        census.batchnorm += elems * kBatchNormCyclesPerElem;
        break;
      case TraceOp::Kind::kRelu: census.relu += elems * kReluCyclesPerElem; break;
      case TraceOp::Kind::kGelu: census.gelu += elems * kGeluCyclesPerElem; break;
      case TraceOp::Kind::kAdd: census.add += elems * kEltwiseCyclesPerElem; break;
      case TraceOp::Kind::kMultiply:
        census.multiply += elems * kEltwiseCyclesPerElem;
        break;
      case TraceOp::Kind::kMaxPool: census.relu += elems * kEltwiseCyclesPerElem; break;
    }
  }
  return census;
}

sim::CycleStats estimate_op_cycles(const TraceOp& op, const sim::TimingModel& timing) {
  sim::CycleStats total;
  {
    const std::size_t elems = op.elements();
    switch (op.kind) {
      case Kind::kGemm:
        total += timing.gemm_cycles({op.m, op.k, op.n});
        break;
      case Kind::kSoftmax:
        // Decomposition: streaming max + subtract MHP + CPWL exp +
        // row-sum GEMM + CPWL reciprocal + multiply MHP — exactly
        // OneSaAccelerator::softmax_rows (equality is unit-tested).
        total += timing.reduction_cycles(elems);            // row maxima
        total += timing.param_mhp_cycles(elems);            // subtract
        total += timing.nonlinear_cycles(elems);            // exp
        total += timing.gemm_cycles({op.m, op.n, 1});       // row sums
        total += timing.nonlinear_cycles(op.m);             // reciprocal
        total += timing.param_mhp_cycles(elems);            // multiply
        break;
      case Kind::kLayerNorm:
        // mean GEMM + center MHP + square MHP + var GEMM + eps MHP +
        // CPWL rsqrt + normalize MHP + affine MHP — exactly
        // OneSaAccelerator::layernorm_rows.
        total += timing.gemm_cycles({op.m, op.n, 1});
        total += timing.param_mhp_cycles(elems);
        total += timing.param_mhp_cycles(elems);
        total += timing.gemm_cycles({op.m, op.n, 1});
        total += timing.param_mhp_cycles(op.m);
        total += timing.nonlinear_cycles(op.m);
        total += timing.param_mhp_cycles(elems);
        total += timing.param_mhp_cycles(elems);
        break;
      case Kind::kBatchNorm:
        // CPWL rsqrt over the per-channel variances (op.n channels), then
        // the folded per-channel affine as one parameterized MHP — exactly
        // BatchNorm2d::forward_accel.
        total += timing.nonlinear_cycles(op.n);
        total += timing.param_mhp_cycles(elems);
        break;
      case Kind::kAdd:
      case Kind::kMultiply:
        total += timing.param_mhp_cycles(elems);  // one parameterized MHP pass
        break;
      case Kind::kRelu:
      case Kind::kGelu:
        total += timing.nonlinear_cycles(elems);  // IPF + MHP
        break;
      case Kind::kMaxPool:
        // Streaming comparator pass in the L3 output path.
        total += timing.reduction_cycles(elems);
        break;
    }
  }
  return total;
}

std::uint64_t op_mac_ops(const TraceOp& op) {
  const auto e = static_cast<std::uint64_t>(op.elements());
  const auto m = static_cast<std::uint64_t>(op.m);
  switch (op.kind) {
    case Kind::kGemm:
      return static_cast<std::uint64_t>(op.m) * op.k * op.n;
    case Kind::kSoftmax:
      // subtract MHP + exp MHP + row-sum GEMM (m*n*1) + reciprocal MHP over
      // the m sums + multiply MHP — the softmax_rows decomposition.
      return 2 * e + 2 * e + e + 2 * m + 2 * e;
    case Kind::kLayerNorm:
      // mean GEMM + center MHP + square MHP + var GEMM + eps MHP + rsqrt MHP
      // (both over the m per-row scalars) + normalize MHP + affine MHP.
      return e + 2 * e + 2 * e + e + 2 * m + 2 * m + 2 * e + 2 * e;
    case Kind::kBatchNorm:
      // rsqrt over the n per-channel variances + the folded affine MHP.
      return 2 * static_cast<std::uint64_t>(op.n) + 2 * e;
    case Kind::kRelu:
    case Kind::kGelu:
    case Kind::kAdd:
    case Kind::kMultiply:
      return 2 * e;  // one MHP pass, 2 MACs per element
    case Kind::kMaxPool:
      return 0;  // streaming comparator, no MACs
  }
  throw Error("unknown TraceOp kind");
}

std::uint64_t trace_mac_ops(const WorkloadTrace& trace) {
  std::uint64_t total = 0;
  for (const auto& op : trace.ops) total += op_mac_ops(op);
  return total;
}

sim::CycleStats estimate_trace_cycles(const WorkloadTrace& trace,
                                      const sim::TimingModel& timing) {
  sim::CycleStats total;
  for (const auto& op : trace.ops) total += estimate_op_cycles(op, timing);
  return total;
}

TraceEstimate estimate_trace(const WorkloadTrace& trace,
                             const sim::TimingModel& timing) {
  TraceEstimate e;
  e.cycles = estimate_trace_cycles(trace, timing);
  const double secs = timing.seconds(e.cycles);
  e.latency_ms = secs * 1e3;
  // GOPS in the MAC convention (one multiply+add pair = one operation).
  e.gops = trace.total_ops() / 2.0 / secs / 1e9;
  return e;
}

ListSchedule list_schedule(const WorkloadTrace& trace, std::size_t requests,
                           std::size_t arrays, const sim::TimingModel& timing) {
  ONESA_CHECK(arrays > 0, "list_schedule needs at least one array");
  const std::uint64_t per_request = estimate_trace_cycles(trace, timing).total();
  ListSchedule schedule;
  schedule.busy_cycles.assign(arrays, 0);
  for (std::size_t r = 0; r < requests; ++r) {
    *std::min_element(schedule.busy_cycles.begin(), schedule.busy_cycles.end()) +=
        per_request;
  }
  schedule.makespan_cycles =
      *std::max_element(schedule.busy_cycles.begin(), schedule.busy_cycles.end());
  return schedule;
}

}  // namespace onesa::nn
