// Paper-scale workload traces.
//
// Table IV and Fig. 1 refer to the full-size networks (ResNet-50 on
// 224x224 images, BERT-base at sequence length 128, a large GCN). Running
// those with real weights is unnecessary for latency/efficiency/breakdown
// analysis — only the *shapes* matter. A WorkloadTrace is the exact sequence
// of GEMM shapes and nonlinear-op element counts one inference performs;
// the trace estimator maps each op onto the ONE-SA cycle model using the
// same decompositions the accelerator façade executes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "sim/timing.hpp"

namespace onesa::nn {

/// One operation of an inference trace.
struct TraceOp {
  enum class Kind {
    kGemm,       // m x k x n matrix multiply
    kSoftmax,    // row softmax over an m x n matrix
    kLayerNorm,  // row layernorm over an m x n matrix
    kBatchNorm,  // folded per-channel affine over m x n elements
    kRelu,       // element-wise, m x n
    kGelu,       // element-wise, m x n
    kAdd,        // residual/bias element-wise add, m x n
    kMultiply,   // element-wise scale, m x n
    kMaxPool,    // pooling reduction over m x n window-rows
  };

  Kind kind = Kind::kGemm;
  std::size_t m = 0;
  std::size_t k = 0;  // GEMM inner dim (unused for element-wise ops)
  std::size_t n = 0;

  std::size_t elements() const { return m * n; }
  /// Scalar operations this op contributes (Fig. 1 accounting).
  double ops() const;
};

struct WorkloadTrace {
  std::string name;
  std::vector<TraceOp> ops;

  /// Total scalar operations (the paper's GOPS denominator counts one
  /// multiply+add pair as one operation; we report both conventions).
  double total_ops() const;
  /// Fig. 1 census by category.
  OpCensus census() const;
};

/// ResNet-50 inference, one image of `image` x `image` pixels (224 for the
/// Table IV rows, 32 for the Fig. 1 CIFAR-10 breakdown).
WorkloadTrace resnet50_trace(std::size_t image = 224);

/// BERT-base inference (12 layers, d=768, 12 heads, FFN 3072) at `seq`.
WorkloadTrace bert_base_trace(std::size_t seq = 128);

/// Two-layer GCN inference over a graph with `nodes` nodes of `features`
/// features, `hidden` hidden units, `classes` classes and average degree
/// `avg_degree` (the sparse aggregation is charged as gathered GEMM work).
WorkloadTrace gcn_trace(std::size_t nodes = 16384, std::size_t features = 602,
                        std::size_t hidden = 128, std::size_t classes = 41,
                        std::size_t avg_degree = 50);

/// Fig. 1 view: share of *general-purpose execution time* per category.
/// GEMM runs at ~8 ops/cycle (SIMD FMA, compute-bound); element-wise
/// nonlinear ops cost tens of cycles per element (libm exp/erf calls,
/// memory-bound normalization). The per-category constants are documented
/// in workload.cpp and reproduce the paper's pie shares: ResNet/CIFAR GEMM
/// ~72% with BatchNorm ~21%, BERT GEMM ~82% with GELU ~6%.
OpCensus cpu_time_census(const WorkloadTrace& trace);

/// Map one trace op onto the ONE-SA cycle model, expanding softmax/layernorm
/// into the same GEMM + MHP + CPWL sub-ops the accelerator executes.
sim::CycleStats estimate_op_cycles(const TraceOp& op, const sim::TimingModel& timing);

/// MAC operations one trace op charges, mirroring OneSaAccelerator's
/// lifetime accounting for the same decomposition (GEMM: m*k*n; each MHP
/// pass: 2 MACs per element) — the dynamic-power input of a trace.
std::uint64_t op_mac_ops(const TraceOp& op);

/// Sum of op_mac_ops over the trace.
std::uint64_t trace_mac_ops(const WorkloadTrace& trace);

/// Map the trace onto the ONE-SA cycle model (sum of estimate_op_cycles).
sim::CycleStats estimate_trace_cycles(const WorkloadTrace& trace,
                                      const sim::TimingModel& timing);

/// End-to-end latency (ms) and achieved throughput (GOPS, MAC convention:
/// one multiply+add = one op) of the trace on a configuration.
struct TraceEstimate {
  double latency_ms = 0.0;
  double gops = 0.0;
  sim::CycleStats cycles;
};
TraceEstimate estimate_trace(const WorkloadTrace& trace, const sim::TimingModel& timing);

/// `requests` identical inferences of one trace over `arrays` modelled
/// ONE-SA arrays of one configuration, list-scheduled (Graham, "Bounds on
/// Multiprocessing Timing Anomalies", 1969): each request in turn goes to
/// the array that frees up first, the lowest index on a tie. Every request
/// costs estimate_trace_cycles, so the arrays' busy totals differ by at
/// most one request and the makespan is ceil(requests / arrays) of them.
/// Throughput is requests / (makespan_cycles / (clock_mhz * 1e6)).
struct ListSchedule {
  std::vector<std::uint64_t> busy_cycles;  // per array
  std::uint64_t makespan_cycles = 0;       // the largest busy total
};
ListSchedule list_schedule(const WorkloadTrace& trace, std::size_t requests,
                           std::size_t arrays, const sim::TimingModel& timing);

}  // namespace onesa::nn
