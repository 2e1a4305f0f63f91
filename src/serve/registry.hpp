// Model registry: named, VERSIONED nn::Sequential models served by the
// pool/fleet tier.
//
// Registering a model freezes it behind a shared immutable handle
// (std::shared_ptr<const ModelEntry>): ONE copy of the weights per registry
// — and a registry is shared across every shard of a serve::Fleet, so a
// fleet packs each weight matrix once, not once per pool — aliased
// read-only by every in-flight request. Registration also PRE-PACKS every
// layer's weights (Layer::prepack -> the PackedB caches of Linear, Conv2d
// and the attention projections; for a Precision::kInt16 entry only the
// quantized twin's PackedBInt16 panels, the ones it serves from), so worker
// threads serve from immutable packed GEMM panels with zero packing and
// zero pack-cache contention on the request path. A published version
// holds no gradients: registration drops every parameter's grad, since
// backward() can never run on the const model (a double FFN version then
// holds its weights and their panels, nothing else). Workers run inference
// through nn::Sequential::infer(), the const thread-safe forward path (with
// Linear+activation pairs fused into packed-GEMM epilogues), so concurrent
// batches against the same entry never race.
//
// VERSIONING / HOT-SWAP. Every entry carries a version id (1 for the first
// registration of a name, +1 per swap). swap() atomically publishes a new
// pre-packed entry under the same name: the new model is censused and
// packed BEFORE the registry lock is taken, then the name's handle slot is
// replaced under the lock. Requests resolve the name to a handle at submit
// time and pin that version for their lifetime — in-flight batches finish
// on the old weights (kept alive by their shared_ptr), new submissions see
// the new version, and the batcher's handle-identity compatibility rule
// guarantees a batch never mixes versions. No request ever observes torn
// weights.
//
// An entry also carries the serving metadata the scheduler needs:
//   batchable    — whether requests may stack rows into one infer() call.
//                  Opt-in (default false): safe only for rows-are-samples
//                  models like MLPs/CNNs; per-sequence models (transformer
//                  classifier, sequence pools) treat ALL input rows as one
//                  sequence and must stay non-batchable.
//   batch_window_ms — latency-aware batching window: how long a partially
//                  filled batch headed by a request for this model may wait
//                  for more riders before launching anyway (0 = launch
//                  immediately, the pre-window behaviour). Interactive-class
//                  requests always launch immediately regardless.
//   cost_trace   — optional WorkloadTrace used as the simulated cycle model
//                  of one request; without it the cycle charge falls back to
//                  streaming the model's MAC volume through the array's GEMM
//                  path. It is also how a whole-network workload trace
//                  (BERT/ResNet/GCN shapes, nn/workload.hpp) is served: a
//                  one-layer placeholder model registered with the trace as
//                  cost_trace and batchable = false is charged exactly
//                  nn::estimate_trace_cycles per request.
//   mac_ops_per_row — census-derived simulated cost estimate, feeding both
//                  least-loaded dispatch and admission control.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "nn/workload.hpp"

namespace onesa::obs {
class Counter;
}

namespace onesa::nn {
class QuantizedModel;
}

namespace onesa::serve {

/// Serving precision of a registered model version. kDouble runs
/// Sequential::infer (the double packed-GEMM lane); kInt16 runs the model
/// through an nn::QuantizedModel built at publication — per-layer symmetric
/// INT16 quantization onto the vectorized fixed-point GEMM
/// (tensor/kernels/gemm_int16.hpp), with activations staying INT16 between
/// layers and only the logits dequantized. Selecting kInt16 for a model the
/// lane cannot run entirely in INT16 (LayerNorm, attention, un-tabled
/// curved activations) fails at add/swap time, never on the request path.
enum class Precision : std::uint8_t { kDouble, kInt16 };

struct ModelOptions {
  /// May rows of different requests ride in one infer() call? Only safe for
  /// models where every layer treats rows as independent samples (MLPs,
  /// CNNs over rows-as-images). Deliberately opt-in: a row-COUPLING model
  /// (attention over feature rows, sequence pools) registered as batchable
  /// would mix one request's data into another's logits, which nothing can
  /// detect at execution time when the row count is preserved.
  bool batchable = false;
  /// Latency-aware batching window in milliseconds: a partially filled
  /// batch headed by a non-interactive request for this model waits up to
  /// this long (from the head's enqueue) for more compatible riders before
  /// launching. 0 launches immediately. Only meaningful with batchable.
  double batch_window_ms = 0.0;
  /// Optional per-request simulated cycle model (e.g. nn::bert_base_trace).
  std::shared_ptr<const nn::WorkloadTrace> cost_trace;
  /// Which lane serves this version (see Precision). Quantization and
  /// INT16 pre-packing happen at publication, off the request path, and the
  /// quantized rep rides the same atomic version swap as the double
  /// weights — hot-swap invariants carry over unchanged.
  Precision precision = Precision::kDouble;
  /// Explicit per-row MAC estimate; 0 derives it from the model's op census.
  /// The census counts a never-run model, so layers whose op counts depend
  /// on forward-set state (Activation features, sequence-pool length)
  /// contribute nothing — GEMM-bearing layers (Linear/Conv/GraphConv/
  /// attention) dominate real models and are counted statically, but for
  /// activation-only models set this (or attach a cost_trace) so admission
  /// control and least-loaded dispatch see a non-trivial cost.
  std::uint64_t mac_ops_per_row = 0;
};

/// One registered model VERSION. Immutable after publication; shared by
/// handle. A swap publishes a fresh entry — it never mutates this one.
struct ModelEntry {
  std::string name;
  /// 1 for the name's first registration, +1 per swap. A handle pins one
  /// version for the lifetime of every request holding it.
  std::uint64_t version = 1;
  std::shared_ptr<const nn::Sequential> model;
  /// INT16 serving twin, built at publication when precision == kInt16
  /// (nullptr on the double lane). Borrows CPWL table pointers from `model`,
  /// which this entry keeps alive.
  std::shared_ptr<const nn::QuantizedModel> quantized;
  Precision precision = Precision::kDouble;
  bool batchable = false;  // matches ModelOptions: batching is opt-in
  double batch_window_ms = 0.0;
  std::shared_ptr<const nn::WorkloadTrace> cost_trace;
  /// Simulated MACs of one input row (census-derived; >= 1).
  std::uint64_t mac_ops_per_row = 1;
  /// The explicit ModelOptions::mac_ops_per_row as given (0 = derived), so
  /// an option-preserving swap can re-derive or re-apply it faithfully.
  std::uint64_t mac_ops_override = 0;
  /// nn::trace_mac_ops(*cost_trace), cached at registration (0 = no trace).
  std::uint64_t cost_trace_macs = 0;

  /// Per-version request counter
  /// (serve_model_requests_total{model="name",version="N"}), resolved once
  /// at publication so the batcher increments it without a registry lookup.
  /// Registry metrics live forever, so the pointer never dangles.
  obs::Counter* requests_metric = nullptr;

  /// Thread-safe forward through the shared weights — the batcher's single
  /// route point. kInt16 entries run the quantized lane (input quantized,
  /// INT16 GEMMs with fused epilogues, logits dequantized per request);
  /// kDouble entries run Sequential::infer unchanged.
  tensor::Matrix infer(const tensor::Matrix& x) const;

  /// The ModelOptions this entry was published with (option-preserving swap).
  ModelOptions options() const;

  /// Per-request cycle estimate of cost_trace on `timing`, cached after the
  /// first call per array configuration (a pool replicates one config across
  /// its workers, so every batch after the first hits the cache instead of
  /// re-walking the trace under the worker lock). Must only be called when
  /// cost_trace is set.
  sim::CycleStats trace_cycles_for(const sim::TimingModel& timing) const;

 private:
  mutable std::mutex cost_cache_mutex_;
  mutable bool cost_cache_valid_ = false;
  mutable sim::ArrayConfig cost_cache_config_;
  mutable sim::CycleStats cost_cache_cycles_;
};

using ModelHandle = std::shared_ptr<const ModelEntry>;

class ModelRegistry {
 public:
  /// Register `model` under `name`, freezing it at version 1. Throws
  /// onesa::Error if the name is taken or the model is null. Returns the
  /// shared handle (its ->version is the version id).
  ModelHandle add(std::string name, std::unique_ptr<nn::Sequential> model,
                  ModelOptions options = {});

  /// Hot-swap: atomically publish `model` as the next version of `name`
  /// (census + pre-pack happen before publication; in-flight requests
  /// finish on the version they pinned at submit). Throws onesa::Error when
  /// the name is unknown or the model is null. The two-argument form keeps
  /// the current version's ModelOptions; the three-argument form replaces
  /// them. Swaps serialize against each other (the option-preserving form
  /// is a read-modify-write: without serialization a concurrent
  /// options-replacing swap could be clobbered with stale options); reads
  /// and submissions never block on a swap's census/pre-pack. Returns the
  /// new handle (->version = old version + 1).
  ModelHandle swap(const std::string& name, std::unique_ptr<nn::Sequential> model);
  ModelHandle swap(const std::string& name, std::unique_ptr<nn::Sequential> model,
                   ModelOptions options);

  /// Latest handle for `name`; throws onesa::Error when unknown.
  ModelHandle get(const std::string& name) const;
  /// Latest handle for `name`, or nullptr when unknown.
  ModelHandle find(const std::string& name) const;
  /// Current version id of `name`; throws onesa::Error when unknown.
  std::uint64_t version_of(const std::string& name) const { return get(name)->version; }

  std::vector<std::string> names() const;
  std::size_t size() const;

 private:
  /// Build + pre-pack an entry, then publish it under the lock. `replace`
  /// selects add (name must be free) vs swap (name must exist) semantics.
  ModelHandle publish(std::string name, std::unique_ptr<nn::Sequential> model,
                      ModelOptions options, bool replace);

  mutable std::mutex mutex_;
  /// Serializes whole swap operations (options read -> build -> publish).
  /// Always acquired before mutex_; never held while a reader waits.
  std::mutex swap_mutex_;
  std::map<std::string, ModelHandle> models_;
};

}  // namespace onesa::serve
