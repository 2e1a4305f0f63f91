// Multi-threaded batching inference runtime over a pool of simulated
// ONE-SA accelerator instances, serving nn::Sequential inference from a
// model registry. Whole-network cost models are registry entries too: a
// one-layer model registered with a ModelOptions::cost_trace is charged the
// trace's simulated cycles per request (see registry.hpp).
//
// Architecture (one shared queue, N workers):
//
//   submit*() ───> RequestQueue ──> worker 0 ── OneSaAccelerator #0
//   ModelRegistry  (admission     ─> worker 1 ── OneSaAccelerator #1
//   (shared        control, EDF  ──> ...
//    weights)      scheduling,
//                  least-loaded
//                  dispatch, batching)
//
// Real-model requests run nn::Sequential::infer on the worker thread through
// the kernel layer (tensor/kernels). The pool reserves its worker count in
// the kernels' shared ThreadPool for its lifetime, so worker-side GEMMs
// shrink their fan-out instead of oversubscribing the machine
// (N workers x M GEMM threads — see ThreadPool::reserve).
//
// Each worker thread owns its own accelerator instance (analytic or
// cycle-accurate — the config is replicated), pulls batches packed by the
// DynamicBatcher, executes them, fulfils the per-request futures and records
// latency into its own ServeStats. The CPWL TableSet is built once and
// shared read-only across every instance. Aggregate views merge the
// per-worker state: stats() for the traffic metrics, fleet_lifetime() for
// the power model's fleet-wide cycle/MAC totals, makespan_cycles() for the
// simulated wall time of the fleet (max per-worker busy cycles — N workers
// model N arrays running in parallel).
//
// BOUNDED SHUTDOWN (ServerPoolConfig::join_timeout_ms): shutdown() waits at
// most this long for the workers to drain; a worker still inside a batch
// after that (a model that hangs) is loudly detached
// (serve_forced_detaches_total + error log) instead of hanging the
// destructor forever. A detached worker stays memory-safe because every
// worker thread holds a shared_ptr to the pool's Core (queue, batcher,
// workers): the Core outlives the pool object until the last detached
// worker finishes its batch, fulfils its futures, and exits.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "onesa/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace onesa::serve {

struct ServerPoolConfig {
  std::size_t workers = 4;
  /// Replicated to every worker's accelerator instance.
  OneSaConfig accelerator;
  BatcherConfig batcher;
  /// Backlog bounds (default: unlimited). Standalone pools set it; a fleet
  /// forces it to {} because its admission sees the fleet-wide backlog.
  AdmissionConfig admission;
  /// Shard id stamped into every result/record this pool serves (set by the
  /// fleet; 0 for a standalone pool).
  std::size_t shard = 0;
  /// Bound on how long shutdown() waits for the workers to drain before
  /// forcibly detaching stragglers. Generous by default — a legitimate
  /// backlog drain must never be cut short — but finite, so a hung worker
  /// can never hang the destructor forever. <= 0 waits forever.
  double join_timeout_ms = 30000.0;
};

class ServerPool {
 public:
  /// `registry` shares a model registry across pools (the fleet passes one
  /// so weights pack once per fleet, not once per pool); nullptr gives the
  /// pool its own. `tables` likewise shares one immutable CPWL table set
  /// across pools; nullptr builds one for this pool.
  explicit ServerPool(ServerPoolConfig config,
                      std::shared_ptr<ModelRegistry> registry = nullptr,
                      std::shared_ptr<const cpwl::TableSet> tables = nullptr);
  ~ServerPool();

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  // ----------------------------------------------------------------- models

  /// Register a model with the pool's registry (one immutable weight copy,
  /// shared by every worker and request). Returns the frozen handle, whose
  /// ->version is the version id (1 for a first registration).
  ModelHandle register_model(std::string name, std::unique_ptr<nn::Sequential> model,
                             ModelOptions options = {});

  /// Hot-swap `name` to a new version (see ModelRegistry::swap): the new
  /// weights are pre-packed before the atomic publish, in-flight batches
  /// finish on the version they pinned, and new submissions by name pick up
  /// the new handle. Returns the new handle.
  ModelHandle swap_model(const std::string& name, std::unique_ptr<nn::Sequential> model);

  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }

  /// The pool's immutable CPWL table set (shared across its workers; a fleet
  /// shares it across every shard).
  const std::shared_ptr<const cpwl::TableSet>& shared_tables() const { return tables_; }

  /// Reserve this pool's worker count in the kernels' shared ThreadPool (so
  /// worker-side GEMM fan-out never oversubscribes). Idempotent; normally
  /// triggered by the first model registration — the fleet calls it
  /// directly because registration happens on the shared registry.
  void ensure_kernel_reservation();

  // ------------------------------------------------------------- submission
  //
  // Every submit path takes SubmitOptions (priority class + deadline). When
  // admission control sheds a request, the returned future fails with
  // OverloadError instead of delivering a result.

  /// nn::Sequential inference by registered name / handle: the batched
  /// forward runs on a worker thread through the kernel layer, and the
  /// result's logits are bit-identical to the model's direct forward.
  std::future<ServeResult> submit_model(const std::string& name, tensor::Matrix input,
                                        SubmitOptions options = {});
  std::future<ServeResult> submit_model(ModelHandle model, tensor::Matrix input,
                                        SubmitOptions options = {});
  /// Submit a request built elsewhere (serve::make_model_request).
  std::future<ServeResult> submit(TaggedRequest req);

  /// Workers forcibly detached by a bounded shutdown.
  std::uint64_t forced_detaches() const { return forced_detaches_; }

  // --------------------------------------------------------------- lifecycle

  /// Stop accepting requests, serve everything already queued, join the
  /// workers (bounded by join_timeout_ms — see header). Every accepted
  /// future is ready afterwards, or will become ready shortly after a
  /// forced detach. Idempotent; also run by the destructor.
  void shutdown();

  std::size_t workers() const { return core_->workers.size(); }
  std::size_t pending() const { return core_->queue.pending(); }
  /// Backlog's summed estimated cost (MACs) — the admission-control input.
  std::uint64_t backlog_cost() const { return core_->queue.backlog_cost(); }
  /// Backlog cost PLUS the estimated cost of batches currently executing on
  /// the workers — the fleet router's least-outstanding-cost signal.
  std::uint64_t outstanding_cost() const;
  const ServerPoolConfig& config() const { return core_->config; }

  // -------------------------------------------------------------- aggregate

  /// Fleet-wide traffic statistics (merged snapshot of every worker, plus
  /// the queue's admission-control shed counter).
  ServeStats stats() const;
  /// Requests shed by admission control so far.
  std::uint64_t sheds() const { return core_->queue.sheds(); }
  /// Fleet-wide accelerator lifetime counters for the power model.
  LifetimeTotals fleet_lifetime() const;
  /// Simulated cycles until the last worker finishes its recorded work —
  /// the fleet's makespan, since the N modeled arrays run in parallel.
  std::uint64_t makespan_cycles() const;
  /// Per-worker busy cycles (load-balance visibility).
  std::vector<std::uint64_t> worker_busy_cycles() const;
  /// Summed operator-new count of every worker thread, as last published
  /// (after each completed batch). The allocation bench samples this before
  /// and after a measurement window: on a warmed pool the delta is 0 —
  /// every staging buffer, result matrix, and latency sample comes from the
  /// recycling pools. Counts are live only in binaries linking the
  /// alloccount counting allocator (the bench does); elsewhere reads 0.
  std::uint64_t worker_heap_allocations() const;
  /// Per-worker cumulative estimated cost the dispatcher has assigned (the
  /// quantity least-loaded dispatch levels; MAC units).
  std::vector<std::uint64_t> assigned_cost() const { return core_->queue.assigned_cost(); }

 private:
  struct Worker {
    std::unique_ptr<OneSaAccelerator> accel;
    ServeStats stats;
    std::uint64_t busy_cycles = 0;
    std::thread thread;
    mutable std::mutex mutex;  // guards stats/busy_cycles/accel counters
    /// Estimated cost of the batch this worker is executing right now
    /// (0 when idle). Atomic so the fleet router can read outstanding cost
    /// without serializing behind a batch execution.
    std::atomic<std::uint64_t> inflight_cost{0};
    /// Heap allocations (operator new calls) made by this worker's thread
    /// so far, published after every batch — the allocation-regression
    /// bench reads the delta across a measurement window to prove the
    /// steady-state request path never touches the heap.
    std::atomic<std::uint64_t> heap_allocations{0};
    /// False once the worker thread has drained the queue and exited; a
    /// bounded shutdown polls it to decide between join and detach.
    std::atomic<bool> alive{true};
  };

  /// Everything a worker thread touches, held by shared_ptr so a forcibly
  /// detached worker can never use-after-free the pool (see header).
  struct Core {
    Core(ServerPoolConfig cfg);

    void worker_loop(std::size_t index);

    ServerPoolConfig config;
    DynamicBatcher batcher;
    RequestQueue queue;
    /// serve_shard_inflight_cost{shard="N"}: estimated cost currently
    /// executing on this pool's workers (delta-updated around each batch).
    obs::Gauge& inflight_gauge;
    std::vector<std::unique_ptr<Worker>> workers;
  };

  std::shared_ptr<Core> core_;
  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<const cpwl::TableSet> tables_;
  std::uint64_t forced_detaches_ = 0;
  bool shut_down_ = false;
  bool threads_reserved_ = false;  // kernel-pool reservation released once
  std::mutex shutdown_mutex_;
};

}  // namespace onesa::serve
