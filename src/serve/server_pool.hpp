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
// FAULT TOLERANCE. Every pool carries a FaultInjector (serve/faults.hpp —
// zero-cost until armed) whose draw sites sit in the worker loop: transient
// request errors and poisoned batches fail futures with typed errors before
// service; stalls sleep mid-service; crashes make the worker thread exit
// with its batch still recoverable. Recovery machinery:
//
//  - WATCHDOG (ServerPoolConfig::watchdog): a monitor thread samples
//    per-worker heartbeats. A dead worker (crashed thread) is joined, its
//    in-flight batch re-queued at the FRONT of the queue (original arrival
//    stamps kept), and a replacement thread spawned on the same worker slot
//    — counted in serve_worker_restarts_total. A worker that is busy but
//    silent past stall_timeout_ms is ABANDONED: an injected stall honours
//    the abandon flag by exiting like a crash (so the same recover+respawn
//    path runs); a genuinely hung computation cannot be interrupted and is
//    only counted (serve_worker_stalls_detected_total).
//
//  - BOUNDED SHUTDOWN (ServerPoolConfig::join_timeout_ms): shutdown() waits
//    at most this long for workers to drain; stragglers are loudly detached
//    (serve_forced_detaches_total + error log) instead of hanging the
//    destructor forever. Detached zombies stay memory-safe because every
//    worker thread holds a shared_ptr to the pool's Core (queue, batcher,
//    workers) — the Core outlives the pool object until the last zombie
//    finishes its batch, fulfils its futures, and exits. A hurry flag makes
//    abandoned zombies skip any remaining injected stall so their futures
//    complete promptly after the detach.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "onesa/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/faults.hpp"
#include "serve/registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"

namespace onesa::serve {

/// Worker-health monitoring knobs. Disabled by default: standalone pools in
/// unit tests should not spin a monitor thread unless asked; fleets enable
/// it via FleetConfig.
struct WatchdogConfig {
  bool enabled = false;
  /// Monitor sampling period.
  double check_interval_ms = 2.0;
  /// A busy worker silent for longer than this is declared stalled and
  /// abandoned (see header comment).
  double stall_timeout_ms = 200.0;
};

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
  /// Worker watchdog (crash respawn + stall detection).
  WatchdogConfig watchdog;
  /// Bound on how long shutdown() waits for the workers to drain before
  /// forcibly detaching stragglers. Generous by default — a legitimate
  /// backlog drain must never be cut short — but finite, so a stalled
  /// worker can never hang the destructor forever. <= 0 waits forever.
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

  // ----------------------------------------------------------------- faults

  /// This pool's fault injector (zero-cost until armed — see faults.hpp).
  FaultInjector& fault_injector() { return core_->faults; }
  const FaultInjector& fault_injector() const { return core_->faults; }

  /// Worker threads respawned by the watchdog after a crash/abandoned stall.
  std::uint64_t worker_restarts() const {
    return core_->restarts.load(std::memory_order_relaxed);
  }
  /// Stalled-worker detections (abandons) by the watchdog.
  std::uint64_t stalls_detected() const {
    return core_->stalls_detected.load(std::memory_order_relaxed);
  }
  /// Workers forcibly detached by a bounded shutdown.
  std::uint64_t forced_detaches() const { return forced_detaches_; }

  /// Shrink/restore the shard's batching windows (fleet brownout control).
  void set_window_scale(double scale) { core_->queue.set_window_scale(scale); }

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

    // ------------------------------------------------- health & recovery
    /// False once the worker thread has exited (drained queue or crash).
    std::atomic<bool> alive{true};
    /// True only while the thread is out of pop_batch with work in hand —
    /// the watchdog never flags an idle worker as stalled.
    std::atomic<bool> busy{false};
    /// Watchdog verdict: give up on this worker. An injected stall honours
    /// it by exiting like a crash (batch stays recoverable).
    std::atomic<bool> abandon{false};
    /// Last sign of life (trace_now_us-style steady microseconds).
    std::atomic<std::int64_t> heartbeat_us{0};
    /// The batch currently being served, stashed here from pop to
    /// completion so the watchdog can recover it from a dead worker.
    std::mutex inflight_mutex;
    std::vector<ServeRequest> inflight;
    /// Why the thread exited (watchdog respawns only crashes).
    enum class Exit { kRunning, kDrained, kCrashed };
    std::atomic<Exit> exit_reason{Exit::kRunning};
  };

  /// Everything a worker thread touches, held by shared_ptr so a forcibly
  /// detached zombie can never use-after-free the pool (see header).
  struct Core {
    Core(ServerPoolConfig cfg);

    void worker_loop(std::size_t index);
    /// Watchdog monitor loop (runs only when config.watchdog.enabled).
    void watchdog_loop();
    /// Join dead workers, recover + re-queue their in-flight batches, and
    /// (from the watchdog) respawn them. Returns batches that could not be
    /// re-queued to any live worker (shutdown with everyone dead).
    std::vector<ServeRequest> recover_dead_workers(bool respawn,
                                                   std::shared_ptr<Core> self);

    ServerPoolConfig config;
    DynamicBatcher batcher;
    RequestQueue queue;
    /// serve_shard_inflight_cost{shard="N"}: estimated cost currently
    /// executing on this pool's workers (delta-updated around each batch).
    obs::Gauge& inflight_gauge;
    FaultInjector faults;
    std::vector<std::unique_ptr<Worker>> workers;
    /// Set after a forced detach: zombies skip any remaining injected
    /// stall/slow-down so their futures complete promptly.
    std::atomic<bool> hurry{false};
    std::atomic<bool> watchdog_stop{false};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> stalls_detected{0};
    /// Back-reference to the owning shared_ptr, set once at construction, so
    /// the watchdog (which runs inside a Core-owning lambda) can hand
    /// respawned worker threads their own owning reference.
    std::weak_ptr<Core> self_;
  };

  std::shared_ptr<Core> core_;
  std::shared_ptr<ModelRegistry> registry_;
  std::shared_ptr<const cpwl::TableSet> tables_;
  std::thread watchdog_;
  std::uint64_t forced_detaches_ = 0;
  bool shut_down_ = false;
  bool threads_reserved_ = false;  // kernel-pool reservation released once
  std::mutex shutdown_mutex_;
};

}  // namespace onesa::serve
