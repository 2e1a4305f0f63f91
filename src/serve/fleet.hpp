// Fleet tier: N ServerPool shards behind one submit API, with self-healing.
//
// The pool is no longer the top of the serving stack — a Fleet owns S
// shards (each a full ServerPool: its own request queue, batcher, and W
// worker threads with one simulated accelerator each) and routes every
// request — always a registered-model request, whether a real forward or a
// cost-trace entry standing in for a whole network — to a shard:
//
//   submit*() ───> router ──> shard 0: RequestQueue ──> W workers
//                        ──> shard 1: RequestQueue ──> W workers
//   ModelRegistry (ONE,   ──> ...
//   shared by all shards,
//   version-aware)
//
// ROUTING. The shard with the smallest outstanding estimated cost (queued
// backlog + batches currently executing, MAC units) takes the request. The
// scan starts one shard further on each submit, so cost ties rotate across
// shards instead of piling onto shard 0.
//
// SHARED REGISTRY / HOT-SWAP. All shards share ONE version-aware
// ModelRegistry (and one immutable CPWL table set), so a fleet packs each
// model's weights once — not once per pool. swap_model() publishes a new
// pre-packed version atomically; requests pin the version they resolved at
// submit, in-flight batches finish on the old weights, and the batcher's
// handle-identity rule keeps versions from ever mixing in one batch.
//
// FLEET ADMISSION. Shedding decisions moved up: FleetConfig::admission
// bounds the FLEET-WIDE backlog (summed shard pending/cost). An
// over-budget submit fails its future with OverloadError (reject
// semantics) and counts in stats().sheds(). Shards themselves default to
// unlimited. The fleet check is advisory across concurrent submitters.
//
// RESILIENCE (FleetConfig::resilience / breaker / brownout / watchdog).
// When any of these is enabled the fleet wraps every submission in a
// resilient operation that owns the client-facing promise; individual
// ATTEMPTS flow to the shards and their outcomes come back through a
// CompletionHook (serve/request.hpp) instead of settling the client future
// directly. First completion wins — late hedges and post-timeout stragglers
// are dropped, so the client future settles exactly once, always.
//
//  - RETRIES: a retryable failure (transient injected faults — see
//    serve/errors.hpp) re-submits with exponential backoff up to
//    max_retries, counted in serve_retries_total with a `retry` trace span.
//  - HEDGING: if the first attempt has not completed after hedge_after_ms,
//    a duplicate attempt is submitted to a DIFFERENT shard
//    (serve_hedges_total, `hedge` span); whichever finishes first settles
//    the client future, the loser's result is dropped by the dedup.
//  - TIMEOUT: request_timeout_ms bounds the whole operation; expiry settles
//    the future with TimeoutError (serve_timeouts_total).
//  - CIRCUIT BREAKER: per-shard EWMA error rate + latency feed a
//    closed -> open -> half-open breaker the router consults, so traffic
//    drains away from a sick shard and probes it back to health
//    (serve_breaker_state{shard=...} gauge, 0/1/2).
//  - BROWNOUT: under sustained breaker-open or backlog pressure the fleet
//    degrades gracefully instead of collapsing: bulk-class submissions are
//    shed first (serve_brownout_sheds_total) and every shard's batching
//    windows shrink to zero so partial batches drain immediately
//    (serve_brownout gauge). Exits with hysteresis when pressure clears.
//  - WATCHDOG: forwarded to every shard (see server_pool.hpp) — dead
//    workers are respawned and their in-flight batches re-queued.
//
// STATS. Per-shard ServeStats remain visible (shard_stats()); fleet totals
// are their sum via ServeStats::operator+ — shard sums equal fleet totals
// by construction. Every ServeResult and BatchRecord carries the shard id.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/errors.hpp"
#include "serve/server_pool.hpp"

namespace onesa::serve {

/// Retry / hedge / timeout budgets for every fleet submission. All-zero
/// (default) disables wrapping entirely — the zero-overhead passthrough.
struct ResilienceConfig {
  /// Re-submissions allowed after the first attempt fails retryably.
  int max_retries = 0;
  /// Exponential backoff base: attempt k waits retry_backoff_ms * 2^(k-1).
  double retry_backoff_ms = 0.5;
  /// Submit a duplicate attempt to a DIFFERENT shard if the first has not
  /// completed after this long. 0 disables hedging.
  double hedge_after_ms = 0.0;
  std::size_t max_hedges = 1;
  /// Bound on the whole operation; expiry settles the future with
  /// TimeoutError. 0 disables.
  double request_timeout_ms = 0.0;

  bool active() const {
    return max_retries > 0 || hedge_after_ms > 0.0 || request_timeout_ms > 0.0;
  }
};

/// Per-shard circuit-breaker thresholds.
struct BreakerConfig {
  bool enabled = false;
  /// EWMA smoothing for the error-rate and latency signals.
  double ewma_alpha = 0.2;
  /// EWMA error rate (0..1) at which the breaker opens.
  double error_threshold = 0.5;
  /// EWMA latency at which the breaker opens; 0 = latency never trips it.
  double latency_threshold_ms = 0.0;
  /// Completions observed before the breaker may trip (cold-start guard).
  std::size_t min_samples = 10;
  /// Open -> half-open after this cooldown.
  double open_cooldown_ms = 25.0;
  /// Concurrent probes admitted in half-open; that many consecutive
  /// successes close the breaker, any failure reopens it.
  std::size_t half_open_probes = 3;
};

/// Graceful-degradation thresholds.
struct BrownoutConfig {
  bool enabled = false;
  /// Enter when fleet backlog cost exceeds this fraction of the admission
  /// cap (requires admission.max_backlog_cost), or when any breaker is
  /// open, for enter_ticks consecutive supervisor ticks.
  double backlog_fraction = 0.75;
  std::size_t enter_ticks = 2;
  /// Exit after this many consecutive clear ticks (hysteresis).
  std::size_t exit_ticks = 4;
};

/// EWMA health + circuit breaker of one shard. Router threads peek the
/// state lock-free; completions update the EWMAs under a small mutex.
class ShardHealth {
 public:
  enum class Breaker : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  ShardHealth(BreakerConfig config, std::size_t shard);

  /// A completed attempt on this shard (latency includes queueing).
  void record_success(double latency_ms);
  void record_error();

  /// Router-side, non-mutating: may this shard take new traffic right now?
  bool admissible() const;
  /// The router DID pick this shard; in half-open this consumes a probe.
  void note_routed();
  /// Time-based transitions (open -> half-open after cooldown); called from
  /// the fleet supervisor tick.
  void tick();

  Breaker state() const {
    return static_cast<Breaker>(state_peek_.load(std::memory_order_relaxed));
  }
  std::uint64_t opens() const { return opens_.load(std::memory_order_relaxed); }
  double error_rate() const;
  double latency_ms() const;

 private:
  /// Caller holds mutex_. Publishes the new state to the peek atomic and
  /// the serve_breaker_state{shard=...} gauge.
  void transition(Breaker to);

  const BreakerConfig config_;
  const std::size_t shard_;
  obs::Gauge& state_gauge_;
  std::atomic<int> state_peek_{0};
  std::atomic<std::uint64_t> opens_{0};

  mutable std::mutex mutex_;
  Breaker state_ = Breaker::kClosed;
  double ewma_error_ = 0.0;
  double ewma_latency_ms_ = 0.0;
  std::uint64_t samples_ = 0;
  ServeClock::time_point opened_at_{};
  std::size_t probes_inflight_ = 0;
  std::size_t probe_successes_ = 0;
};

struct FleetConfig {
  std::size_t shards = 2;
  std::size_t workers_per_shard = 2;
  /// Replicated to every worker's accelerator instance, fleet-wide.
  OneSaConfig accelerator;
  /// Replicated to every shard's batcher.
  BatcherConfig batcher;
  /// FLEET-WIDE backlog bounds (summed over shards; reject semantics).
  AdmissionConfig admission;
  /// Retry/hedge/timeout budgets (default: disabled, zero overhead).
  ResilienceConfig resilience;
  /// Per-shard circuit breaker (default: disabled).
  BreakerConfig breaker;
  /// Graceful degradation under pressure (default: disabled).
  BrownoutConfig brownout;
  /// Worker watchdog, forwarded to every shard (default: disabled).
  WatchdogConfig watchdog;
  /// Bounded-join shutdown timeout, forwarded to every shard.
  double join_timeout_ms = 30000.0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // ----------------------------------------------------------------- models

  /// Register a model with the fleet-shared registry (weights packed ONCE
  /// for all shards) and reserve every shard's worker lanes in the kernel
  /// ThreadPool. Returns the frozen handle (->version is the version id).
  ModelHandle register_model(std::string name, std::unique_ptr<nn::Sequential> model,
                             ModelOptions options = {});

  /// Hot-swap `name` to a new version under load: the new model is censused
  /// and pre-packed before the atomic publish, so no request ever sees torn
  /// weights — submissions by name pick up the new version, in-flight work
  /// finishes on the old. Keeps the current version's ModelOptions.
  ModelHandle swap_model(const std::string& name, std::unique_ptr<nn::Sequential> model);

  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }

  // ------------------------------------------------------------- submission

  /// By name: resolves the registry's CURRENT version at submit time (the
  /// hot-swap entry point). By handle: pins that exact version.
  std::future<ServeResult> submit_model(const std::string& name, tensor::Matrix input,
                                        SubmitOptions options = {});
  std::future<ServeResult> submit_model(ModelHandle model, tensor::Matrix input,
                                        SubmitOptions options = {});
  /// Route a request built elsewhere (fleet admission applies here too).
  std::future<ServeResult> submit(TaggedRequest req);

  // --------------------------------------------------------------- lifecycle

  /// Stop accepting requests, drain every shard, join all workers, settle
  /// every still-pending resilient operation. Every accepted future is
  /// ready afterwards. Idempotent AND safe to call concurrently: a second
  /// caller blocks until the first caller's drain finished, so returning
  /// always means "drained" (the network front door's signal watcher calls
  /// this while the owner's destructor may be doing the same). A submit
  /// racing shutdown sheds with OverloadError instead of throwing. Also run
  /// by the destructor.
  void shutdown();

  std::size_t shards() const { return shards_.size(); }
  ServerPool& shard(std::size_t i) { return *shards_.at(i); }
  const ServerPool& shard(std::size_t i) const { return *shards_.at(i); }
  const FleetConfig& config() const { return config_; }

  /// Fleet-wide backlog (summed over shards).
  std::size_t pending() const;
  std::uint64_t backlog_cost() const;

  // ------------------------------------------------------------- resilience

  /// Per-shard health/breaker view (valid for the fleet's lifetime).
  const ShardHealth& health(std::size_t shard) const { return *health_.at(shard); }
  /// Attempts re-submitted after a retryable failure.
  std::uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Duplicate attempts hedged to a second shard.
  std::uint64_t hedges() const { return hedges_.load(std::memory_order_relaxed); }
  /// Operations settled by the per-request timeout.
  std::uint64_t timeouts() const { return timeouts_.load(std::memory_order_relaxed); }
  /// Bulk requests shed while browned out.
  std::uint64_t brownout_sheds() const {
    return brownout_sheds_.load(std::memory_order_relaxed);
  }
  /// Is the fleet currently degraded?
  bool browned_out() const { return brownout_.load(std::memory_order_relaxed); }
  /// Worker restarts summed over shards (watchdog recoveries).
  std::uint64_t worker_restarts() const;

  // -------------------------------------------------------------- aggregate

  /// Fleet-wide statistics: the sum of every shard's snapshot plus the
  /// fleet-level admission sheds. Shard sums equal fleet totals.
  ServeStats stats() const;
  /// Per-shard snapshots, index-aligned with shard().
  std::vector<ServeStats> shard_stats() const;
  /// Requests shed by admission control, fleet-level plus shard-level.
  std::uint64_t sheds() const;
  /// Merged accelerator lifetime counters (power-model input).
  LifetimeTotals fleet_lifetime() const;
  /// Simulated makespan of the whole fleet: the S shards model S*W arrays
  /// running in parallel, so it is the largest shard makespan.
  std::uint64_t makespan_cycles() const;

 private:
  friend struct ResilientOp;
  friend class FleetSupervisor;

  /// Shard with the least outstanding cost among the breaker-admissible
  /// ones (every shard when none is admissible — refusing all traffic would
  /// turn degradation into outage). `exclude` (hedging) is honoured when
  /// another shard exists.
  std::size_t route(std::size_t exclude = ErrorContext::kNone);

  /// Wrap `req` in a ResilientOp and launch attempt #1. Caller has already
  /// passed fleet admission.
  std::future<ServeResult> submit_resilient(TaggedRequest req);
  /// Build + route + submit one attempt for `op`. `span` is nullptr for the
  /// first attempt, "retry" or "hedge" for re-submissions.
  void submit_attempt(const std::shared_ptr<struct ResilientOp>& op, const char* span,
                      std::size_t exclude);
  /// Enqueue op's retry #`attempt` (1-based) with exponential backoff; if
  /// the supervisor is already stopping, settles the op with its last error.
  void schedule_retry(std::shared_ptr<struct ResilientOp> op, int attempt);
  /// Supervisor callback for a due retry/hedge/timeout event (kind is a
  /// FleetSupervisor::Event, passed as int to keep it out of this header).
  void handle_event(int kind, const std::shared_ptr<struct ResilientOp>& op);
  /// Attribute an attempt outcome to a shard's health/breaker.
  void record_attempt_success(std::size_t shard, double latency_ms);
  void record_attempt_error(std::size_t shard);
  /// Supervisor tick: breaker cooldowns + brownout enter/exit.
  void supervise_tick();
  void enter_brownout();
  void exit_brownout();

  FleetConfig config_;
  bool wrap_ops_ = false;  // resilience/breaker/brownout => hook wrapping on
  std::shared_ptr<ModelRegistry> registry_;
  std::vector<std::unique_ptr<ServerPool>> shards_;
  std::vector<std::unique_ptr<ShardHealth>> health_;
  std::unique_ptr<class FleetSupervisor> supervisor_;
  std::atomic<std::uint64_t> route_turn_{0};   // rotating scan start
  std::atomic<std::uint64_t> fleet_sheds_{0};  // fleet-admission counter
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> brownout_sheds_{0};
  std::atomic<bool> brownout_{false};
  std::size_t brownout_over_ticks_ = 0;   // supervisor-thread only
  std::size_t brownout_clear_ticks_ = 0;  // supervisor-thread only
  bool shut_down_ = false;            // guarded by shutdown_mutex_
  std::atomic<bool> accepting_{true};  // cleared first thing in shutdown()
  std::mutex shutdown_mutex_;          // held for the WHOLE drain
};

}  // namespace onesa::serve
