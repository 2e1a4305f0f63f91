// Fleet tier: N ServerPool shards behind one submit API.
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
// STATS. Per-shard ServeStats remain visible (shard_stats()); fleet totals
// are their sum via ServeStats::operator+ — shard sums equal fleet totals
// by construction. Every ServeResult and BatchRecord carries the shard id.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/server_pool.hpp"

namespace onesa::serve {

struct FleetConfig {
  std::size_t shards = 2;
  std::size_t workers_per_shard = 2;
  /// Replicated to every worker's accelerator instance, fleet-wide.
  OneSaConfig accelerator;
  /// Replicated to every shard's batcher.
  BatcherConfig batcher;
  /// FLEET-WIDE backlog bounds (summed over shards; reject semantics).
  AdmissionConfig admission;
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

  /// Stop accepting requests, drain every shard, join all workers. Every
  /// accepted future is ready afterwards. Idempotent AND safe to call
  /// concurrently: a second caller blocks until the first caller's drain
  /// finished, so returning always means "drained" (the network front
  /// door's signal watcher calls this while the owner's destructor may be
  /// doing the same). A submit racing shutdown sheds with OverloadError
  /// instead of throwing. Also run by the destructor.
  void shutdown();

  std::size_t shards() const { return shards_.size(); }
  ServerPool& shard(std::size_t i) { return *shards_.at(i); }
  const ServerPool& shard(std::size_t i) const { return *shards_.at(i); }
  const FleetConfig& config() const { return config_; }

  /// Fleet-wide backlog (summed over shards).
  std::size_t pending() const;
  std::uint64_t backlog_cost() const;

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
  /// Shard with the least outstanding cost; the scan starts one shard
  /// further on each call, so cost ties rotate across shards.
  std::size_t route();

  FleetConfig config_;
  std::shared_ptr<ModelRegistry> registry_;
  std::vector<std::unique_ptr<ServerPool>> shards_;
  std::atomic<std::uint64_t> route_turn_{0};   // rotating scan start
  std::atomic<std::uint64_t> fleet_sheds_{0};  // fleet-admission counter
  bool shut_down_ = false;            // guarded by shutdown_mutex_
  std::atomic<bool> accepting_{true};  // cleared first thing in shutdown()
  std::mutex shutdown_mutex_;          // held for the WHOLE drain
};

}  // namespace onesa::serve
