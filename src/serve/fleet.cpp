#include "serve/fleet.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace onesa::serve {

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), registry_(std::make_shared<ModelRegistry>()) {
  ONESA_CHECK(config_.shards > 0, "Fleet needs at least one shard");
  ONESA_CHECK(config_.workers_per_shard > 0, "Fleet needs at least one worker per shard");

  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ServerPoolConfig pool;
    pool.workers = config_.workers_per_shard;
    pool.batcher = config_.batcher;
    // Admission lives at the fleet: shards stay unlimited so a shedding
    // decision always sees the fleet-wide backlog, never one shard's slice.
    pool.admission = {};
    pool.shard = s;
    pool.join_timeout_ms = config_.join_timeout_ms;
    shards_.push_back(std::make_unique<ServerPool>(pool, registry_));
  }
  ONESA_LOG_DEBUG << "serve: fleet up with " << shards_.size() << " shards x "
                  << config_.workers_per_shard << " workers (admission cap "
                  << config_.admission.max_pending_requests << " requests / "
                  << config_.admission.max_backlog_cost << " MACs, 0 = none)";
}

Fleet::~Fleet() { shutdown(); }

ModelHandle Fleet::register_model(std::string name, std::unique_ptr<nn::Sequential> model,
                                  ModelOptions options) {
  ModelHandle handle = registry_->add(std::move(name), std::move(model), std::move(options));
  // The registry is shared, so the pools' own lazy reservation hook never
  // fires — reserve every shard's worker lanes here instead (idempotent).
  for (auto& shard : shards_) shard->ensure_kernel_reservation();
  return handle;
}

ModelHandle Fleet::swap_model(const std::string& name,
                              std::unique_ptr<nn::Sequential> model) {
  return registry_->swap(name, std::move(model));
}

std::size_t Fleet::route() {
  const std::size_t n = shards_.size();
  // Rotate the scan start so cost ties break round-robin instead of always
  // landing on the lowest-numbered shard — an idle fleet (every outstanding
  // cost zero) would otherwise serialize a whole burst onto shard 0 whenever
  // workers drain faster than the client submits.
  const std::size_t start = static_cast<std::size_t>(
      route_turn_.fetch_add(1, std::memory_order_relaxed) % n);
  std::size_t best = start;
  std::uint64_t best_cost = shards_[start]->outstanding_cost();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t s = (start + i) % n;
    const std::uint64_t cost = shards_[s]->outstanding_cost();
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
  }
  return best;
}

std::future<ServeResult> Fleet::submit(TaggedRequest req) {
  ServeRequest& r = req.request;
  if (!accepting_.load(std::memory_order_acquire)) {
    // Shutdown has begun (or finished): shed instead of racing the closing
    // queues. The future settles with a typed error, never a throw — the
    // contract the network front door's drain path depends on.
    shed_request(r, "fleet is shut down: request not accepted", 0, 0);
    return std::move(req.result);
  }

  // Fleet-wide admission: the shedding decision sees the summed backlog of
  // every shard (approximate across concurrent submitters — see header).
  const std::size_t backlog_requests = pending();
  const std::uint64_t backlog_macs = backlog_cost();
  if (config_.admission.over(backlog_requests, 1, backlog_macs, r.cost)) {
    fleet_sheds_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter& fleet_sheds_metric =
        obs::MetricsRegistry::global().counter("serve_fleet_sheds_total");
    fleet_sheds_metric.add(1);
    shed_request(r,
                 "shed by fleet admission control across " +
                     std::to_string(shards_.size()) + " shards",
                 backlog_requests, backlog_macs);
    return std::move(req.result);
  }

  return shards_[route()]->submit(std::move(req));
}

std::future<ServeResult> Fleet::submit_model(const std::string& name, tensor::Matrix input,
                                             SubmitOptions options) {
  return submit_model(registry_->get(name), std::move(input), options);
}

std::future<ServeResult> Fleet::submit_model(ModelHandle model, tensor::Matrix input,
                                             SubmitOptions options) {
  return submit(make_model_request(std::move(model), std::move(input), options));
}

void Fleet::shutdown() {
  // The mutex is held for the WHOLE drain, not just the flag flip: a second
  // concurrent caller (the network front door's signal watcher racing the
  // owner's destructor is the motivating pair) blocks until the first
  // caller's drain finished, so "shutdown() returned" always means "every
  // accepted future is ready", no matter which caller you are.
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shut_down_) return;
  shut_down_ = true;
  // Stop admitting first: submits racing the drain shed with OverloadError
  // (see Fleet::submit) instead of landing in a closing queue.
  accepting_.store(false, std::memory_order_release);
  // Drain every shard: afterwards every accepted future is ready.
  for (auto& shard : shards_) shard->shutdown();
  ONESA_LOG_DEBUG << "serve: fleet drained, " << stats().completed()
                  << " requests served across " << shards_.size() << " shards, "
                  << sheds() << " shed";
}

std::size_t Fleet::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending();
  return total;
}

std::uint64_t Fleet::backlog_cost() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->backlog_cost();
  return total;
}

ServeStats Fleet::stats() const {
  ServeStats total;
  for (const auto& shard : shards_) total += shard->stats();
  total.record_sheds(fleet_sheds_.load(std::memory_order_relaxed));
  return total;
}

std::vector<ServeStats> Fleet::shard_stats() const {
  std::vector<ServeStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

std::uint64_t Fleet::sheds() const {
  std::uint64_t total = fleet_sheds_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) total += shard->sheds();
  return total;
}

}  // namespace onesa::serve
