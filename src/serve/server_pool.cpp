#include "serve/server_pool.hpp"

#include <chrono>
#include <string>

#include "common/alloc_count.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels/thread_pool.hpp"

namespace onesa::serve {

ServerPool::Core::Core(ServerPoolConfig cfg)
    : config(std::move(cfg)),
      batcher(config.batcher),
      queue(config.workers, batcher, config.admission),
      inflight_gauge(obs::MetricsRegistry::global().gauge(
          "serve_shard_inflight_cost{shard=\"" + std::to_string(config.shard) + "\"}")) {}

ServerPool::ServerPool(ServerPoolConfig config, std::shared_ptr<ModelRegistry> registry,
                       std::shared_ptr<const cpwl::TableSet> tables)
    : core_(std::make_shared<Core>(std::move(config))),
      registry_(registry != nullptr ? std::move(registry)
                                    : std::make_shared<ModelRegistry>()) {
  Core& core = *core_;
  ONESA_CHECK(core.config.workers > 0, "ServerPool needs at least one worker");
  core.workers.reserve(core.config.workers);

  // Build the CPWL tables once (or alias the fleet-shared set); every
  // further instance aliases them read-only (the tables are immutable after
  // construction).
  auto first = tables != nullptr
                   ? std::make_unique<OneSaAccelerator>(core.config.accelerator,
                                                        std::move(tables))
                   : std::make_unique<OneSaAccelerator>(core.config.accelerator);
  tables_ = first->shared_tables();
  for (std::size_t i = 0; i < core.config.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->accel = i == 0 ? std::move(first)
                           : std::make_unique<OneSaAccelerator>(core.config.accelerator,
                                                                tables_);
    core.workers.push_back(std::move(worker));
  }

  try {
    for (std::size_t i = 0; i < core.workers.size(); ++i) {
      // Threads capture the Core by shared_ptr: a forcibly detached worker
      // keeps the queue/batcher/worker state alive until it exits.
      core.workers[i]->thread =
          spawn_thread([c = core_, i] { c->worker_loop(i); });
    }
  } catch (...) {
    // A thread failed to spawn: release the ones already running before the
    // exception unwinds them as joinable (which would std::terminate).
    core.queue.close();
    for (auto& worker : core.workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    throw;
  }
  ONESA_LOG_DEBUG << "serve: pool up with " << core.workers.size() << " workers ("
                  << core.config.accelerator.array.rows << "x"
                  << core.config.accelerator.array.cols << " array each, admission cap "
                  << core.config.admission.max_pending_requests << " requests / "
                  << core.config.admission.max_backlog_cost << " MACs, 0 = none)";
}

ServerPool::~ServerPool() { shutdown(); }

ModelHandle ServerPool::register_model(std::string name,
                                       std::unique_ptr<nn::Sequential> model,
                                       ModelOptions options) {
  ModelHandle handle = registry_->add(std::move(name), std::move(model), std::move(options));
  // First SUCCESSFUL registration: reserve the worker fleet in the kernels'
  // shared ThreadPool so model forwards on the workers cap their GEMM
  // fan-out instead of stacking N serve threads on top of a full
  // kernel-pool fan-out. Lazy on purpose — a pool that never serves a model
  // runs no worker-side GEMMs and must not throttle other kernel users
  // (which is also why a registration that throws above must not reserve).
  // Released once in shutdown().
  ensure_kernel_reservation();
  return handle;
}

ModelHandle ServerPool::swap_model(const std::string& name,
                                   std::unique_ptr<nn::Sequential> model) {
  return registry_->swap(name, std::move(model));
}

void ServerPool::ensure_kernel_reservation() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (!shut_down_ && !threads_reserved_) {
    tensor::kernels::ThreadPool::instance().reserve(core_->config.workers);
    threads_reserved_ = true;
  }
}

std::future<ServeResult> ServerPool::submit(TaggedRequest req) {
  core_->queue.push(std::move(req.request));
  return std::move(req.result);
}

std::future<ServeResult> ServerPool::submit_model(const std::string& name,
                                                  tensor::Matrix input,
                                                  SubmitOptions options) {
  return submit_model(registry_->get(name), std::move(input), options);
}

std::future<ServeResult> ServerPool::submit_model(ModelHandle model, tensor::Matrix input,
                                                  SubmitOptions options) {
  return submit(make_model_request(std::move(model), std::move(input), options));
}

void ServerPool::Core::worker_loop(std::size_t index) {
  Worker& w = *workers[index];
  // One batch vector for the thread's whole life: pop_batch refills it in
  // place, so steady-state pops reuse its capacity instead of allocating.
  std::vector<ServeRequest> batch;
  for (;;) {
    queue.pop_batch(index, batch);
    if (batch.empty()) {
      w.heap_allocations.store(alloccount::thread_allocations(),
                               std::memory_order_relaxed);
      w.alive.store(false, std::memory_order_release);
      return;  // closed and drained
    }

    // Publish the in-flight cost before executing: the fleet router's
    // outstanding-cost view must keep seeing this work after it leaves the
    // queue's backlog. Atomic (not under w.mutex) so routing never blocks
    // behind a batch execution.
    std::uint64_t inflight = 0;
    for (const auto& req : batch) inflight += req.cost;
    w.inflight_cost.store(inflight, std::memory_order_relaxed);
    inflight_gauge.add(static_cast<std::int64_t>(inflight));
    const bool traced = obs::tracing_enabled();
    const std::int64_t batch_t0 = traced ? obs::trace_now_us() : 0;
    {
      // Execute under the worker's mutex: the accelerator's lifetime
      // counters mutate during the pass, and fleet_lifetime()/stats() may
      // read them from a monitoring thread mid-flight. Only this worker's
      // snapshot readers wait; other workers proceed on their own locks.
      std::lock_guard<std::mutex> lock(w.mutex);
      BatchRecord record = batcher.execute(batch, *w.accel, index, config.shard);
      w.busy_cycles += record.cycles.total();
      // A failed batch (every promise already holds the error) returns an
      // empty record; recording it would count a zero-request batch and skew
      // mean_batch_requests().
      if (record.requests > 0) w.stats.record_batch(record);
      if (traced && obs::tracing_enabled()) {
        // Worker-track span of the whole batch execution; the kernel spans
        // it encloses land on the same thread track and nest inside.
        obs::trace_complete(
            "batch", "batch", batch_t0, obs::trace_now_us() - batch_t0,
            "\"requests\":" + std::to_string(record.requests) +
                ",\"rows\":" + std::to_string(record.rows) +
                ",\"shard\":" + std::to_string(config.shard) +
                ",\"worker\":" + std::to_string(index));
      }
    }
    w.inflight_cost.store(0, std::memory_order_relaxed);
    inflight_gauge.sub(static_cast<std::int64_t>(inflight));

    // Publish this thread's cumulative heap-allocation count while idle —
    // the allocation bench's between-windows sample points.
    w.heap_allocations.store(alloccount::thread_allocations(),
                             std::memory_order_relaxed);
  }
}

void ServerPool::shutdown() {
  bool release_threads = false;
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    release_threads = threads_reserved_;
    threads_reserved_ = false;
  }
  Core& core = *core_;

  // Drain: close the queue, then join — bounded. A worker hung mid-service
  // must not hang the destructor forever.
  core.queue.close();
  const double timeout_ms = core.config.join_timeout_ms;
  const auto join_deadline =
      ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  timeout_ms > 0.0 ? timeout_ms : 0.0));
  for (;;) {
    bool any_running = false;
    for (const auto& worker : core.workers)
      any_running |= worker->alive.load(std::memory_order_acquire);
    if (!any_running) break;
    if (timeout_ms > 0.0 && ServeClock::now() >= join_deadline) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (std::size_t i = 0; i < core.workers.size(); ++i) {
    Worker& w = *core.workers[i];
    if (!w.thread.joinable()) continue;
    if (!w.alive.load(std::memory_order_acquire)) {
      w.thread.join();
      continue;
    }
    // Straggler: detach LOUDLY instead of hanging. The detached worker
    // holds a shared_ptr to the Core, finishes its batch, fulfils its
    // futures, drains what it can, and only then frees the Core.
    ++forced_detaches_;
    static obs::Counter& forced_detaches_metric =
        obs::MetricsRegistry::global().counter("serve_forced_detaches_total");
    forced_detaches_metric.add(1);
    ONESA_LOG_ERROR << "serve: shutdown timed out after " << timeout_ms
                    << " ms waiting for worker " << i << " on shard "
                    << core.config.shard << " — detaching stalled worker "
                    << "(its in-flight futures will complete when it wakes)";
    w.thread.detach();
  }

  if (release_threads) {
    tensor::kernels::ThreadPool::instance().release(core.config.workers);
  }
  ONESA_LOG_DEBUG << "serve: pool drained, " << stats().completed()
                  << " requests served, " << core.queue.sheds() << " shed"
                  << (forced_detaches_ > 0
                          ? ", " + std::to_string(forced_detaches_) + " forced detaches"
                          : "");
}

ServeStats ServerPool::stats() const {
  ServeStats merged;
  for (const auto& worker : core_->workers) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    merged.merge(worker->stats);
  }
  merged.record_sheds(core_->queue.sheds());
  merged.record_window_expiries(core_->queue.window_expiries());
  return merged;
}

std::uint64_t ServerPool::outstanding_cost() const {
  std::uint64_t total = core_->queue.backlog_cost();
  for (const auto& worker : core_->workers)
    total += worker->inflight_cost.load(std::memory_order_relaxed);
  return total;
}

LifetimeTotals ServerPool::fleet_lifetime() const {
  LifetimeTotals totals;
  for (const auto& worker : core_->workers) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    totals.merge(worker->accel->lifetime());
  }
  return totals;
}

std::uint64_t ServerPool::makespan_cycles() const {
  std::uint64_t makespan = 0;
  for (const auto& worker : core_->workers) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    if (worker->busy_cycles > makespan) makespan = worker->busy_cycles;
  }
  return makespan;
}

std::vector<std::uint64_t> ServerPool::worker_busy_cycles() const {
  std::vector<std::uint64_t> busy;
  busy.reserve(core_->workers.size());
  for (const auto& worker : core_->workers) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    busy.push_back(worker->busy_cycles);
  }
  return busy;
}

std::uint64_t ServerPool::worker_heap_allocations() const {
  std::uint64_t total = 0;
  for (const auto& worker : core_->workers)
    total += worker->heap_allocations.load(std::memory_order_relaxed);
  return total;
}

}  // namespace onesa::serve
