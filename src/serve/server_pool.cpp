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

namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             ServeClock::now().time_since_epoch())
      .count();
}

/// Recovery/degradation counters, resolved once (fleet-wide aggregates —
/// every pool feeds the same series, like the queue metrics).
struct PoolMetrics {
  obs::Counter& restarts =
      obs::MetricsRegistry::global().counter("serve_worker_restarts_total");
  obs::Counter& stalls_detected =
      obs::MetricsRegistry::global().counter("serve_worker_stalls_detected_total");
  obs::Counter& forced_detaches =
      obs::MetricsRegistry::global().counter("serve_forced_detaches_total");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics metrics;
  return metrics;
}

/// Fail a request that will never reach (or never finished) service:
/// terminal trace span, then the typed error through the resilience-aware
/// delivery path.
void fail_request(ServeRequest& req, std::exception_ptr error) {
  if (req.traced && obs::tracing_enabled()) {
    obs::trace_async_end("request", "request", req.id, obs::trace_now_us(),
                         "\"outcome\":\"error\"");
  }
  deliver_error(req, std::move(error));
}

}  // namespace

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
  core.self_ = core_;
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
    worker->heartbeat_us.store(now_us(), std::memory_order_relaxed);
    core.workers.push_back(std::move(worker));
  }

  try {
    for (std::size_t i = 0; i < core.workers.size(); ++i) {
      // Threads capture the Core by shared_ptr: a forcibly detached zombie
      // keeps the queue/batcher/worker state alive until it exits.
      core.workers[i]->thread =
          spawn_thread([c = core_, i] { c->worker_loop(i); });
    }
    if (core.config.watchdog.enabled) {
      watchdog_ = spawn_thread([c = core_] { c->watchdog_loop(); });
    }
  } catch (...) {
    // A thread failed to spawn: release the ones already running before the
    // exception unwinds them as joinable (which would std::terminate).
    core.watchdog_stop.store(true, std::memory_order_relaxed);
    core.queue.close();
    for (auto& worker : core.workers) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    if (watchdog_.joinable()) watchdog_.join();
    throw;
  }
  ONESA_LOG_DEBUG << "serve: pool up with " << core.workers.size() << " workers ("
                  << core.config.accelerator.array.rows << "x"
                  << core.config.accelerator.array.cols << " array each, admission cap "
                  << core.config.admission.max_pending_requests << " requests / "
                  << core.config.admission.max_backlog_cost << " MACs, 0 = none"
                  << (core.config.watchdog.enabled ? ", watchdog on" : "") << ")";
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

std::vector<ServeRequest> ServerPool::Core::recover_dead_workers(
    bool respawn, std::shared_ptr<Core> self) {
  std::vector<ServeRequest> orphaned;
  bool any_alive = false;
  for (const auto& worker : workers)
    any_alive |= worker->alive.load(std::memory_order_acquire);

  for (std::size_t i = 0; i < workers.size(); ++i) {
    Worker& w = *workers[i];
    if (w.exit_reason.load(std::memory_order_acquire) != Worker::Exit::kCrashed)
      continue;
    if (w.thread.joinable()) w.thread.join();

    std::vector<ServeRequest> recovered;
    {
      std::lock_guard<std::mutex> lock(w.inflight_mutex);
      recovered.swap(w.inflight);
    }
    // The dead worker's published in-flight cost is stale; retract it.
    const auto stale = w.inflight_cost.exchange(0, std::memory_order_relaxed);
    if (stale > 0) inflight_gauge.sub(static_cast<std::int64_t>(stale));
    w.busy.store(false, std::memory_order_relaxed);

    if (respawn) {
      w.abandon.store(false, std::memory_order_relaxed);
      w.exit_reason.store(Worker::Exit::kRunning, std::memory_order_relaxed);
      w.heartbeat_us.store(now_us(), std::memory_order_relaxed);
      w.alive.store(true, std::memory_order_release);
      w.thread = spawn_thread([c = self, i] { c->worker_loop(i); });
      restarts.fetch_add(1, std::memory_order_relaxed);
      pool_metrics().restarts.add(1);
      any_alive = true;
      ONESA_LOG_WARN << "serve: watchdog respawned dead worker " << i << " on shard "
                     << config.shard << " (" << recovered.size()
                     << " in-flight requests re-queued)";
    }

    if (!recovered.empty()) {
      if (respawn || any_alive) {
        // Front of the queue: this work was already scheduled once.
        queue.requeue(std::move(recovered));
      } else {
        for (auto& req : recovered) orphaned.push_back(std::move(req));
      }
    }
  }
  return orphaned;
}

void ServerPool::Core::watchdog_loop() {
  const WatchdogConfig& cfg = config.watchdog;
  const auto stall_timeout_us =
      static_cast<std::int64_t>(cfg.stall_timeout_ms * 1000.0);
  while (!watchdog_stop.load(std::memory_order_relaxed)) {
    interruptible_sleep(cfg.check_interval_ms, watchdog_stop);
    if (watchdog_stop.load(std::memory_order_relaxed)) break;

    // Dead workers first: join, re-queue their in-flight batch, respawn.
    bool any_dead = false;
    for (const auto& worker : workers) {
      any_dead |= worker->exit_reason.load(std::memory_order_acquire) ==
                  Worker::Exit::kCrashed;
    }
    if (any_dead) {
      // shared_from_this-style self pointer for the respawned thread: the
      // watchdog itself runs inside a Core-owning lambda, so grabbing a new
      // shared_ptr from the raw this is safe only via the spawning lambda's
      // copy — recover_dead_workers threads it through explicitly.
      recover_dead_workers(/*respawn=*/true, self_.lock());
    }

    // Stalled workers: busy, but silent past the timeout. Abandon them — an
    // injected stall exits like a crash (recovered next tick); a genuinely
    // hung computation can only be counted, not interrupted.
    const std::int64_t now = now_us();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      Worker& w = *workers[i];
      if (!w.alive.load(std::memory_order_acquire) ||
          !w.busy.load(std::memory_order_relaxed))
        continue;
      if (now - w.heartbeat_us.load(std::memory_order_relaxed) < stall_timeout_us)
        continue;
      if (!w.abandon.exchange(true, std::memory_order_relaxed)) {
        stalls_detected.fetch_add(1, std::memory_order_relaxed);
        pool_metrics().stalls_detected.add(1);
        ONESA_LOG_WARN << "serve: watchdog abandoning stalled worker " << i
                       << " on shard " << config.shard << " (silent for "
                       << (now - w.heartbeat_us.load(std::memory_order_relaxed)) / 1000
                       << " ms)";
      }
    }
  }
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
      w.exit_reason.store(Worker::Exit::kDrained, std::memory_order_release);
      w.alive.store(false, std::memory_order_release);
      return;  // closed and drained
    }
    w.busy.store(true, std::memory_order_relaxed);
    w.heartbeat_us.store(now_us(), std::memory_order_relaxed);

    // ---------------------------------------------------------- fault sites
    if (faults.armed()) {
      // Transient per-request errors: fail the drawn requests with a typed,
      // retryable error before service; the rest of the batch proceeds.
      for (auto it = batch.begin(); it != batch.end();) {
        if (!faults.draw_transient_error()) {
          ++it;
          continue;
        }
        ErrorContext ctx = request_context(it->id, it->model);
        ctx.shard = config.shard;
        ctx.worker = index;
        ctx.queue_depth = queue.pending();
        ctx.backlog_cost = queue.backlog_cost();
        fail_request(*it, std::make_exception_ptr(InjectedFault(
                              InjectedFault::Kind::kTransient,
                              "injected transient error", std::move(ctx))));
        it = batch.erase(it);
      }
      if (batch.empty()) {
        w.busy.store(false, std::memory_order_relaxed);
        continue;
      }
      // Poisoned batch: everything packed together dies together.
      if (faults.draw_poisoned_batch()) {
        for (auto& req : batch) {
          ErrorContext ctx = request_context(req.id, req.model);
          ctx.shard = config.shard;
          ctx.worker = index;
          ctx.queue_depth = batch.size();
          fail_request(req, std::make_exception_ptr(InjectedFault(
                                InjectedFault::Kind::kPoisonedBatch,
                                "injected poisoned batch", std::move(ctx))));
        }
        w.busy.store(false, std::memory_order_relaxed);
        continue;
      }
    }

    // Stash the batch where the watchdog can recover it if we die between
    // here and completion. While alive only this thread touches it.
    {
      std::lock_guard<std::mutex> lock(w.inflight_mutex);
      w.inflight = std::move(batch);
    }

    // Crash: exit without completing the batch (thread death). The watchdog
    // joins us, re-queues w.inflight, and respawns the slot.
    if (faults.draw_crash()) {
      w.exit_reason.store(Worker::Exit::kCrashed, std::memory_order_release);
      w.alive.store(false, std::memory_order_release);
      ONESA_LOG_WARN << "serve: injected crash of worker " << index << " on shard "
                     << config.shard;
      return;
    }

    // Stall: sleep mid-service without heartbeating. The watchdog abandons
    // us past its timeout and we die like a crash (batch recoverable); a
    // post-detach hurry flag cuts the stall so zombies finish fast.
    if (const double stall = faults.draw_stall_ms(); stall > 0.0) {
      const auto deadline =
          ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                                  std::chrono::duration<double, std::milli>(stall));
      while (ServeClock::now() < deadline) {
        if (w.abandon.load(std::memory_order_relaxed)) {
          w.exit_reason.store(Worker::Exit::kCrashed, std::memory_order_release);
          w.alive.store(false, std::memory_order_release);
          return;
        }
        if (hurry.load(std::memory_order_relaxed)) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }

    // Take the batch back for execution.
    {
      std::lock_guard<std::mutex> lock(w.inflight_mutex);
      batch = std::move(w.inflight);
      w.inflight.clear();
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
    const auto service_t0 = ServeClock::now();
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

    // Slow shard: stretch the observed service time by the plan's latency
    // multiplier, proportional to the real work just done. Heartbeats keep
    // flowing — slow is degraded, not hung.
    if (const double mult = faults.latency_multiplier(); mult > 1.0) {
      const double service_ms =
          std::chrono::duration<double, std::milli>(ServeClock::now() - service_t0)
              .count();
      const double extra_ms = (mult - 1.0) * service_ms;
      const auto deadline =
          ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                                  std::chrono::duration<double, std::milli>(extra_ms));
      while (ServeClock::now() < deadline &&
             !hurry.load(std::memory_order_relaxed) &&
             !w.abandon.load(std::memory_order_relaxed)) {
        w.heartbeat_us.store(now_us(), std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    w.heartbeat_us.store(now_us(), std::memory_order_relaxed);
    // Publish this thread's cumulative heap-allocation count while idle —
    // the allocation bench's between-windows sample points.
    w.heap_allocations.store(alloccount::thread_allocations(),
                             std::memory_order_relaxed);
    w.busy.store(false, std::memory_order_relaxed);
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

  // 1. Stop the watchdog first: no respawns may race the joins below.
  core.watchdog_stop.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();

  // 2. Final recovery sweep: workers that crashed since the watchdog's last
  // tick (or with the watchdog disabled) get their in-flight batches
  // re-queued and their slots respawned so the drain below completes.
  core.recover_dead_workers(/*respawn=*/true, core_);

  // 3. Drain: close the queue, then join — bounded. A worker stalled
  // mid-service must not hang the destructor forever.
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
    // Straggler: detach LOUDLY instead of hanging. The zombie holds a
    // shared_ptr to the Core, finishes its batch (hurried — injected
    // stalls/slow-downs cut short), fulfils its futures, drains what it
    // can, and only then frees the Core.
    ++forced_detaches_;
    pool_metrics().forced_detaches.add(1);
    ONESA_LOG_ERROR << "serve: shutdown timed out after " << timeout_ms
                    << " ms waiting for worker " << i << " on shard "
                    << core.config.shard << " — detaching stalled worker "
                    << "(its in-flight futures will complete when it wakes)";
    core.hurry.store(true, std::memory_order_relaxed);
    w.thread.detach();
  }

  // 4. Anything recoverable a crashed worker left behind after the sweep in
  // (2), with nobody left to serve it, fails typed instead of leaking
  // broken promises. Zombies (if any) keep draining the queue themselves.
  std::vector<ServeRequest> orphaned =
      core.recover_dead_workers(/*respawn=*/false, nullptr);
  for (auto& req : orphaned) {
    ErrorContext ctx = request_context(req.id, req.model);
    ctx.shard = core.config.shard;
    ctx.queue_depth = core.queue.pending();
    fail_request(req, std::make_exception_ptr(ServeError(
                          "worker crashed before completing this request and the "
                          "pool shut down before recovery",
                          std::move(ctx))));
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
