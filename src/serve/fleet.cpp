#include "serve/fleet.hpp"

#include <algorithm>
#include <condition_variable>
#include <string>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace onesa::serve {

namespace {

/// Resilience counters, resolved once (obs/metrics.hpp static-local idiom).
struct FleetMetrics {
  obs::Counter& retries =
      obs::MetricsRegistry::global().counter("serve_retries_total");
  obs::Counter& hedges =
      obs::MetricsRegistry::global().counter("serve_hedges_total");
  obs::Counter& timeouts =
      obs::MetricsRegistry::global().counter("serve_timeouts_total");
  obs::Counter& brownout_sheds =
      obs::MetricsRegistry::global().counter("serve_brownout_sheds_total");
  obs::Gauge& brownout = obs::MetricsRegistry::global().gauge("serve_brownout");
  static FleetMetrics& get() {
    static FleetMetrics m;
    return m;
  }
};

std::string_view breaker_state_name(ShardHealth::Breaker state) {
  switch (state) {
    case ShardHealth::Breaker::kClosed: return "closed";
    case ShardHealth::Breaker::kOpen: return "open";
    case ShardHealth::Breaker::kHalfOpen: return "half-open";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardHealth
// ---------------------------------------------------------------------------

ShardHealth::ShardHealth(BreakerConfig config, std::size_t shard)
    : config_(config),
      shard_(shard),
      state_gauge_(obs::MetricsRegistry::global().gauge(
          "serve_breaker_state{shard=\"" + std::to_string(shard) + "\"}")) {
  state_gauge_.set(0.0);
}

void ShardHealth::transition(Breaker to) {
  if (state_ == to) return;
  const Breaker from = state_;
  state_ = to;
  state_peek_.store(static_cast<int>(to), std::memory_order_relaxed);
  state_gauge_.set(static_cast<double>(to));
  if (to == Breaker::kOpen) {
    opens_.fetch_add(1, std::memory_order_relaxed);
    ONESA_LOG_WARN << "serve: shard " << shard_ << " breaker "
                   << breaker_state_name(from) << " -> open (ewma error rate "
                   << ewma_error_ << ", ewma latency " << ewma_latency_ms_
                   << " ms over " << samples_ << " samples)";
  } else {
    ONESA_LOG_INFO << "serve: shard " << shard_ << " breaker "
                   << breaker_state_name(from) << " -> "
                   << breaker_state_name(to);
  }
}

void ShardHealth::record_success(double latency_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++samples_;
  ewma_error_ *= 1.0 - config_.ewma_alpha;
  ewma_latency_ms_ = samples_ == 1 ? latency_ms
                                   : (1.0 - config_.ewma_alpha) * ewma_latency_ms_ +
                                         config_.ewma_alpha * latency_ms;
  if (!config_.enabled) return;
  if (state_ == Breaker::kHalfOpen) {
    if (probes_inflight_ > 0) --probes_inflight_;
    if (++probe_successes_ >= config_.half_open_probes) {
      // Probes proved the shard healthy: forgive the error history so the
      // breaker does not re-trip on the stale EWMA the next sample.
      ewma_error_ = 0.0;
      transition(Breaker::kClosed);
    }
  } else if (state_ == Breaker::kClosed && config_.latency_threshold_ms > 0.0 &&
             samples_ >= config_.min_samples &&
             ewma_latency_ms_ > config_.latency_threshold_ms) {
    opened_at_ = ServeClock::now();
    transition(Breaker::kOpen);
  }
}

void ShardHealth::record_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++samples_;
  ewma_error_ = (1.0 - config_.ewma_alpha) * ewma_error_ + config_.ewma_alpha;
  if (!config_.enabled) return;
  if (state_ == Breaker::kHalfOpen) {
    // A failed probe sends the breaker straight back to open.
    if (probes_inflight_ > 0) --probes_inflight_;
    opened_at_ = ServeClock::now();
    transition(Breaker::kOpen);
  } else if (state_ == Breaker::kClosed && samples_ >= config_.min_samples &&
             ewma_error_ >= config_.error_threshold) {
    opened_at_ = ServeClock::now();
    transition(Breaker::kOpen);
  }
}

bool ShardHealth::admissible() const {
  if (!config_.enabled) return true;
  switch (state()) {
    case Breaker::kClosed: return true;
    case Breaker::kOpen: return false;
    case Breaker::kHalfOpen: {
      std::lock_guard<std::mutex> lock(mutex_);
      return probes_inflight_ < config_.half_open_probes;
    }
  }
  return true;
}

void ShardHealth::note_routed() {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == Breaker::kHalfOpen) ++probes_inflight_;
}

void ShardHealth::tick() {
  if (!config_.enabled) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == Breaker::kOpen &&
      ServeClock::now() - opened_at_ >=
          std::chrono::duration_cast<ServeClock::duration>(
              std::chrono::duration<double, std::milli>(config_.open_cooldown_ms))) {
    probes_inflight_ = 0;
    probe_successes_ = 0;
    transition(Breaker::kHalfOpen);
  }
}

double ShardHealth::error_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_error_;
}

double ShardHealth::latency_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ewma_latency_ms_;
}

// ---------------------------------------------------------------------------
// ResilientOp — one client-facing operation, possibly many shard attempts.
// ---------------------------------------------------------------------------

/// Owns the client promise and the payload needed to rebuild an attempt.
/// Attached to every attempt as its CompletionHook: first completion wins
/// (`settled` dedups hedges and post-timeout stragglers), retryable failures
/// re-submit through the fleet supervisor, and the last attempt standing
/// settles the error when no retry budget remains.
struct ResilientOp : CompletionHook, std::enable_shared_from_this<ResilientOp> {
  Fleet* fleet = nullptr;

  // Rebuild payload (copied once at submit; attempts copy from here).
  ModelHandle model;
  tensor::Matrix input;
  Priority priority = Priority::kNormal;
  ServeClock::time_point deadline = ServeClock::time_point::max();
  RequestId client_id = 0;

  std::promise<ServeResult> client_promise;
  /// Hook that was attached to the request BEFORE the fleet wrapped it (the
  /// network front door's per-request completion hook). When set, the op's
  /// final outcome routes through it instead of the promise, so hook layers
  /// compose: net hook on top, resilience hook (this op) beneath, each
  /// settling at most once.
  std::shared_ptr<CompletionHook> outer;
  std::atomic<bool> settled{false};

  std::mutex mutex;  // guards the attempt bookkeeping below
  int outstanding = 0;
  int retries_used = 0;
  int hedges_used = 0;
  std::exception_ptr last_error;
  std::size_t last_shard = ErrorContext::kNone;

  /// A fresh attempt carrying the op's payload: new id, new (unused)
  /// promise, re-stamped cost. The caller restores the ORIGINAL absolute
  /// deadline afterwards so retries never extend the client's SLO.
  TaggedRequest rebuild() const {
    SubmitOptions options;
    options.priority = priority;
    return make_model_request(model, input, options);
  }

  void settle_value(ServeResult&& result) {
    if (settled.exchange(true, std::memory_order_acq_rel)) return;
    if (outer) {
      ServeRequest stub;
      stub.id = client_id;
      outer->on_complete(stub, std::move(result));
    } else {
      client_promise.set_value(std::move(result));
    }
  }

  void settle_error(std::exception_ptr error) {
    if (settled.exchange(true, std::memory_order_acq_rel)) return;
    if (outer) {
      ServeRequest stub;
      stub.id = client_id;
      outer->on_error(stub, std::move(error));
    } else {
      client_promise.set_exception(std::move(error));
    }
  }

  void on_complete(ServeRequest& req, ServeResult&& result) override {
    if (req.routed_shard != ErrorContext::kNone)
      fleet->record_attempt_success(req.routed_shard,
                                    result.queue_ms + result.service_ms);
    {
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
    }
    settle_value(std::move(result));
  }

  void on_error(ServeRequest& req, std::exception_ptr error) override {
    if (req.routed_shard != ErrorContext::kNone)
      fleet->record_attempt_error(req.routed_shard);
    bool want_retry = false;
    bool want_settle = false;
    {
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
      last_error = error;
      if (!settled.load(std::memory_order_relaxed) && is_retryable(error) &&
          retries_used < fleet->config().resilience.max_retries) {
        ++retries_used;
        ++outstanding;  // reserve the slot the retry attempt will occupy
        want_retry = true;
      } else if (outstanding == 0) {
        want_settle = true;  // last attempt standing: the error is final
      }
    }
    if (want_retry) {
      fleet->schedule_retry(
          std::static_pointer_cast<ResilientOp>(shared_from_this()),
          retries_used);
    } else if (want_settle) {
      settle_error(std::move(error));
    }
  }
};

// ---------------------------------------------------------------------------
// FleetSupervisor — one timer thread for retries, hedges, timeouts and the
// breaker/brownout tick. Created only when resilience features are on.
// ---------------------------------------------------------------------------

class FleetSupervisor {
 public:
  enum class Event { kRetry, kHedge, kTimeout };

  FleetSupervisor(Fleet& fleet, bool ticking, double tick_ms)
      : fleet_(fleet), ticking_(ticking), tick_ms_(tick_ms) {
    thread_ = spawn_thread([this] { loop(); });
  }

  ~FleetSupervisor() { stop(); }

  /// Enqueue `op` for handling at `due`. Returns false once the supervisor
  /// is stopping — the caller settles the op itself.
  bool schedule(Event kind, ServeClock::time_point due,
                std::shared_ptr<ResilientOp> op) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return false;
      entries_.push_back(Entry{due, kind, std::move(op)});
    }
    cv_.notify_all();
    return true;
  }

  /// Stop the thread and settle every still-pending retry. Idempotent.
  /// Called after the shards drained, so pending non-retry entries belong to
  /// ops that have already settled (or will settle through their reserved
  /// retry entry) and are simply dropped.
  void stop() {
    std::vector<Entry> orphaned;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
      orphaned.swap(entries_);
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    for (Entry& entry : orphaned) {
      if (entry.kind != Event::kRetry) continue;
      std::exception_ptr error = nullptr;
      {
        std::lock_guard<std::mutex> lock(entry.op->mutex);
        error = entry.op->last_error;
      }
      if (!error) {
        error = std::make_exception_ptr(
            ServeError("fleet shut down before a scheduled retry could run"));
      }
      entry.op->settle_error(std::move(error));
    }
  }

 private:
  struct Entry {
    ServeClock::time_point due;
    Event kind;
    std::shared_ptr<ResilientOp> op;
  };

  void loop() {
    const auto tick_period = std::chrono::duration_cast<ServeClock::duration>(
        std::chrono::duration<double, std::milli>(tick_ms_));
    auto next_tick = ServeClock::now() + tick_period;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      auto wake = ServeClock::time_point::max();
      for (const Entry& entry : entries_) wake = std::min(wake, entry.due);
      if (ticking_) wake = std::min(wake, next_tick);
      if (wake == ServeClock::time_point::max()) {
        cv_.wait(lock);
      } else {
        cv_.wait_until(lock, wake);
      }
      if (stopping_) break;
      const auto now = ServeClock::now();
      std::vector<Entry> due;
      for (std::size_t i = 0; i < entries_.size();) {
        if (entries_[i].due <= now) {
          due.push_back(std::move(entries_[i]));
          entries_[i] = std::move(entries_.back());
          entries_.pop_back();
        } else {
          ++i;
        }
      }
      // Handle events OUTSIDE the supervisor lock: handlers take op/queue
      // locks whose holders call schedule() (which takes this lock) — the
      // unlock breaks the inversion.
      lock.unlock();
      for (Entry& entry : due)
        fleet_.handle_event(static_cast<int>(entry.kind), entry.op);
      if (ticking_ && now >= next_tick) {
        fleet_.supervise_tick();
        next_tick = now + tick_period;
      }
      lock.lock();
    }
  }

  Fleet& fleet_;
  const bool ticking_;
  const double tick_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
  bool stopping_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

Fleet::Fleet(FleetConfig config)
    : config_(std::move(config)), registry_(std::make_shared<ModelRegistry>()) {
  ONESA_CHECK(config_.shards > 0, "Fleet needs at least one shard");
  ONESA_CHECK(config_.workers_per_shard > 0, "Fleet needs at least one worker per shard");

  wrap_ops_ = config_.resilience.active() || config_.breaker.enabled ||
              config_.brownout.enabled;

  shards_.reserve(config_.shards);
  health_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    ServerPoolConfig pool;
    pool.workers = config_.workers_per_shard;
    pool.accelerator = config_.accelerator;
    pool.batcher = config_.batcher;
    // Admission lives at the fleet: shards stay unlimited so a shedding
    // decision always sees the fleet-wide backlog, never one shard's slice.
    pool.admission = {};
    pool.shard = s;
    pool.watchdog = config_.watchdog;
    pool.join_timeout_ms = config_.join_timeout_ms;
    // Shard 0 builds the CPWL tables; every later shard aliases them — one
    // immutable table set per fleet, like one registry per fleet.
    shards_.push_back(std::make_unique<ServerPool>(
        pool, registry_, s == 0 ? nullptr : shards_[0]->shared_tables()));
    health_.push_back(std::make_unique<ShardHealth>(config_.breaker, s));
  }
  if (wrap_ops_) {
    supervisor_ = std::make_unique<FleetSupervisor>(
        *this, config_.breaker.enabled || config_.brownout.enabled,
        /*tick_ms=*/1.0);
  }
  ONESA_LOG_DEBUG << "serve: fleet up with " << shards_.size() << " shards x "
                  << config_.workers_per_shard << " workers (admission cap "
                  << config_.admission.max_pending_requests << " requests / "
                  << config_.admission.max_backlog_cost << " MACs, 0 = none"
                  << (wrap_ops_ ? ", resilience on" : "") << ")";
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

std::size_t Fleet::route(std::size_t exclude) {
  const std::size_t n = shards_.size();
  // Rotate the scan start so cost ties break round-robin instead of always
  // landing on the lowest-numbered shard — an idle fleet (every outstanding
  // cost zero) would otherwise serialize a whole burst onto shard 0 whenever
  // workers drain faster than the client submits.
  const std::size_t start = static_cast<std::size_t>(
      route_turn_.fetch_add(1, std::memory_order_relaxed) % n);
  // Track the cheapest breaker-admissible shard and the cheapest shard of
  // any state in one pass. When every breaker is open, route to the latter:
  // refusing 100% of traffic would turn degradation into an outage, and
  // open shards still complete work, just slower or with errors the retry
  // layer absorbs.
  std::size_t best = ErrorContext::kNone;
  std::size_t any = ErrorContext::kNone;
  std::uint64_t best_cost = 0;
  std::uint64_t any_cost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = (start + i) % n;
    if (s == exclude && n > 1) continue;  // a 1-shard fleet cannot hedge away
    const std::uint64_t cost = shards_[s]->outstanding_cost();
    if (any == ErrorContext::kNone || cost < any_cost) {
      any = s;
      any_cost = cost;
    }
    if (health_[s]->admissible() && (best == ErrorContext::kNone || cost < best_cost)) {
      best = s;
      best_cost = cost;
    }
  }
  return best != ErrorContext::kNone ? best : any;
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

  if (brownout_.load(std::memory_order_relaxed) && r.priority == Priority::kBulk) {
    // Graceful degradation sheds the bulk class first: interactive and
    // normal traffic keep flowing while the fleet digs out.
    brownout_sheds_.fetch_add(1, std::memory_order_relaxed);
    FleetMetrics::get().brownout_sheds.add(1);
    shed_request(r,
                 "shed by fleet brownout: bulk traffic deferred while the fleet "
                 "digs out of overload",
                 pending(), backlog_cost());
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

  if (wrap_ops_) return submit_resilient(std::move(req));

  const std::size_t s = route();
  r.routed_shard = s;
  return shards_[s]->submit(std::move(req));
}

std::future<ServeResult> Fleet::submit_resilient(TaggedRequest req) {
  auto op = std::make_shared<ResilientOp>();
  ServeRequest& r = req.request;
  op->fleet = this;
  op->model = r.model;
  op->input = r.input;
  op->priority = r.priority;
  op->deadline = r.deadline;
  op->client_id = r.id;
  // The op takes over the CLIENT promise (the future stays linked to it);
  // the attempt keeps a fresh promise nothing ever reads — its outcome
  // arrives through the hook instead. A hook attached upstream (the network
  // front door) is preserved as the op's OUTER hook: final outcomes route
  // through it, so resilience wrapping stays transparent to the caller.
  op->client_promise = std::move(r.promise);
  op->outer = std::move(r.hook);
  r.promise = std::promise<ServeResult>{};
  r.hook = op;
  op->outstanding = 1;

  std::future<ServeResult> result = std::move(req.result);
  const auto submitted = ServeClock::now();

  const std::size_t s = route();
  r.routed_shard = s;
  health_[s]->note_routed();
  op->last_shard = s;
  try {
    shards_[s]->submit(std::move(req));
  } catch (...) {
    op->settle_error(std::current_exception());
    return result;
  }

  const ResilienceConfig& res = config_.resilience;
  if (res.request_timeout_ms > 0.0) {
    supervisor_->schedule(
        FleetSupervisor::Event::kTimeout,
        submitted + std::chrono::duration_cast<ServeClock::duration>(
                        std::chrono::duration<double, std::milli>(res.request_timeout_ms)),
        op);
  }
  if (res.hedge_after_ms > 0.0 && shards_.size() > 1) {
    supervisor_->schedule(
        FleetSupervisor::Event::kHedge,
        submitted + std::chrono::duration_cast<ServeClock::duration>(
                        std::chrono::duration<double, std::milli>(res.hedge_after_ms)),
        op);
  }
  return result;
}

void Fleet::schedule_retry(std::shared_ptr<ResilientOp> op, int attempt) {
  // Exponential backoff: attempt k (1-based) waits base * 2^(k-1).
  const double backoff_ms =
      config_.resilience.retry_backoff_ms * static_cast<double>(1ull << (attempt - 1));
  const auto due = ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                                           std::chrono::duration<double, std::milli>(backoff_ms));
  std::exception_ptr error = nullptr;
  {
    std::lock_guard<std::mutex> lock(op->mutex);
    error = op->last_error;
  }
  if (!supervisor_->schedule(FleetSupervisor::Event::kRetry, due, op)) {
    // Fleet is shutting down: the retry can never run, the failure is final.
    op->settle_error(error ? error
                           : std::make_exception_ptr(ServeError(
                                 "fleet shut down before a retry could run")));
  }
}

void Fleet::handle_event(int kind_raw, const std::shared_ptr<ResilientOp>& op) {
  const auto kind = static_cast<FleetSupervisor::Event>(kind_raw);
  switch (kind) {
    case FleetSupervisor::Event::kRetry: {
      if (op->settled.load(std::memory_order_acquire)) return;
      retries_.fetch_add(1, std::memory_order_relaxed);
      FleetMetrics::get().retries.add(1);
      submit_attempt(op, "retry", ErrorContext::kNone);
      return;
    }
    case FleetSupervisor::Event::kHedge: {
      if (op->settled.load(std::memory_order_acquire)) return;
      std::size_t exclude = ErrorContext::kNone;
      {
        std::lock_guard<std::mutex> lock(op->mutex);
        if (op->outstanding == 0 ||
            op->hedges_used >= static_cast<int>(config_.resilience.max_hedges))
          return;
        ++op->hedges_used;
        ++op->outstanding;  // reserve the hedge attempt's slot
        exclude = op->last_shard;
      }
      hedges_.fetch_add(1, std::memory_order_relaxed);
      FleetMetrics::get().hedges.add(1);
      submit_attempt(op, "hedge", exclude);
      return;
    }
    case FleetSupervisor::Event::kTimeout: {
      if (op->settled.load(std::memory_order_acquire)) return;
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      FleetMetrics::get().timeouts.add(1);
      op->settle_error(std::make_exception_ptr(TimeoutError(
          "request timed out after " +
              std::to_string(config_.resilience.request_timeout_ms) + " ms",
          request_context(op->client_id, op->model))));
      return;
    }
  }
}

void Fleet::submit_attempt(const std::shared_ptr<ResilientOp>& op, const char* span,
                           std::size_t exclude) {
  try {
    TaggedRequest attempt = op->rebuild();
    // Restore the ORIGINAL absolute deadline: a retry never extends the
    // client's SLO, it just spends what is left of it.
    attempt.request.deadline = op->deadline;
    attempt.request.hook = op;
    const std::size_t s = route(exclude);
    attempt.request.routed_shard = s;
    health_[s]->note_routed();
    {
      std::lock_guard<std::mutex> lock(op->mutex);
      op->last_shard = s;
    }
    if (span != nullptr && attempt.request.traced && obs::tracing_enabled()) {
      // Zero-width marker inside the new attempt's request span: shows WHERE
      // the retry/hedge re-entered the timeline and to which shard.
      const auto now = obs::trace_now_us();
      const std::string args = "\"origin\":" + std::to_string(op->client_id) +
                               ",\"shard\":" + std::to_string(s);
      obs::trace_async_begin(span, "request", attempt.request.id, now, args);
      obs::trace_async_end(span, "request", attempt.request.id, now);
    }
    shards_[s]->submit(std::move(attempt));  // outcome arrives via the hook
  } catch (...) {
    // Could not even submit (queue closed mid-shutdown, rebuild failure):
    // give the reserved slot back; settle if this was the last hope.
    bool want_settle = false;
    {
      std::lock_guard<std::mutex> lock(op->mutex);
      --op->outstanding;
      want_settle = op->outstanding == 0;
    }
    if (want_settle) op->settle_error(std::current_exception());
  }
}

void Fleet::record_attempt_success(std::size_t shard, double latency_ms) {
  if (shard < health_.size()) health_[shard]->record_success(latency_ms);
}

void Fleet::record_attempt_error(std::size_t shard) {
  if (shard < health_.size()) health_[shard]->record_error();
}

void Fleet::supervise_tick() {
  for (auto& health : health_) health->tick();
  if (!config_.brownout.enabled) return;

  bool pressure = false;
  for (const auto& health : health_) {
    if (health->state() == ShardHealth::Breaker::kOpen) pressure = true;
  }
  if (!pressure && config_.admission.max_backlog_cost > 0) {
    pressure = static_cast<double>(backlog_cost()) >
               config_.brownout.backlog_fraction *
                   static_cast<double>(config_.admission.max_backlog_cost);
  }
  if (!pressure && config_.admission.max_pending_requests > 0) {
    pressure = static_cast<double>(pending()) >
               config_.brownout.backlog_fraction *
                   static_cast<double>(config_.admission.max_pending_requests);
  }

  // Hysteresis: enter after enter_ticks consecutive ticks of pressure, exit
  // only after exit_ticks consecutive clear ticks.
  if (pressure) {
    brownout_clear_ticks_ = 0;
    if (++brownout_over_ticks_ >= config_.brownout.enter_ticks &&
        !brownout_.load(std::memory_order_relaxed)) {
      enter_brownout();
    }
  } else {
    brownout_over_ticks_ = 0;
    if (brownout_.load(std::memory_order_relaxed) &&
        ++brownout_clear_ticks_ >= config_.brownout.exit_ticks) {
      exit_brownout();
    }
  }
}

void Fleet::enter_brownout() {
  brownout_.store(true, std::memory_order_relaxed);
  FleetMetrics::get().brownout.set(1.0);
  // Shrink every shard's batching windows to zero: partial batches launch
  // immediately, trading batching efficiency for drain speed.
  for (auto& shard : shards_) shard->set_window_scale(0.0);
  ONESA_LOG_WARN << "serve: fleet entering brownout (backlog "
                 << backlog_cost() << " MACs, " << pending()
                 << " pending) — shedding bulk, windows collapsed";
}

void Fleet::exit_brownout() {
  brownout_.store(false, std::memory_order_relaxed);
  FleetMetrics::get().brownout.set(0.0);
  for (auto& shard : shards_) shard->set_window_scale(1.0);
  ONESA_LOG_INFO << "serve: fleet exiting brownout, "
                 << brownout_sheds_.load(std::memory_order_relaxed)
                 << " bulk requests shed while degraded";
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
  // Drain the shards FIRST: every in-flight attempt completes (or fails)
  // and its hook either settles the op or schedules a retry. THEN stop the
  // supervisor, which settles the retries that can no longer run. After
  // both, every accepted future is ready.
  for (auto& shard : shards_) shard->shutdown();
  if (supervisor_) supervisor_->stop();
  ONESA_LOG_DEBUG << "serve: fleet drained, " << stats().completed()
                  << " requests served across " << shards_.size() << " shards, "
                  << sheds() << " shed, " << retries() << " retries, "
                  << hedges() << " hedges, " << worker_restarts()
                  << " worker restarts";
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

std::uint64_t Fleet::worker_restarts() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->worker_restarts();
  return total;
}

ServeStats Fleet::stats() const {
  ServeStats total;
  for (const auto& shard : shards_) total += shard->stats();
  total.record_sheds(fleet_sheds_.load(std::memory_order_relaxed) +
                     brownout_sheds_.load(std::memory_order_relaxed));
  return total;
}

std::vector<ServeStats> Fleet::shard_stats() const {
  std::vector<ServeStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

std::uint64_t Fleet::sheds() const {
  std::uint64_t total = fleet_sheds_.load(std::memory_order_relaxed) +
                        brownout_sheds_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) total += shard->sheds();
  return total;
}

LifetimeTotals Fleet::fleet_lifetime() const {
  LifetimeTotals totals;
  for (const auto& shard : shards_) totals.merge(shard->fleet_lifetime());
  return totals;
}

std::uint64_t Fleet::makespan_cycles() const {
  std::uint64_t makespan = 0;
  for (const auto& shard : shards_)
    makespan = std::max(makespan, shard->makespan_cycles());
  return makespan;
}

}  // namespace onesa::serve
