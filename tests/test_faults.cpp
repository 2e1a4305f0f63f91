// Tests of the fault-injection + self-healing serve tier:
// serve/faults.hpp (deterministic injector, zero-cost when disarmed),
// serve/errors.hpp (typed errors with structured context), the worker
// watchdog (crash respawn + in-flight re-queue, stall abandonment), the
// bounded-join shutdown (a stalled worker cannot hang the destructor), and
// the fleet resilience layer (retries with backoff, hedged re-submits with
// first-completion dedup, per-request timeouts, the per-shard circuit
// breaker, and brownout degradation that sheds bulk traffic first).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/sequential.hpp"
#include "serve/errors.hpp"
#include "serve/faults.hpp"
#include "serve/fleet.hpp"
#include "serve/request_queue.hpp"
#include "serve/server_pool.hpp"
#include "tensor/ops.hpp"
#include "tiny_models.hpp"

namespace onesa::serve {
namespace {

using test_models::register_tiny;
using test_models::tiny_input;
using test_models::tiny_options;
using tensor::FixMatrix;
using tensor::Matrix;

OneSaConfig small_config() {
  OneSaConfig cfg;
  cfg.array.rows = 4;
  cfg.array.cols = 4;
  cfg.array.macs_per_pe = 4;
  cfg.mode = ExecutionMode::kAnalytic;
  return cfg;
}

ServerPoolConfig small_pool(std::size_t workers) {
  ServerPoolConfig cfg;
  cfg.workers = workers;
  cfg.accelerator = small_config();
  return cfg;
}

FleetConfig small_fleet(std::size_t shards, std::size_t workers) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.workers_per_shard = workers;
  cfg.accelerator = small_config();
  return cfg;
}

/// Blocks the worker that runs GateLayer::infer: `entered` fires when the
/// forward starts, and the forward returns once `release` is set.
struct Gate {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> fired{false};
};

/// Identity layer whose inference waits on a Gate, so a test can hold a
/// pool worker busy for exactly as long as it needs.
class GateLayer : public nn::Layer {
 public:
  explicit GateLayer(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gate"; }
  Matrix forward(const Matrix& x) override { return x; }
  Matrix backward(const Matrix& grad_out) override { return grad_out; }
  Matrix infer(const Matrix& x) const override {
    if (!gate_->fired.exchange(true)) gate_->entered.set_value();
    gate_->released.wait();
    return x;
  }
  FixMatrix forward_accel(OneSaAccelerator&, const FixMatrix& x) override { return x; }
  void count_ops(nn::OpCensus&, std::size_t) const override {}

 private:
  std::shared_ptr<Gate> gate_;
};

/// Spin until `pred` holds or `timeout_ms` passes; true if it held.
template <typename Pred>
bool wait_for(Pred pred, double timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double, std::milli>(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// FaultInjector mechanics
// ---------------------------------------------------------------------------

TEST(FaultInjector, DisarmedDrawsNothing) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(injector.draw_transient_error());
    EXPECT_FALSE(injector.draw_poisoned_batch());
    EXPECT_FALSE(injector.draw_crash());
    EXPECT_EQ(injector.draw_stall_ms(), 0.0);
  }
  EXPECT_EQ(injector.latency_multiplier(), 1.0);
  EXPECT_EQ(injector.transients_injected(), 0u);
}

TEST(FaultInjector, ArmingEmptyPlanIsDisarm) {
  FaultInjector injector;
  FaultPlan plan;
  plan.transient_error_rate = 0.5;
  injector.arm(plan);
  EXPECT_TRUE(injector.armed());
  injector.arm(FaultPlan{});  // nothing to inject => disarmed
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  FaultPlan plan;
  plan.transient_error_rate = 0.3;
  plan.seed = 1234;
  FaultInjector a;
  FaultInjector b;
  a.arm(plan);
  b.arm(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.draw_transient_error(), b.draw_transient_error()) << "draw " << i;
  }
  // Re-arming resets the stream: the same prefix repeats.
  std::vector<bool> first;
  a.arm(plan);
  for (int i = 0; i < 50; ++i) first.push_back(a.draw_transient_error());
  a.arm(plan);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.draw_transient_error(), first[static_cast<std::size_t>(i)]);
}

TEST(FaultInjector, CrashBudgetIsConsumed) {
  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.max_crashes = 2;
  FaultInjector injector;
  injector.arm(plan);
  EXPECT_TRUE(injector.draw_crash());
  EXPECT_TRUE(injector.draw_crash());
  EXPECT_FALSE(injector.draw_crash());  // budget exhausted
  EXPECT_EQ(injector.crashes_injected(), 2u);
}

// ---------------------------------------------------------------------------
// Typed errors with structured context
// ---------------------------------------------------------------------------

TEST(FaultServing, TransientErrorsAreTypedAndCarryContext) {
  ServerPool pool(small_pool(1));
  FaultPlan plan;
  plan.transient_error_rate = 1.0;
  pool.fault_injector().arm(plan);

  Rng rng(7);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  auto future = pool.submit_model(tiny, tiny_input(2, rng));
  try {
    future.get();
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.kind(), InjectedFault::Kind::kTransient);
    EXPECT_NE(fault.context().worker, ErrorContext::kNone);
    EXPECT_NE(std::string(fault.what()).find("worker="), std::string::npos);
    // Transient injected faults are the retryable class.
    EXPECT_TRUE(is_retryable(std::make_exception_ptr(fault)));
  }
  EXPECT_GE(pool.fault_injector().transients_injected(), 1u);

  // Overloads are terminal, never retried.
  EXPECT_FALSE(is_retryable(std::make_exception_ptr(OverloadError("shed"))));
}

TEST(FaultServing, PoisonedBatchFailsEveryRequestInIt) {
  ServerPool pool(small_pool(1));
  FaultPlan plan;
  plan.poison_rate = 1.0;
  pool.fault_injector().arm(plan);

  Rng rng(8);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(pool.submit_model(tiny, tiny_input(2, rng)));
  }
  std::size_t poisoned = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const InjectedFault& fault) {
      EXPECT_EQ(fault.kind(), InjectedFault::Kind::kPoisonedBatch);
      ++poisoned;
    }
  }
  EXPECT_EQ(poisoned, futures.size());
}

TEST(FaultServing, FleetAdmissionShedCarriesBacklogContext) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.admission.max_pending_requests = 1;
  Fleet fleet(cfg);
  // Stall the worker so the backlog cannot drain between submits.
  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 60.0;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(9);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
  }
  std::size_t shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const OverloadError& overload) {
      EXPECT_GE(overload.context().queue_depth, 1u);
      EXPECT_NE(std::string(overload.what()).find("depth="), std::string::npos);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(fleet.sheds(), shed);
}

// ---------------------------------------------------------------------------
// Watchdog: crash respawn + stall abandonment
// ---------------------------------------------------------------------------

TEST(FaultServing, WatchdogRespawnsCrashedWorkerAndRequeuesItsBatch) {
  ServerPoolConfig cfg = small_pool(1);
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_interval_ms = 2.0;
  ServerPool pool(cfg);

  FaultPlan plan;
  plan.crash_rate = 1.0;
  plan.max_crashes = 1;
  pool.fault_injector().arm(plan);

  Rng rng(10);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(pool.submit_model(tiny, tiny_input(2, rng)));
  }
  // The crashed worker's in-flight batch is re-queued and served by the
  // respawned thread: every future completes with a value, exactly once.
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_GE(pool.worker_restarts(), 1u);
  EXPECT_GE(pool.fault_injector().crashes_injected(), 1u);
}

TEST(FaultServing, WatchdogAbandonsStalledWorker) {
  ServerPoolConfig cfg = small_pool(1);
  cfg.watchdog.enabled = true;
  cfg.watchdog.check_interval_ms = 2.0;
  cfg.watchdog.stall_timeout_ms = 20.0;
  ServerPool pool(cfg);

  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 10000.0;  // far past the stall timeout
  pool.fault_injector().arm(plan);

  Rng rng(11);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  auto future = pool.submit_model(tiny, tiny_input(2, rng));
  ASSERT_TRUE(wait_for([&] { return pool.stalls_detected() >= 1; }, 5000.0));
  // Disarm so the respawned worker serves the recovered batch cleanly.
  pool.fault_injector().disarm();
  EXPECT_NO_THROW(future.get());
  EXPECT_GE(pool.worker_restarts(), 1u);
}

// ---------------------------------------------------------------------------
// Bounded-join shutdown (satellite: stalled worker cannot hang shutdown)
// ---------------------------------------------------------------------------

TEST(FaultServing, ShutdownIsBoundedWhenAWorkerStalls) {
  ServerPoolConfig cfg = small_pool(1);
  cfg.join_timeout_ms = 100.0;  // no watchdog: nobody rescues the stall
  auto pool = std::make_unique<ServerPool>(cfg);

  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 20000.0;
  pool->fault_injector().arm(plan);

  Rng rng(12);
  const ModelHandle tiny = register_tiny(*pool, "tiny");
  auto future = pool->submit_model(tiny, tiny_input(2, rng));
  // Give the worker time to pick the batch up and enter the stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  const auto started = std::chrono::steady_clock::now();
  pool->shutdown();
  const double shutdown_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();
  // Bounded: the join gave up after ~join_timeout_ms instead of 20 s.
  EXPECT_LT(shutdown_ms, 5000.0);
  EXPECT_GE(pool->forced_detaches(), 1u);
  // The detached zombie saw the hurry flag, cut its injected sleep short,
  // and still completed its future — no request is ever lost.
  EXPECT_NO_THROW(future.get());
  pool.reset();
}

// ---------------------------------------------------------------------------
// Fleet resilience: retries, hedging, timeouts
// ---------------------------------------------------------------------------

TEST(FaultFleet, RetriesAbsorbTransientFaults) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.resilience.max_retries = 12;
  cfg.resilience.retry_backoff_ms = 0.2;
  Fleet fleet(cfg);

  FaultPlan plan;
  plan.transient_error_rate = 0.5;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(13);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_GE(fleet.retries(), 1u);
}

TEST(FaultFleet, RetryBudgetExhaustionSurfacesTheFault) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.resilience.max_retries = 2;
  cfg.resilience.retry_backoff_ms = 0.2;
  Fleet fleet(cfg);

  FaultPlan plan;
  plan.transient_error_rate = 1.0;  // nothing ever succeeds
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(14);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  auto future = fleet.submit_model(tiny, tiny_input(2, rng));
  EXPECT_THROW(future.get(), InjectedFault);
  EXPECT_GE(fleet.retries(), 2u);
}

TEST(FaultFleet, HedgingDuplicatesToAnotherShardAndDedupsResults) {
  FleetConfig cfg = small_fleet(2, 1);
  cfg.resilience.hedge_after_ms = 5.0;
  cfg.resilience.max_hedges = 1;
  Fleet fleet(cfg);

  // Shard 0 is pathologically slow; shard 1 is healthy. Hedged duplicates
  // land on the other shard and win; the stalled originals finish later and
  // are dropped by first-completion dedup.
  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 80.0;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(15);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  EXPECT_GE(fleet.hedges(), 1u);
}

TEST(FaultFleet, TimeoutSettlesTheFutureTyped) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.resilience.request_timeout_ms = 15.0;
  Fleet fleet(cfg);

  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 300.0;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(16);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  auto future = fleet.submit_model(tiny, tiny_input(2, rng));
  EXPECT_THROW(future.get(), TimeoutError);
  EXPECT_GE(fleet.timeouts(), 1u);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(FaultFleet, BreakerOpensOnErrorsAndReclosesAfterRecovery) {
  FleetConfig cfg = small_fleet(2, 1);
  cfg.breaker.enabled = true;
  cfg.breaker.min_samples = 4;
  cfg.breaker.ewma_alpha = 0.5;
  cfg.breaker.error_threshold = 0.5;
  cfg.breaker.open_cooldown_ms = 15.0;
  cfg.breaker.half_open_probes = 2;
  cfg.resilience.max_retries = 6;
  cfg.resilience.retry_backoff_ms = 0.2;
  Fleet fleet(cfg);

  FaultPlan plan;
  plan.transient_error_rate = 1.0;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(17);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  std::vector<std::future<ServeResult>> futures;
  // Push traffic until shard 0's breaker trips. Retries re-route to the
  // healthy shard, so every future still succeeds.
  ASSERT_TRUE(wait_for(
      [&] {
        futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
        return fleet.health(0).opens() >= 1;
      },
      10000.0));
  EXPECT_GE(fleet.health(0).opens(), 1u);

  // Heal the shard; keep a trickle flowing so half-open probes can run. The
  // breaker walks open -> half-open -> closed.
  fleet.shard(0).fault_injector().disarm();
  ASSERT_TRUE(wait_for(
      [&] {
        futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
        return fleet.health(0).state() == ShardHealth::Breaker::kClosed;
      },
      10000.0));
  EXPECT_EQ(fleet.health(0).state(), ShardHealth::Breaker::kClosed);

  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// ---------------------------------------------------------------------------
// Brownout degradation
// ---------------------------------------------------------------------------

TEST(FaultFleet, BrownoutShedsBulkFirstAndKeepsInteractiveFlowing) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.admission.max_pending_requests = 64;  // cap far away: admission stays open
  cfg.brownout.enabled = true;
  cfg.brownout.backlog_fraction = 0.05;  // pressure at ~3 pending
  cfg.brownout.enter_ticks = 1;
  cfg.brownout.exit_ticks = 1000000;  // pin the brownout on once entered
  Fleet fleet(cfg);

  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 40.0;
  fleet.shard(0).fault_injector().arm(plan);

  Rng rng(18);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  // A non-batchable model, so the requests cannot merge into one batch —
  // the backlog stays deep while the worker crawls through injected stalls.
  const ModelHandle solo =
      register_tiny(fleet, "solo", tiny_options(test_models::kTinyMacsPerRow, /*batchable=*/false));
  std::vector<std::future<ServeResult>> accepted;
  ASSERT_TRUE(wait_for(
      [&] {
        accepted.push_back(fleet.submit_model(solo, tiny_input(2, rng)));
        return fleet.browned_out();
      },
      10000.0));

  // Degraded: bulk is shed with a typed overload, interactive still admits.
  SubmitOptions bulk;
  bulk.priority = Priority::kBulk;
  auto shed = fleet.submit_model(tiny, tiny_input(2, rng), bulk);
  EXPECT_THROW(shed.get(), OverloadError);
  EXPECT_GE(fleet.brownout_sheds(), 1u);

  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  accepted.push_back(fleet.submit_model(tiny, tiny_input(2, rng), interactive));

  fleet.shard(0).fault_injector().disarm();
  for (auto& f : accepted) EXPECT_NO_THROW(f.get());
}

// ---------------------------------------------------------------------------
// Scheduling under faults (admission sheds + deadline misses; retry storms
// must not starve interactive)
// ---------------------------------------------------------------------------

TEST(FaultServing, RejectAdmissionAndDeadlineMissesUnderStalls) {
  ServerPoolConfig cfg = small_pool(1);
  cfg.admission.max_pending_requests = 3;
  ServerPool pool(cfg);

  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall_ms = 25.0;
  pool.fault_injector().arm(plan);

  Rng rng(19);
  // Non-batchable: every request is its own pass, so the stalls hold the
  // backlog deep.
  const ModelHandle solo =
      register_tiny(pool, "solo", tiny_options(test_models::kTinyMacsPerRow, /*batchable=*/false));
  SubmitOptions tight;
  tight.deadline_ms = 1.0;  // everything the stall touches misses this
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(pool.submit_model(solo, tiny_input(2, rng), tight));
  }
  std::size_t shed = 0;
  std::size_t completed = 0;
  std::size_t missed = 0;
  for (auto& f : futures) {
    try {
      ServeResult result = f.get();
      ++completed;
      if (result.deadline_missed) ++missed;
    } catch (const OverloadError&) {
      ++shed;
    }
  }
  // Admission under a stalled worker: the burst overflows the 3-deep
  // backlog, the newcomers over the cap are shed typed, and the admitted
  // requests complete — late, so they count as deadline misses.
  EXPECT_EQ(shed + completed, futures.size());
  EXPECT_GE(shed, 1u);
  EXPECT_GE(completed, 1u);
  EXPECT_GE(missed, 1u);
  pool.shutdown();
  EXPECT_EQ(pool.stats().sheds(), shed);
  EXPECT_GE(pool.stats().deadline_misses(), missed);
}

TEST(FaultFleet, RetryStormDoesNotStarveInteractive) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.resilience.max_retries = 8;
  cfg.resilience.retry_backoff_ms = 0.2;
  Fleet fleet(cfg);

  // Hold the only worker on a normal-class request whose forward blocks
  // until released, so nothing drains while the burst below is queued.
  const auto gate = std::make_shared<Gate>();
  std::future<void> entered = gate->entered.get_future();
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<GateLayer>(gate));
  fleet.register_model("gate", std::move(model));
  const ModelHandle bulk_model =
      register_tiny(fleet, "bulk-work", tiny_options(), cpwl::FunctionKind::kGelu);
  const ModelHandle interactive_model = register_tiny(fleet, "interactive-work");
  Rng rng(20);
  auto held = fleet.submit_model("gate", tensor::random_uniform(1, 4, rng));
  ASSERT_EQ(entered.wait_for(std::chrono::seconds(10)), std::future_status::ready);

  FaultPlan plan;
  plan.transient_error_rate = 0.4;
  fleet.shard(0).fault_injector().arm(plan);

  std::vector<std::future<ServeResult>> futures;
  // One saturating burst: bulk first so the queue is deep when the
  // interactive requests arrive — strict priority must jump them ahead even
  // while the transient-fault retry storm churns the queue.
  // Bulk and interactive traffic go to two different models, so the classes
  // never share a batch.
  SubmitOptions bulk;
  bulk.priority = Priority::kBulk;
  for (int i = 0; i < 24; ++i)
    futures.push_back(fleet.submit_model(bulk_model, tiny_input(2, rng), bulk));
  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  for (int i = 0; i < 8; ++i)
    futures.push_back(fleet.submit_model(interactive_model, tiny_input(2, rng), interactive));
  EXPECT_EQ(fleet.pending(), futures.size());  // all 32 queued behind the gate
  // Keep the burst queued a while longer, as behind any long-running job.
  // Every bulk request then waits out the hold plus the interactive work
  // served ahead of it, while retried attempts, which arrive after the
  // release, wait for at most one batch. Host wake-up delay on one late
  // attempt (up to ~8 ms, measured on a 4-vCPU Xeon VM with the test
  // pinned to one busy core) stays below the hold.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->release.set_value();
  EXPECT_NO_THROW(held.get());
  for (auto& f : futures) EXPECT_NO_THROW(f.get());

  const ServeStats stats = fleet.stats();
  ASSERT_GE(stats.class_completed(Priority::kInteractive), 8u);
  ASSERT_GE(stats.class_completed(Priority::kBulk), 24u);
  // Interactive p99 stays at or below bulk p99: the priority queue holds
  // its ordering even under the retry storm.
  EXPECT_LE(stats.class_percentile_latency_ms(Priority::kInteractive, 99.0),
            stats.class_percentile_latency_ms(Priority::kBulk, 99.0));
}

}  // namespace
}  // namespace onesa::serve
