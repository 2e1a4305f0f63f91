// Tests of the serving runtime (src/serve/): batched model execution is
// bit-identical to per-request forwards, cost-trace entries charge exactly
// the trace's simulated cycles, the pool drains cleanly on shutdown, the
// stats percentiles are monotone, and lifetime counters merge across
// workers. Scheduling, admission and dispatch tests use the tiny registered
// models of tiny_models.hpp as cheap payloads with a fixed simulated cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "onesa/accelerator.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/server_pool.hpp"
#include "serve/stats.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tiny_models.hpp"

namespace onesa::serve {
namespace {

using test_models::Gate;
using test_models::register_gate;
using test_models::register_tiny;
using test_models::tiny_input;
using test_models::tiny_options;
using test_models::trace_options;
using tensor::FixMatrix;
using tensor::Matrix;
using tensor::to_fixed;

OneSaConfig small_config(ExecutionMode mode) {
  OneSaConfig cfg;
  cfg.array.rows = 4;
  cfg.array.cols = 4;
  cfg.array.macs_per_pe = 4;
  cfg.mode = mode;
  return cfg;
}

FixMatrix random_fix(std::size_t rows, std::size_t cols, Rng& rng, double lo = -2.0,
                     double hi = 2.0) {
  return to_fixed(tensor::random_uniform(rows, cols, rng, lo, hi));
}

/// Small row-independent MLP (Linear -> ReLU -> LayerNorm -> Linear): every
/// layer treats rows as samples, so requests may batch.
std::unique_ptr<nn::Sequential> make_mlp(std::size_t in, std::size_t hidden,
                                         std::size_t out, Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::LayerNorm>(hidden));
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

/// Registration options opting a rows-are-samples model into batching.
ModelOptions batchable_options() {
  ModelOptions options;
  options.batchable = true;
  return options;
}

// ------------------------------------------------------------------ batching

TEST(Batcher, BatchedModelPassMatchesSoloForwards) {
  // Ragged row counts, executed directly (not through worker timing), so a
  // multi-request pass runs deterministically: every sliced output must
  // equal the request's own forward bit for bit.
  Rng rng(11);
  ModelRegistry registry;
  const ModelHandle handle = registry.add("mlp", make_mlp(6, 12, 3, rng), batchable_options());
  std::vector<Matrix> inputs;
  std::vector<ServeRequest> batch;
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t rows : {1u, 3u, 2u, 5u}) {
    inputs.push_back(tensor::random_uniform(rows, 6, rng, -1.0, 1.0));
    auto t = make_model_request(handle, inputs.back());
    batch.push_back(std::move(t.request));
    futures.push_back(std::move(t.result));
  }

  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  const BatchRecord record = DynamicBatcher().execute(batch, accel, 0);
  EXPECT_EQ(record.requests, 4u);
  EXPECT_EQ(record.rows, 11u);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ServeResult got = futures[i].get();
    EXPECT_EQ(got.logits, handle->infer(inputs[i])) << "request " << i;
    EXPECT_EQ(got.batch_requests, 4u);
    EXPECT_EQ(got.batch_rows, 11u);
  }
}

TEST(Batcher, CompatibilityRules) {
  Rng rng(14);
  ModelRegistry registry;
  const ModelHandle a = register_tiny(registry, "a");
  const ModelHandle b = register_tiny(registry, "b");
  const ModelHandle solo = register_tiny(registry, "solo", tiny_options(8, /*batchable=*/false));

  auto a1 = make_model_request(a, tiny_input(2, rng));
  auto a2 = make_model_request(a, tiny_input(3, rng));
  auto a_wide = make_model_request(a, tiny_input(2, rng, 6));
  auto b1 = make_model_request(b, tiny_input(2, rng));
  auto s1 = make_model_request(solo, tiny_input(2, rng));
  auto s2 = make_model_request(solo, tiny_input(2, rng));
  EXPECT_TRUE(DynamicBatcher::compatible(a1.request, a2.request));       // same handle
  EXPECT_FALSE(DynamicBatcher::compatible(a1.request, a_wide.request));  // width
  EXPECT_FALSE(DynamicBatcher::compatible(a1.request, b1.request));      // other model
  EXPECT_FALSE(DynamicBatcher::compatible(s1.request, s2.request));      // not batchable

  // Two versions of one name never share a pass: the hot-swapped entry is a
  // different handle, so its requests cannot ride with the old version's.
  const ModelHandle a_v2 = registry.swap("a", test_models::tiny_model());
  ASSERT_EQ(a_v2->name, a->name);
  ASSERT_TRUE(a_v2->batchable);
  auto v2 = make_model_request(a_v2, tiny_input(2, rng));
  EXPECT_FALSE(DynamicBatcher::compatible(a1.request, v2.request));
  EXPECT_FALSE(DynamicBatcher::compatible(v2.request, a1.request));
}

TEST(Batcher, TakeBatchRespectsBudgetsAndOrder) {
  Rng rng(15);
  BatcherConfig cfg;
  cfg.max_batch_rows = 6;
  DynamicBatcher batcher(cfg);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");

  std::vector<ServeRequest> pending;
  std::vector<RequestId> ids;
  for (std::size_t rows : {3u, 2u, 4u, 1u}) {  // 3+2 fit; 4 overflows; 1 fits
    auto t = make_model_request(tiny, tiny_input(rows, rng));
    ids.push_back(t.request.id);
    pending.push_back(std::move(t.request));
  }
  const auto batch = batcher.take_batch(pending);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, ids[0]);
  EXPECT_EQ(batch[1].id, ids[1]);
  EXPECT_EQ(batch[2].id, ids[3]);  // the 1-row request leapfrogs the 4-row one
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().id, ids[2]);
}

// ---------------------------------------------------------------------- pool

TEST(ServerPool, ServesManyRequestsBitIdentically) {
  ServerPoolConfig cfg;
  cfg.workers = 3;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(16);
  const ModelHandle gelu =
      register_tiny(pool, "gelu", tiny_options(), cpwl::FunctionKind::kGelu);
  std::vector<Matrix> inputs;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 30; ++i) {
    inputs.push_back(tiny_input(1 + i % 5, rng, 8));
    futures.push_back(pool.submit_model(gelu, inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().logits, gelu->infer(inputs[i])) << "request " << i;
  }
}

TEST(ServerPool, DrainsCleanlyOnShutdown) {
  ServerPoolConfig cfg;
  cfg.workers = 4;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(17);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 25; ++i) futures.push_back(pool.submit_model(tiny, tiny_input(2, rng)));

  pool.shutdown();  // must serve all 25 before returning
  EXPECT_EQ(pool.pending(), 0u);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    f.get();
  }
  EXPECT_EQ(pool.stats().completed(), 25u);
  // Closed pool rejects new work — typed, through the future, via the same
  // shed path a submit racing shutdown takes (never a bare throw, so the
  // submit call itself can't blow up mid-race).
  auto rejected = pool.submit_model(tiny, tiny_input(2, rng));
  EXPECT_THROW(rejected.get(), OverloadError);
  pool.shutdown();  // idempotent
}

TEST(ServerPool, ShutdownIsBoundedWhenAWorkerStalls) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  cfg.join_timeout_ms = 100.0;
  auto pool = std::make_unique<ServerPool>(cfg);

  Rng rng(12);
  const auto gate = std::make_shared<Gate>();
  const ModelHandle gate_model = register_gate(*pool, gate);
  auto future = pool->submit_model(gate_model, tiny_input(2, rng));
  ASSERT_TRUE(gate->wait_entered());

  const auto started = std::chrono::steady_clock::now();
  pool->shutdown();
  const double shutdown_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();
  // Bounded: the join gave up after ~join_timeout_ms although the worker
  // is still inside the forward, and detached it.
  EXPECT_GE(shutdown_ms, 100.0);
  EXPECT_LT(shutdown_ms, 5000.0);
  EXPECT_EQ(pool->forced_detaches(), 1u);
  EXPECT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  // The detached worker owns the pool's core: destroying the pool first is
  // safe, and once the forward returns the worker still settles its future.
  pool.reset();
  gate->open();
  EXPECT_EQ(future.get().logits.rows(), 2u);
}

TEST(ServerPool, CostTraceEntryMatchesDirectEstimate) {
  // A whole-network workload trace is served as an ordinary registry entry:
  // a one-layer model registered with the trace as its cost model. Each
  // request is charged exactly the trace's closed-form estimate.
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  const auto trace = std::make_shared<const nn::WorkloadTrace>(nn::bert_base_trace(16));
  const ModelHandle bert = register_tiny(pool, "bert-16", trace_options(trace));
  EXPECT_FALSE(bert->batchable);
  EXPECT_EQ(bert->cost_trace_macs, nn::trace_mac_ops(*trace));
  Rng rng(21);
  const ServeResult got = pool.submit_model(bert, tiny_input(1, rng)).get();
  pool.shutdown();

  const sim::TimingModel timing(cfg.accelerator.array);
  const auto want = nn::estimate_trace(*trace, timing);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.cycles.total(), nn::estimate_trace_cycles(*trace, timing).total());
  EXPECT_EQ(got.mac_ops, nn::trace_mac_ops(*trace));
  EXPECT_EQ(got.batch_requests, 1u);

  // The worker charged its accelerator, so the fleet totals see the trace.
  const LifetimeTotals fleet = pool.fleet_lifetime();
  EXPECT_EQ(fleet.cycles.total(), want.cycles.total());
  EXPECT_EQ(fleet.mac_ops, nn::trace_mac_ops(*trace));
}

TEST(ServerPool, LeastLoadedBalancesUniformCostsExactly) {
  // 16 identical cost-trace requests over 4 workers: least-loaded dispatch with
  // its lowest-index tie break hands each worker exactly 4, so per-worker
  // busy cycles are equal and the fleet makespan is total/4 — the mechanism
  // behind the N-worker speedup of bench/serving_throughput.cpp.
  ServerPoolConfig cfg;
  cfg.workers = 4;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  const ModelHandle gcn = register_tiny(
      pool, "gcn",
      trace_options(std::make_shared<const nn::WorkloadTrace>(nn::gcn_trace(256, 32, 16, 4, 8))));
  Rng rng(22);
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(pool.submit_model(gcn, tiny_input(1, rng)));
  for (auto& f : futures) f.get();
  pool.shutdown();

  const auto busy = pool.worker_busy_cycles();
  ASSERT_EQ(busy.size(), 4u);
  for (std::size_t w = 1; w < busy.size(); ++w) EXPECT_EQ(busy[w], busy[0]);
  EXPECT_EQ(pool.makespan_cycles(), busy[0]);
  EXPECT_EQ(pool.stats().total_cycles().total(), 4 * busy[0]);
}

TEST(ServerPool, LeastLoadedBalancesSkewedCosts) {
  // Heterogeneous traffic: one heavy cost-trace request followed by many
  // light ones.
  // Least-loaded routes the light stream to the worker not holding the
  // heavy trace until the assigned simulated cost evens out, so no worker
  // ends more than one light trace above the even split (or above the
  // heavy trace alone).
  const auto heavy =
      std::make_shared<const nn::WorkloadTrace>(nn::gcn_trace(2048, 64, 32, 8, 16));
  const auto light =
      std::make_shared<const nn::WorkloadTrace>(nn::gcn_trace(64, 16, 8, 4, 4));
  ASSERT_GT(nn::trace_mac_ops(*heavy), 8 * nn::trace_mac_ops(*light));  // the skew

  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  const sim::TimingModel timing(cfg.accelerator.array);
  const std::uint64_t heavy_cycles = nn::estimate_trace(*heavy, timing).cycles.total();
  const std::uint64_t light_cycles = nn::estimate_trace(*light, timing).cycles.total();
  constexpr std::uint64_t kLight = 12;

  ServerPool pool(cfg);
  const ModelHandle heavy_entry = register_tiny(pool, "heavy", trace_options(heavy));
  const ModelHandle light_entry = register_tiny(pool, "light", trace_options(light));
  Rng rng(23);
  std::vector<std::future<ServeResult>> futures;
  futures.push_back(pool.submit_model(heavy_entry, tiny_input(1, rng)));
  for (std::uint64_t i = 0; i < kLight; ++i)
    futures.push_back(pool.submit_model(light_entry, tiny_input(1, rng)));
  for (auto& f : futures) f.get();
  pool.shutdown();

  const std::uint64_t makespan = pool.makespan_cycles();
  EXPECT_GE(makespan, heavy_cycles);
  // Greedy list-scheduling bound: below the ~heavy + 6 light a cost-blind
  // alternation would give, whichever of the two dominates.
  EXPECT_LE(makespan, std::max(heavy_cycles, kLight * light_cycles) + light_cycles);
}

TEST(ServerPool, LeastLoadedAssignedCostTracksEstimates) {
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  // One request per batch so assigned costs map 1:1 to request estimates.
  cfg.batcher.max_batch_requests = 1;
  ServerPool pool(cfg);

  Rng rng(77);
  const ModelHandle tiny = register_tiny(pool, "tiny", tiny_options(16));
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(pool.submit_model(tiny, tiny_input(2, rng, 8)));
  for (auto& f : futures) f.get();
  pool.shutdown();

  const auto assigned = pool.assigned_cost();
  ASSERT_EQ(assigned.size(), 2u);
  // 6 equal-cost requests (2 rows x 16 MACs = 32 MACs each) level to 3 each.
  EXPECT_EQ(assigned[0], assigned[1]);
  EXPECT_EQ(assigned[0] + assigned[1], 6u * 2u * 16u);
}

TEST(ServerPool, BatchesCompatibleRequestsTogether) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  cfg.batcher.max_batch_rows = 64;
  ServerPool pool(cfg);

  Rng rng(18);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  // Same model and width — all 6 should ride in few passes. The single
  // worker only starts consuming after the first pop, so later requests
  // accumulate and batch.
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(pool.submit_model(tiny, tiny_input(4, rng)));
  for (auto& f : futures) f.get();
  pool.shutdown();

  const ServeStats stats = pool.stats();
  EXPECT_EQ(stats.completed(), 6u);
  EXPECT_LE(stats.batches(), 6u);
  EXPECT_EQ(stats.rows(), 24u);  // every input row served exactly once
  EXPECT_GE(stats.mean_batch_requests(), 1.0);
}

// --------------------------------------------------------------------- stats

TEST(ServeStats, PercentilesAreMonotone) {
  ServeStats stats;
  BatchRecord record;
  record.requests = 9;
  record.rows = 9;
  // Deliberately unsorted latencies.
  record.latency_ms = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0};
  stats.record_batch(record);

  double prev = 0.0;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    const double v = stats.percentile_latency_ms(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
  EXPECT_DOUBLE_EQ(stats.percentile_latency_ms(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.percentile_latency_ms(50.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.percentile_latency_ms(100.0), 9.0);
  EXPECT_THROW(stats.percentile_latency_ms(101.0), Error);
}

TEST(ServeStats, MergeAccumulatesEverything) {
  ServeStats a;
  ServeStats b;
  BatchRecord ra;
  ra.requests = 2;
  ra.rows = 4;
  ra.cycles.compute_cycles = 100;
  ra.mac_ops = 50;
  ra.latency_ms = {1.0, 2.0};
  BatchRecord rb;
  rb.requests = 1;
  rb.rows = 4;
  rb.cycles.compute_cycles = 40;
  rb.mac_ops = 20;
  rb.latency_ms = {10.0};
  a.record_batch(ra);
  b.record_batch(rb);

  a.merge(b);
  EXPECT_EQ(a.completed(), 3u);
  EXPECT_EQ(a.batches(), 2u);
  EXPECT_EQ(a.total_cycles().compute_cycles, 140u);
  EXPECT_EQ(a.total_mac_ops(), 70u);
  EXPECT_EQ(a.rows(), 8u);
  EXPECT_DOUBLE_EQ(a.percentile_latency_ms(100.0), 10.0);
}

TEST(ServeStats, PerClassLatencyAccounting) {
  // Latencies attribute to their request's scheduling class, so a bulk
  // flood can never hide an interactive p95. Hand-built records without a
  // class vector count as kNormal (backwards compatibility).
  ServeStats stats;
  BatchRecord record;
  record.requests = 5;
  record.rows = 5;
  record.latency_ms = {1.0, 100.0, 2.0, 200.0, 3.0};
  record.latency_class = {Priority::kInteractive, Priority::kBulk, Priority::kInteractive,
                          Priority::kBulk, Priority::kInteractive};
  stats.record_batch(record);

  EXPECT_EQ(stats.class_completed(Priority::kInteractive), 3u);
  EXPECT_EQ(stats.class_completed(Priority::kBulk), 2u);
  EXPECT_EQ(stats.class_completed(Priority::kNormal), 0u);
  EXPECT_DOUBLE_EQ(stats.class_percentile_latency_ms(Priority::kInteractive, 95.0), 3.0);
  EXPECT_DOUBLE_EQ(stats.class_percentile_latency_ms(Priority::kBulk, 95.0), 200.0);
  EXPECT_DOUBLE_EQ(stats.class_mean_latency_ms(Priority::kInteractive), 2.0);
  EXPECT_DOUBLE_EQ(stats.class_percentile_latency_ms(Priority::kNormal, 95.0), 0.0);
  // The classless aggregate still sees everything.
  EXPECT_DOUBLE_EQ(stats.percentile_latency_ms(100.0), 200.0);

  // Classless record: everything lands in kNormal.
  BatchRecord classless;
  classless.requests = 2;
  classless.rows = 2;
  classless.latency_ms = {7.0, 9.0};
  ServeStats other;
  other.record_batch(classless);
  EXPECT_EQ(other.class_completed(Priority::kNormal), 2u);

  // merge() folds the per-class series too.
  stats.merge(other);
  EXPECT_EQ(stats.class_completed(Priority::kNormal), 2u);
  EXPECT_EQ(stats.class_completed(Priority::kInteractive), 3u);
  EXPECT_DOUBLE_EQ(stats.class_percentile_latency_ms(Priority::kNormal, 100.0), 9.0);
}

TEST(ServeStats, PoolTracksPerClassLatencies) {
  // End-to-end: requests of three classes served by a real pool appear in
  // the merged per-class accounting with the right counts.
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(91);
  const ModelHandle handle = pool.register_model("mlp", make_mlp(4, 8, 2, rng));
  std::vector<std::future<ServeResult>> futures;
  const Priority classes[] = {Priority::kInteractive, Priority::kNormal, Priority::kBulk};
  for (int i = 0; i < 12; ++i) {
    SubmitOptions options;
    options.priority = classes[i % 3];
    futures.push_back(
        pool.submit_model(handle, tensor::random_uniform(2, 4, rng), options));
  }
  for (auto& f : futures) f.get();
  pool.shutdown();

  const ServeStats stats = pool.stats();
  EXPECT_EQ(stats.completed(), 12u);
  EXPECT_EQ(stats.class_completed(Priority::kInteractive), 4u);
  EXPECT_EQ(stats.class_completed(Priority::kNormal), 4u);
  EXPECT_EQ(stats.class_completed(Priority::kBulk), 4u);
  for (Priority c : classes) {
    EXPECT_GE(stats.class_percentile_latency_ms(c, 95.0),
              stats.class_percentile_latency_ms(c, 50.0));
    EXPECT_GT(stats.class_mean_latency_ms(c), 0.0);
  }
}

// ------------------------------------------------- lifetime counter merging

TEST(LifetimeTotals, CycleStatsMergeHelper) {
  sim::CycleStats a;
  a.fill_cycles = 1;
  a.compute_cycles = 2;
  a.drain_cycles = 3;
  a.memory_cycles = 4;
  a.ipf_cycles = 5;
  sim::CycleStats b;
  b.fill_cycles = 10;
  b.compute_cycles = 20;
  b.drain_cycles = 30;
  b.memory_cycles = 40;
  b.ipf_cycles = 50;

  const sim::CycleStats sum = a + b;
  EXPECT_EQ(sum.fill_cycles, 11u);
  EXPECT_EQ(sum.compute_cycles, 22u);
  EXPECT_EQ(sum.drain_cycles, 33u);
  EXPECT_EQ(sum.memory_cycles, 44u);
  EXPECT_EQ(sum.ipf_cycles, 55u);
  EXPECT_EQ(sum.total(), a.total() + b.total());
}

TEST(LifetimeTotals, MergeAcrossAcceleratorInstances) {
  Rng rng(19);
  OneSaAccelerator a(small_config(ExecutionMode::kAnalytic));
  OneSaAccelerator b(small_config(ExecutionMode::kAnalytic));
  const FixMatrix x = random_fix(4, 4, rng);
  a.gemm(x, x);
  b.elementwise(cpwl::FunctionKind::kRelu, x);

  LifetimeTotals fleet = a.lifetime();
  fleet.merge(b.lifetime());
  EXPECT_EQ(fleet.cycles, a.lifetime_cycles() + b.lifetime_cycles());
  EXPECT_EQ(fleet.mac_ops, a.lifetime_mac_ops() + b.lifetime_mac_ops());
}

// ------------------------------------------------------------ model registry

TEST(ModelRegistry, RegistersAndFreezesModels) {
  Rng rng(40);
  ModelRegistry registry;
  const ModelHandle handle = registry.add("mlp", make_mlp(6, 8, 3, rng));
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->name, "mlp");
  EXPECT_FALSE(handle->batchable);  // batching is opt-in (row coupling is unsafe)
  EXPECT_GT(handle->mac_ops_per_row, 0u);

  // get() returns the same shared entry (one weight copy per pool).
  EXPECT_EQ(registry.get("mlp"), handle);
  EXPECT_EQ(registry.find("mlp"), handle);
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_THROW(registry.get("nope"), Error);
  EXPECT_THROW(registry.add("mlp", make_mlp(6, 8, 3, rng)), Error);  // duplicate
  EXPECT_THROW(registry.add("null", nullptr), Error);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.names(), std::vector<std::string>{"mlp"});
}

TEST(ModelRegistry, CostTraceAndBatchabilityOptionsStick) {
  Rng rng(41);
  ModelRegistry registry;
  ModelOptions options;
  options.batchable = true;
  options.cost_trace = std::make_shared<const nn::WorkloadTrace>(nn::bert_base_trace(16));
  options.mac_ops_per_row = 12345;
  const ModelHandle handle = registry.add("bert", make_mlp(4, 4, 2, rng), options);
  EXPECT_TRUE(handle->batchable);
  EXPECT_EQ(handle->cost_trace, options.cost_trace);
  EXPECT_EQ(handle->mac_ops_per_row, 12345u);  // explicit override beats the census
  EXPECT_EQ(handle->cost_trace_macs, nn::trace_mac_ops(*options.cost_trace));

  // Admission control and least-loaded dispatch budget what execution will
  // charge: with a cost trace, the request cost is the trace's MACs (per
  // request, not per row); without one, rows x mac_ops_per_row.
  auto traced = make_model_request(handle, tensor::random_uniform(3, 4, rng));
  EXPECT_EQ(traced.request.cost, handle->cost_trace_macs);
  const ModelHandle plain = registry.add("plain", make_mlp(4, 4, 2, rng));
  auto untraced = make_model_request(plain, tensor::random_uniform(3, 4, rng));
  EXPECT_EQ(untraced.request.cost, 3 * plain->mac_ops_per_row);
}

// --------------------------------------------------------- real-model serving

TEST(ServerPool, ModelLogitsMatchDirectForwardBitExactly) {
  ServerPoolConfig cfg;
  cfg.workers = 3;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(42);
  const ModelHandle handle = pool.register_model("mlp", make_mlp(6, 16, 4, rng));

  std::vector<tensor::Matrix> inputs;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 24; ++i) {
    inputs.push_back(tensor::random_uniform(1 + i % 4, 6, rng, -1.0, 1.0));
    futures.push_back(pool.submit_model("mlp", inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult got = futures[i].get();
    // Bit-exact vs the direct const forward on the shared weights.
    EXPECT_EQ(got.logits, handle->infer(inputs[i])) << "request " << i;
    EXPECT_GT(got.mac_ops, 0u);
    EXPECT_GT(got.cycles.total(), 0u);  // simulated charge rides along
  }
  pool.shutdown();
  // Real-model work shows up in the fleet's simulated accounting.
  EXPECT_GT(pool.fleet_lifetime().mac_ops, 0u);
  EXPECT_GT(pool.makespan_cycles(), 0u);
}

TEST(ServerPool, BatchedModelRequestsStayBitExact) {
  // Single worker so later requests pile up and batch together; batched
  // infer must slice back exactly what a solo forward produces.
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  cfg.batcher.max_batch_rows = 64;
  cfg.batcher.max_batch_requests = 16;
  ServerPool pool(cfg);

  Rng rng(43);
  const ModelHandle handle =
      pool.register_model("mlp", make_mlp(5, 12, 3, rng), batchable_options());

  std::vector<tensor::Matrix> inputs;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 20; ++i) {
    inputs.push_back(tensor::random_uniform(2 + i % 3, 5, rng, -1.0, 1.0));
    futures.push_back(pool.submit_model(handle, inputs.back()));
  }
  std::size_t max_batch = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult got = futures[i].get();
    max_batch = std::max(max_batch, got.batch_requests);
    EXPECT_EQ(got.logits, handle->infer(inputs[i])) << "request " << i;
  }
  pool.shutdown();
  EXPECT_EQ(pool.stats().completed(), 20u);
  // The single consumer should have packed at least one multi-request batch.
  EXPECT_GT(max_batch, 1u);
}

TEST(ServerPool, NonBatchableModelsServeOneRequestPerPass) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(44);
  const ModelHandle handle = pool.register_model("solo-mlp", make_mlp(4, 8, 2, rng));

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(pool.submit_model(handle, tensor::random_uniform(2, 4, rng)));
  for (auto& f : futures) EXPECT_EQ(f.get().batch_requests, 1u);
  pool.shutdown();
  EXPECT_EQ(pool.stats().batches(), 8u);
}

TEST(ServerPool, PrepackedRegistryLogitsBitExactVsTrainingForward) {
  // Registration pre-packs every Linear's weights, and the served infer()
  // fuses Linear+ReLU pairs into packed GEMM epilogues. None of that may
  // move a single bit: served logits must equal the per-layer TRAINING
  // forward of an identically-initialized model (the unfused reference
  // composition, matmul + bias broadcast + activation as separate passes).
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng_served(77);
  Rng rng_reference(77);  // identical init stream -> identical weights
  const ModelHandle handle = pool.register_model("mlp", make_mlp(6, 16, 4, rng_served));
  auto reference = make_mlp(6, 16, 4, rng_reference);

  Rng rng_inputs(78);
  std::vector<tensor::Matrix> inputs;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i) {
    inputs.push_back(tensor::random_uniform(2, 6, rng_inputs, -1.0, 1.0));
    futures.push_back(pool.submit_model(handle, inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().logits, reference->forward(inputs[i])) << "request " << i;
  }
  pool.shutdown();
}

TEST(Batcher, ModelCompatibilityRules) {
  Rng rng(45);
  ModelRegistry registry;
  const ModelHandle mlp_a = registry.add("a", make_mlp(4, 8, 2, rng), batchable_options());
  const ModelHandle mlp_b = registry.add("b", make_mlp(4, 8, 2, rng), batchable_options());
  const ModelHandle mlp_c = registry.add("c", make_mlp(4, 8, 2, rng));  // default: solo

  auto a1 = make_model_request(mlp_a, tensor::random_uniform(2, 4, rng));
  auto a2 = make_model_request(mlp_a, tensor::random_uniform(3, 4, rng));
  auto b1 = make_model_request(mlp_b, tensor::random_uniform(2, 4, rng));
  auto c1 = make_model_request(mlp_c, tensor::random_uniform(2, 4, rng));
  auto c2 = make_model_request(mlp_c, tensor::random_uniform(2, 4, rng));
  EXPECT_TRUE(DynamicBatcher::compatible(a1.request, a2.request));   // same model
  EXPECT_FALSE(DynamicBatcher::compatible(a1.request, b1.request));  // other model
  EXPECT_FALSE(DynamicBatcher::compatible(c1.request, c2.request));  // non-batchable
}

// ------------------------------------------- priority / deadline scheduling

/// Drain `queue` from a single worker and return the request ids in service
/// order (max_batch_requests = 1 so nothing rides along).
std::vector<RequestId> service_order(RequestQueue& queue, std::size_t n) {
  std::vector<RequestId> order;
  for (std::size_t i = 0; i < n; ++i) {
    auto batch = queue.pop_batch(0);
    for (auto& req : batch) {
      order.push_back(req.id);
      req.promise.set_value({});  // futures must not dangle
    }
  }
  return order;
}

BatcherConfig one_request_batches() {
  BatcherConfig cfg;
  cfg.max_batch_requests = 1;
  return cfg;
}

TEST(Scheduling, EdfOrdersWithinPriorityClass) {
  RequestQueue queue(1, DynamicBatcher(one_request_batches()));
  Rng rng(50);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");

  SubmitOptions late;
  late.deadline_ms = 5000.0;
  SubmitOptions soon;
  soon.deadline_ms = 50.0;
  SubmitOptions none;  // no deadline — sorts after every dated request

  auto a = make_model_request(tiny, tiny_input(1, rng), none);
  auto b = make_model_request(tiny, tiny_input(1, rng), late);
  auto c = make_model_request(tiny, tiny_input(1, rng), soon);
  const RequestId ida = a.request.id, idb = b.request.id, idc = c.request.id;
  queue.push(std::move(a.request));
  queue.push(std::move(b.request));
  queue.push(std::move(c.request));

  const auto order = service_order(queue, 3);
  EXPECT_EQ(order, (std::vector<RequestId>{idc, idb, ida}));
}

TEST(Scheduling, PriorityClassesBeatDeadlines) {
  RequestQueue queue(1, DynamicBatcher(one_request_batches()));
  Rng rng(51);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");

  SubmitOptions bulk_soon;
  bulk_soon.priority = Priority::kBulk;
  bulk_soon.deadline_ms = 1.0;  // earliest deadline, lowest class
  SubmitOptions normal;
  normal.priority = Priority::kNormal;
  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;

  auto a = make_model_request(tiny, tiny_input(1, rng), bulk_soon);
  auto b = make_model_request(tiny, tiny_input(1, rng), normal);
  auto c = make_model_request(tiny, tiny_input(1, rng), interactive);
  const RequestId ida = a.request.id, idb = b.request.id, idc = c.request.id;
  queue.push(std::move(a.request));
  queue.push(std::move(b.request));
  queue.push(std::move(c.request));

  const auto order = service_order(queue, 3);
  EXPECT_EQ(order, (std::vector<RequestId>{idc, idb, ida}));
}

TEST(Scheduling, FifoTieBreakWithinEqualClassAndDeadline) {
  RequestQueue queue(1, DynamicBatcher(one_request_batches()));
  Rng rng(52);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");
  std::vector<RequestId> ids;
  for (int i = 0; i < 4; ++i) {
    auto t = make_model_request(tiny, tiny_input(1, rng));
    ids.push_back(t.request.id);
    queue.push(std::move(t.request));
  }
  EXPECT_EQ(service_order(queue, 4), ids);
}

TEST(Scheduling, DeadlineMissesAreCountedPerRequest) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(53);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  SubmitOptions hopeless;
  hopeless.deadline_ms = 1e-6;  // already blown by the time a worker runs it
  auto missed = pool.submit_model(tiny, tiny_input(2, rng), hopeless);
  auto relaxed = pool.submit_model(tiny, tiny_input(2, rng));

  EXPECT_TRUE(missed.get().deadline_missed);
  EXPECT_FALSE(relaxed.get().deadline_missed);
  pool.shutdown();
  EXPECT_EQ(pool.stats().deadline_misses(), 1u);
}

TEST(Scheduling, ResultCarriesPriorityClass) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);
  Rng rng(54);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  SubmitOptions opts;
  opts.priority = Priority::kInteractive;
  auto f = pool.submit_model(tiny, tiny_input(1, rng), opts);
  EXPECT_EQ(f.get().priority, Priority::kInteractive);
  pool.shutdown();
}

TEST(RequestQueue, PopNeverAllocatesWhenTheBacklogOutgrowsItsHighWater) {
  BatcherConfig batches;
  batches.max_batch_requests = 4;
  RequestQueue queue(1, DynamicBatcher(batches));
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");
  std::vector<ServeRequest> out;
  out.reserve(batches.max_batch_requests);
  std::vector<ServeRequest> served;
  served.reserve(128);
  // Every step's backlog passes the previous high-water mark. The pushes
  // come from another thread, as a submitter's do; only the popping
  // (worker) thread's allocations are counted.
  for (const std::size_t backlog : {16u, 32u, 64u, 128u}) {
    std::thread submitter([&] {
      Rng rng(70 + backlog);
      for (std::size_t i = 0; i < backlog; ++i)
        queue.push(make_model_request(tiny, tiny_input(1, rng)).request);
    });
    submitter.join();
    const std::uint64_t before = alloccount::thread_allocations();
    while (served.size() < backlog) {
      queue.pop_batch(0, out);
      for (ServeRequest& req : out) served.push_back(std::move(req));
    }
    EXPECT_EQ(alloccount::thread_allocations() - before, 0u) << "backlog " << backlog;
    for (ServeRequest& req : served) req.promise.set_value({});
    served.clear();
  }
}

// ----------------------------------------------------------- admission control

TEST(Admission, RejectPolicyShedsTheNewcomer) {
  AdmissionConfig admission;
  admission.max_pending_requests = 2;
  RequestQueue queue(1, DynamicBatcher(one_request_batches()), admission);
  Rng rng(60);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");

  auto a = make_model_request(tiny, tiny_input(1, rng));
  auto b = make_model_request(tiny, tiny_input(1, rng));
  auto c = make_model_request(tiny, tiny_input(1, rng));
  EXPECT_TRUE(queue.push(std::move(a.request)));
  EXPECT_TRUE(queue.push(std::move(b.request)));
  EXPECT_FALSE(queue.push(std::move(c.request)));  // over the cap — shed

  EXPECT_EQ(queue.sheds(), 1u);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_THROW(c.result.get(), OverloadError);
  service_order(queue, 2);  // drain so the remaining futures resolve
  a.result.get();
  b.result.get();
}

TEST(Admission, BacklogCostBudgetSheds) {
  AdmissionConfig admission;
  admission.max_backlog_cost = 40;  // each 2-row tiny request costs 2 x 8 = 16 MACs
  RequestQueue queue(1, DynamicBatcher(one_request_batches()), admission);
  Rng rng(61);
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");

  std::vector<TaggedRequest> tagged;
  for (int i = 0; i < 3; ++i) tagged.push_back(make_model_request(tiny, tiny_input(2, rng)));
  EXPECT_TRUE(queue.push(std::move(tagged[0].request)));
  EXPECT_EQ(queue.backlog_cost(), 16u);
  EXPECT_TRUE(queue.push(std::move(tagged[1].request)));
  EXPECT_EQ(queue.backlog_cost(), 32u);
  EXPECT_FALSE(queue.push(std::move(tagged[2].request)));  // 48 > 40
  EXPECT_THROW(tagged[2].result.get(), OverloadError);
  service_order(queue, 2);
}

TEST(Admission, PendingCapIsExactUnderConcurrentSubmitters) {
  constexpr std::size_t kCap = 16;
  constexpr std::size_t kSubmitters = 8;
  constexpr std::size_t kPushesEach = 50;
  AdmissionConfig admission;
  admission.max_pending_requests = kCap;
  ModelRegistry registry;
  const ModelHandle tiny = register_tiny(registry, "tiny");
  Rng rng(65);
  for (int trial = 0; trial < 1000; ++trial) {
    // No worker pops, so every admitted request stays pending: exactly kCap
    // of the pushes may be admitted, however the submitters interleave.
    RequestQueue queue(1, DynamicBatcher(one_request_batches()), admission);
    std::vector<std::vector<ServeRequest>> requests(kSubmitters);
    for (auto& mine : requests)
      for (std::size_t i = 0; i < kPushesEach; ++i)
        mine.push_back(make_model_request(tiny, tiny_input(1, rng)).request);
    std::atomic<bool> go{false};
    std::atomic<std::size_t> admitted{0};
    std::vector<std::thread> submitters;
    for (auto& mine : requests) {
      submitters.emplace_back([&go, &admitted, &queue, &mine] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        for (ServeRequest& req : mine)
          if (queue.push(std::move(req))) admitted.fetch_add(1, std::memory_order_relaxed);
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : submitters) t.join();
    ASSERT_EQ(admitted.load(), kCap) << "trial " << trial;
    ASSERT_EQ(queue.pending(), kCap) << "trial " << trial;
    ASSERT_EQ(queue.sheds(), kSubmitters * kPushesEach - kCap) << "trial " << trial;
  }
}

TEST(Admission, PoolAccountsShedsAndServesTheRest) {
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  cfg.admission.max_pending_requests = 4;
  ServerPool pool(cfg);

  Rng rng(64);
  const ModelHandle tiny = register_tiny(pool, "tiny");
  constexpr int kSubmitted = 40;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kSubmitted; ++i)
    futures.push_back(pool.submit_model(tiny, tiny_input(2, rng)));

  std::size_t served = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++served;
    } catch (const OverloadError&) {
      ++shed;
    }
  }
  pool.shutdown();
  // Every accepted request completes; every shed one is accounted; nothing
  // is lost (how many shed depends on worker/submitter timing).
  EXPECT_EQ(served + shed, static_cast<std::size_t>(kSubmitted));
  EXPECT_EQ(pool.stats().completed(), served);
  EXPECT_EQ(pool.stats().sheds(), shed);
  EXPECT_EQ(pool.sheds(), shed);
}

TEST(Admission, RejectAdmissionAndDeadlineMissesUnderStalls) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  cfg.admission.max_pending_requests = 3;
  ServerPool pool(cfg);

  Rng rng(19);
  // Hold the only worker inside a gate model, so the burst below meets a
  // backlog that cannot drain. Non-batchable: every request is its own pass.
  const auto gate = std::make_shared<Gate>();
  const ModelHandle gate_model = register_gate(pool, gate);
  const ModelHandle solo =
      register_tiny(pool, "solo", tiny_options(test_models::kTinyMacsPerRow, /*batchable=*/false));
  auto held = pool.submit_model(gate_model, tiny_input(1, rng));
  ASSERT_TRUE(gate->wait_entered());

  SubmitOptions tight;
  tight.deadline_ms = 1.0;  // every admitted request waits out the gate
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(pool.submit_model(solo, tiny_input(2, rng), tight));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate->open();

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
  // The burst overflows the 3-deep backlog: the newcomers over the cap are
  // shed typed, and the admitted requests complete — late, so they count
  // as deadline misses.
  EXPECT_EQ(shed, 9u);
  EXPECT_EQ(completed, 3u);
  EXPECT_EQ(missed, 3u);
  EXPECT_NO_THROW(held.get());
  pool.shutdown();
  EXPECT_EQ(pool.stats().sheds(), shed);
  EXPECT_EQ(pool.stats().deadline_misses(), missed);
}

// ------------------------------------------------- thread-budget regression

/// Live thread count of this process (Linux: Threads: line of
/// /proc/self/status); 0 when unavailable.
std::size_t live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream field(line.substr(8));
      std::size_t count = 0;
      field >> count;
      return count;
    }
  }
  return 0;
}

TEST(ServerPool, ReservesKernelLanesOnFirstModelRegistration) {
  using tensor::kernels::ThreadPool;
  const std::size_t base_reserved = ThreadPool::instance().reserved();
  Rng rng(69);

  ServerPoolConfig cfg;
  cfg.workers = 4;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  {
    ServerPool pool(cfg);
    // A pool with no registered model runs no worker-side GEMMs and must
    // not throttle other kernel users.
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved);
    // A registration that fails validation must not reserve either.
    EXPECT_THROW(pool.register_model("bad", nullptr), Error);
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved);
    // First registered model: the worker fleet is reserved so worker-side
    // GEMM fan-out shrinks instead of oversubscribing.
    pool.register_model("a", make_mlp(4, 8, 2, rng));
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved + 4);
    pool.register_model("b", make_mlp(4, 8, 2, rng));  // once, not per model
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved + 4);
    pool.shutdown();
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved);
    pool.shutdown();  // idempotent: released exactly once
    EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved);
  }
  EXPECT_EQ(ThreadPool::instance().reserved(), base_reserved);
}

TEST(ServerPool, ModelErrorsFailTheFutureNotTheProcess) {
  ServerPoolConfig cfg;
  cfg.workers = 2;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(71);
  pool.register_model("mlp", make_mlp(6, 8, 3, rng));
  // Wrong input width: the worker-side infer throws; the exception must
  // land in THIS request's future, and the pool must keep serving.
  auto bad = pool.submit_model("mlp", tensor::random_uniform(2, 5, rng));
  try {
    bad.get();
    FAIL() << "expected ModelError";
  } catch (const ModelError& error) {
    // Typed, with the worker and model it failed on.
    EXPECT_NE(error.context().worker, ErrorContext::kNone);
    EXPECT_EQ(error.context().model, "mlp");
    EXPECT_NE(std::string(error.what()).find("worker="), std::string::npos);
  }

  auto good = pool.submit_model("mlp", tensor::random_uniform(2, 6, rng));
  EXPECT_EQ(good.get().logits.cols(), 3u);
  pool.shutdown();
  EXPECT_EQ(pool.stats().completed(), 1u);  // the failed request never completes
}

TEST(ServerPool, RowCountChangingModelServesSoloButFailsBatched) {
  Rng rng(72);
  // Sequence-pool head: (rows x 4) in, (1 x 2) out — row count changes.
  auto make_pooling_model = [&rng] {
    auto model = std::make_unique<nn::Sequential>();
    model->add(std::make_unique<nn::Linear>(4, 8, rng));
    model->add(std::make_unique<nn::SequenceMeanPool>());
    model->add(std::make_unique<nn::Linear>(8, 2, rng));
    return model;
  };

  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);
  const ModelHandle ok = pool.register_model("pooled", make_pooling_model());
  const tensor::Matrix x = tensor::random_uniform(5, 4, rng);
  // Correctly registered (default non-batchable): whole output handed back.
  const ServeResult got = pool.submit_model(ok, x).get();
  EXPECT_EQ(got.logits, ok->infer(x));
  EXPECT_EQ(got.logits.rows(), 1u);

  pool.shutdown();

  // Misregistered as batchable: a multi-request batch must fail BOTH futures
  // (slicing a 1-row output across 10 input rows would read out of bounds)
  // instead of crashing. Built by hand and executed directly so the batched
  // path runs deterministically, not by worker timing.
  ModelRegistry registry;
  const ModelHandle bad =
      registry.add("pooled-batchable", make_pooling_model(), batchable_options());
  std::vector<ServeRequest> batch;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 2; ++i) {
    auto t = make_model_request(bad, x);
    batch.push_back(std::move(t.request));
    futures.push_back(std::move(t.result));
  }
  OneSaAccelerator accel(small_config(ExecutionMode::kAnalytic));
  const BatchRecord record = DynamicBatcher().execute(batch, accel, 0);
  EXPECT_EQ(record.requests, 0u);  // failed batch: nothing completed or charged
  EXPECT_EQ(record.cycles.total(), 0u);
  for (auto& f : futures) EXPECT_THROW(f.get(), Error);
}

TEST(ServerPool, LiveThreadsStayBoundedUnderRealInference) {
  const std::size_t base = live_threads();
  if (base == 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  // Touch the shared kernel pool first so its workers count into the base.
  tensor::kernels::ThreadPool::instance();
  const std::size_t with_kernel_pool = live_threads();

  ServerPoolConfig cfg;
  cfg.workers = 8;
  cfg.accelerator = small_config(ExecutionMode::kAnalytic);
  ServerPool pool(cfg);

  Rng rng(70);
  pool.register_model("mlp", make_mlp(16, 32, 8, rng));
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit_model("mlp", tensor::random_uniform(4, 16, rng)));
  // Mid-flight and at completion, the process runs exactly the serve workers
  // on top of the base — kernel GEMMs inside workers never spawn threads.
  EXPECT_LE(live_threads(), with_kernel_pool + cfg.workers);
  for (auto& f : futures) f.get();
  EXPECT_LE(live_threads(), with_kernel_pool + cfg.workers);
  pool.shutdown();
  EXPECT_LE(live_threads(), with_kernel_pool);
}

// ------------------------------------------------------- shared CPWL tables

TEST(SharedTables, WorkersAliasOneTableSetBitIdentically) {
  Rng rng(20);
  OneSaAccelerator owner(small_config(ExecutionMode::kAnalytic));
  OneSaAccelerator alias(small_config(ExecutionMode::kAnalytic), owner.shared_tables());
  EXPECT_EQ(&owner.tables(), &alias.tables());

  const FixMatrix x = random_fix(5, 5, rng, -4.0, 4.0);
  EXPECT_EQ(owner.elementwise(cpwl::FunctionKind::kTanh, x).y,
            alias.elementwise(cpwl::FunctionKind::kTanh, x).y);
}

TEST(SharedTables, GranularityMismatchRejected) {
  OneSaAccelerator owner(small_config(ExecutionMode::kAnalytic));
  OneSaConfig other = small_config(ExecutionMode::kAnalytic);
  other.granularity = 1.0;
  EXPECT_THROW(OneSaAccelerator(other, owner.shared_tables()), ConfigError);
}

TEST(SharedTables, FracBitsMismatchRejected) {
  // A table set built directly with a different fixed-point format must not
  // be silently accepted (OneSaConfig itself can only express Q6.9, so this
  // guards hand-built sets).
  const auto q8_tables = std::make_shared<const cpwl::TableSet>(0.25, /*frac_bits=*/8);
  EXPECT_THROW(OneSaAccelerator(small_config(ExecutionMode::kAnalytic), q8_tables),
               ConfigError);
}

}  // namespace
}  // namespace onesa::serve
