// Tests of the fleet tier (serve/fleet.hpp) and the refactors beneath it:
// multi-shard routing serves bit-identical logits, per-shard stats sum to
// the fleet totals, the version-aware registry hot-swaps models atomically
// under a saturating request stream (every logit matches exactly one
// published version — never a mix), latency-aware batching windows launch
// partial batches at expiry (interactive heads launch immediately), and
// fleet-wide admission control sheds by summed backlog.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/norm.hpp"
#include "serve/fleet.hpp"
#include "serve/request_queue.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/kernels/pack.hpp"
#include "tensor/ops.hpp"
#include "tiny_models.hpp"

namespace onesa::serve {
namespace {

using test_models::Gate;
using test_models::register_gate;
using test_models::register_tiny;
using test_models::tiny_input;
using test_models::tiny_options;
using tensor::Matrix;

OneSaConfig small_config() {
  OneSaConfig cfg;
  cfg.array.rows = 4;
  cfg.array.cols = 4;
  cfg.array.macs_per_pe = 4;
  cfg.mode = ExecutionMode::kAnalytic;
  return cfg;
}

FleetConfig small_fleet(std::size_t shards, std::size_t workers) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.workers_per_shard = workers;
  cfg.accelerator = small_config();
  return cfg;
}

/// Small row-independent MLP (Linear -> ReLU -> LayerNorm -> Linear).
std::unique_ptr<nn::Sequential> make_mlp(std::size_t in, std::size_t hidden,
                                         std::size_t out, Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::LayerNorm>(hidden));
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

ModelOptions batchable_options(double window_ms = 0.0) {
  ModelOptions options;
  options.batchable = true;
  options.batch_window_ms = window_ms;
  return options;
}

// ------------------------------------------------------------------- fleet

TEST(Fleet, ServesModelBitExactlyAndShardStatsSumToFleetTotals) {
  Fleet fleet(small_fleet(3, 2));
  Rng rng(80);
  const ModelHandle handle = fleet.register_model("mlp", make_mlp(6, 16, 4, rng));
  EXPECT_EQ(handle->version, 1u);

  std::vector<Matrix> inputs;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 36; ++i) {
    inputs.push_back(tensor::random_uniform(1 + i % 4, 6, rng, -1.0, 1.0));
    futures.push_back(fleet.submit_model("mlp", inputs.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServeResult got = futures[i].get();
    EXPECT_EQ(got.logits, handle->infer(inputs[i])) << "request " << i;
    EXPECT_LT(got.shard, fleet.shards());
  }
  fleet.shutdown();

  // Per-shard snapshots sum (via ServeStats::operator+) to the fleet view.
  const ServeStats total = fleet.stats();
  EXPECT_EQ(total.completed(), 36u);
  ServeStats summed;
  std::uint64_t batches = 0;
  for (const ServeStats& s : fleet.shard_stats()) {
    summed += s;
    batches += s.batches();
  }
  EXPECT_EQ(summed.completed(), total.completed());
  EXPECT_EQ(summed.batches(), total.batches());
  EXPECT_EQ(batches, total.batches());
  EXPECT_EQ(summed.rows(), total.rows());
  EXPECT_EQ(summed.total_mac_ops(), total.total_mac_ops());
  EXPECT_EQ(summed.total_cycles().total(), total.total_cycles().total());
  EXPECT_EQ(summed.deadline_misses(), total.deadline_misses());
  // Simulated work appears in the merged lifetime counters and makespan.
  EXPECT_GT(fleet.fleet_lifetime().mac_ops, 0u);
  EXPECT_GT(fleet.makespan_cycles(), 0u);
}

TEST(Fleet, RouterPrefersTheShardWithLessOutstandingCost) {
  Fleet fleet(small_fleet(2, 1));
  Rng rng(81);
  const ModelHandle light_model = register_tiny(fleet, "light");         // 8 MACs/row
  const ModelHandle heavy_model = register_tiny(fleet, "heavy", tiny_options(8192));

  // Hold shard 0's only worker inside a gate model's forward, then park a
  // heavy request (one row at 8192 MACs) in its backlog. Both submits go to
  // the shard directly, past the router.
  const auto gate = std::make_shared<Gate>();
  const ModelHandle gate_model = register_gate(fleet, gate);
  auto held = fleet.shard(0).submit_model(gate_model, tiny_input(1, rng));
  ASSERT_TRUE(gate->wait_entered());
  auto heavy = fleet.shard(0).submit_model(heavy_model, tiny_input(1, rng));
  ASSERT_GE(fleet.shard(0).outstanding_cost(), 8192u);

  // Eight light requests (8 MACs each) through the router. Shard 1's
  // outstanding cost stays below 8 x 8 = 64 whatever it has drained, so
  // every one must land there; a rotation would send half to shard 0.
  std::vector<std::future<ServeResult>> light;
  for (int i = 0; i < 8; ++i)
    light.push_back(fleet.submit_model(light_model, tiny_input(1, rng)));
  // The premise held while they were routed: shard 0's worker is still
  // inside the gate, so the heavy request is still queued. (stats() would
  // wait on the gated worker: it holds its stats lock across the forward.)
  ASSERT_EQ(fleet.shard(0).pending(), 1u);
  gate->open();  // routing is decided: a misrouted request now fails, not hangs
  for (auto& f : light) EXPECT_EQ(f.get().shard, 1u);
  EXPECT_EQ(held.get().shard, 0u);
  EXPECT_EQ(heavy.get().shard, 0u);
  fleet.shutdown();
}

TEST(Fleet, SharedRegistryPacksWeightsOncePerFleet) {
  if (!tensor::kernels::pack_counter_enabled()) {
    GTEST_SKIP() << "pack counter compiled out (NDEBUG build)";
  }
  Fleet fleet(small_fleet(3, 1));
  Rng rng(82);
  tensor::kernels::reset_pack_panel_count();
  fleet.register_model("mlp", make_mlp(6, 16, 4, rng), batchable_options());
  const std::uint64_t packed_at_registration = tensor::kernels::pack_panel_count();
  EXPECT_GT(packed_at_registration, 0u);  // registration pre-packs every Linear

  // One registry for all shards: serving through every shard re-packs
  // NOTHING — the request path consumes the one shared packed copy.
  tensor::kernels::reset_pack_panel_count();
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 12; ++i)
    futures.push_back(fleet.submit_model("mlp", tensor::random_uniform(2, 6, rng)));
  for (auto& f : futures) f.get();
  fleet.shutdown();
  EXPECT_EQ(tensor::kernels::pack_panel_count(), 0u);
  EXPECT_EQ(fleet.registry().size(), 1u);
}

TEST(Fleet, FleetAdmissionShedsBySummedBacklogAndAccountsEverything) {
  FleetConfig cfg = small_fleet(2, 1);
  cfg.admission.max_pending_requests = 3;  // fleet-wide, not per shard
  Fleet fleet(cfg);
  Rng rng(83);
  const ModelHandle tiny = register_tiny(fleet, "tiny");

  constexpr int kSubmitted = 40;
  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < kSubmitted; ++i)
    futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));

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
  fleet.shutdown();
  EXPECT_EQ(served + shed, static_cast<std::size_t>(kSubmitted));
  EXPECT_EQ(fleet.stats().completed(), served);
  EXPECT_EQ(fleet.sheds(), shed);
  EXPECT_EQ(fleet.stats().sheds(), shed);  // fleet-level sheds land in stats
}

TEST(Fleet, FleetAdmissionShedCarriesBacklogContext) {
  FleetConfig cfg = small_fleet(1, 1);
  cfg.admission.max_pending_requests = 1;
  Fleet fleet(cfg);
  Rng rng(9);
  // Hold the only worker inside a gate model so the backlog cannot drain
  // between submits: the first tiny request fills the one-deep backlog and
  // the five after it are shed.
  const auto gate = std::make_shared<Gate>();
  const ModelHandle gate_model = register_gate(fleet, gate);
  const ModelHandle tiny = register_tiny(fleet, "tiny");
  auto held = fleet.submit_model(gate_model, tiny_input(1, rng));
  ASSERT_TRUE(gate->wait_entered());

  std::vector<std::future<ServeResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(fleet.submit_model(tiny, tiny_input(2, rng)));
  std::size_t shed = 0;
  for (std::size_t i = 1; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    try {
      futures[i].get();
    } catch (const OverloadError& overload) {
      // A shed names the backlog it was refused against.
      EXPECT_EQ(overload.context().queue_depth, 1u);
      EXPECT_EQ(overload.context().backlog_cost, 2 * test_models::kTinyMacsPerRow);
      EXPECT_NE(std::string(overload.what()).find("depth=1"), std::string::npos);
      EXPECT_NE(std::string(overload.what()).find("model=tiny v1"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(shed, 5u);
  gate->open();
  EXPECT_NO_THROW(held.get());
  EXPECT_NO_THROW(futures[0].get());
  EXPECT_EQ(fleet.sheds(), shed);
}

// ---------------------------------------------------------------- hot swap

TEST(HotSwap, RegistryPublishesVersionsAtomicallyAndKeepsOldHandlesAlive) {
  ModelRegistry registry;
  Rng rng(84);
  const ModelHandle v1 =
      registry.add("m", make_mlp(4, 8, 2, rng), batchable_options(7.5));
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.version_of("m"), 1u);

  const Matrix x = tensor::random_uniform(3, 4, rng);
  const Matrix v1_logits = v1->infer(x);

  // Option-preserving swap: new weights, same serving metadata.
  const ModelHandle v2 = registry.swap("m", make_mlp(4, 8, 2, rng));
  EXPECT_EQ(v2->version, 2u);
  EXPECT_EQ(registry.version_of("m"), 2u);
  EXPECT_EQ(registry.get("m"), v2);
  EXPECT_TRUE(v2->batchable);
  EXPECT_DOUBLE_EQ(v2->batch_window_ms, 7.5);
  EXPECT_EQ(registry.size(), 1u);  // same name, one entry slot

  // The old handle still serves the old weights (in-flight semantics).
  EXPECT_EQ(v1->infer(x), v1_logits);
  EXPECT_NE(v2->infer(x), v1_logits);  // fresh random weights

  // Explicit-options swap replaces the metadata.
  ModelOptions solo;
  solo.batchable = false;
  const ModelHandle v3 = registry.swap("m", make_mlp(4, 8, 2, rng), solo);
  EXPECT_EQ(v3->version, 3u);
  EXPECT_FALSE(v3->batchable);

  EXPECT_THROW(registry.swap("nope", make_mlp(4, 8, 2, rng)), Error);
  EXPECT_THROW(registry.swap("m", nullptr), Error);
}

TEST(HotSwap, SwappedOutVersionsReturnTheirMemoryAndHoldNoGradients) {
  // 768 x 768 doubles is 4.5 MiB: over the pool's largest class, so the
  // weights and their panels are mappings, and mapped_bytes is the exact
  // live footprint of every version (LeakSanitizer does not see mappings).
  Rng rng(85);
  const auto make_big = [&rng] {
    auto model = std::make_unique<nn::Sequential>();
    model->add(std::make_unique<nn::Linear>(768, 768, rng));
    return model;
  };
  const std::size_t mapped_at_start = tensor::pool::stats().mapped_bytes;
  {
    Fleet fleet(small_fleet(2, 1));
    fleet.register_model("big", make_big(), batchable_options());
    fleet.swap_model("big", make_big());
    const std::size_t mapped_after_first_swap = tensor::pool::stats().mapped_bytes;
    EXPECT_GT(mapped_after_first_swap, mapped_at_start);
    for (int swap = 2; swap <= 30; ++swap) fleet.swap_model("big", make_big());
    EXPECT_EQ(tensor::pool::stats().mapped_bytes, mapped_after_first_swap);

    auto model = make_big();
    nn::Sequential* published = model.get();  // kept alive by the handle below
    const ModelHandle handle = fleet.swap_model("big", std::move(model));
    for (nn::Param* p : published->params()) EXPECT_TRUE(p->grad.empty());
  }
  EXPECT_EQ(tensor::pool::stats().mapped_bytes, mapped_at_start);
}

/// Identity layer that, when destroyed, resolves "m" from another thread
/// and records whether that lookup got through the registry lock in time.
class LookupOnDestroy : public nn::Layer {
 public:
  LookupOnDestroy(const ModelRegistry& registry, std::future<bool>& lookup, bool& in_time)
      : registry_(registry), lookup_(lookup), in_time_(in_time) {}
  ~LookupOnDestroy() override {
    lookup_ = std::async(std::launch::async, [&r = registry_] { return r.find("m") != nullptr; });
    in_time_ = lookup_.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  }
  std::string name() const override { return "lookup_on_destroy"; }
  Matrix forward(const Matrix& x) override { return x; }
  Matrix backward(const Matrix& g) override { return g; }
  Matrix infer(const Matrix& x) const override { return x; }
  tensor::FixMatrix forward_accel(OneSaAccelerator&, const tensor::FixMatrix& x) override {
    return x;
  }
  void count_ops(nn::OpCensus&, std::size_t) const override {}

 private:
  const ModelRegistry& registry_;
  std::future<bool>& lookup_;
  bool& in_time_;
};

TEST(HotSwap, ReplacedVersionIsReleasedOutsideTheRegistryLock) {
  // Releasing a version unmaps its weights, which takes milliseconds; name
  // lookups on the submit path must not wait behind it.
  ModelRegistry registry;
  std::future<bool> lookup;
  bool in_time = false;
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<LookupOnDestroy>(registry, lookup, in_time));
  registry.add("m", std::move(model), tiny_options());
  // The explicit-options swap: the option-preserving one pins the old
  // version through its own options read until after publishing.
  registry.swap("m", test_models::tiny_model(), tiny_options());  // drops v1's last handle
  EXPECT_TRUE(in_time);
  EXPECT_TRUE(lookup.get());
}

TEST(HotSwap, SwapUnderSaturatingLoadNeverMixesVersions) {
  // Concurrent swap_model against a saturating submit stream (the TSan
  // scenario): every returned logit must be bit-exact against SOME published
  // version's direct forward — old or new, never a torn mix — and no future
  // may fail.
  Fleet fleet(small_fleet(2, 2));
  Rng rng(85);
  std::vector<ModelHandle> versions;
  versions.push_back(
      fleet.register_model("m", make_mlp(6, 12, 3, rng), batchable_options()));

  constexpr int kThreads = 2;
  constexpr int kPerThread = 60;
  struct Submission {
    Matrix input;
    std::future<ServeResult> future;
  };
  std::vector<std::vector<Submission>> submissions(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&fleet, &submissions, t] {
      Rng thread_rng(900 + t);
      submissions[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        Matrix input = tensor::random_uniform(1 + i % 3, 6, thread_rng, -1.0, 1.0);
        auto future = fleet.submit_model("m", input);
        submissions[t].push_back({std::move(input), std::move(future)});
      }
    });
  }
  // Swap concurrently with the submitters: each flip publishes a fresh
  // pre-packed version while batches of the old one are in flight.
  for (int swap = 0; swap < 4; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    versions.push_back(fleet.swap_model("m", make_mlp(6, 12, 3, rng)));
  }
  for (auto& thread : submitters) thread.join();
  fleet.shutdown();
  ASSERT_EQ(versions.back()->version, 5u);

  std::size_t checked = 0;
  for (auto& thread_subs : submissions) {
    for (Submission& sub : thread_subs) {
      const ServeResult got = sub.future.get();  // throws on any failed future
      const bool matches_some_version =
          std::any_of(versions.begin(), versions.end(), [&](const ModelHandle& v) {
            return got.logits == v->infer(sub.input);
          });
      EXPECT_TRUE(matches_some_version) << "request " << got.id
                                        << " returned logits matching no version";
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(HotSwap, QuantizedSwapUnderSaturatingLoadNeverMixesVersions) {
  // The INT16 lane must uphold the same hot-swap invariant as the double
  // lane: swaps of a Precision::kInt16 model (quantization + INT16
  // pre-packing happen before publication) against a saturating stream
  // return logits bit-exact against SOME published version's quantized
  // inference — never a torn mix, never a precision fallback.
  Fleet fleet(small_fleet(2, 2));
  Rng rng(86);
  ModelOptions options = batchable_options();
  options.precision = Precision::kInt16;
  const auto make_quantizable = [&rng] {
    // Linear -> ReLU -> Linear: row-independent and fully INT16-servable.
    auto model = std::make_unique<nn::Sequential>();
    model->add(std::make_unique<nn::Linear>(6, 12, rng));
    model->add(nn::make_relu());
    model->add(std::make_unique<nn::Linear>(12, 3, rng));
    return model;
  };
  std::vector<ModelHandle> versions;
  versions.push_back(fleet.register_model("q", make_quantizable(), options));
  ASSERT_NE(versions.back()->quantized, nullptr);

  constexpr int kThreads = 2;
  constexpr int kPerThread = 60;
  struct Submission {
    Matrix input;
    std::future<ServeResult> future;
  };
  std::vector<std::vector<Submission>> submissions(kThreads);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&fleet, &submissions, t] {
      Rng thread_rng(950 + t);
      submissions[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        Matrix input = tensor::random_uniform(1 + i % 3, 6, thread_rng, -1.0, 1.0);
        auto future = fleet.submit_model("q", input);
        submissions[t].push_back({std::move(input), std::move(future)});
      }
    });
  }
  for (int swap = 0; swap < 4; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    versions.push_back(fleet.swap_model("q", make_quantizable()));
    ASSERT_NE(versions.back()->quantized, nullptr)
        << "option-preserving swap dropped the INT16 lane";
  }
  for (auto& thread : submitters) thread.join();
  fleet.shutdown();
  ASSERT_EQ(versions.back()->version, 5u);

  std::size_t checked = 0;
  for (auto& thread_subs : submissions) {
    for (Submission& sub : thread_subs) {
      const ServeResult got = sub.future.get();
      const bool matches_some_version =
          std::any_of(versions.begin(), versions.end(), [&](const ModelHandle& v) {
            return got.logits == v->infer(sub.input);
          });
      EXPECT_TRUE(matches_some_version)
          << "quantized request " << got.id << " returned logits matching no version";
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------- batching windows

BatcherConfig windowed_batcher() {
  BatcherConfig cfg;
  cfg.max_batch_requests = 4;
  cfg.max_batch_rows = 64;
  return cfg;
}

/// A batchable tiny model whose registry entry carries a `window_ms`
/// batching window (the one window knob: it lives on the model).
ModelHandle windowed_model(ModelRegistry& registry, double window_ms) {
  return register_tiny(registry, "windowed", tiny_options(test_models::kTinyMacsPerRow,
                                                          /*batchable=*/true, window_ms));
}

TEST(BatchingWindow, PartialBatchLaunchesAtExpiryAndIsCounted) {
  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  ModelRegistry registry;
  const ModelHandle windowed = windowed_model(registry, 20.0);
  Rng rng(86);
  auto t = make_model_request(windowed, tiny_input(2, rng));
  const auto pushed = ServeClock::now();
  queue.push(std::move(t.request));

  auto batch = queue.pop_batch(0);  // lone request: waits out the window
  const double waited_ms =
      std::chrono::duration<double, std::milli>(ServeClock::now() - pushed).count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(queue.window_expiries(), 1u);
  // wait_until never returns before the deadline, so the full window
  // elapsed (small slack for the enqueue-stamp gap).
  EXPECT_GE(waited_ms, 18.0);
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, InteractiveHeadLaunchesImmediately) {
  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  ModelRegistry registry;
  const ModelHandle windowed = windowed_model(registry, 500.0);
  Rng rng(87);
  SubmitOptions interactive;
  interactive.priority = Priority::kInteractive;
  auto t = make_model_request(windowed, tiny_input(2, rng), interactive);
  queue.push(std::move(t.request));

  // A 500 ms window would hang this single-threaded pop; the interactive
  // class must force an immediate launch instead.
  auto batch = queue.pop_batch(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(queue.window_expiries(), 0u);
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, FullBatchLaunchesWithoutWaiting) {
  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  ModelRegistry registry;
  const ModelHandle windowed = windowed_model(registry, 500.0);
  Rng rng(88);
  std::vector<TaggedRequest> tagged;
  for (std::size_t i = 0; i < 4; ++i) {  // == max_batch_requests
    tagged.push_back(make_model_request(windowed, tiny_input(2, rng)));
    queue.push(std::move(tagged.back().request));
  }
  auto batch = queue.pop_batch(0);  // budget reached: nothing to wait for
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(queue.window_expiries(), 0u);
  for (auto& req : batch) req.promise.set_value({});
}

TEST(BatchingWindow, CloseDrainsWithoutWaitingOutTheWindow) {
  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  ModelRegistry registry;
  const ModelHandle windowed = windowed_model(registry, 500.0);
  Rng rng(89);
  auto t = make_model_request(windowed, tiny_input(2, rng));
  queue.push(std::move(t.request));
  queue.close();

  auto batch = queue.pop_batch(0);  // shutdown drain skips the window
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(queue.window_expiries(), 0u);
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, PerModelWindowAppliesOnlyToBatchableModels) {
  ModelRegistry registry;
  Rng rng(90);
  const ModelHandle windowed =
      registry.add("windowed", make_mlp(4, 8, 2, rng), batchable_options(15.0));
  ModelOptions solo;
  solo.batch_window_ms = 15.0;  // non-batchable: the window must be ignored
  const ModelHandle unbatchable = registry.add("solo", make_mlp(4, 8, 2, rng), solo);

  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  auto a = make_model_request(windowed, tensor::random_uniform(2, 4, rng));
  queue.push(std::move(a.request));
  auto batch = queue.pop_batch(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(queue.window_expiries(), 1u);  // waited, expired, launched partial
  batch.front().promise.set_value({});

  auto b = make_model_request(unbatchable, tensor::random_uniform(2, 4, rng));
  queue.push(std::move(b.request));
  batch = queue.pop_batch(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(queue.window_expiries(), 1u);  // unchanged: solo batches never wait
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, SloDeadlineCutsTheWindowShort) {
  // A head whose SLO deadline lands before its window end launches at the
  // deadline: parking a request past its own deadline to improve fill would
  // manufacture a miss the immediate-launch behaviour never had.
  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  ModelRegistry registry;
  const ModelHandle windowed = windowed_model(registry, 5000.0);
  Rng rng(95);
  SubmitOptions slo;
  slo.deadline_ms = 20.0;  // far earlier than the 5 s window
  auto t = make_model_request(windowed, tiny_input(2, rng), slo);
  const auto pushed = ServeClock::now();
  queue.push(std::move(t.request));

  auto batch = queue.pop_batch(0);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(ServeClock::now() - pushed).count();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_GE(waited_ms, 15.0);   // held until (about) the deadline...
  EXPECT_LT(waited_ms, 4000.0);  // ...never anywhere near the window
  EXPECT_EQ(queue.window_expiries(), 1u);
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, ParkedHeadNeverBlocksIncompatibleWork) {
  // A head waiting out its window must not head-of-line block the queue:
  // pending work that could never ride in its batch dispatches first, and
  // the parked head keeps its window.
  ModelRegistry registry;
  Rng rng(91);
  const ModelHandle windowed =
      registry.add("windowed", make_mlp(4, 8, 2, rng), batchable_options(30.0));
  const ModelHandle other = registry.add("other", make_mlp(4, 8, 2, rng),
                                         batchable_options(0.0));

  RequestQueue queue(1, DynamicBatcher(windowed_batcher()));
  auto parked = make_model_request(windowed, tensor::random_uniform(2, 4, rng));
  const RequestId parked_id = parked.request.id;
  auto ready = make_model_request(other, tensor::random_uniform(2, 4, rng));
  const RequestId ready_id = ready.request.id;
  queue.push(std::move(parked.request));
  queue.push(std::move(ready.request));

  // First pop: the windowed head is parked, so the windowless (later,
  // incompatible) request launches immediately — no expiry, no wait.
  auto batch = queue.pop_batch(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, ready_id);
  EXPECT_EQ(queue.window_expiries(), 0u);
  batch.front().promise.set_value({});

  // Second pop: only the parked head remains; it waits out its window.
  batch = queue.pop_batch(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.front().id, parked_id);
  EXPECT_EQ(queue.window_expiries(), 1u);
  batch.front().promise.set_value({});
}

TEST(BatchingWindow, ExpiryCountsSurfaceInPoolAndFleetStats) {
  ServerPoolConfig cfg;
  cfg.workers = 1;
  cfg.accelerator = small_config();
  cfg.batcher = windowed_batcher();
  ServerPool pool(cfg);
  Rng rng(92);
  const ModelHandle pool_model =
      register_tiny(pool, "windowed", tiny_options(test_models::kTinyMacsPerRow, true, 5.0));
  pool.submit_model(pool_model, tiny_input(2, rng)).get();
  pool.shutdown();
  EXPECT_GE(pool.stats().window_expiries(), 1u);

  FleetConfig fleet_cfg = small_fleet(2, 1);
  fleet_cfg.batcher = windowed_batcher();
  Fleet fleet(fleet_cfg);
  const ModelHandle fleet_model =
      register_tiny(fleet, "windowed", tiny_options(test_models::kTinyMacsPerRow, true, 5.0));
  fleet.submit_model(fleet_model, tiny_input(2, rng)).get();
  fleet.shutdown();
  EXPECT_GE(fleet.stats().window_expiries(), 1u);  // summed across shards
}

// ------------------------------------------------------- stats aggregation

TEST(ServeStatsAggregation, OperatorPlusMatchesMerge) {
  ServeStats a;
  ServeStats b;
  BatchRecord ra;
  ra.requests = 2;
  ra.rows = 4;
  ra.mac_ops = 50;
  ra.latency_ms = {1.0, 2.0};
  ra.latency_class = {Priority::kInteractive, Priority::kBulk};
  BatchRecord rb;
  rb.requests = 1;
  rb.rows = 4;
  rb.mac_ops = 20;
  rb.latency_ms = {10.0};
  a.record_batch(ra);
  a.record_window_expiries(2);
  b.record_batch(rb);
  b.record_sheds(3);

  const ServeStats sum = a + b;
  EXPECT_EQ(sum.completed(), 3u);
  EXPECT_EQ(sum.batches(), 2u);
  EXPECT_EQ(sum.total_mac_ops(), 70u);
  EXPECT_EQ(sum.sheds(), 3u);
  EXPECT_EQ(sum.window_expiries(), 2u);
  EXPECT_EQ(sum.class_completed(Priority::kInteractive), 1u);
  EXPECT_EQ(sum.class_completed(Priority::kNormal), 1u);  // classless rb entry
  EXPECT_EQ(sum.class_completed(Priority::kBulk), 1u);
  EXPECT_DOUBLE_EQ(sum.percentile_latency_ms(100.0), 10.0);

  ServeStats accum;
  accum += a;
  accum += b;
  EXPECT_EQ(accum.completed(), sum.completed());
  EXPECT_EQ(accum.window_expiries(), sum.window_expiries());
}

// ---------------------------------------------------------------------------
// Shutdown hardening (the network front door's drain contract depends on
// shutdown being idempotent, concurrency-safe, and on a submit that races
// shutdown settling its future instead of throwing).
// ---------------------------------------------------------------------------

TEST(Shutdown, DoubleShutdownIsIdempotent) {
  Fleet fleet(small_fleet(2, 2));
  Rng rng(7);
  fleet.register_model("mlp", make_mlp(4, 8, 3, rng));
  auto fut = fleet.submit_model("mlp", tensor::random_uniform(2, 4, rng));
  EXPECT_NO_THROW(fut.get());
  fleet.shutdown();
  EXPECT_NO_THROW(fleet.shutdown());
  EXPECT_NO_THROW(fleet.shutdown());
}

TEST(Shutdown, ConcurrentShutdownIsSafe) {
  // Several threads (e.g. a signal watcher racing a destructor) may call
  // shutdown() at once. Every call must return only after the drain is
  // complete, and none may crash or double-drain.
  for (int round = 0; round < 4; ++round) {
    Fleet fleet(small_fleet(2, 2));
    Rng rng(100 + round);
    fleet.register_model("mlp", make_mlp(4, 8, 3, rng));
    std::vector<std::future<ServeResult>> futures;
    for (int i = 0; i < 8; ++i) {
      futures.push_back(fleet.submit_model("mlp", tensor::random_uniform(1, 4, rng)));
    }
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&fleet] { fleet.shutdown(); });
    }
    for (auto& t : closers) t.join();
    // The work submitted before shutdown completed (shutdown drains).
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
  }
}

TEST(Shutdown, SubmitRacingShutdownSettlesEveryFutureExactlyOnce) {
  // Hammer submit from several threads while another thread shuts the fleet
  // down mid-stream. Every returned future must settle — with a value or a
  // typed OverloadError — and none may throw from submit itself or hang.
  for (int round = 0; round < 3; ++round) {
    Fleet fleet(small_fleet(2, 1));
    Rng rng(200 + round);
    const ModelHandle handle = fleet.register_model("mlp", make_mlp(4, 8, 3, rng));

    std::mutex mu;
    std::vector<std::future<ServeResult>> futures;
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&, t] {
        Rng local(300 + 10 * round + t);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        while (!done.load(std::memory_order_acquire)) {
          auto fut = fleet.submit_model(handle, tensor::random_uniform(1, 4, local));
          std::lock_guard<std::mutex> lock(mu);
          futures.push_back(std::move(fut));
        }
      });
    }
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fleet.shutdown();
    done.store(true, std::memory_order_release);
    for (auto& t : submitters) t.join();

    std::size_t values = 0, overloads = 0;
    for (auto& f : futures) {
      // settle is the contract: get() may not hang (deadline enforced by
      // the test runner) and may only yield a value or a typed error.
      try {
        (void)f.get();
        ++values;
      } catch (const OverloadError&) {
        ++overloads;
      }
    }
    EXPECT_EQ(values + overloads, futures.size());
    // The race window is real: submits after the accepting_ flip shed.
    EXPECT_GT(futures.size(), 0u);
  }
}

}  // namespace
}  // namespace onesa::serve
