// Serving demo: the paper's simulated array figures, then a multi-pool FLEET
// serving real model inference with a hot swap under load.
//
// First it prints what ONE-SA itself would do with BERT / ResNet-50 / GCN
// requests spread over as many modelled arrays as the fleet has workers:
// the closed-form cycle estimate of each trace, list-scheduled by
// nn::list_schedule (simulated figures, not serving performance). Then it
// spins up a serve::Fleet of 2 shards x 2 host workers (one version-aware
// ModelRegistry shared across the whole fleet) and serves real forward
// passes through an nn::Sequential MLP registered with the fleet — one
// immutable weight copy packed once for every shard, logits verified
// bit-exact against the direct forward. Requests carry priority classes and
// deadlines; the least-outstanding-cost router levels the shards, and the
// run finishes by hot-swapping the MLP to a new version while serving,
// proving version-consistent logits across the flip. Per-shard statistics
// print next to the fleet aggregate (their sums are equal by construction).
//
// Pass `--trace-out FILE` to record every request's lifecycle spans
// (queue wait, window park, service, batches, kernel calls) and write a
// Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
//
// Pass `--listen [PORT]` to skip the scripted traffic and instead put the
// fleet behind the network front door (src/net): the process binds PORT
// (default 7410; 0 picks an ephemeral port), serves the "mlp-classifier"
// model (rows x 32 input) over the OSA1 binary protocol plus HTTP
// "GET /metrics" on the same port, and runs until SIGTERM/SIGINT triggers
// a graceful drain. Drive it with bench_loadgen or any OSA1 client.
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "net/server.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/workload.hpp"
#include "obs/trace.hpp"
#include "serve/fleet.hpp"
#include "tensor/ops.hpp"

namespace {

std::unique_ptr<onesa::nn::Sequential> make_demo_mlp(onesa::Rng& rng) {
  using namespace onesa;
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(32, 64, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::LayerNorm>(64));
  model->add(std::make_unique<nn::Linear>(64, 8, rng));
  return model;
}

/// Identity layer whose forward waits until `released` is ready: it pins a
/// worker so the overload demo's backlog cannot drain between submits.
class HoldLayer : public onesa::nn::Layer {
 public:
  explicit HoldLayer(std::shared_future<void> released) : released_(std::move(released)) {}
  std::string name() const override { return "hold"; }
  onesa::tensor::Matrix forward(const onesa::tensor::Matrix& x) override { return x; }
  onesa::tensor::Matrix backward(const onesa::tensor::Matrix& g) override { return g; }
  onesa::tensor::Matrix infer(const onesa::tensor::Matrix& x) const override {
    released_.wait();
    return x;
  }
  onesa::tensor::FixMatrix forward_accel(onesa::OneSaAccelerator&,
                                         const onesa::tensor::FixMatrix& x) override {
    return x;
  }
  void count_ops(onesa::nn::OpCensus&, std::size_t) const override {}

 private:
  std::shared_future<void> released_;
};

// --listen mode: the fleet behind the network front door, serving until a
// drain signal arrives. block_drain_signals() already ran (first thing in
// main), so SIGTERM/SIGINT reach only the watcher thread.
int run_listen(std::uint16_t port) {
  using namespace onesa;

  serve::FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.batcher.max_batch_rows = 64;
  serve::Fleet fleet(cfg);

  Rng rng(7);
  serve::ModelOptions options;
  options.batchable = true;
  fleet.register_model("mlp-classifier", make_demo_mlp(rng), std::move(options));

  net::NetServerConfig net_cfg;
  net_cfg.port = port;
  net::NetServer server(fleet, std::move(net_cfg));
  server.start();
  server.install_signal_drain();

  std::cout << "front door: listening on 127.0.0.1:" << server.port()
            << " (OSA1 binary protocol + HTTP GET /metrics)\n"
            << "model: mlp-classifier (rows x 32 input, batchable)\n"
            << "fleet: " << fleet.shards() << " shards x " << cfg.workers_per_shard
            << " workers\n"
            << "send SIGTERM or SIGINT for a graceful drain\n"
            << std::flush;

  server.wait_drained();
  const net::NetServerCounters c = server.counters();
  std::cout << "drained in " << server.drain_ms() << " ms: "
            << c.connections_accepted << " connections, " << c.infers_accepted
            << " infers, " << c.replies_sent << " replies, " << c.error_replies
            << " error replies, " << c.orphaned_replies << " orphaned, "
            << c.double_settles << " double settles\n";
  return c.double_settles == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace onesa;

  // Must run before any thread (fleet workers included) exists, or a
  // process-directed SIGTERM could land on a thread with the default
  // terminating disposition. Harmless when --listen is not requested.
  net::NetServer::block_drain_signals();

  std::string trace_out;
  bool listen = false;
  std::uint16_t listen_port = 7410;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      listen = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        listen_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
      }
    } else {
      std::cerr << "usage: " << argv[0] << " [--trace-out FILE] [--listen [PORT]]\n";
      return 2;
    }
  }

  if (listen) return run_listen(listen_port);

  std::cout << "=== ONE-SA serving runtime demo: the fleet tier ===\n\n";

  if (!trace_out.empty()) {
    if (!obs::tracing_compiled()) {
      std::cerr << "error: --trace-out requires a build with ONESA_TRACING=ON\n";
      return 2;
    }
    obs::trace_start(1.0);  // sample every request — this is a demo, not prod
    std::cout << "tracing: ON (every request), writing " << trace_out << "\n\n";
  }

  serve::FleetConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  cfg.batcher.max_batch_rows = 64;

  // --- paper figures: kPerModel inferences of each network list-scheduled
  // over one modelled array per fleet worker (the paper's reference 8x8x16
  // design). Pure cycle-model arithmetic; nothing here runs on the fleet.
  {
    const std::size_t arrays = cfg.shards * cfg.workers_per_shard;
    constexpr std::size_t kPerModel = 6;
    const OneSaConfig array_config;
    const sim::TimingModel timing(array_config.array);
    const std::pair<const char*, nn::WorkloadTrace> networks[] = {
        {"BERT-base/seq128", nn::bert_base_trace(128)},
        {"ResNet-50/224", nn::resnet50_trace(224)},
        {"GCN/16384n", nn::gcn_trace()}};
    TablePrinter paper({"Model", "Latency ms", "GOPS", "Mcycles/req", "MACs/req",
                        "Makespan ms"});
    for (const auto& [name, trace] : networks) {
      const nn::TraceEstimate estimate = nn::estimate_trace(trace, timing);
      const nn::ListSchedule schedule = nn::list_schedule(trace, kPerModel, arrays, timing);
      paper.add_row(
          {name, TablePrinter::num(estimate.latency_ms, 2), TablePrinter::num(estimate.gops, 1),
           TablePrinter::num(static_cast<double>(estimate.cycles.total()) / 1e6, 1),
           std::to_string(nn::trace_mac_ops(trace)),
           TablePrinter::num(static_cast<double>(schedule.makespan_cycles) /
                                 (array_config.array.clock_mhz * 1e3),
                             2)});
    }
    std::cout << "paper figures (simulated): " << kPerModel << " requests per network on "
              << arrays << " modelled " << array_config.array.rows << "x"
              << array_config.array.cols << "x" << array_config.array.macs_per_pe
              << " arrays, list-scheduled\n";
    paper.render(std::cout);
    std::cout << "\n";
  }

  serve::Fleet fleet(cfg);
  std::cout << "fleet: " << fleet.shards() << " shards x " << cfg.workers_per_shard
            << " host workers, least-outstanding-cost routing, shared model registry\n";

  // --- real-model traffic: a registered MLP served end-to-end. The
  // registry is shared by every shard, so the weights pack exactly once;
  // interactive priority with a 50 ms deadline exercises the EDF scheduler.
  Rng rng(7);
  const serve::ModelHandle mlp = [&] {
    serve::ModelOptions options;
    options.batchable = true;  // every layer is row-independent
    return fleet.register_model("mlp-classifier", make_demo_mlp(rng), std::move(options));
  }();
  serve::SubmitOptions interactive;
  interactive.priority = serve::Priority::kInteractive;
  interactive.deadline_ms = 50.0;
  std::vector<tensor::Matrix> mlp_inputs;
  std::vector<std::future<serve::ServeResult>> mlp_futures;
  for (int i = 0; i < 28; ++i) {
    mlp_inputs.push_back(tensor::random_uniform(2 + i % 3, 32, rng, -1.0, 1.0));
    mlp_futures.push_back(fleet.submit_model(mlp, mlp_inputs.back(), interactive));
  }

  // --- real-model results: every served logit must equal the direct const
  // forward on the shared weights, bit for bit.
  std::size_t exact = 0;
  std::size_t misses = 0;
  double mlp_service_ms = 0.0;
  for (std::size_t i = 0; i < mlp_futures.size(); ++i) {
    const serve::ServeResult r = mlp_futures[i].get();
    if (r.logits == mlp->infer(mlp_inputs[i])) ++exact;
    if (r.deadline_missed) ++misses;
    mlp_service_ms += r.service_ms;
  }

  std::cout << "\n--- real-model serving (" << mlp->name << " v" << mlp->version << ", "
            << serve::priority_name(serve::Priority::kInteractive)
            << " class, 50 ms deadline) ---\n"
            << mlp_futures.size() << " requests served, " << exact
            << " logit sets bit-exact vs direct forward, " << misses
            << " deadline misses, mean service "
            << TablePrinter::num(mlp_service_ms / static_cast<double>(mlp_futures.size()), 3)
            << " ms\n";

  // --- hot swap while serving: publish v2 and keep submitting by name. The
  // new version is pre-packed before the atomic publish; in-flight work
  // finishes on v1, new submissions resolve v2.
  const serve::ModelHandle mlp_v2 = fleet.swap_model("mlp-classifier", make_demo_mlp(rng));
  std::vector<tensor::Matrix> v2_inputs;
  std::vector<std::future<serve::ServeResult>> v2_futures;
  for (int i = 0; i < 6; ++i) {
    v2_inputs.push_back(tensor::random_uniform(2, 32, rng, -1.0, 1.0));
    v2_futures.push_back(fleet.submit_model("mlp-classifier", v2_inputs.back()));
  }
  std::size_t v2_exact = 0;
  for (std::size_t i = 0; i < v2_futures.size(); ++i) {
    if (v2_futures[i].get().logits == mlp_v2->infer(v2_inputs[i])) ++v2_exact;
  }
  fleet.shutdown();
  std::cout << "\n--- hot swap ---\nswapped " << mlp_v2->name << " v" << mlp->version
            << " -> v" << mlp_v2->version << " under load: " << v2_exact << "/"
            << v2_futures.size()
            << " post-swap logit sets bit-exact vs the NEW version's forward\n";

  // --- fleet-wide statistics plus the per-shard breakdown they sum from.
  const serve::ServeStats stats = fleet.stats();
  std::cout << "\n--- fleet statistics ---\n";
  TablePrinter fleet_table({"Metric", "Value"});
  fleet_table.add_row({"requests served", std::to_string(stats.completed())});
  fleet_table.add_row({"batched passes", std::to_string(stats.batches())});
  fleet_table.add_row(
      {"mean requests/batch", TablePrinter::num(stats.mean_batch_requests(), 2)});
  fleet_table.add_row({"deadline misses", std::to_string(stats.deadline_misses())});
  fleet_table.add_row({"admission sheds", std::to_string(stats.sheds())});
  fleet_table.add_row(
      {"batching-window expiries", std::to_string(stats.window_expiries())});
  fleet_table.add_row(
      {"host latency p50 ms", TablePrinter::num(stats.percentile_latency_ms(50.0), 2)});
  fleet_table.add_row(
      {"host latency p95 ms", TablePrinter::num(stats.percentile_latency_ms(95.0), 2)});
  fleet_table.add_row(
      {"host latency p99 ms", TablePrinter::num(stats.percentile_latency_ms(99.0), 2)});
  fleet_table.render(std::cout);

  std::cout << "\nper-shard breakdown (sums equal the fleet totals):\n";
  TablePrinter shard_table({"Shard", "Completed", "Batches", "Rows"});
  const std::vector<serve::ServeStats> per_shard = fleet.shard_stats();
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    shard_table.add_row({std::to_string(s), std::to_string(per_shard[s].completed()),
                         std::to_string(per_shard[s].batches()),
                         std::to_string(per_shard[s].rows())});
  }
  shard_table.render(std::cout);

  // --- structured failure: flood a deliberately tiny fleet past its
  // admission cap (worker pinned inside a held forward so the backlog
  // cannot drain) and show that a shed is not an anonymous broken promise
  // but a typed OverloadError carrying the full serving context.
  std::cout << "\n--- structured overload errors ---\n";
  {
    serve::FleetConfig tiny = cfg;
    tiny.shards = 1;
    tiny.workers_per_shard = 1;
    tiny.admission.max_pending_requests = 2;
    serve::Fleet small(tiny);
    const serve::ModelHandle h =
        small.register_model("mlp-classifier", make_demo_mlp(rng));
    std::promise<void> release;
    auto hold = std::make_unique<nn::Sequential>();
    hold->add(std::make_unique<HoldLayer>(release.get_future().share()));
    serve::ModelOptions hold_options;
    hold_options.mac_ops_per_row = 1;
    auto held = small.submit_model(small.register_model("hold", std::move(hold), hold_options),
                                   tensor::random_uniform(1, 32, rng, -1.0, 1.0));
    while (small.pending() != 0) std::this_thread::yield();  // the worker took it

    std::vector<tensor::Matrix> xs;
    std::vector<std::future<serve::ServeResult>> fs;
    for (int i = 0; i < 8; ++i) {
      xs.push_back(tensor::random_uniform(2, 32, rng, -1.0, 1.0));
      fs.push_back(small.submit_model(h, xs.back()));
    }
    release.set_value();
    held.get();
    std::size_t served = 0;
    std::size_t shed = 0;
    for (auto& f : fs) {
      try {
        f.get();
        ++served;
      } catch (const serve::OverloadError& e) {
        if (shed == 0) std::cout << "first shed:  " << e.what() << "\n";
        ++shed;
      }
    }
    small.shutdown();
    std::cout << served << " served, " << shed
              << " shed — every rejection names the request, model+version,\n"
                 "queue depth and backlog cost it was rejected against\n";
  }

  std::cout << "\nEvery request was a registered model and flowed through ONE fleet\n"
               "submit API: routed across shards by outstanding cost, served from one\n"
               "shared registry whose weights packed once, and hot-swapped mid-stream\n"
               "with zero dropped or torn requests.\n";

  if (!trace_out.empty()) {
    obs::trace_stop();  // fleet is shut down: every span is already recorded
    if (!obs::trace_write_chrome(trace_out)) {
      std::cerr << "error: could not write trace file " << trace_out << "\n";
      return 1;
    }
    std::cout << "\ntrace: wrote " << trace_out
              << " (load in Perfetto or chrome://tracing)\n";
  }

  if (exact != mlp_futures.size() || v2_exact != v2_futures.size()) {
    std::cout << "\nFAIL: "
              << (mlp_futures.size() - exact) + (v2_futures.size() - v2_exact)
              << " served logit sets diverged from the direct forward\n";
    return 1;
  }
  return 0;
}
