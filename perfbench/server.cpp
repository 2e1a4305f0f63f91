// `perfbench serve`: the server process. A real serve::Fleet behind a real
// net::NetServer, built only through public APIs, so the process's CPU time
// and peak RSS are the server's alone.
//
// Protocol with its parent (run.py): one line `READY <port>` on stdout once
// every model is registered and the listener is up; the server then runs
// until its stdin closes, drains, optionally writes its Chrome trace, and
// prints `DONE <json>`.
//
// A housekeeping thread publishes what /metrics does not carry on its own —
// worker heap allocations and BufferPool hits/misses — as perfbench_* gauges
// every few milliseconds, and, on the swap workload, republishes the model
// on its fixed period (timed into the perfbench_swap_ms histogram).
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "roles.hpp"
#include "tensor/buffer_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace onesa;

namespace {

constexpr double kPublishPeriodMs = 5.0;

class Housekeeper {
 public:
  Housekeeper(serve::Fleet& fleet, const Workload& w, std::uint64_t seed)
      : fleet_(fleet), workload_(w), seed_(seed), thread_([this] { run(); }) {}
  ~Housekeeper() { stop(); }

  Housekeeper(const Housekeeper&) = delete;
  Housekeeper& operator=(const Housekeeper&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// What stopped the housekeeping thread early; empty if nothing. Read after
  /// stop().
  const std::string& error() const { return error_; }

 private:
  void run() {
    try {
      loop();
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  void loop() {
    auto& reg = obs::MetricsRegistry::global();
    obs::Gauge& allocs = reg.gauge("perfbench_worker_heap_allocations");
    obs::Gauge& hits = reg.gauge("perfbench_pool_hits");
    obs::Gauge& misses = reg.gauge("perfbench_pool_misses");
    obs::Histogram& swap_ms = reg.histogram("perfbench_swap_ms");
    auto next_swap = Clock::now() + period();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(kPublishPeriodMs),
                   [this] { return stop_; });
      if (stop_) break;
      lock.unlock();
      std::uint64_t worker_allocs = 0;
      for (std::size_t s = 0; s < fleet_.shards(); ++s)
        worker_allocs += fleet_.shard(s).worker_heap_allocations();
      const tensor::pool::PoolStats pool = tensor::pool::stats();
      allocs.set(static_cast<std::int64_t>(worker_allocs));
      hits.set(static_cast<std::int64_t>(pool.hits));
      misses.set(static_cast<std::int64_t>(pool.misses));
      if (workload_.swap_period_ms > 0.0 && Clock::now() >= next_swap) {
        // The same seed rebuilds bit-identical weights, so every reply stays
        // checkable against the client's reference while the registry
        // repacks and republishes under load.
        const ModelSpec& spec = workload_.models.front();
        auto model = build_model(spec, seed_, 0);
        const auto t0 = Clock::now();
        fleet_.swap_model(spec.name, std::move(model));
        swap_ms.record(ms_between(t0, Clock::now()));
        next_swap = Clock::now() + period();
      }
      lock.lock();
    }
  }

  Clock::duration period() const {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(workload_.swap_period_ms));
  }

  serve::Fleet& fleet_;
  const Workload& workload_;
  const std::uint64_t seed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::string error_;  // written by the thread, read after join
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace

int run_serve(const Args& args) {
  const Workload& w = find_workload(args.workload);
  serve::Fleet fleet(fleet_config(w));
  for (std::size_t i = 0; i < w.models.size(); ++i) {
    const ModelSpec& spec = w.models[i];
    fleet.register_model(spec.name, build_model(spec, args.seed, i), model_options(spec));
  }
  net::NetServer server(fleet, net::NetServerConfig{});
  server.start();
  Housekeeper housekeeper(fleet, w, args.seed);
  if (!args.trace_out.empty()) obs::trace_start(w.trace_rate);
  std::cout << "READY " << server.port() << std::endl;

  for (std::string line; std::getline(std::cin, line);) {
  }

  housekeeper.stop();
  server.stop();
  bool trace_written = true;
  if (!args.trace_out.empty()) {
    obs::trace_stop();
    trace_written = obs::trace_write_chrome(args.trace_out);
  }
  const net::NetServerCounters counters = server.counters();
  std::cout << "DONE "
            << JsonLine()
                   .num("double_settles", static_cast<double>(counters.double_settles))
                   .num("protocol_errors", static_cast<double>(counters.protocol_errors))
                   .num("trace_written", trace_written ? 1 : 0)
                   .str("housekeeper_error", housekeeper.error())
                   .done()
            << std::endl;
  return counters.double_settles == 0 && trace_written && housekeeper.error().empty() ? 0 : 1;
}

}  // namespace perfbench
