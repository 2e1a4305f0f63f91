// Open-loop load generator for the network front door (net/server.hpp):
// offered load is a precomputed arrival schedule fired at the server
// regardless of how fast replies come back — the only traffic model that
// reveals the overload hockey stick (a closed-loop client self-throttles
// into flattering numbers the moment the server slows down).
//
//   bench_loadgen [--json PATH] [--smoke]     (default BENCH_traffic.json)
//
// The bench stands up a real serve::Fleet behind a real NetServer on a
// loopback socket and drives it over TCP through five scenarios:
//
//  1. CAPACITY. A closed-loop pipelined probe measures the stack's
//     sustainable RPS on this host; every later offered rate is a multiple
//     of it, so the scenario shapes are host-portable even though the
//     absolute numbers are not.
//  2. HOCKEY STICK. Open-loop Poisson arrivals swept from 0.2x to 2.2x
//     capacity. Mean server-side queueing delay vs offered load bends at
//     the knee (`knee_offered_rps`; absolute, so compare_bench demotes it
//     to INFO on 1-core hosts); `overload_goodput_ratio` — goodput at the
//     deepest overload level over capacity — is the dimensionless gated
//     survival figure: an open-loop 2.2x flood must be answered by shedding
//     with structured kErrOverload replies while goodput holds, not by
//     collapse.
//  3. DIURNAL RAMP. Offered load ramps 0.2x -> 1.5x across the run (a
//     compressed day): every request is accounted (reply or shed), the
//     served curve rides along informationally.
//  4. FLASH CROWD + MULTI-MODEL MIX. Three models (two sizes + a batched
//     window) at mixed priorities serve a baseline, then a 10x spike, then
//     the baseline again. `flash_interactive_p99_ratio` (interactive p99
//     after the spike over before it — recovery) is gated lower-is-better
//     by compare_bench; during the spike the gate is accounting, not
//     latency: offered = served + shed, nothing vanished.
//  5. CHAOS + DRAIN. A Poisson stream of well-behaved clients shares the
//     server with hostile ones — byte-fuzzers, slowloris holders, and
//     mid-request disconnectors — for the whole scenario, then the process
//     receives a real SIGTERM. The gate: zero crashes, zero double
//     settles, every well-behaved request resolved exactly once, the
//     fuzzers all got structured protocol errors, the slowloris clients
//     were evicted, at least one abandoned reply was orphaned cleanly, and
//     the drain finished inside its deadline.
//
// --smoke runs a shortened scenario set (capacity + one Poisson level +
// SIGTERM drain, no hostiles) with gates suited to CI sanity: zero
// protocol errors, zero double settles, clean in-deadline drain. The
// emitted JSON carries "smoke": true so compare_bench.py refuses to treat
// a smoke artifact and a full baseline as comparable timings.
//
// Exit code is nonzero when any in-bench acceptance gate fails.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "serve/fleet.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace onesa;
using Clock = std::chrono::steady_clock;

double wall_ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ------------------------------------------------------------- the server

std::unique_ptr<nn::Sequential> mlp(std::size_t in, std::size_t hidden,
                                    std::size_t out, Rng& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Linear>(in, hidden, rng));
  model->add(nn::make_relu());
  model->add(std::make_unique<nn::Linear>(hidden, out, rng));
  return model;
}

/// Columns each registered model expects (the loadgen's request builder
/// must agree with the registration below).
std::size_t model_cols(const std::string& name) { return name == "mlp-wide" ? 8 : 4; }

struct Harness {
  serve::Fleet fleet;
  net::NetServer server;

  explicit Harness(net::NetServerConfig net_cfg = {})
      : fleet([] {
          serve::FleetConfig cfg;
          cfg.shards = 2;
          cfg.workers_per_shard = 2;
          // A bounded queue is what turns a flood into structured sheds
          // ("429 with depth") instead of an unbounded latency collapse.
          cfg.admission.max_pending_requests = 64;
          return cfg;
        }()),
        server(fleet, std::move(net_cfg)) {
    Rng rng(0x10AD);
    serve::ModelOptions batchable;
    batchable.batchable = true;
    fleet.register_model("mlp", mlp(4, 16, 4, rng), batchable);
    fleet.register_model("mlp-wide", mlp(8, 32, 8, rng), batchable);
    serve::ModelOptions windowed = batchable;
    windowed.batch_window_ms = 50.0;
    fleet.register_model("mlp-win", mlp(4, 16, 4, rng), windowed);
    server.start();
  }
};

// ------------------------------------------------------ open-loop clients

struct Arrival {
  double at_ms = 0.0;
  std::string model = "mlp";
  serve::Priority priority = serve::Priority::kNormal;
  std::size_t rows = 1;
  int window = 0;  // scenario-defined phase tag (flash crowd: 0/1/2)
};

struct ReplyRecord {
  net::FrameType type = net::FrameType::kErrInternal;
  double latency_ms = 0.0;  // client-observed, host wall clock
  double queue_ms = 0.0;    // server-side queue wait (kInferOk only)
  serve::Priority priority = serve::Priority::kNormal;
  int window = 0;
  std::string model;
};

struct ClientResult {
  std::size_t sent = 0;
  std::size_t unsent = 0;      // send() failed (connection already gone)
  std::size_t duplicates = 0;  // same request id answered twice (gate: 0)
  std::size_t missing = 0;     // sent but never answered (gate: 0)
  std::vector<ReplyRecord> replies;
};

/// Fire `arrivals` open-loop over one connection: the sender thread follows
/// the schedule and NEVER waits for replies; a receiver thread collects
/// them and matches ids. Returns once every sent request is resolved (or
/// the post-send grace expired — survivors count as `missing`).
ClientResult run_open_loop(std::uint16_t port, const std::vector<Arrival>& arrivals,
                           std::uint64_t id_base, std::uint64_t seed,
                           Clock::time_point epoch) {
  struct SentInfo {
    Clock::time_point at;
    serve::Priority priority;
    int window;
    std::string model;
  };

  ClientResult result;
  net::BlockingClient client;
  client.connect("127.0.0.1", port, /*recv_timeout_ms=*/500.0);

  std::mutex mu;
  std::unordered_map<std::uint64_t, SentInfo> outstanding;
  std::unordered_set<std::uint64_t> answered;
  std::atomic<bool> sender_done{false};
  std::atomic<std::size_t> sent{0};

  std::thread receiver([&] {
    int grace = 0;
    for (;;) {
      std::optional<net::Frame> frame;
      try {
        frame = client.recv_frame();
      } catch (const std::exception&) {
        break;  // server answered with garbage — counted as missing below
      }
      if (!frame.has_value()) {
        if (!sender_done.load(std::memory_order_acquire)) continue;
        bool drained;
        {
          std::lock_guard<std::mutex> lock(mu);
          drained = outstanding.empty();
        }
        // Allow a couple of 500 ms timeouts after the sender stopped for
        // in-flight work (and the drain) to finish, then give up.
        if (drained || ++grace >= 6) break;
        continue;
      }
      grace = 0;
      ReplyRecord rec;
      rec.type = frame->type;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = outstanding.find(frame->request_id);
        if (it == outstanding.end()) {
          if (answered.count(frame->request_id)) ++result.duplicates;
          continue;
        }
        rec.latency_ms = wall_ms_since(it->second.at);
        rec.priority = it->second.priority;
        rec.window = it->second.window;
        rec.model = it->second.model;
        outstanding.erase(it);
        answered.insert(frame->request_id);
      }
      if (rec.type == net::FrameType::kInferOk) {
        net::InferReply reply;
        std::string why;
        if (net::decode_infer_reply(frame->payload.data(), frame->payload.size(),
                                    reply, why)) {
          rec.queue_ms = reply.queue_ms;
        }
      }
      result.replies.push_back(std::move(rec));
      bool all_done;
      {
        std::lock_guard<std::mutex> lock(mu);
        all_done = sender_done.load(std::memory_order_acquire) && outstanding.empty();
      }
      if (all_done) break;
    }
  });

  Rng rng(seed);
  std::uint64_t next_id = id_base;
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(epoch + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double, std::milli>(
                                                  a.at_ms)));
    net::InferRequest req;
    req.model = a.model;
    req.priority = a.priority;
    req.input = tensor::random_uniform(a.rows, model_cols(a.model), rng);
    const std::uint64_t id = next_id++;
    {
      std::lock_guard<std::mutex> lock(mu);
      outstanding[id] = {Clock::now(), a.priority, a.window, a.model};
    }
    try {
      client.send_infer(id, req);
      sent.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      std::lock_guard<std::mutex> lock(mu);
      outstanding.erase(id);
      ++result.unsent;
    }
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  result.sent = sent.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu);
    result.missing = outstanding.size();
  }
  client.close();
  return result;
}

/// Split a schedule round-robin across `fanout` connections and merge the
/// results (open-loop clients in parallel; ids stay globally unique).
ClientResult run_fanned(std::uint16_t port, const std::vector<Arrival>& arrivals,
                        std::size_t fanout, std::uint64_t id_base,
                        std::uint64_t seed) {
  std::vector<std::vector<Arrival>> split(fanout);
  for (std::size_t i = 0; i < arrivals.size(); ++i)
    split[i % fanout].push_back(arrivals[i]);
  const auto epoch = Clock::now() + std::chrono::milliseconds(20);
  std::vector<ClientResult> parts(fanout);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < fanout; ++c) {
    threads.emplace_back([&, c] {
      parts[c] = run_open_loop(port, split[c], id_base + c * 1000000, seed + c, epoch);
    });
  }
  for (auto& t : threads) t.join();
  ClientResult merged;
  for (ClientResult& p : parts) {
    merged.sent += p.sent;
    merged.unsent += p.unsent;
    merged.duplicates += p.duplicates;
    merged.missing += p.missing;
    merged.replies.insert(merged.replies.end(),
                          std::make_move_iterator(p.replies.begin()),
                          std::make_move_iterator(p.replies.end()));
  }
  return merged;
}

// ------------------------------------------------------ arrival schedules

std::vector<Arrival> poisson_schedule(Rng& rng, double rate_rps, double duration_ms,
                                      double start_ms = 0.0, int window = 0) {
  std::vector<Arrival> out;
  double t = start_ms;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate_rps;
    if (t >= start_ms + duration_ms) break;
    Arrival a;
    a.at_ms = t;
    a.window = window;
    a.priority = rng.bernoulli(0.3) ? serve::Priority::kInteractive
                                    : serve::Priority::kNormal;
    out.push_back(a);
  }
  return out;
}

/// Linear ramp rate(t): r0 -> r1 over duration, by thinning a max-rate
/// Poisson stream (exact for a time-varying Poisson process).
std::vector<Arrival> ramp_schedule(Rng& rng, double r0, double r1, double duration_ms) {
  const double rmax = std::max(r0, r1);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rmax;
    if (t >= duration_ms) break;
    const double rate_t = r0 + (r1 - r0) * (t / duration_ms);
    if (!rng.bernoulli(rate_t / rmax)) continue;
    Arrival a;
    a.at_ms = t;
    a.priority = rng.bernoulli(0.3) ? serve::Priority::kInteractive
                                    : serve::Priority::kNormal;
    out.push_back(a);
  }
  return out;
}

// --------------------------------------------------------------- results

struct LevelResult {
  double offered_rps = 0.0;
  double multiplier = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t shed = 0;
  std::size_t other = 0;
  double served_rps = 0.0;
  double mean_queue_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  bool accounted = false;
};

LevelResult summarize_level(const ClientResult& r, double offered_rps,
                            double multiplier, double duration_ms) {
  LevelResult level;
  level.offered_rps = offered_rps;
  level.multiplier = multiplier;
  level.sent = r.sent;
  std::vector<double> queue, latency;
  for (const ReplyRecord& rec : r.replies) {
    latency.push_back(rec.latency_ms);
    if (rec.type == net::FrameType::kInferOk) {
      ++level.ok;
      queue.push_back(rec.queue_ms);
    } else if (rec.type == net::FrameType::kErrOverload) {
      ++level.shed;
    } else {
      ++level.other;
    }
  }
  level.served_rps = static_cast<double>(level.ok) / (duration_ms / 1000.0);
  level.mean_queue_ms = mean(queue);
  level.p50_latency_ms = percentile(latency, 50.0);
  level.p99_latency_ms = percentile(latency, 99.0);
  level.accounted = r.duplicates == 0 && r.missing == 0 &&
                    level.ok + level.shed + level.other == r.sent;
  return level;
}

struct CapacityResult {
  std::size_t requests = 0;
  double rps = 0.0;
};

/// Closed-loop pipelined probe: keep `window` requests outstanding until
/// `total` complete. The completion rate is this host's sustainable RPS.
CapacityResult measure_capacity(std::uint16_t port, std::size_t total) {
  net::BlockingClient client;
  client.connect("127.0.0.1", port, /*recv_timeout_ms=*/5000.0);
  Rng rng(0xCAFE);
  constexpr std::size_t kWindow = 32;
  const auto start = Clock::now();
  std::size_t sent = 0, done = 0;
  auto send_one = [&] {
    net::InferRequest req;
    req.model = "mlp";
    req.input = tensor::random_uniform(1, 4, rng);
    client.send_infer(++sent, req);
  };
  for (std::size_t i = 0; i < std::min(kWindow, total); ++i) send_one();
  while (done < total) {
    auto frame = client.recv_frame();
    if (!frame.has_value()) break;
    ++done;
    if (sent < total) send_one();
  }
  CapacityResult cap;
  cap.requests = done;
  cap.rps = static_cast<double>(done) / (wall_ms_since(start) / 1000.0);
  client.close();
  return cap;
}

// --------------------------------------------------------------- hostiles

struct HostileStats {
  std::atomic<std::uint64_t> fuzz_rounds{0};
  std::atomic<std::uint64_t> fuzz_error_replies{0};
  std::atomic<std::uint64_t> slowloris_evictions_seen{0};
  std::atomic<std::uint64_t> disconnects{0};
};

void fuzzer_thread(std::uint16_t port, std::uint64_t seed, std::atomic<bool>& stop,
                   HostileStats& stats) {
  Rng rng(seed);
  while (!stop.load(std::memory_order_acquire)) {
    try {
      net::BlockingClient c;
      c.connect("127.0.0.1", port, /*recv_timeout_ms=*/200.0);
      std::vector<unsigned char> junk(
          static_cast<std::size_t>(rng.integer(16, 256)));
      for (auto& b : junk) b = static_cast<unsigned char>(rng.integer(0, 255));
      // Keep the first byte away from 'G' and the real magic so this is a
      // framing violation, not an HTTP request.
      if (junk[0] == 'G' || junk[0] == 'O') junk[0] = 0xA5;
      c.send_raw(junk);
      try {
        auto reply = c.recv_frame();
        if (reply.has_value() && net::is_error_type(reply->type))
          stats.fuzz_error_replies.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        // Garbage can legitimately parse as a huge claimed frame; the
        // server's answer still arrives, but a desynced CLIENT decoder may
        // reject it. The server-side protocol_errors counter is the gate.
        stats.fuzz_error_replies.fetch_add(1, std::memory_order_relaxed);
      }
      stats.fuzz_rounds.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
      // Connect refused during drain / reset mid-write: expected chaos.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void slowloris_thread(std::uint16_t port, std::atomic<bool>& stop,
                      HostileStats& stats) {
  std::vector<unsigned char> frame;
  net::encode_frame(frame, net::FrameType::kPing, 1, nullptr, 0);
  while (!stop.load(std::memory_order_acquire)) {
    try {
      net::BlockingClient c;
      c.connect("127.0.0.1", port, /*recv_timeout_ms=*/2000.0);
      c.send_raw(frame.data(), 8);  // half a header, never completed
      // Hold the socket: the server must evict us at frame_timeout_ms.
      if (!c.recv_frame().has_value())
        stats.slowloris_evictions_seen.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void disconnector_thread(std::uint16_t port, std::uint64_t seed,
                         std::atomic<bool>& stop, HostileStats& stats) {
  Rng rng(seed);
  std::uint64_t id = 0x0D15C0000000ull + seed * 100000;
  while (!stop.load(std::memory_order_acquire)) {
    try {
      net::BlockingClient c;
      c.connect("127.0.0.1", port, /*recv_timeout_ms=*/200.0);
      net::InferRequest req;
      req.model = "mlp-win";  // 50 ms batching window: the reply WILL be late
      req.priority = serve::Priority::kBulk;
      req.input = tensor::random_uniform(1, 4, rng);
      c.send_infer(++id, req);
      c.close();  // vanish mid-flight: the reply must be orphaned cleanly
      stats.disconnects.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
}

// ------------------------------------------------------------------ JSON

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // FIRST: keep SIGTERM away from every thread but the watcher, so the
  // chaos scenario's real process-directed SIGTERM lands where it should.
  net::NetServer::block_drain_signals();

  std::string json_path = "BENCH_traffic.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_loadgen [--json PATH] [--smoke]\n";
      return 2;
    }
  }

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  std::cout << "loadgen: " << (smoke ? "smoke" : "full") << " run, "
            << hardware_threads << " hardware thread(s)\n";
  bool all_pass = true;

  // ------------------------------------------------------------- capacity
  CapacityResult capacity;
  {
    Harness h;
    capacity = measure_capacity(h.server.port(), smoke ? 150 : 500);
    h.server.stop();
  }
  std::cout << "capacity: " << fmt(capacity.rps) << " rps over "
            << capacity.requests << " closed-loop requests\n";
  if (capacity.requests == 0 || capacity.rps <= 0.0) {
    std::cerr << "FAIL: capacity probe served nothing\n";
    return 1;
  }

  // --------------------------------------------------------- hockey stick
  std::vector<LevelResult> levels;
  double knee_offered_rps = 0.0, knee_over_capacity = 0.0;
  double overload_goodput_ratio = 0.0;
  if (!smoke) {
    const double duration_ms = 1200.0;
    const std::vector<double> multipliers = {0.2, 0.5, 0.8, 1.1, 1.5, 2.2};
    Harness h;
    Rng rng(0x4CE);
    std::uint64_t id_base = 1ull << 32;
    for (double m : multipliers) {
      const double rate = m * capacity.rps;
      auto schedule = poisson_schedule(rng, rate, duration_ms);
      const auto r = run_fanned(h.server.port(), schedule, 4, id_base, 0x4CE0 + (std::uint64_t)(m * 10));
      id_base += 10000000;
      levels.push_back(summarize_level(r, rate, m, duration_ms));
      const LevelResult& lv = levels.back();
      std::cout << "  " << fmt(m) << "x (" << fmt(rate) << " rps offered): "
                << lv.ok << " ok, " << lv.shed << " shed, " << lv.other
                << " other, queue " << fmt(lv.mean_queue_ms) << " ms, p99 "
                << fmt(lv.p99_latency_ms) << " ms"
                << (lv.accounted ? "" : "  [UNACCOUNTED]") << "\n";
      if (!lv.accounted) all_pass = false;
    }
    h.server.stop();
    if (h.server.counters().double_settles != 0) {
      std::cerr << "FAIL: hockey-stick run observed double settles\n";
      all_pass = false;
    }
    // Knee: first level whose mean queueing delay exceeds 5x the lightest
    // level's (floored to dodge measurement dust), else where sheds pass 5%.
    const double base_queue = std::max(levels.front().mean_queue_ms, 0.2);
    std::size_t knee = levels.size() - 1;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      if (levels[i].mean_queue_ms > 5.0 * base_queue ||
          levels[i].shed * 20 > levels[i].sent) {
        knee = i;
        break;
      }
    }
    knee_offered_rps = levels[knee].offered_rps;
    // Normalize against the sweep's own peak goodput, not the closed-loop
    // probe: pipelined batching amortizes per-request cost, so the probe
    // overstates what one-request-at-a-time open-loop traffic can sustain.
    double peak_served = 0.0;
    for (const LevelResult& lv : levels) peak_served = std::max(peak_served, lv.served_rps);
    knee_over_capacity = peak_served > 0.0 ? knee_offered_rps / peak_served : 0.0;
    overload_goodput_ratio =
        peak_served > 0.0 ? levels.back().served_rps / peak_served : 0.0;
    std::cout << "hockey stick: knee at " << fmt(knee_over_capacity)
              << "x peak goodput (" << fmt(knee_offered_rps)
              << " rps offered, peak " << fmt(peak_served) << " rps served), "
              << "goodput at " << fmt(levels.back().multiplier)
              << "x overload = " << fmt(overload_goodput_ratio) << " of peak\n";
    // Open-loop survival: the deepest overload level must keep goodput at a
    // healthy fraction of capacity (collapse would crater this) and must
    // shed the excess as structured overloads.
    if (overload_goodput_ratio < 0.5) {
      std::cerr << "FAIL: goodput collapsed under 2.2x overload (ratio "
                << fmt(overload_goodput_ratio) << " < 0.5)\n";
      all_pass = false;
    }
    if (levels.back().shed == 0) {
      std::cerr << "FAIL: 2.2x overload shed nothing — admission control "
                   "never engaged\n";
      all_pass = false;
    }
  }

  // --------------------------------------------------------- diurnal ramp
  LevelResult ramp;
  if (!smoke) {
    Harness h;
    Rng rng(0xD1);
    auto schedule = ramp_schedule(rng, 0.2 * capacity.rps, 1.5 * capacity.rps, 2000.0);
    const auto r = run_fanned(h.server.port(), schedule, 4, 1ull << 48, 0xD10);
    ramp = summarize_level(r, /*offered=*/0.85 * capacity.rps, 0.85, 2000.0);
    h.server.stop();
    std::cout << "ramp 0.2x->1.5x: " << ramp.ok << " ok, " << ramp.shed
              << " shed, " << ramp.other << " other"
              << (ramp.accounted ? "" : "  [UNACCOUNTED]") << "\n";
    if (!ramp.accounted) all_pass = false;
  }

  // ---------------------------------------- flash crowd + multi-model mix
  double flash_p99_before = 0.0, flash_p99_during = 0.0, flash_p99_after = 0.0;
  double flash_interactive_p99_ratio = 0.0, flash_shed_frac = 0.0;
  std::size_t flash_sent = 0;
  bool flash_accounted = false;
  std::unordered_map<std::string, std::size_t> model_counts;
  if (!smoke) {
    Harness h;
    Rng rng(0xF1A5);
    const double base_rate = 0.3 * capacity.rps;
    // Three phases, each run to COMPLETION before the next begins (an
    // open-loop client colocated with the server cannot faithfully push a
    // 10x spike on schedule — phases that share a timeline would bleed into
    // each other through sender lag, polluting the recovery measurement):
    // phase 0: 900 ms baseline; phase 1: 400 ms at 10x, every reply
    // collected (the crowd passes); phase 2: 900 ms baseline again — the
    // gated recovery window.
    auto before_sched = poisson_schedule(rng, base_rate, 900.0, 0.0, 0);
    auto spike = poisson_schedule(rng, 10.0 * base_rate, 400.0, 0.0, 1);
    auto after_sched = poisson_schedule(rng, base_rate, 900.0, 0.0, 2);
    // Multi-model mix riding the same streams: 60% mlp / 30% mlp-wide /
    // 10% mlp-win, bulk class for the windowed model.
    Rng mix(0x717);
    for (auto* sched : {&before_sched, &spike, &after_sched}) {
      for (Arrival& a : *sched) {
        const double u = mix.uniform();
        if (u < 0.6) {
          a.model = "mlp";
        } else if (u < 0.9) {
          a.model = "mlp-wide";
        } else {
          a.model = "mlp-win";
          a.priority = serve::Priority::kBulk;
        }
      }
    }
    ClientResult r = run_fanned(h.server.port(), before_sched, 6, 1ull << 52, 0xF1A0);
    {
      ClientResult part = run_fanned(h.server.port(), spike, 6, 1ull << 53, 0xF1A1);
      r.sent += part.sent;
      r.unsent += part.unsent;
      r.duplicates += part.duplicates;
      r.missing += part.missing;
      r.replies.insert(r.replies.end(), std::make_move_iterator(part.replies.begin()),
                       std::make_move_iterator(part.replies.end()));
      part = run_fanned(h.server.port(), after_sched, 6, 1ull << 54, 0xF1A2);
      r.sent += part.sent;
      r.unsent += part.unsent;
      r.duplicates += part.duplicates;
      r.missing += part.missing;
      r.replies.insert(r.replies.end(), std::make_move_iterator(part.replies.begin()),
                       std::make_move_iterator(part.replies.end()));
    }
    h.server.stop();
    flash_sent = r.sent;
    std::vector<double> before, during, after_lat;
    std::size_t ok = 0, shed = 0, other = 0;
    for (const ReplyRecord& rec : r.replies) {
      if (rec.type == net::FrameType::kInferOk) {
        ++ok;
      } else if (rec.type == net::FrameType::kErrOverload) {
        ++shed;
      } else {
        ++other;
      }
      ++model_counts[rec.model];
      if (rec.priority != serve::Priority::kInteractive) continue;
      if (rec.window == 0) before.push_back(rec.latency_ms);
      if (rec.window == 1) during.push_back(rec.latency_ms);
      if (rec.window == 2) after_lat.push_back(rec.latency_ms);
    }
    flash_p99_before = percentile(before, 99.0);
    flash_p99_during = percentile(during, 99.0);
    flash_p99_after = percentile(after_lat, 99.0);
    flash_interactive_p99_ratio =
        flash_p99_before > 0.0 ? flash_p99_after / flash_p99_before : 0.0;
    const std::size_t spike_total = spike.size();
    flash_shed_frac = spike_total > 0
                          ? static_cast<double>(shed) / static_cast<double>(r.sent)
                          : 0.0;
    flash_accounted =
        r.duplicates == 0 && r.missing == 0 && ok + shed + other == r.sent;
    std::cout << "flash crowd 10x: interactive p99 " << fmt(flash_p99_before)
              << " -> " << fmt(flash_p99_during) << " -> " << fmt(flash_p99_after)
              << " ms (recovery ratio " << fmt(flash_interactive_p99_ratio)
              << "), " << shed << " shed" << (flash_accounted ? "" : "  [UNACCOUNTED]")
              << "\n";
    if (!flash_accounted) all_pass = false;
    // Recovery gate: after the crowd passes, interactive p99 returns to
    // within 3x of the pre-spike baseline.
    if (flash_interactive_p99_ratio > 3.0) {
      std::cerr << "FAIL: interactive p99 did not recover after the flash "
                   "crowd (ratio "
                << fmt(flash_interactive_p99_ratio) << " > 3)\n";
      all_pass = false;
    }
    for (const char* name : {"mlp", "mlp-wide", "mlp-win"}) {
      if (model_counts[name] == 0) {
        std::cerr << "FAIL: model mix starved " << name << "\n";
        all_pass = false;
      }
    }
  }

  // ------------------------------------------------------- chaos + drain
  struct ChaosOut {
    std::size_t good_sent = 0;
    std::size_t good_ok = 0, good_shed = 0, good_draining = 0, good_other = 0;
    std::size_t duplicates = 0, missing = 0;
    std::uint64_t fuzz_rounds = 0, fuzz_error_replies = 0, disconnects = 0;
    net::NetServerCounters counters;
    double drain_ms = 0.0;
    bool drained = false;
    bool exactly_once = false;
    bool pass = false;
  } chaos;
  {
    net::NetServerConfig net_cfg;
    net_cfg.frame_timeout_ms = 250.0;  // evict slowloris inside the scenario
    net_cfg.drain_deadline_ms = 5000.0;
    Harness h(net_cfg);
    h.server.install_signal_drain();
    const std::uint16_t port = h.server.port();

    std::atomic<bool> stop_hostiles{false};
    HostileStats hostile;
    std::vector<std::thread> hostiles;
    const double good_ms = smoke ? 500.0 : 1500.0;
    if (!smoke) {
      for (int i = 0; i < 4; ++i)
        hostiles.emplace_back(fuzzer_thread, port, 0xF0 + i, std::ref(stop_hostiles),
                              std::ref(hostile));
      for (int i = 0; i < 2; ++i)
        hostiles.emplace_back(slowloris_thread, port, std::ref(stop_hostiles),
                              std::ref(hostile));
      for (int i = 0; i < 3; ++i)
        hostiles.emplace_back(disconnector_thread, port, 0xD0 + i,
                              std::ref(stop_hostiles), std::ref(hostile));
    }

    Rng rng(0xC4A0);
    auto schedule = poisson_schedule(rng, 0.5 * capacity.rps, good_ms);
    const auto r = run_fanned(port, schedule, 4, 1ull << 56, 0xC4A1);

    // Good traffic resolved; now the orchestrator "kills" the process.
    stop_hostiles.store(true, std::memory_order_release);
    kill(getpid(), SIGTERM);
    chaos.drained = h.server.wait_drained(net_cfg.drain_deadline_ms + 3000.0);
    for (auto& t : hostiles) t.join();
    h.server.stop();

    chaos.good_sent = r.sent;
    for (const ReplyRecord& rec : r.replies) {
      if (rec.type == net::FrameType::kInferOk) {
        ++chaos.good_ok;
      } else if (rec.type == net::FrameType::kErrOverload) {
        ++chaos.good_shed;
      } else if (rec.type == net::FrameType::kErrDraining) {
        ++chaos.good_draining;
      } else {
        ++chaos.good_other;
      }
    }
    chaos.duplicates = r.duplicates;
    chaos.missing = r.missing;
    chaos.fuzz_rounds = hostile.fuzz_rounds.load();
    chaos.fuzz_error_replies = hostile.fuzz_error_replies.load();
    chaos.disconnects = hostile.disconnects.load();
    chaos.counters = h.server.counters();
    chaos.drain_ms = h.server.drain_ms();
    chaos.exactly_once =
        chaos.duplicates == 0 && chaos.missing == 0 &&
        chaos.good_ok + chaos.good_shed + chaos.good_draining + chaos.good_other ==
            chaos.good_sent;

    chaos.pass = chaos.drained && chaos.exactly_once &&
                 chaos.counters.double_settles == 0 &&
                 chaos.drain_ms <= net_cfg.drain_deadline_ms + 500.0;
    if (smoke) {
      // Smoke gate: a clean stream must see ZERO protocol errors.
      chaos.pass = chaos.pass && chaos.counters.protocol_errors == 0;
    } else {
      // Full chaos: every fuzz round the CLIENT saw answered implies the
      // server counted a protocol error for it (rounds whose reply raced
      // the drain's hard-close are not owed one — hence the client-observed
      // lower bound, not raw rounds); the slowloris clients were evicted;
      // and at least one abandoned reply was orphaned cleanly (never
      // written to a dead fd).
      chaos.pass = chaos.pass && chaos.fuzz_error_replies >= 1 &&
                   chaos.counters.protocol_errors >= chaos.fuzz_error_replies &&
                   chaos.counters.slow_client_evictions >= 1 &&
                   chaos.counters.orphaned_replies >= 1;
    }
    std::cout << (smoke ? "smoke" : "chaos") << ": " << chaos.good_sent
              << " good requests (" << chaos.good_ok << " ok, " << chaos.good_shed
              << " shed, " << chaos.good_draining << " draining, " << chaos.good_other
              << " other), " << chaos.fuzz_rounds << " fuzz rounds, "
              << chaos.disconnects << " mid-flight disconnects, drain "
              << fmt(chaos.drain_ms) << " ms, double settles "
              << chaos.counters.double_settles << " -> "
              << (chaos.pass ? "PASS" : "FAIL") << "\n";
    if (!chaos.pass) {
      std::cerr << "  chaos gate detail: drained=" << chaos.drained
                << " drain_ms=" << fmt(chaos.drain_ms)
                << " exactly_once=" << chaos.exactly_once
                << " duplicates=" << chaos.duplicates
                << " missing=" << chaos.missing
                << " double_settles=" << chaos.counters.double_settles
                << " protocol_errors=" << chaos.counters.protocol_errors
                << " fuzz_error_replies=" << chaos.fuzz_error_replies
                << " slow_evictions=" << chaos.counters.slow_client_evictions
                << " orphaned=" << chaos.counters.orphaned_replies << "\n";
      all_pass = false;
    }
  }

  // ------------------------------------------------------------ the JSON
  {
    std::ofstream out(json_path);
    out << "{\n";
    out << "  \"bench\": \"traffic\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"hardware_threads\": " << hardware_threads << ",\n";
    out << "  \"generated_unix\": " << std::time(nullptr) << ",\n";
    out << "  \"capacity\": {\"requests\": " << capacity.requests
        << ", \"closed_loop_rps\": " << fmt(capacity.rps) << "},\n";
    out << "  \"hockey_stick\": {\n    \"levels\": [\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const LevelResult& lv = levels[i];
      out << "      {\"multiplier\": " << fmt(lv.multiplier)
          << ", \"offered_rps\": " << fmt(lv.offered_rps) << ", \"sent\": " << lv.sent
          << ", \"ok\": " << lv.ok << ", \"shed\": " << lv.shed
          << ", \"other\": " << lv.other << ", \"served_rps\": " << fmt(lv.served_rps)
          << ", \"mean_queue_ms\": " << fmt(lv.mean_queue_ms)
          << ", \"p50_latency_ms\": " << fmt(lv.p50_latency_ms)
          << ", \"p99_latency_ms\": " << fmt(lv.p99_latency_ms)
          << ", \"accounted\": " << (lv.accounted ? "true" : "false") << "}"
          << (i + 1 < levels.size() ? "," : "") << "\n";
    }
    out << "    ],\n";
    out << "    \"knee_offered_rps\": " << fmt(knee_offered_rps) << ",\n";
    out << "    \"knee_over_capacity\": " << fmt(knee_over_capacity) << ",\n";
    out << "    \"overload_goodput_ratio\": " << fmt(overload_goodput_ratio) << "\n";
    out << "  },\n";
    out << "  \"ramp\": {\"sent\": " << ramp.sent << ", \"ok\": " << ramp.ok
        << ", \"shed\": " << ramp.shed << ", \"other\": " << ramp.other
        << ", \"accounted\": " << (ramp.accounted ? "true" : "false") << "},\n";
    out << "  \"flash_crowd\": {\"sent\": " << flash_sent
        << ", \"interactive_p99_before_ms\": " << fmt(flash_p99_before)
        << ", \"interactive_p99_during_ms\": " << fmt(flash_p99_during)
        << ", \"interactive_p99_after_ms\": " << fmt(flash_p99_after)
        << ", \"flash_interactive_p99_ratio\": " << fmt(flash_interactive_p99_ratio)
        << ", \"shed_frac\": " << fmt(flash_shed_frac)
        << ", \"accounted\": " << (flash_accounted ? "true" : "false") << ",\n";
    out << "    \"model_mix\": [";
    bool first = true;
    for (const char* name : {"mlp", "mlp-wide", "mlp-win"}) {
      out << (first ? "" : ", ") << "{\"name\": \"" << name
          << "\", \"replies\": " << model_counts[name] << "}";
      first = false;
    }
    out << "]},\n";
    out << "  \"chaos\": {\"good_sent\": " << chaos.good_sent
        << ", \"good_ok\": " << chaos.good_ok << ", \"good_shed\": " << chaos.good_shed
        << ", \"good_draining\": " << chaos.good_draining
        << ", \"good_other\": " << chaos.good_other
        << ", \"duplicates\": " << chaos.duplicates
        << ", \"missing\": " << chaos.missing
        << ", \"fuzz_rounds\": " << chaos.fuzz_rounds
        << ", \"fuzz_error_replies\": " << chaos.fuzz_error_replies
        << ", \"mid_flight_disconnects\": " << chaos.disconnects
        << ", \"protocol_errors\": " << chaos.counters.protocol_errors
        << ", \"slow_client_evictions\": " << chaos.counters.slow_client_evictions
        << ", \"orphaned_replies\": " << chaos.counters.orphaned_replies
        << ", \"double_settles\": " << chaos.counters.double_settles
        << ", \"drain_ms\": " << fmt(chaos.drain_ms)
        << ", \"drained_in_deadline\": " << (chaos.drained ? "true" : "false")
        << ", \"exactly_once\": " << (chaos.exactly_once ? "true" : "false")
        << ", \"pass\": " << (chaos.pass ? "true" : "false") << "},\n";
    out << "  \"accept\": {\"pass\": " << (all_pass ? "true" : "false") << "}\n";
    out << "}\n";
    std::cout << "loadgen: wrote " << json_path << "\n";
  }

  if (!all_pass) {
    std::cerr << "loadgen: ACCEPTANCE FAILED\n";
    return 1;
  }
  std::cout << "loadgen: all gates passed\n";
  return 0;
}
