// `perfbench load`: the load generator. One thread, one connection, one
// event loop (ppoll over a non-blocking socket), so the client never takes
// more of the host than a single core.
//
// Phases: an unmeasured closed-loop warm-up of about 1 s (fills caches and
// buffer pools), then kRounds rounds of
//   capacity  closed loop with Workload::outstanding requests in flight,
//             a fixed count of requests (about Workload::closed_rps x its
//             share of the round)
//   nominal   open-loop Poisson at Workload::nominal_rps
// and then kOverloadRounds rounds of
//   overload  open-loop Poisson at Workload::overload_rps
// (`--phases capacity` runs only the capacity rounds). Each phase is
// reported per round; run.py takes the median over rounds, so a host stall
// in one round moves no metric, and interleaving capacity with nominal
// spreads slow drift of the host over both alike.
// Every arrival schedule and payload is precomputed from --seed before the
// first request, so the server receives only generated inputs. Open-loop
// requests are timed from their due time, not from when they were sent, so
// a stalled generator cannot hide queueing; the send lag (due -> last byte
// accepted by the socket) is reported alongside.
//
// Every kInferOk reply is checked against the client's own copy of the
// model, built from the same seed: bit-exact on the double lane, within
// kInt16Bound on the INT16 lane. Accounting is exactly-once: each request
// is answered once (ok, shed or error), none twice, none missing. Any
// violation is counted and fails the run.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "net/protocol.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "roles.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace onesa;

namespace {

/// Largest |served - reference| allowed on the INT16 lane (the lane's
/// accuracy contract against the double forward).
constexpr double kInt16Bound = 0.1;
/// Bytes the client queues ahead of the socket before it stops taking due
/// requests (they are then sent late, and the lag shows it).
constexpr std::size_t kMaxQueuedBytes = std::size_t{8} << 20;
/// How long a phase may take to drain after its last send.
constexpr double kDrainGraceMs = 15000.0;
constexpr double kWarmupSeconds = 1.0;
/// Capacity + nominal rounds, and overload rounds. Twelve rounds keep a
/// percentile's median clean while up to five of them hold a host stall.
constexpr int kRounds = 12, kOverloadRounds = 6;
/// Shares of --seconds taken by all capacity, nominal and overload rounds.
constexpr double kCapacityShare = 0.25, kNominalShare = 0.5, kOverloadShare = 0.25;
constexpr std::uint64_t kMetricsIdBase = std::uint64_t{1} << 62;

/// Server-side counters read from /metrics around each phase.
const char* const kScraped[] = {
    "serve_batch_requests_sum",   "serve_batch_requests_count",
    "serve_window_expiries_total", "perfbench_worker_heap_allocations",
    "perfbench_pool_hits",         "perfbench_pool_misses",
};

struct Arrival {
  double at_ms = 0.0;
  std::uint32_t model = 0;
  std::uint32_t input = 0;
  bool interactive = false;
};

enum class State : std::uint8_t { kQueued, kSent, kAnswered };

struct Request {
  Clock::time_point due;
  Clock::time_point sent;
  std::uint32_t model = 0;
  std::uint32_t input = 0;
  std::uint8_t phase = 0;
  State state = State::kQueued;
};

struct Phase {
  std::string name;
  double seconds = 0.0;  // length of the send window
  Clock::time_point window_end;
  std::size_t sent = 0, ok = 0, shed = 0, errors = 0, missing = 0;
  std::size_t ok_in_window = 0;  // ok replies received inside the send window
  std::vector<double> latency_ms, lag_ms, other_ms, queue_ms, service_ms;
  double cpu_s = 0.0;         // server process CPU time over the phase
  double client_cpu_s = 0.0;  // this process's CPU time over the phase
  double peak_rss_mb = 0.0;              // server VmHWM at the end of the phase
  std::map<std::string, double> server;  // /metrics deltas over the phase
};

double cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) throw Error("cannot read /proc/<pid>/stat of the server");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // Fields after the command name start at #3 (state); utime/stime are #14/#15.
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double own_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw Error("cannot read VmHWM of the server");
}

std::vector<Arrival> poisson(Rng& rng, const Workload& w, double rate_rps,
                             double seconds) {
  std::vector<double> shares;
  for (const ModelSpec& m : w.models) shares.push_back(m.share);
  std::vector<Arrival> out;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) * 1000.0 / rate_rps;
    if (t >= seconds * 1000.0) break;
    Arrival a;
    a.at_ms = t;
    a.model = static_cast<std::uint32_t>(rng.categorical(shares));
    a.input = static_cast<std::uint32_t>(rng.integer(0, static_cast<std::int64_t>(w.inputs) - 1));
    a.interactive = rng.bernoulli(kInteractiveShare);
    out.push_back(a);
  }
  return out;
}

class LoadClient {
 public:
  LoadClient(const Workload& w, std::uint64_t seed) : w_(w) {
    for (std::size_t i = 0; i < w.models.size(); ++i) {
      const ModelSpec& spec = w.models[i];
      const auto model = build_model(spec, seed, i);
      auto inputs = build_inputs(spec, w.rows, w.inputs, seed, i);
      std::vector<tensor::Matrix> expected;
      for (const tensor::Matrix& x : inputs) {
        expected.push_back(model->infer(x));
        for (bool interactive : {false, true}) {
          net::InferRequest req;
          req.model = spec.name;
          req.priority =
              interactive ? serve::Priority::kInteractive : serve::Priority::kNormal;
          req.input = x;
          frames_.emplace_back();
          net::encode_infer(frames_.back(), 0, req);
        }
      }
      expected_.push_back(std::move(expected));
    }
  }

  ~LoadClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  void connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw Error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw Error("connect to the server failed: " + std::string(std::strerror(errno)));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  /// Closed loop: keep `window` requests in flight until `count` have been
  /// answered. The phase serves a fixed amount of work, whatever the host's
  /// speed, so the server's state after it (its per-request records
  /// included) does not depend on how fast the host ran; its length is the
  /// time to the last reply.
  void run_closed(Phase& ph, std::size_t count, std::size_t window, Rng& rng) {
    const auto picks = poisson(rng, w_, 1000.0, 1.0);  // mix draws; times unused
    begin_phase(ph, 0.0);
    const auto start = Clock::now();
    const auto deadline = start + to_duration(kDrainGraceMs);
    ph.window_end = Clock::time_point::max();  // every reply counts
    for (std::size_t sent = 0; sent < count || outstanding_ > 0;) {
      for (; sent < count && outstanding_ < window; ++sent)
        enqueue(ph, picks[sent % picks.size()], Clock::now());
      flush();
      if (broken_ || Clock::now() >= deadline) break;
      poll_once(deadline);
    }
    ph.window_end = Clock::now();
    ph.seconds = ms_between(start, ph.window_end) / 1000.0;
    drain(ph);
  }

  /// Open loop: send each arrival at its due time, whatever the replies do.
  void run_open(Phase& ph, const std::vector<Arrival>& schedule, double seconds) {
    begin_phase(ph, seconds);
    for (auto* v : {&ph.latency_ms, &ph.lag_ms, &ph.other_ms, &ph.queue_ms, &ph.service_ms})
      v->reserve(schedule.size());
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    ph.window_end = start + to_duration(seconds * 1000.0);
    for (std::size_t next = 0; next < schedule.size();) {
      auto now = Clock::now();
      while (next < schedule.size() && queued_bytes() < kMaxQueuedBytes) {
        const auto due = start + to_duration(schedule[next].at_ms);
        if (due > now) break;
        enqueue(ph, schedule[next++], due);
      }
      flush();
      if (next == schedule.size()) break;
      now = Clock::now();
      const auto due = start + to_duration(schedule[next].at_ms);
      poll_once(queued_bytes() >= kMaxQueuedBytes ? now + std::chrono::milliseconds(1)
                                                  : due);
      if (broken_) return;
    }
    drain(ph);
  }

  /// Counters of the server's /metrics, read over the benchmark connection.
  std::map<std::string, double> scrape() {
    std::vector<unsigned char> frame;
    net::encode_frame(frame, net::FrameType::kMetrics, kMetricsIdBase + ++scrapes_, nullptr, 0);
    out_.insert(out_.end(), frame.begin(), frame.end());
    metrics_text_.clear();
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (metrics_text_.empty() && !broken_ && Clock::now() < deadline) {
      flush();
      poll_once(deadline);
    }
    if (metrics_text_.empty()) violation("no /metrics reply");
    std::map<std::string, double> values;
    std::istringstream lines(metrics_text_);
    for (std::string line; std::getline(lines, line);) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t sp = line.rfind(' ');
      if (sp == std::string::npos) continue;
      values[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return values;
  }

  void set_server(int pid) { server_pid_ = pid; }

  std::size_t violations() const { return violations_; }
  const std::string& first_violation() const { return first_violation_; }
  std::size_t attempted() const { return requests_.size(); }
  double max_logit_err() const { return max_logit_err_; }

 private:
  static Clock::duration to_duration(double ms) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  }

  void violation(const std::string& what) {
    if (violations_++ == 0) first_violation_ = what;
  }

  void begin_phase(Phase& ph, double seconds) {
    ph.seconds = seconds;
    phases_.push_back(&ph);
    phase_index_ = phases_.size() - 1;
    before_ = scrape();
    cpu_before_ = cpu_seconds(server_pid_);
    client_cpu_before_ = own_cpu_seconds();
  }

  void drain(Phase& ph) {
    const auto deadline = Clock::now() + to_duration(kDrainGraceMs);
    while (outstanding_ > 0 && !broken_ && Clock::now() < deadline) {
      flush();
      poll_once(deadline);
    }
    for (const Request& r : requests_)
      if (r.phase == phase_index_ && r.state != State::kAnswered) ++ph.missing;
    if (ph.missing > 0) violation(std::to_string(ph.missing) + " requests never answered in " + ph.name);
    if (ph.ok + ph.shed + ph.errors + ph.missing != ph.sent)
      violation("accounting mismatch in " + ph.name);
    // Let the server's housekeeping publish its gauges for this phase.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ph.cpu_s = cpu_seconds(server_pid_) - cpu_before_;
    ph.client_cpu_s = own_cpu_seconds() - client_cpu_before_;
    ph.peak_rss_mb = peak_rss_mb(server_pid_);
    const auto after = scrape();
    for (const char* name : kScraped) {
      const auto a = after.find(name);
      const auto b = before_.find(name);
      ph.server[name] = (a == after.end() ? 0.0 : a->second) -
                        (b == before_.end() ? 0.0 : b->second);
    }
  }

  std::size_t queued_bytes() const { return out_.size() - out_head_; }

  void enqueue(Phase& ph, const Arrival& a, Clock::time_point due) {
    const std::uint64_t id = requests_.size() + 1;
    Request r;
    r.due = due;
    r.model = a.model;
    r.input = a.input;
    r.phase = static_cast<std::uint8_t>(phase_index_);
    requests_.push_back(r);
    const auto& frame = frames_[(a.model * w_.inputs + a.input) * 2 + (a.interactive ? 1 : 0)];
    const std::size_t at = out_.size();
    out_.insert(out_.end(), frame.begin(), frame.end());
    // The request id occupies header bytes 8..15, little-endian (protocol.hpp).
    for (int b = 0; b < 8; ++b) out_[at + 8 + b] = static_cast<unsigned char>(id >> (8 * b));
    written_marks_.push_back({written_total_ + queued_bytes(), id});
    ++outstanding_;
    ++ph.sent;
  }

  void flush() {
    while (queued_bytes() > 0) {
      const ssize_t n = ::send(fd_, out_.data() + out_head_, queued_bytes(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        broken("send failed: " + std::string(std::strerror(errno)));
        return;
      }
      out_head_ += static_cast<std::size_t>(n);
      written_total_ += static_cast<std::uint64_t>(n);
    }
    const auto now = Clock::now();
    while (!written_marks_.empty() && written_marks_.front().first <= written_total_) {
      Request& r = requests_[written_marks_.front().second - 1];
      r.sent = now;
      r.state = State::kSent;
      phases_[r.phase]->lag_ms.push_back(ms_between(r.due, now));
      written_marks_.pop_front();
    }
    if (out_head_ == out_.size()) {
      out_.clear();
      out_head_ = 0;
    } else if (out_head_ > (std::size_t{1} << 20)) {
      out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(out_head_));
      out_head_ = 0;
    }
  }

  void broken(const std::string& why) {
    broken_ = true;
    violation(why);
  }

  void poll_once(Clock::time_point deadline) {
    pollfd pfd{fd_, static_cast<short>(POLLIN | (queued_bytes() > 0 ? POLLOUT : 0)), 0};
    const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc <= 0) return;
    if (pfd.revents & POLLOUT) flush();
    if (pfd.revents & (POLLIN | POLLHUP | POLLERR)) read_available();
  }

  void read_available() {
    unsigned char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) {
        broken("server closed the connection");
        return;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        broken("recv failed: " + std::string(std::strerror(errno)));
        return;
      }
      frames_in_.clear();
      if (!decoder_.feed(buf, static_cast<std::size_t>(n), frames_in_)) {
        broken("undecodable reply stream: " + decoder_.error());
        return;
      }
      for (net::Frame& f : frames_in_) on_frame(f);
    }
  }

  void on_frame(const net::Frame& f) {
    if (f.type == net::FrameType::kMetricsText) {
      metrics_text_.assign(f.payload.begin(), f.payload.end());
      return;
    }
    if (f.request_id == 0 || f.request_id > requests_.size()) {
      violation("reply for unknown request id " + std::to_string(f.request_id));
      return;
    }
    Request& r = requests_[f.request_id - 1];
    if (r.state != State::kSent) {
      violation(r.state == State::kAnswered ? "duplicate reply" : "reply before send");
      return;
    }
    r.state = State::kAnswered;
    --outstanding_;
    Phase& ph = *phases_[r.phase];
    const auto now = Clock::now();
    if (f.type == net::FrameType::kErrOverload) {
      ++ph.shed;
      return;
    }
    if (f.type != net::FrameType::kInferOk) {
      ++ph.errors;
      violation("error reply " + std::string(net::frame_type_name(f.type)) + " in " + ph.name);
      return;
    }
    net::InferReply reply;
    std::string why;
    if (!net::decode_infer_reply(f.payload.data(), f.payload.size(), reply, why)) {
      ++ph.errors;
      violation("bad reply payload: " + why);
      return;
    }
    if (!check_logits(reply.logits, r)) {
      ++ph.errors;
      return;
    }
    ++ph.ok;
    if (now <= ph.window_end) ++ph.ok_in_window;
    const double rtt = ms_between(r.sent, now);
    ph.latency_ms.push_back(ms_between(r.due, now));
    ph.queue_ms.push_back(reply.queue_ms);
    ph.service_ms.push_back(reply.service_ms);
    ph.other_ms.push_back(rtt - reply.queue_ms - reply.service_ms);
  }

  /// False (and a violation) when the reply's logits are wrong.
  bool check_logits(const tensor::Matrix& got, const Request& r) {
    const tensor::Matrix& want = expected_[r.model][r.input];
    if (!got.same_shape(want)) {
      violation("reply logits have the wrong shape");
      return false;
    }
    const bool exact = w_.models[r.model].precision == serve::Precision::kDouble;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const double err = std::fabs(got.at_flat(i) - want.at_flat(i));
      max_logit_err_ = std::max(max_logit_err_, err);
      if (exact ? got.at_flat(i) != want.at_flat(i) : !(err <= kInt16Bound)) {
        violation(exact ? "double-lane logits are not bit-exact"
                        : "INT16 logits exceed the accuracy bound");
        return false;
      }
    }
    return true;
  }

  const Workload& w_;
  std::vector<std::vector<unsigned char>> frames_;     // [model][input][interactive]
  std::vector<std::vector<tensor::Matrix>> expected_;  // [model][input]
  int fd_ = -1;
  int server_pid_ = 0;
  net::FrameDecoder decoder_{std::size_t{64} << 20};
  std::vector<net::Frame> frames_in_;
  std::vector<unsigned char> out_;
  std::size_t out_head_ = 0;
  std::uint64_t written_total_ = 0;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> written_marks_;  // end byte, id
  std::deque<Request> requests_;  // index = request id - 1 (no reallocation stalls)
  std::vector<Phase*> phases_;
  std::size_t phase_index_ = 0;
  std::size_t outstanding_ = 0;
  std::map<std::string, double> before_;
  double cpu_before_ = 0.0;
  double client_cpu_before_ = 0.0;
  std::string metrics_text_;
  std::uint64_t scrapes_ = 0;
  bool broken_ = false;
  std::size_t violations_ = 0;
  std::string first_violation_;
  double max_logit_err_ = 0.0;
};

}  // namespace

int run_load(const Args& args) {
  const Workload& w = find_workload(args.workload);
  // Wake-ups land where the schedule asks: the default 50 us timer slack
  // would otherwise show up as send lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  LoadClient client(w, args.seed);
  client.set_server(args.server_pid);
  client.connect(args.port);
  Rng rng(args.seed * 7919 + 17);
  std::vector<std::vector<Arrival>> nominal, overload;
  for (int r = 0; r < kRounds; ++r)
    nominal.push_back(poisson(rng, w, w.nominal_rps, kNominalShare * args.seconds / kRounds));
  for (int r = 0; r < kOverloadRounds; ++r) {
    overload.push_back(
        poisson(rng, w, w.overload_rps, kOverloadShare * args.seconds / kOverloadRounds));
  }

  std::deque<Phase> phases;  // stable addresses: the client keeps pointers
  const auto next_phase = [&](const char* name) -> Phase& {
    phases.emplace_back();
    phases.back().name = name;
    return phases.back();
  };
  const auto requests = [&](double seconds) {
    return static_cast<std::size_t>(w.closed_rps * seconds);
  };
  client.run_closed(next_phase("warmup"), requests(kWarmupSeconds), w.outstanding, rng);
  for (int r = 0; r < kRounds; ++r) {
    client.run_closed(next_phase("capacity"), requests(kCapacityShare * args.seconds / kRounds),
                      w.outstanding, rng);
    if (args.phases == "all")
      client.run_open(next_phase("nominal"), nominal[r], kNominalShare * args.seconds / kRounds);
  }
  // Overload comes last: the backlog it builds grows server buffers that
  // would otherwise carry into the capacity and nominal phases after it.
  if (args.phases == "all") {
    for (int r = 0; r < kOverloadRounds; ++r)
      client.run_open(next_phase("overload"), overload[r],
                      kOverloadShare * args.seconds / kOverloadRounds);
  }

  std::map<std::string, std::string> rounds;  // phase name -> JSON array, one per round
  for (const Phase& ph : phases) {
    JsonLine p;
    p.num("seconds", ph.seconds)
        .num("sent", static_cast<double>(ph.sent))
        .num("ok", static_cast<double>(ph.ok))
        .num("shed", static_cast<double>(ph.shed))
        .num("errors", static_cast<double>(ph.errors))
        .num("missing", static_cast<double>(ph.missing))
        .num("ok_in_window", static_cast<double>(ph.ok_in_window))
        .num("cpu_s", ph.cpu_s)
        .num("client_cpu_s", ph.client_cpu_s)
        .num("peak_rss_mb", ph.peak_rss_mb)
        .num("latency_n", static_cast<double>(ph.latency_ms.size()))
        .num("latency_p50", percentile(ph.latency_ms, 50.0))
        .num("latency_p90", percentile(ph.latency_ms, 90.0))
        .num("latency_p99", percentile(ph.latency_ms, 99.0))
        .num("lag_p90", percentile(ph.lag_ms, 90.0))
        .num("lag_p99", percentile(ph.lag_ms, 99.0))
        .num("other_p50", percentile(ph.other_ms, 50.0))
        .num("other_p99", percentile(ph.other_ms, 99.0))
        .num("queue_p50", percentile(ph.queue_ms, 50.0))
        .num("queue_p99", percentile(ph.queue_ms, 99.0))
        .num("service_p50", percentile(ph.service_ms, 50.0))
        .num("service_p99", percentile(ph.service_ms, 99.0));
    JsonLine server;
    for (const auto& [name, delta] : ph.server) server.num(name, delta);
    p.raw("server", server.done());
    std::string& list = rounds[ph.name];
    list += (list.empty() ? "[" : ", ") + p.done();
  }
  JsonLine by_phase;
  for (const auto& [name, list] : rounds) by_phase.raw(name, list + "]");
  std::cout << JsonLine()
                   .raw("phases", by_phase.done())
                   .num("attempted", static_cast<double>(client.attempted()))
                   .num("violations", static_cast<double>(client.violations()))
                   .str("first_violation", client.first_violation())
                   .num("max_logit_err", client.max_logit_err())
                   .num("client_threads", 1)
                   .str("kernel_double", double_kernel_name())
                   .str("kernel_int16", tensor::kernels::int16_kernel_name())
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .done()
            << std::endl;
  return client.violations() == 0 ? 0 : 1;
}

}  // namespace perfbench
