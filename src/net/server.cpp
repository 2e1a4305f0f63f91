#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/thread.hpp"
#include "obs/metrics.hpp"
#include "serve/errors.hpp"

namespace onesa::net {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// net_* metrics, resolved once. Global across NetServer instances (like
/// every obs metric); the per-instance NetServerCounters snapshot is what
/// tests and the loadgen assert on.
struct NetMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& connections = reg.counter("net_connections_accepted_total");
  obs::Counter& frames = reg.counter("net_frames_total");
  obs::Counter& infers = reg.counter("net_infers_accepted_total");
  obs::Counter& replies = reg.counter("net_replies_sent_total");
  obs::Counter& protocol_errors = reg.counter("net_protocol_errors_total");
  obs::Counter& overloads = reg.counter("net_overload_replies_total");
  obs::Counter& error_replies = reg.counter("net_error_replies_total");
  obs::Counter& idle_evictions = reg.counter("net_idle_evictions_total");
  obs::Counter& slow_evictions = reg.counter("net_slow_client_evictions_total");
  obs::Counter& orphans = reg.counter("net_orphaned_replies_total");
  obs::Counter& draining_rejects = reg.counter("net_draining_rejects_total");
  obs::Counter& accept_pauses = reg.counter("net_accept_pauses_total");
  obs::Gauge& open_conns = reg.gauge("net_open_connections");
  obs::Gauge& inflight = reg.gauge("net_inflight_requests");
  static NetMetrics& get() {
    static NetMetrics m;
    return m;
  }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ONESA_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "fcntl(O_NONBLOCK) failed: errno " << errno);
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal structures
// ---------------------------------------------------------------------------

/// Relaxed mirrors of NetServerCounters, owned by the server. Every bump
/// also lands in the global obs registry so /metrics exposes the same
/// numbers.
struct NetServer::AtomicCounters {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> infers_accepted{0};
  std::atomic<std::uint64_t> replies_sent{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> overload_replies{0};
  std::atomic<std::uint64_t> error_replies{0};
  std::atomic<std::uint64_t> idle_evictions{0};
  std::atomic<std::uint64_t> slow_client_evictions{0};
  std::atomic<std::uint64_t> orphaned_replies{0};
  std::atomic<std::uint64_t> draining_rejects{0};
  std::atomic<std::uint64_t> accept_pauses{0};
};

/// One accepted connection. Owned by the event-loop thread exclusively;
/// completions reference it only by id through the bus.
struct NetServer::Conn {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;

  /// Unflushed reply bytes ([out_off, out.size()) is the live window).
  std::vector<unsigned char> out;
  std::size_t out_off = 0;
  bool want_write = false;
  /// Reply-then-close: flush what is queued, then close (protocol errors,
  /// HTTP responses).
  bool closing_after_flush = false;

  /// Dialect: the first byte of a connection picks binary frames ('O' of
  /// the magic) or plain HTTP ("GET /metrics").
  bool dialect_known = false;
  bool http = false;
  std::string http_buf;

  /// Infer requests accepted on this connection whose reply has not yet
  /// been queued (keeps idle eviction away from busy-but-quiet clients).
  std::size_t inflight = 0;

  Clock::time_point last_activity{};
  /// Slowloris watch: set when the peer is mid-frame (partial frame or
  /// partial HTTP request buffered), cleared when the frame completes.
  bool mid_frame = false;
  Clock::time_point frame_started{};
  /// Slow-reader watch: set when `out` becomes nonempty.
  Clock::time_point write_since{};

  explicit Conn(std::size_t max_frame_bytes) : decoder(max_frame_bytes) {}
};

/// Hand-off channel from fleet worker threads (where completion hooks run)
/// to the event-loop thread (which owns every socket). shared_ptr-held by
/// every in-flight hook, so a straggler settling after the server died
/// posts into a closed bus instead of freed memory.
struct NetServer::CompletionBus {
  struct Item {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    bool ok = false;
    InferReply reply;  // when ok
    FrameType code = FrameType::kErrInternal;
    WireError err;  // when !ok
  };

  std::mutex mutex;
  bool open = true;
  int wake_fd = -1;  // write end of the server's self-pipe
  std::vector<Item> items;
  /// The event loop's side of the swap in drain_bus: it takes `items`' place
  /// under the lock and is cleared, not freed, after the drain, so both
  /// vectors keep their capacity and a warm post never allocates.
  std::vector<Item> draining;

  /// Completion-hook settles observed more than once (exactly-once breach).
  std::atomic<std::uint64_t> double_settles{0};
  /// Replies posted after the bus closed (stragglers detached by the
  /// fleet's bounded-join shutdown) — orphaned by definition.
  std::atomic<std::uint64_t> dropped{0};

  void post(Item&& item) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!open) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    items.push_back(std::move(item));
    if (wake_fd >= 0) {
      const char byte = 1;
      // EAGAIN (pipe full) is fine: a full pipe is already a wakeup.
      [[maybe_unused]] const ssize_t n = ::write(wake_fd, &byte, 1);
    }
  }
};

/// Per-request completion hook: exactly-once by construction (the settled
/// flag), translating every typed serve error into a structured wire error.
/// Runs on fleet worker threads; touches nothing of the server but the bus.
struct NetServer::InferCompletion final : serve::CompletionHook {
  std::shared_ptr<CompletionBus> bus;
  std::uint64_t conn_id = 0;
  std::uint64_t wire_id = 0;
  std::string model;
  std::atomic<bool> settled{false};

  static void fill_context(const serve::ErrorContext& ctx, WireError& out) {
    out.queue_depth = ctx.queue_depth;
    out.backlog_cost = ctx.backlog_cost;
    out.shard = ctx.shard == serve::ErrorContext::kNone
                    ? WireError::kNoIndex
                    : static_cast<std::uint64_t>(ctx.shard);
    out.worker = ctx.worker == serve::ErrorContext::kNone
                     ? WireError::kNoIndex
                     : static_cast<std::uint64_t>(ctx.worker);
    out.model = ctx.model;
    out.model_version = ctx.model_version;
  }

  void classify(const std::exception_ptr& error, FrameType& code, WireError& out) const {
    try {
      std::rethrow_exception(error);
    } catch (const serve::OverloadError& e) {
      code = FrameType::kErrOverload;
      fill_context(e.context(), out);
      out.message = e.what();
    } catch (const serve::ModelError& e) {
      code = FrameType::kErrModel;
      fill_context(e.context(), out);
      out.message = e.what();
    } catch (const serve::ServeError& e) {
      code = FrameType::kErrInternal;
      fill_context(e.context(), out);
      out.message = e.what();
    } catch (const std::exception& e) {
      code = FrameType::kErrInternal;
      out.message = e.what();
    } catch (...) {
      code = FrameType::kErrInternal;
      out.message = "unknown error";
    }
    if (out.model.empty()) out.model = model;
  }

  void on_complete(serve::ServeRequest&, serve::ServeResult&& result) override {
    if (settled.exchange(true, std::memory_order_acq_rel)) {
      bus->double_settles.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CompletionBus::Item item;
    item.conn_id = conn_id;
    item.request_id = wire_id;
    item.ok = true;
    item.reply.logits = std::move(result.logits);
    item.reply.queue_ms = result.queue_ms;
    item.reply.service_ms = result.service_ms;
    item.reply.shard = static_cast<std::uint32_t>(result.shard);
    item.reply.batch_requests = static_cast<std::uint32_t>(result.batch_requests);
    item.reply.deadline_missed = result.deadline_missed;
    bus->post(std::move(item));
  }

  void on_error(serve::ServeRequest&, std::exception_ptr error) override {
    if (settled.exchange(true, std::memory_order_acq_rel)) {
      bus->double_settles.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    CompletionBus::Item item;
    item.conn_id = conn_id;
    item.request_id = wire_id;
    item.ok = false;
    classify(error, item.code, item.err);
    bus->post(std::move(item));
  }
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

NetServer::NetServer(serve::Fleet& fleet, NetServerConfig config)
    : fleet_(fleet),
      config_(std::move(config)),
      bus_(std::make_shared<CompletionBus>()),
      counters_(std::make_unique<AtomicCounters>()) {}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  ONESA_CHECK(!started_, "NetServer::start() called twice");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  ONESA_CHECK(listen_fd_ >= 0, "socket() failed: errno " << errno);
  set_nonblocking(listen_fd_);
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("NetServer: bad host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("NetServer: bind " + config_.host + ":" +
                std::to_string(config_.port) + " failed: errno " + std::to_string(err));
  }
  ONESA_CHECK(::listen(listen_fd_, config_.listen_backlog) == 0,
              "listen() failed: errno " << errno);
  socklen_t addr_len = sizeof(addr);
  ONESA_CHECK(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &addr_len) == 0,
              "getsockname() failed: errno " << errno);
  port_ = ntohs(addr.sin_port);

  int pipe_fds[2];
  ONESA_CHECK(::pipe(pipe_fds) == 0, "pipe() failed: errno " << errno);
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    bus_->wake_fd = wake_write_fd_;
  }

  poller_ = std::make_unique<Poller>(config_.force_poll_backend
                                         ? Poller::Backend::kPoll
                                         : Poller::Backend::kDefault);
  poller_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
  poller_->add(wake_read_fd_, /*want_read=*/true, /*want_write=*/false);
  accept_paused_ = false;

  started_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = spawn_thread([this] { loop(); });
  ONESA_LOG_INFO << "net: front door listening on " << config_.host << ":" << port_
                 << " (" << (poller_->using_epoll() ? "epoll" : "poll")
                 << ", max " << config_.max_connections << " connections, "
                 << config_.max_frame_bytes << " B frame cap)";
}

void NetServer::block_drain_signals() {
  const sigset_t set = drain_signals();
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void NetServer::install_signal_drain() {
  ONESA_CHECK(!signal_thread_.joinable(), "install_signal_drain() called twice");
  signal_thread_ = spawn_thread([this] {
    const sigset_t set = drain_signals();
    while (!signal_stop_.load(std::memory_order_acquire)) {
      timespec ts{};
      ts.tv_nsec = 100 * 1000 * 1000;  // poll the stop flag at 10 Hz
      const int sig = ::sigtimedwait(&set, nullptr, &ts);
      if (sig == SIGTERM || sig == SIGINT) {
        ONESA_LOG_INFO << "net: " << (sig == SIGTERM ? "SIGTERM" : "SIGINT")
                       << " received, starting graceful drain";
        initiate_drain();
        return;
      }
    }
  });
}

void NetServer::initiate_drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;  // idempotent
  }
  wake();
}

void NetServer::wake() {
  // Through the bus lock so the write end cannot be closed mid-write by a
  // concurrent stop().
  std::lock_guard<std::mutex> lock(bus_->mutex);
  if (bus_->wake_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(bus_->wake_fd, &byte, 1);
  }
}

bool NetServer::wait_drained(double timeout_ms) {
  std::unique_lock<std::mutex> lock(drained_mutex_);
  if (timeout_ms < 0) {
    drained_cv_.wait(lock, [this] { return drained_; });
    return true;
  }
  return drained_cv_.wait_for(lock, from_ms(timeout_ms), [this] { return drained_; });
}

void NetServer::stop() {
  if (started_) {
    initiate_drain();
    wait_drained(-1.0);
    if (loop_thread_.joinable()) loop_thread_.join();
  }
  signal_stop_.store(true, std::memory_order_release);
  if (signal_thread_.joinable()) signal_thread_.join();
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    bus_->wake_fd = -1;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  poller_.reset();
  started_ = false;
}

NetServerCounters NetServer::counters() const {
  NetServerCounters out;
  out.connections_accepted = counters_->connections_accepted.load(std::memory_order_relaxed);
  out.frames_received = counters_->frames_received.load(std::memory_order_relaxed);
  out.infers_accepted = counters_->infers_accepted.load(std::memory_order_relaxed);
  out.replies_sent = counters_->replies_sent.load(std::memory_order_relaxed);
  out.protocol_errors = counters_->protocol_errors.load(std::memory_order_relaxed);
  out.overload_replies = counters_->overload_replies.load(std::memory_order_relaxed);
  out.error_replies = counters_->error_replies.load(std::memory_order_relaxed);
  out.idle_evictions = counters_->idle_evictions.load(std::memory_order_relaxed);
  out.slow_client_evictions =
      counters_->slow_client_evictions.load(std::memory_order_relaxed);
  out.orphaned_replies = counters_->orphaned_replies.load(std::memory_order_relaxed) +
                         bus_->dropped.load(std::memory_order_relaxed);
  out.draining_rejects = counters_->draining_rejects.load(std::memory_order_relaxed);
  out.accept_pauses = counters_->accept_pauses.load(std::memory_order_relaxed);
  out.double_settles = bus_->double_settles.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void NetServer::loop() {
  std::vector<Poller::Event> events;
  bool exit_loop = false;
  while (!exit_loop) {
    poller_->wait(events, static_cast<int>(config_.tick_ms));

    for (const Poller::Event& ev : events) {
      if (ev.fd == listen_fd_) {
        if (ev.readable) handle_accept();
        continue;
      }
      if (ev.fd == wake_read_fd_) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = conns_by_fd_.find(ev.fd);
      if (it == conns_by_fd_.end()) continue;
      Conn* conn = it->second.get();
      if (ev.readable || ev.hangup) handle_readable(*conn);
      // handle_readable may have closed (and erased) the connection — or, in
      // principle, a new one may have landed on a recycled fd. Re-look-up and
      // require pointer identity before touching it again.
      auto again = conns_by_fd_.find(ev.fd);
      if (again == conns_by_fd_.end() || again->second.get() != conn) continue;
      if (ev.writable) handle_writable(*conn);
    }

    drain_bus();
    check_timeouts();

    if (draining_.load(std::memory_order_acquire) && !drain_started_) {
      drain_started_ = true;
      drain_began_ = Clock::now();
      drain_deadline_ = drain_began_ + from_ms(config_.drain_deadline_ms);
      if (!accept_paused_) poller_->remove(listen_fd_);
      accept_paused_ = true;  // never resumes: the drain owns the listener
      ONESA_LOG_INFO << "net: drain started — accepting stopped, "
                     << inflight_.load(std::memory_order_relaxed)
                     << " request(s) in flight, "
                     << conns_by_fd_.size() << " connection(s) open, deadline "
                     << config_.drain_deadline_ms << " ms";
    }
    if (drain_started_) {
      bool flushed = true;
      for (const auto& [fd, conn] : conns_by_fd_) {
        if (conn->out.size() > conn->out_off) {
          flushed = false;
          break;
        }
      }
      if ((inflight_.load(std::memory_order_relaxed) == 0 && flushed) ||
          Clock::now() >= drain_deadline_) {
        exit_loop = true;
      }
    }
  }
  finish_drain();
}

void NetServer::finish_drain() {
  const std::size_t abandoned = conns_by_fd_.size();
  for (const auto& [fd, conn] : conns_by_fd_) {
    poller_->remove(fd);
    ::close(fd);
    NetMetrics::get().open_conns.sub(1);
  }
  conns_by_fd_.clear();
  conns_by_id_.clear();
  running_.store(false, std::memory_order_release);

  // Fleet drain: every accepted future settles (the documented contract).
  // In-flight completions land on the still-open bus and are orphaned below
  // (their connections are gone).
  fleet_.shutdown();

  std::size_t orphaned_now = 0;
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    bus_->open = false;
    orphaned_now = bus_->items.size();
    bus_->items.clear();
  }
  if (orphaned_now > 0) {
    counters_->orphaned_replies.fetch_add(orphaned_now, std::memory_order_relaxed);
    NetMetrics::get().orphans.add(orphaned_now);
    inflight_.store(0, std::memory_order_relaxed);
    NetMetrics::get().inflight.set(0);
  }

  const double took =
      std::chrono::duration<double, std::milli>(Clock::now() - drain_began_).count();
  drain_ms_.store(took, std::memory_order_relaxed);
  ONESA_LOG_INFO << "net: drain complete in " << took << " ms ("
                 << counters_->replies_sent.load(std::memory_order_relaxed)
                 << " replies delivered, " << abandoned
                 << " connection(s) hard-closed, "
                 << counters().orphaned_replies << " orphaned replies)";

  {
    std::lock_guard<std::mutex> lock(drained_mutex_);
    drained_ = true;
  }
  drained_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------------

void NetServer::handle_accept() {
  while (!accept_paused_) {
    if (conns_by_fd_.size() >= config_.max_connections) {
      // At the cap: deregister the listener. New peers wait in the kernel's
      // accept backlog (bounded by listen_backlog) — backpressure, not
      // accept-and-churn. A freed slot re-registers it.
      poller_->remove(listen_fd_);
      accept_paused_ = true;
      counters_->accept_pauses.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().accept_pauses.add(1);
      return;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / transient — the poller will re-arm
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Conn>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity = Clock::now();
    poller_->add(fd, /*want_read=*/true, /*want_write=*/false);
    conns_by_id_[conn->id] = conn.get();
    conns_by_fd_[fd] = std::move(conn);
    counters_->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().connections.add(1);
    NetMetrics::get().open_conns.add(1);
  }
}

void NetServer::pause_or_resume_accept() {
  if (accept_paused_ && !drain_started_ &&
      !draining_.load(std::memory_order_acquire) &&
      conns_by_fd_.size() < config_.max_connections) {
    poller_->add(listen_fd_, /*want_read=*/true, /*want_write=*/false);
    accept_paused_ = false;
  }
}

void NetServer::close_conn(Conn& conn) {
  const int fd = conn.fd;
  poller_->remove(fd);
  ::close(fd);
  conns_by_id_.erase(conn.id);
  conns_by_fd_.erase(fd);  // destroys conn — must be last
  NetMetrics::get().open_conns.sub(1);
  pause_or_resume_accept();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void NetServer::handle_readable(Conn& conn) {
  // handle_frame (and the reply writes inside it) can close the connection
  // mid-batch; conn ids are never recycled, so liveness is re-checked by id.
  const std::uint64_t conn_id = conn.id;
  const auto live = [&]() -> Conn* {
    auto it = conns_by_id_.find(conn_id);
    return it == conns_by_id_.end() ? nullptr : it->second;
  };

  unsigned char buf[64 * 1024];
  bool peer_gone = false;
  bool framing_failed = false;
  std::vector<Frame> frames;
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.last_activity = Clock::now();
      if (!conn.dialect_known) {
        conn.dialect_known = true;
        // "GET ..." picks the HTTP dialect; anything else is framed binary
        // (a bad first byte fails the decoder's magic check below).
        conn.http = buf[0] == 'G';
      }
      if (conn.http) {
        conn.http_buf.append(reinterpret_cast<const char*>(buf),
                             static_cast<std::size_t>(n));
        if (!conn.mid_frame) {
          conn.mid_frame = true;
          conn.frame_started = conn.last_activity;
        }
        if (conn.http_buf.size() > 8192) {
          counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
          NetMetrics::get().protocol_errors.add(1);
          close_conn(conn);
          return;
        }
        if (conn.http_buf.find("\r\n\r\n") != std::string::npos) {
          conn.mid_frame = false;
          handle_http(conn);
          return;  // reply queued; connection closes after the flush
        }
        continue;
      }
      if (!conn.decoder.feed(buf, static_cast<std::size_t>(n), frames)) {
        // Framing violation: the stream position is unknowable from here —
        // dispatch what parsed, reply kErrProtocol, close once it flushed.
        framing_failed = true;
        break;
      }
      conn.mid_frame = conn.decoder.buffered() > 0;
      if (conn.mid_frame) conn.frame_started = conn.last_activity;
      continue;
    }
    if (n == 0) {
      peer_gone = true;  // EOF
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_gone = true;  // ECONNRESET and friends
    break;
  }

  for (Frame& frame : frames) {
    Conn* c = live();
    if (c == nullptr || c->closing_after_flush) return;
    handle_frame(*c, std::move(frame));
  }
  Conn* c = live();
  if (c == nullptr) return;
  if (framing_failed && !c->closing_after_flush) {
    fail_connection(*c, c->decoder.error(), 0);
    return;
  }
  if (peer_gone) close_conn(*c);
}

void NetServer::handle_frame(Conn& conn, Frame&& frame) {
  counters_->frames_received.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().frames.add(1);
  switch (frame.type) {
    case FrameType::kPing:
      send_frame(conn, FrameType::kPong, frame.request_id, nullptr, 0);
      return;
    case FrameType::kMetrics: {
      std::ostringstream os;
      obs::MetricsRegistry::global().write_prometheus(os);
      const std::string text = os.str();
      send_frame(conn, FrameType::kMetricsText, frame.request_id,
                 reinterpret_cast<const unsigned char*>(text.data()), text.size());
      return;
    }
    case FrameType::kInfer:
      handle_infer(conn, frame);
      return;
    default: {
      // A well-framed message of a type only the SERVER may send (replies,
      // errors): the stream is still in sync, so answer kErrProtocol and
      // keep the connection.
      counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().protocol_errors.add(1);
      WireError err;
      err.message = std::string("client sent a server-side frame type (") +
                    std::string(frame_type_name(frame.type)) + ")";
      send_error(conn, FrameType::kErrProtocol, frame.request_id, std::move(err));
      return;
    }
  }
}

void NetServer::handle_infer(Conn& conn, const Frame& frame) {
  if (draining_.load(std::memory_order_acquire)) {
    counters_->draining_rejects.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().draining_rejects.add(1);
    WireError err;
    err.message = "server is draining: request not accepted, retry elsewhere";
    send_error(conn, FrameType::kErrDraining, frame.request_id, std::move(err));
    return;
  }

  InferRequest req;
  std::string why;
  if (!decode_infer(frame.payload.data(), frame.payload.size(), req, why)) {
    // Malformed PAYLOAD in a well-formed frame: the stream is still in
    // sync, so the reply is an error and the connection lives on.
    counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().protocol_errors.add(1);
    WireError err;
    err.message = "bad infer payload: " + why;
    send_error(conn, FrameType::kErrProtocol, frame.request_id, std::move(err));
    return;
  }

  serve::ModelHandle model;
  try {
    model = fleet_.registry().get(req.model);
  } catch (const std::exception& e) {
    WireError err;
    err.model = req.model;
    err.message = e.what();
    send_error(conn, FrameType::kErrModel, frame.request_id, std::move(err));
    return;
  }

  serve::SubmitOptions options;
  options.priority = req.priority;
  options.deadline_ms = req.deadline_ms;
  auto hook = std::make_shared<InferCompletion>();
  hook->bus = bus_;
  hook->conn_id = conn.id;
  hook->wire_id = frame.request_id;
  hook->model = req.model;

  serve::TaggedRequest tagged =
      serve::make_model_request(std::move(model), std::move(req.input), options);
  tagged.request.hook = hook;
  // The outcome arrives through the hook (exactly once — sheds, errors and
  // values all route there), so the future is dropped before the request is
  // queued: a worker that finished the request while this thread still held
  // the future would destroy a shared, unset promise and allocate a
  // broken_promise error on the worker thread.
  tagged.result = {};

  inflight_.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().inflight.add(1);
  ++conn.inflight;
  counters_->infers_accepted.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().infers.add(1);
  try {
    (void)fleet_.submit(std::move(tagged));  // hands back the emptied future
  } catch (const std::exception& e) {
    // Fleet::submit sheds instead of throwing; this is belt-and-braces for
    // anything unexpected below it.
    if (!hook->settled.exchange(true, std::memory_order_acq_rel)) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      NetMetrics::get().inflight.sub(1);
      --conn.inflight;
      WireError err;
      err.model = req.model;
      err.message = std::string("submit failed: ") + e.what();
      send_error(conn, FrameType::kErrInternal, frame.request_id, std::move(err));
    }
  }
}

void NetServer::handle_http(Conn& conn) {
  const std::string& request = conn.http_buf;
  const std::size_t line_end = request.find("\r\n");
  const std::string line = request.substr(0, line_end);
  std::string body;
  std::string status;
  if (line.rfind("GET /metrics", 0) == 0 || line.rfind("GET / ", 0) == 0) {
    std::ostringstream os;
    obs::MetricsRegistry::global().write_prometheus(os);
    body = os.str();
    status = "200 OK";
  } else {
    body = "not found (try GET /metrics)\n";
    status = "404 Not Found";
  }
  std::string response = "HTTP/1.1 " + status +
                         "\r\nContent-Type: text/plain; version=0.0.4"
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                         body;
  if (conn.out.empty()) conn.write_since = Clock::now();
  conn.out.insert(conn.out.end(), response.begin(), response.end());
  conn.closing_after_flush = true;
  flush_or_arm(conn);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void NetServer::send_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                           const unsigned char* payload, std::size_t payload_len) {
  if (conn.out.empty()) conn.write_since = Clock::now();
  encode_frame(conn.out, type, request_id, payload, payload_len);
  counters_->replies_sent.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().replies.add(1);
  flush_or_arm(conn);
}

void NetServer::send_error(Conn& conn, FrameType code, std::uint64_t request_id,
                           WireError err) {
  if (conn.out.empty()) conn.write_since = Clock::now();
  encode_error(conn.out, code, request_id, err);
  counters_->replies_sent.fetch_add(1, std::memory_order_relaxed);
  counters_->error_replies.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().replies.add(1);
  NetMetrics::get().error_replies.add(1);
  if (code == FrameType::kErrOverload) {
    counters_->overload_replies.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().overloads.add(1);
  }
  flush_or_arm(conn);
}

void NetServer::fail_connection(Conn& conn, const std::string& reason,
                                std::uint64_t request_id) {
  counters_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  NetMetrics::get().protocol_errors.add(1);
  WireError err;
  err.message = reason;
  conn.closing_after_flush = true;
  send_error(conn, FrameType::kErrProtocol, request_id, std::move(err));
}

void NetServer::flush_or_arm(Conn& conn) {
  if (conn.out.size() - conn.out_off > config_.max_write_buffer_bytes) {
    // The peer is not draining its replies and the buffer hit its cap:
    // evict rather than let one slow reader grow unbounded server memory.
    counters_->slow_client_evictions.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().slow_evictions.add(1);
    close_conn(conn);
    return;
  }
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn);  // EPIPE / ECONNRESET: the peer is gone
    return;
  }
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      poller_->modify(conn.fd, /*want_read=*/true, /*want_write=*/false);
    }
    if (conn.closing_after_flush) close_conn(conn);
    return;
  }
  if (!conn.want_write) {
    conn.want_write = true;
    poller_->modify(conn.fd, /*want_read=*/true, /*want_write=*/true);
  }
}

void NetServer::handle_writable(Conn& conn) { flush_or_arm(conn); }

// ---------------------------------------------------------------------------
// Completion bus + timeouts
// ---------------------------------------------------------------------------

void NetServer::drain_bus() {
  std::vector<CompletionBus::Item>& items = bus_->draining;
  items.clear();  // a drain that threw part-way must not hand items back
  {
    std::lock_guard<std::mutex> lock(bus_->mutex);
    if (bus_->items.empty()) return;
    items.swap(bus_->items);
  }
  for (CompletionBus::Item& item : items) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    NetMetrics::get().inflight.sub(1);
    auto it = conns_by_id_.find(item.conn_id);
    if (it == conns_by_id_.end() || it->second->closing_after_flush) {
      // The client disconnected (or is being closed) while its request was
      // in flight: the fleet future settled exactly once regardless, and
      // the reply is dropped cleanly — never written to a recycled fd.
      counters_->orphaned_replies.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().orphans.add(1);
      continue;
    }
    Conn& conn = *it->second;
    if (conn.inflight > 0) --conn.inflight;
    if (item.ok) {
      if (conn.out.empty()) conn.write_since = Clock::now();
      encode_infer_reply(conn.out, item.request_id, item.reply);
      counters_->replies_sent.fetch_add(1, std::memory_order_relaxed);
      NetMetrics::get().replies.add(1);
      flush_or_arm(conn);
    } else {
      send_error(conn, item.code, item.request_id, std::move(item.err));
    }
  }
  items.clear();
}

void NetServer::check_timeouts() {
  const auto now = Clock::now();
  const auto idle_after = from_ms(config_.idle_timeout_ms);
  const auto frame_after = from_ms(config_.frame_timeout_ms);
  const auto stall_after = from_ms(config_.write_stall_timeout_ms);

  // Collect first: close_conn mutates the map.
  std::vector<Conn*> idle, slow;
  for (const auto& [fd, conn] : conns_by_fd_) {
    if (conn->mid_frame && now - conn->frame_started > frame_after) {
      // Slowloris: a partial frame held open past the deadline.
      slow.push_back(conn.get());
      continue;
    }
    if (conn->out.size() > conn->out_off && now - conn->write_since > stall_after) {
      // Slow reader: replies queued and unread past the deadline.
      slow.push_back(conn.get());
      continue;
    }
    if (conn->inflight == 0 && conn->out.size() == conn->out_off &&
        !conn->mid_frame && now - conn->last_activity > idle_after) {
      idle.push_back(conn.get());
    }
  }
  for (Conn* conn : slow) {
    counters_->slow_client_evictions.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().slow_evictions.add(1);
    close_conn(*conn);
  }
  for (Conn* conn : idle) {
    counters_->idle_evictions.fetch_add(1, std::memory_order_relaxed);
    NetMetrics::get().idle_evictions.add(1);
    close_conn(*conn);
  }
}

}  // namespace onesa::net
