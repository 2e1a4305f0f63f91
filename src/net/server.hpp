// The network front door: a single-reactor socket server fronting a
// serve::Fleet with the length-prefixed binary protocol of net/protocol.hpp.
// Robustness is the design center — the server assumes every peer is broken,
// slow, or hostile, and survives all three:
//
//  - MALFORMED INPUT. Framing violations (bad magic, oversized/garbage
//    frames) get a kErrProtocol reply and a close — a desynced stream cannot
//    be resynced. A malformed PAYLOAD inside a valid frame (bad shape,
//    unknown priority) gets a kErrProtocol reply and the connection lives
//    on: framing is still in sync. Nothing a peer sends can crash or leak.
//  - SLOW CLIENTS (slowloris). A peer holding a partial frame open longer
//    than frame_timeout_ms, or failing to drain its replies for
//    write_stall_timeout_ms (or past the per-connection write-buffer cap),
//    is evicted — counted in net_slow_client_evictions_total. Idle
//    connections close after idle_timeout_ms.
//  - CONNECTION CAP + ACCEPT BACKPRESSURE. At max_connections the listener
//    is deregistered from the poller: new peers queue in the kernel's
//    accept backlog (bounded by listen_backlog) instead of being
//    accept()ed and churned. Accepting resumes when a slot frees.
//  - OVERLOAD WITH CONTEXT. A fleet shed surfaces as kErrOverload carrying
//    the serve::ErrorContext fields (queue depth, backlog cost, model,
//    shard) — a "429 with depth" a load-aware client can back off on,
//    instead of a dropped connection it can only retry into the collapse.
//  - EXACTLY-ONCE REPLIES. Every infer's completion (value or typed error)
//    arrives through a per-request CompletionHook that settles at most once
//    (violations are counted, never silent). If the client disconnected
//    mid-flight, the fleet future still settles and the reply is dropped
//    cleanly (net_orphaned_replies_total) — never written to a recycled fd.
//  - GRACEFUL DRAIN. initiate_drain() (or SIGTERM via the watcher thread —
//    see install_signal_drain) stops accepting, answers new infers with
//    kErrDraining, finishes every in-flight request and flushes every
//    reply, bounded by drain_deadline_ms, then calls Fleet::shutdown()
//    (idempotent and concurrency-safe) and closes every socket.
//
// THREAD MODEL. One event-loop thread owns every socket. Fleet completions
// land on worker threads and are handed back through a mutex-guarded
// CompletionBus plus a self-pipe wakeup; the bus is a shared_ptr held by
// every in-flight hook, so a straggler completing after the server died
// posts into a closed bus instead of a freed one. The optional signal
// watcher is a third thread sigwait()ing on SIGTERM/SIGINT.
//
// OBSERVABILITY. /metrics two ways: a kMetrics frame, or a plain HTTP
// "GET /metrics" on the same port (the first bytes of a connection pick the
// dialect) — both return MetricsRegistry::write_prometheus text, including
// the net_* counters next to the serve_* ones.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/poller.hpp"
#include "net/protocol.hpp"
#include "serve/fleet.hpp"

namespace onesa::net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the result from port() after start().
  std::uint16_t port = 0;
  int listen_backlog = 128;
  /// Concurrent connections served; excess peers wait in the kernel's
  /// accept backlog (backpressure), they are not accepted-and-dropped.
  std::size_t max_connections = 256;
  /// Bound on one frame's payload (protocol error beyond it).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Bound on one connection's unflushed reply bytes (slow-reader eviction).
  std::size_t max_write_buffer_bytes = std::size_t{8} << 20;
  /// Connection with no traffic and nothing in flight closes after this.
  double idle_timeout_ms = 60000.0;
  /// A partial frame older than this evicts the connection (slowloris).
  double frame_timeout_ms = 5000.0;
  /// Unflushed replies older than this evict the connection (slow reader).
  double write_stall_timeout_ms = 5000.0;
  /// Bound on the drain: in-flight requests + reply flush get this long
  /// before the server hard-closes what remains. Fleet::shutdown() runs
  /// either way, so every accepted future still settles.
  double drain_deadline_ms = 10000.0;
  /// Event-loop timer granularity (timeout checks, drain progress).
  double tick_ms = 10.0;
  /// Force the portable poll(2) backend (tests; default epoll on Linux).
  bool force_poll_backend = false;
};

/// Monotonic counters of the front door, exposed both here (tests, loadgen
/// assertions) and as net_* metrics in the global registry.
struct NetServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t infers_accepted = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t overload_replies = 0;
  std::uint64_t error_replies = 0;  // every kErr* reply, overloads included
  std::uint64_t idle_evictions = 0;
  std::uint64_t slow_client_evictions = 0;
  std::uint64_t orphaned_replies = 0;
  std::uint64_t draining_rejects = 0;
  std::uint64_t accept_pauses = 0;
  /// Completion-hook settles observed more than once per request. The
  /// exactly-once contract says this stays 0 forever; the chaos gate
  /// asserts it.
  std::uint64_t double_settles = 0;
};

class NetServer {
 public:
  /// The fleet must outlive the server. The server does not own it, but a
  /// drain (including the one run by stop()/the destructor) finishes by
  /// calling fleet.shutdown() — that is the documented drain contract.
  NetServer(serve::Fleet& fleet, NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen + spawn the event loop. Throws onesa::Error on bind
  /// failure (port taken, bad host).
  void start();

  /// The bound port (resolves config.port == 0 to the ephemeral choice).
  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Block SIGTERM/SIGINT in the calling thread (and every thread it spawns
  /// afterwards). Library threads block both signals on their own whenever
  /// they start (common/thread.hpp), so this only has to cover the calling
  /// thread; call it in main before install_signal_drain().
  static void block_drain_signals();

  /// Spawn the watcher thread that turns SIGTERM/SIGINT into
  /// initiate_drain(). Requires block_drain_signals() to have run first.
  void install_signal_drain();

  /// Begin a graceful drain (async; returns immediately). Safe from any
  /// thread, idempotent. wait_drained() observes completion.
  void initiate_drain();

  /// Wait until the drain (and Fleet::shutdown) finished. timeout_ms < 0
  /// waits forever. Returns true when drained.
  bool wait_drained(double timeout_ms = -1.0);

  /// Drain with the configured deadline, wait, join every thread. Idempotent;
  /// also run by the destructor.
  void stop();

  /// Snapshot of the front-door counters (single consistent-enough read of
  /// relaxed atomics — exact once the server is quiescent).
  NetServerCounters counters() const;

  /// How long the last drain took, ms (0 before any drain completed).
  double drain_ms() const { return drain_ms_.load(std::memory_order_relaxed); }

  /// Requests accepted into the fleet whose reply has not yet been
  /// delivered or dropped.
  std::size_t inflight() const { return inflight_.load(std::memory_order_relaxed); }

 private:
  struct Conn;
  struct CompletionBus;
  struct InferCompletion;

  void loop();
  void handle_accept();
  void pause_or_resume_accept();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void handle_frame(Conn& conn, Frame&& frame);
  void handle_infer(Conn& conn, const Frame& frame);
  void handle_http(Conn& conn);
  void drain_bus();
  void check_timeouts();
  void send_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                  const unsigned char* payload, std::size_t payload_len);
  void send_error(Conn& conn, FrameType code, std::uint64_t request_id,
                  WireError err);
  /// Reply-then-close for stream-level violations: the error frame is
  /// queued and the connection closes once it flushed (or timed out).
  void fail_connection(Conn& conn, const std::string& reason,
                       std::uint64_t request_id);
  /// Flush as much of conn's write buffer as the socket takes right now;
  /// arms/disarms write interest and enforces the write-buffer cap.
  void flush_or_arm(Conn& conn);
  void close_conn(Conn& conn);
  void finish_drain();
  void wake();

  serve::Fleet& fleet_;
  NetServerConfig config_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::unique_ptr<Poller> poller_;
  bool accept_paused_ = false;

  std::unordered_map<int, std::unique_ptr<Conn>> conns_by_fd_;
  std::unordered_map<std::uint64_t, Conn*> conns_by_id_;
  std::uint64_t next_conn_id_ = 1;

  std::shared_ptr<CompletionBus> bus_;

  std::thread loop_thread_;
  std::thread signal_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> signal_stop_{false};
  bool drain_started_ = false;  // loop-thread state
  std::chrono::steady_clock::time_point drain_began_{};
  std::chrono::steady_clock::time_point drain_deadline_{};

  std::mutex drained_mutex_;
  std::condition_variable drained_cv_;
  bool drained_ = false;
  bool started_ = false;
  std::atomic<double> drain_ms_{0.0};

  std::atomic<std::size_t> inflight_{0};

  // Counters: relaxed atomics, mirrored into the obs registry on update.
  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> counters_;
};

}  // namespace onesa::net
