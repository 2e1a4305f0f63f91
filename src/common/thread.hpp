// Library thread start-up: every thread the library spawns blocks the drain
// signals (SIGTERM, SIGINT).
//
// A process-directed signal goes to any thread that does not block it. The
// front door's graceful drain (net::NetServer::install_signal_drain) relies
// on exactly one thread taking SIGTERM/SIGINT: its sigtimedwait watcher.
// Every other library thread — kernel pool workers, serve-pool workers,
// the reactor — starts through spawn_thread(), so it is born with both
// signals blocked whatever the caller's mask was at the time. The caller's
// own mask is left as it was: a program that never installs the drain
// keeps the default SIGTERM behaviour on its main thread.
#pragma once

#include <csignal>
#include <functional>
#include <thread>

namespace onesa {

/// The drain signals: {SIGTERM, SIGINT}.
sigset_t drain_signals();

/// std::thread running fn, started with SIGTERM and SIGINT blocked (a new
/// thread inherits its creator's mask). The caller's mask is restored before
/// this returns, also when the thread fails to start.
std::thread spawn_thread(std::function<void()> fn);

}  // namespace onesa
