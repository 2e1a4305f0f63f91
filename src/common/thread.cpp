#include "common/thread.hpp"

#include <pthread.h>

#include <utility>

namespace onesa {

sigset_t drain_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  return set;
}

namespace {

/// Blocks the drain signals on the calling thread for its scope, then
/// restores the previous mask.
class DrainSignalsBlocked {
 public:
  DrainSignalsBlocked() {
    const sigset_t drain = drain_signals();
    pthread_sigmask(SIG_BLOCK, &drain, &previous_);
  }
  ~DrainSignalsBlocked() { pthread_sigmask(SIG_SETMASK, &previous_, nullptr); }
  DrainSignalsBlocked(const DrainSignalsBlocked&) = delete;
  DrainSignalsBlocked& operator=(const DrainSignalsBlocked&) = delete;

 private:
  sigset_t previous_;
};

}  // namespace

std::thread spawn_thread(std::function<void()> fn) {
  const DrainSignalsBlocked blocked;
  return std::thread(std::move(fn));
}

}  // namespace onesa
