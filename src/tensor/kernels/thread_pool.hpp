// Persistent worker pool for the tensor kernel layer.
//
// The pool is the kernels' analogue of the serve-tier worker set: N-1
// long-lived threads plus the calling thread cooperate on one data-parallel
// job at a time (a GEMM row-block sweep, an elementwise range). Jobs are
// synchronous — submit() returns when every part has run — so kernels stay
// drop-in replacements for the serial loops they replace. Calls from inside
// a pool worker (or while another job is in flight on the same pool) degrade
// to inline execution instead of deadlocking, which lets serve-pool worker
// threads call kernel-backed ops freely.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace onesa::tensor::kernels {

template <typename Sig>
class FunctionRef;

/// Non-owning reference to a callable: a pointer to it and a thunk. A pool
/// job runs and finishes inside the call that submits it, so the pool never
/// needs to own — or heap-allocate — the callable, whatever it captures.
/// The referenced callable must outlive every call through the reference.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn) noexcept  // NOLINT(google-explicit-constructor): a parameter type
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<std::remove_reference_t<F>>>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

class ThreadPool {
 public:
  /// `threads` is the total lane count including the caller; the pool spawns
  /// `threads - 1` workers. 0 means "one lane per hardware thread".
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool shared by every kernel. Sized from
  /// ONESA_KERNEL_THREADS when set, hardware_concurrency() otherwise.
  static ThreadPool& instance();

  /// Total lanes (workers + caller).
  std::size_t threads() const { return workers_.size() + 1; }

  /// Lanes a kernel should actually fan out to right now: threads() minus
  /// the externally reserved thread budget (never below 1). Kernels size
  /// their parallelism from this so a serve-tier worker fleet and the kernel
  /// pool never oversubscribe the machine together.
  std::size_t effective_threads() const;

  /// Declare `n` long-lived threads outside this pool that will also run
  /// compute (e.g. ServerPool workers calling threaded GEMM). While
  /// reserved, effective_threads() shrinks so that reserved threads running
  /// inline + one pool fan-out stay within the lane budget. Balanced by
  /// release(); over-release is clamped at zero.
  void reserve(std::size_t n);
  void release(std::size_t n);
  std::size_t reserved() const { return reserved_.load(std::memory_order_relaxed); }

  /// RAII reserve/release pair. Also the idiom for pinning a kernel's
  /// fan-out during a measurement: ScopedReserve(pool, pool.threads() - t)
  /// caps effective_threads() at t for its lifetime (the perf harness uses
  /// this for its thread-scaling sweep).
  class ScopedReserve {
   public:
    ScopedReserve(ThreadPool& pool, std::size_t n) : pool_(pool), n_(n) {
      pool_.reserve(n_);
    }
    ~ScopedReserve() { pool_.release(n_); }
    ScopedReserve(const ScopedReserve&) = delete;
    ScopedReserve& operator=(const ScopedReserve&) = delete;

   private:
    ThreadPool& pool_;
    std::size_t n_;
  };

  /// Run fn(part) for part in [0, parts), spread over the pool lanes; blocks
  /// until every part finished. The first exception thrown by any part is
  /// rethrown on the caller. Reentrant calls run inline on the caller. No
  /// call allocates: `fn` is referenced, never copied.
  void run(std::size_t parts, FunctionRef<void(std::size_t)> fn);

  /// Split [begin, end) into at most `threads()` contiguous chunks of at
  /// least `grain` elements and run body(lo, hi) for each in parallel.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    FunctionRef<void(std::size_t, std::size_t)> body);

 private:
  void worker_loop();
  /// Claim-and-run parts of the current job until none remain.
  void drain_current_job();

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait here for a job
  std::condition_variable done_cv_;  // submitter waits here for completion
  const FunctionRef<void(std::size_t)>* job_ = nullptr;
  std::size_t job_parts_ = 0;
  std::size_t next_part_ = 0;
  std::size_t parts_left_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::atomic<std::size_t> reserved_{0};

  std::mutex submit_mutex_;  // serializes concurrent submitters
};

}  // namespace onesa::tensor::kernels
