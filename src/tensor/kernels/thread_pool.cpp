#include "tensor/kernels/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/thread.hpp"

namespace onesa::tensor::kernels {

namespace {

/// True while this thread is executing a pool job (worker or submitter):
/// kernels called from inside a job must run inline, never re-enter the pool.
thread_local bool tl_in_pool_job = false;

std::size_t default_threads() {
  if (const char* env = std::getenv("ONESA_KERNEL_THREADS")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  workers_.reserve(threads - 1);
  try {
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.push_back(spawn_thread([this] { worker_loop(); }));
    }
  } catch (...) {
    // A thread failed to spawn: stop the ones already running before the
    // exception unwinds them as joinable (same pattern as ServerPool).
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::effective_threads() const {
  // One lane is the reserved thread itself (it computes inline), so with R
  // reserved threads and T lanes, a fan-out may use T - R extra helpers at
  // most: R inline threads + (T - R) lanes = T running threads total.
  const std::size_t r = reserved_.load(std::memory_order_relaxed);
  const std::size_t t = threads();
  return r >= t ? 1 : t - r;
}

void ThreadPool::reserve(std::size_t n) {
  reserved_.fetch_add(n, std::memory_order_relaxed);
}

void ThreadPool::release(std::size_t n) {
  // Clamp at zero (lock-free CAS) so an unbalanced release cannot wrap the
  // counter and permanently disable parallelism.
  std::size_t cur = reserved_.load(std::memory_order_relaxed);
  while (!reserved_.compare_exchange_weak(cur, cur > n ? cur - n : 0,
                                          std::memory_order_relaxed)) {
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    job_cv_.wait(lock, [&] { return stop_ || next_part_ < job_parts_; });
    if (stop_) return;
    drain_current_job();  // holds and re-takes the lock around each part
  }
}

void ThreadPool::drain_current_job() {
  // Caller holds mutex_. Claim parts one at a time; the job function pointer
  // stays valid because run() does not return (or start a new job) until
  // parts_left_ hits zero.
  while (next_part_ < job_parts_) {
    const std::size_t part = next_part_++;
    const auto* fn = job_;
    mutex_.unlock();
    tl_in_pool_job = true;
    std::exception_ptr error;
    try {
      (*fn)(part);
    } catch (...) {
      error = std::current_exception();
    }
    tl_in_pool_job = false;
    mutex_.lock();
    if (error && !first_error_) first_error_ = error;
    if (--parts_left_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t parts, FunctionRef<void(std::size_t)> fn) {
  if (parts == 0) return;
  if (parts == 1 || workers_.empty() || tl_in_pool_job) {
    for (std::size_t p = 0; p < parts; ++p) fn(p);
    return;
  }
  // Another thread mid-job (e.g. two serve workers both inside matmul):
  // running inline is cheaper than queueing behind the other job on an
  // already-saturated pool.
  std::unique_lock<std::mutex> submit(submit_mutex_, std::try_to_lock);
  if (!submit.owns_lock()) {
    for (std::size_t p = 0; p < parts; ++p) fn(p);
    return;
  }

  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  job_parts_ = parts;
  next_part_ = 0;
  parts_left_ = parts;
  first_error_ = nullptr;
  lock.unlock();
  job_cv_.notify_all();

  lock.lock();
  drain_current_job();  // the submitter is a lane too
  done_cv_.wait(lock, [&] { return parts_left_ == 0; });
  job_parts_ = 0;
  next_part_ = 0;
  job_ = nullptr;
  std::exception_ptr error = first_error_;
  first_error_ = nullptr;
  lock.unlock();

  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                              FunctionRef<void(std::size_t, std::size_t)> body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(effective_threads(), (total + grain - 1) / grain);
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const std::size_t per = (total + chunks - 1) / chunks;
  run(chunks, [&](std::size_t part) {
    const std::size_t lo = begin + part * per;
    const std::size_t hi = std::min(end, lo + per);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace onesa::tensor::kernels
