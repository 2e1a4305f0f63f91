// What both GEMM lanes share around their hot loops (internal to the kernel
// layer): the pack scratch, the panel packer, row slicing over the kernel
// pool and the profiling hook. Each lane keeps only its ISA tiles, its
// vector store and its loop nest (gemm.cpp, gemm_int16.cpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>

#include "obs/metrics.hpp"
#include "tensor/arena.hpp"
#include "tensor/kernels/pack.hpp"
#include "tensor/kernels/thread_pool.hpp"

namespace onesa::tensor::kernels::detail {

inline std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

/// Run fn(lo, hi) over row slices of [0, m), one per lane (inline when
/// threads <= 1). Every slice but the last is a multiple of `step` rows, the
/// lane's short-tile height, so no slice splits a tile and at most
/// ceil(m / step) slices run. Slicing never changes a bit: every output row
/// is computed independently of the others in both lanes.
template <typename Fn>
void slice_rows(std::size_t m, std::size_t threads, std::size_t step, Fn&& fn) {
  if (threads <= 1) {
    fn(std::size_t{0}, m);
    return;
  }
  const std::size_t per = round_up((m + threads - 1) / threads, step);
  ThreadPool::instance().run((m + per - 1) / per, [&](std::size_t part) {
    fn(part * per, std::min(m, part * per + per));
  });
}

/// Slice step of the selected INT16 tiles (their short-tile height), for
/// gemm_threads(); the double lane's is its tile height.
std::size_t int16_slice_rows();

/// This thread's pack scratch. Every A pack and every per-call B pack of
/// both lanes comes from one thread-local MemoryStack. When the outermost
/// scope on a thread closes, it rewinds the arena and trims it to
/// kScratchRetainBytes (MemoryStack::reset + shrink_to): a warm arena within
/// the cap stays one slab, reused with zero allocations (the serving path),
/// while one that grew past it is freed as the call returns, so a huge
/// training GEMM does not pin its packed B on the thread. Nested scopes — a
/// row slice run on the thread that packed B for it — only bump, so they
/// never free live panels. The rewind checks the guard zones in Debug
/// builds and throws onesa::Error from the call that overran them (the
/// destructor may throw; a guard failure while another exception unwinds
/// terminates).
class PackScratch {
 public:
  static constexpr std::size_t kScratchRetainBytes = 4u << 20;

  PackScratch();
  ~PackScratch() noexcept(false);
  PackScratch(const PackScratch&) = delete;
  PackScratch& operator=(const PackScratch&) = delete;

  /// `count` uninitialized, 64-byte-aligned elements, valid for this scope.
  template <typename T>
  T* take(std::size_t count) {
    return arena().allocate_span<T>(count);
  }

  static MemoryStack& arena();
};

/// Write one panel: b points at B[kc][jc] (row stride ldb), kcb x ncb of it
/// go into dst in the sliver layout of pack.hpp at width nr and k-group
/// `group`. Counted by the pack counter.
template <typename T>
void pack_panel(const T* b, std::size_t ldb, std::size_t kcb, std::size_t ncb,
                std::size_t nr, std::size_t group, T* dst);

/// Builds PackedPanels at an explicit sliver width and k-group: the tier
/// test entries (a tile set other than the selected one) and gemm()'s
/// per-call pack.
struct PanelPacker {
  template <typename T>
  static PackedPanels<T> owned(const T* b, std::size_t k, std::size_t n, std::size_t nr,
                               std::size_t group = PackedPanels<T>::kGroup) {
    return PackedPanels<T>(b, k, n, nr, group, nullptr);
  }
  /// Panels in this thread's pack scratch, valid for the scope `s`.
  template <typename T>
  static PackedPanels<T> scratch(const T* b, std::size_t k, std::size_t n, std::size_t nr,
                                 PackScratch& /*s*/) {
    return PackedPanels<T>(b, k, n, nr, PackedPanels<T>::kGroup, &PackScratch::arena());
  }
};

// ------------------------------------------------------- profiling hook
//
// Each public entry point is profiled per call: FLOPs (2*m*k*n, MACs for the
// INT16 lane, so GFLOP/s compare across lanes), bytes touched once
// (A + B + C at the lane's element size), wall time and GFLOP/s into
// "kernel_<span>_*" counters and histograms, plus a "kernel"-category trace
// span named <span>. The hook times the whole call on the calling thread
// (row-slice workers are part of it) and costs two steady_clock reads —
// skipped entirely while both metrics and tracing are off.

/// Registry handles of one entry point, resolved once.
struct KernelMetrics {
  explicit KernelMetrics(const char* span);

  const char* span;
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& bytes;
  obs::Histogram& gflops;
  obs::Histogram& wall_ms;
};

bool profiling_active();
void record_kernel_profile(KernelMetrics& metrics, std::size_t elem_bytes, std::size_t m,
                           std::size_t k, std::size_t n,
                           std::chrono::steady_clock::time_point t0);

/// Run body() as one call of the entry point named Span.
template <const char* Span, typename Body>
void profiled(std::size_t elem_bytes, std::size_t m, std::size_t k, std::size_t n,
              Body&& body) {
  if (!profiling_active()) {
    body();
    return;
  }
  static KernelMetrics metrics(Span);
  const auto t0 = std::chrono::steady_clock::now();
  body();
  record_kernel_profile(metrics, elem_bytes, m, k, n, t0);
}

}  // namespace onesa::tensor::kernels::detail
