// Recycling buffer pool behind every Matrix/FixMatrix allocation.
//
// DefaultInitAllocator (matrix.hpp) routes its allocate/deallocate here, so
// the per-request matrices on the serve path — batch pack stacks, per-layer
// inference intermediates, logits, sliced results — REUSE capacity instead
// of hitting the heap. Combined with the operator-new counting hook
// (common/alloc_count.hpp) this is what makes "0 allocations per request
// steady-state" a measurable, CI-gated property rather than a hope.
//
// Design (a two-level size-class pool, tcmalloc in miniature):
//  - sizes round up to power-of-two classes from 64 B to 4 MiB; larger
//    requests are registry-time, not request-time, in this codebase (model
//    weights and their packed panels), so each gets an anonymous mapping of
//    its own: freeing it unmaps it, and a hot-swapped model's memory goes
//    back to the OS instead of staying in the heap's arenas. A mapping
//    counts as one allocation of the calling thread (alloc_count.hpp), so
//    the allocation gates would still catch one on the request path; live
//    mapped bytes are in stats().mapped_bytes; under ASan the page tail
//    past the requested size is poisoned, standing in for a redzone;
//  - every block is allocated once with 64-byte alignment and its CLASS
//    size, so any later reuse fits any request of the same class and every
//    Matrix buffer is cache-line/AVX-512 aligned for free;
//  - a small per-thread cache (no lock) absorbs the worker-loop churn; its
//    overflow and all cross-thread frees land in per-class global shelves
//    guarded by a mutex, which is also what makes ownership handoff
//    TSan-clean (results allocate on a worker, free on the client);
//  - thread exit flushes the thread cache to the global shelves, and the
//    global pool is reachable for the whole process lifetime, so
//    LeakSanitizer (detect_leaks=1 in CI) sees every cached block. It does
//    not see mappings; a leaked one shows as mapped_bytes that never falls
//    back (test_fleet's hot-swap footprint test checks exactly that).
//
// ONESA_BUFFER_POOL=0 in the environment (or set_enabled(false)) bypasses
// the shelves — every allocation then goes to the heap, which is the knob
// the allocation bench uses to prove the pool is load-bearing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace onesa::tensor::pool {

/// Smallest / largest pooled block. Requests above kMaxBlockBytes get an
/// anonymous mapping each (counted in stats().mapped_bytes).
inline constexpr std::size_t kMinBlockBytes = 64;
inline constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 22;  // 4 MiB
/// Every pooled block's alignment.
inline constexpr std::size_t kBlockAlignment = 64;
/// Blocks kept per size class in a thread's lock-free cache.
inline constexpr std::size_t kThreadCacheBlocks = 8;

/// Pool on/off (default: on unless ONESA_BUFFER_POOL=0 in the environment).
/// Blocks allocated while enabled are still freed correctly after a
/// disable (and vice versa): the class-size rounding is unconditional.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

struct PoolStats {
  std::uint64_t hits = 0;      // served from a thread cache or global shelf
  std::uint64_t misses = 0;    // pooled size, but had to touch the heap
  std::uint64_t returns = 0;   // blocks recycled back into the pool
  std::size_t shelved_bytes = 0;  // bytes parked on the global shelves now
  std::size_t mapped_bytes = 0;   // above kMaxBlockBytes: live mappings, page-rounded
};
PoolStats stats() noexcept;

/// 64B-aligned storage for `bytes` (rounded up to its size class, or to
/// whole pages above kMaxBlockBytes). Never returns nullptr; throws
/// std::bad_alloc on exhaustion.
void* allocate(std::size_t bytes);
/// Return storage from allocate(); `bytes` must be the requested size.
void deallocate(void* p, std::size_t bytes) noexcept;

/// Pre-fault `blocks_per_class` blocks into every class up to `max_bytes`:
/// startup warmth so the first request of each shape is already a pool hit.
void prewarm(std::size_t max_bytes, std::size_t blocks_per_class);

/// Push this thread's cached blocks to the global shelves (also runs
/// automatically at thread exit).
void flush_thread_cache() noexcept;

}  // namespace onesa::tensor::pool
