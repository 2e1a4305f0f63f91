// Heap-allocation counting: the measurement half of the zero-allocation
// serve path.
//
// alloc_count.cpp replaces the global operator new/delete family with thin
// malloc wrappers that bump THREAD-LOCAL counters before allocating. The
// replacement is conformant (works under ASan/TSan/UBSan, which intercept
// the underlying malloc) and costs one thread-local increment per heap
// allocation process-wide — there is no arming knob because there is
// nothing worth turning off.
//
// Counters are per-thread on purpose: "allocations per request on the
// serve path" means allocations made by WORKER threads between two
// snapshots. Each pool worker publishes its own counter after every batch
// (ServerPool::worker_heap_allocations sums them), so the bench measures
// exactly the queue→batch→infer→deliver path and is never polluted by the
// submitter building inputs or the client destroying results.
//
// Memory that bypasses operator new reports itself: the buffer pool maps
// every block above its largest class (tensor/buffer_pool.hpp) and records
// each mapping here as one allocation, so a request-path buffer that grows
// past that size still shows up in every allocation gate.
//
// Linker note: the replacement operators live in alloc_count.o of the
// static library, so they are active precisely in binaries that reference
// some symbol from this header (the buffer pool does, so every binary that
// builds a Matrix). Binaries that never do keep the default operators —
// same malloc/free underneath, so the two can never mix within one binary.
#pragma once

#include <cstddef>
#include <cstdint>

namespace onesa::alloccount {

/// Count an allocation that did not go through operator new (an anonymous
/// mapping of `bytes`) against the calling thread, and its release.
void record_mapping(std::size_t bytes) noexcept;
void record_unmapping() noexcept;

/// Allocations (operator-new calls and recorded mappings) made by the
/// calling thread so far (monotone).
std::uint64_t thread_allocations() noexcept;
/// Bytes requested by those calls (monotone; oversized by class rounding
/// only where callers round, which the counter does not do).
std::uint64_t thread_bytes() noexcept;
/// Deallocations (operator-delete calls and recorded unmappings) made by the
/// calling thread so far (monotone).
std::uint64_t thread_deallocations() noexcept;

}  // namespace onesa::alloccount
