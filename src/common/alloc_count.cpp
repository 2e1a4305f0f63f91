#include "common/alloc_count.hpp"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace onesa::alloccount {

namespace {
// Constant-initialized: safe to bump from any allocation, including ones
// made during TLS construction/teardown of other thread_local objects.
thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_bytes = 0;
thread_local std::uint64_t t_frees = 0;

void* counted_malloc(std::size_t n) noexcept {
  ++t_allocs;
  t_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned(std::size_t n, std::size_t align) noexcept {
  ++t_allocs;
  t_bytes += n;
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, n != 0 ? n : align) != 0) return nullptr;
  return p;
}

void counted_free(void* p) noexcept {
  if (p != nullptr) ++t_frees;
  std::free(p);  // posix_memalign memory is free()-compatible
}
}  // namespace

void record_mapping(std::size_t bytes) noexcept {
  ++t_allocs;
  t_bytes += bytes;
}
void record_unmapping() noexcept { ++t_frees; }

std::uint64_t thread_allocations() noexcept { return t_allocs; }
std::uint64_t thread_bytes() noexcept { return t_bytes; }
std::uint64_t thread_deallocations() noexcept { return t_frees; }

}  // namespace onesa::alloccount

// ---------------------------------------------------------------------------
// Global replacement operators. Counting happens before the allocation so a
// throwing failure path is still counted as the attempt it was.

void* operator new(std::size_t n) {
  if (void* p = onesa::alloccount::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = onesa::alloccount::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return onesa::alloccount::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return onesa::alloccount::counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p = onesa::alloccount::counted_aligned(n, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  if (void* p = onesa::alloccount::counted_aligned(n, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t align, const std::nothrow_t&) noexcept {
  return onesa::alloccount::counted_aligned(n, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return onesa::alloccount::counted_aligned(n, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { onesa::alloccount::counted_free(p); }
void operator delete[](void* p) noexcept { onesa::alloccount::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { onesa::alloccount::counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  onesa::alloccount::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  onesa::alloccount::counted_free(p);
}
