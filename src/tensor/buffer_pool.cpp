#include "tensor/buffer_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <new>

#include "common/alloc_count.hpp"

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14; older kernels refuse it (EINVAL)
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#define ASAN_UNPOISON_MEMORY_REGION(p, n) ((void)(p), (void)(n))
#endif

namespace onesa::tensor::pool {

namespace {

constexpr std::size_t kNumClasses = 17;  // 64 B .. 4 MiB, powers of two

static_assert((kMinBlockBytes << (kNumClasses - 1)) == kMaxBlockBytes);

std::size_t class_index(std::size_t bytes) {
  if (bytes <= kMinBlockBytes) return 0;
  return static_cast<std::size_t>(std::bit_width(bytes - 1)) - 6;
}

constexpr std::size_t class_bytes(std::size_t cls) { return kMinBlockBytes << cls; }

void* heap_block(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t(kBlockAlignment));
}

void heap_free(void* p, std::size_t bytes) {
  ::operator delete(p, bytes, std::align_val_t(kBlockAlignment));
}

/// Intrusive freelist node, constructed inside a free block (every class
/// size holds one pointer — kMinBlockBytes guarantees it).
struct Node {
  Node* next;
};
static_assert(sizeof(Node) <= kMinBlockBytes);

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("ONESA_BUFFER_POOL");
    return env == nullptr || env[0] == '\0' || env[0] != '0';
  }()};
  return flag;
}

struct Global {
  struct Shelf {
    std::mutex m;
    Node* head = nullptr;
    std::size_t count = 0;
  };
  Shelf shelves[kNumClasses];
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> returns{0};
  std::atomic<std::size_t> mapped_bytes{0};
};

/// Leaked on purpose: shelved blocks must stay reachable until process end
/// (LeakSanitizer) and outlive every thread-cache flush, including flushes
/// from TLS destructors running after static destruction begins.
Global& global() {
  static Global* g = new Global;
  return *g;
}

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t mapping_length(std::size_t bytes) {
  const std::size_t page = page_bytes();
  return (bytes + page - 1) / page * page;
}

/// Transparent-huge-page size the mappings start on.
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// An oversize block is a mapping of its own, so freeing it hands its pages
/// straight back to the OS. Counted as one allocation of the calling thread
/// (before the attempt, like operator new), so the allocation gates still
/// see it. Under ASan the bytes past `bytes` act as the missing redzone.
///
/// Every such block (a weight, its panels) is streamed whole by each
/// forward, so it is laid out for the TLB: the mapping starts on a 2 MiB
/// boundary (over-mapped by one huge page, head and tail trimmed, so its
/// length is still `bytes` page-rounded) and is advised MADV_HUGEPAGE,
/// which lets the kernel back every whole 2 MiB of it with one huge page
/// even where THP is madvise-only. It is then populated up front with
/// MADV_POPULATE_WRITE: the block is written whole right away, and one
/// kernel-side fill measured about 1.5-2x faster than faulting the pages in
/// one at a time (MAP_POPULATE would also fill the trimmed slack). Where
/// the kernel refuses either advice (THP "never", a pre-5.14 kernel), the
/// block keeps base pages and is populated by touching each page.
void* map_block(std::size_t bytes) {
  alloccount::record_mapping(bytes);
  const std::size_t len = mapping_length(bytes);
  const std::size_t span = len + kHugePageBytes - page_bytes();
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t start = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  if (start != base) ::munmap(raw, start - base);
  if (const std::size_t tail = base + span - (start + len); tail != 0)
    ::munmap(reinterpret_cast<void*>(start + len), tail);
  auto* p = reinterpret_cast<char*>(start);
  (void)::madvise(p, len, MADV_HUGEPAGE);
  if (::madvise(p, len, MADV_POPULATE_WRITE) != 0) {
    for (std::size_t off = 0; off < len; off += page_bytes())
      static_cast<volatile char*>(p)[off] = 0;
  }
  global().mapped_bytes.fetch_add(len, std::memory_order_relaxed);
  ASAN_POISON_MEMORY_REGION(p + bytes, len - bytes);
  return p;
}

void unmap_block(void* p, std::size_t bytes) noexcept {
  const std::size_t len = mapping_length(bytes);
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(p) + bytes, len - bytes);
  ::munmap(p, len);
  global().mapped_bytes.fetch_sub(len, std::memory_order_relaxed);
  alloccount::record_unmapping();
}

struct ThreadCache {
  Node* head[kNumClasses] = {};
  unsigned count[kNumClasses] = {};

  void flush() noexcept {
    Global& g = global();
    for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
      if (head[cls] == nullptr) continue;
      std::lock_guard<std::mutex> lock(g.shelves[cls].m);
      while (head[cls] != nullptr) {
        Node* n = head[cls];
        head[cls] = n->next;
        n->next = g.shelves[cls].head;
        g.shelves[cls].head = n;
        ++g.shelves[cls].count;
      }
      count[cls] = 0;
    }
  }
};

// TLS cache behind a trivially-destructible pointer + dead flag, so a
// deallocate() running after this thread's cache was torn down (static
// destructors freeing matrices) routes to the global shelves instead of
// resurrecting destroyed TLS.
thread_local ThreadCache* t_cache = nullptr;
thread_local bool t_cache_dead = false;
struct CacheReaper {
  ~CacheReaper() {
    if (t_cache != nullptr) {
      t_cache->flush();
      delete t_cache;
      t_cache = nullptr;
    }
    t_cache_dead = true;
  }
};
thread_local CacheReaper t_reaper;

ThreadCache* cache() {
  if (t_cache != nullptr) return t_cache;
  if (t_cache_dead) return nullptr;
  t_cache = new ThreadCache;
  (void)&t_reaper;  // odr-use so the reaper is constructed (and thus runs)
  return t_cache;
}

Node* pop_global(std::size_t cls) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.shelves[cls].m);
  Node* n = g.shelves[cls].head;
  if (n != nullptr) {
    g.shelves[cls].head = n->next;
    --g.shelves[cls].count;
  }
  return n;
}

void push_global(std::size_t cls, Node* n) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.shelves[cls].m);
  n->next = g.shelves[cls].head;
  g.shelves[cls].head = n;
  ++g.shelves[cls].count;
}

}  // namespace

bool enabled() noexcept { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void* allocate(std::size_t bytes) {
  if (bytes > kMaxBlockBytes) return map_block(bytes);
  const std::size_t cls = class_index(bytes);
  if (enabled()) {
    Global& g = global();
    if (ThreadCache* tc = cache(); tc != nullptr && tc->head[cls] != nullptr) {
      Node* n = tc->head[cls];
      tc->head[cls] = n->next;
      --tc->count[cls];
      g.hits.fetch_add(1, std::memory_order_relaxed);
      return n;
    }
    if (Node* n = pop_global(cls)) {
      g.hits.fetch_add(1, std::memory_order_relaxed);
      return n;
    }
    g.misses.fetch_add(1, std::memory_order_relaxed);
  }
  return heap_block(class_bytes(cls));
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes > kMaxBlockBytes) {
    unmap_block(p, bytes);
    return;
  }
  const std::size_t cls = class_index(bytes);
  if (!enabled()) {
    heap_free(p, class_bytes(cls));
    return;
  }
  global().returns.fetch_add(1, std::memory_order_relaxed);
  Node* n = new (p) Node{nullptr};
  if (ThreadCache* tc = cache(); tc != nullptr && tc->count[cls] < kThreadCacheBlocks) {
    n->next = tc->head[cls];
    tc->head[cls] = n;
    ++tc->count[cls];
    return;
  }
  push_global(cls, n);
}

void prewarm(std::size_t max_bytes, std::size_t blocks_per_class) {
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    if (class_bytes(cls) > max_bytes) break;
    for (std::size_t i = 0; i < blocks_per_class; ++i) {
      push_global(cls, new (heap_block(class_bytes(cls))) Node{nullptr});
    }
  }
}

void flush_thread_cache() noexcept {
  if (t_cache != nullptr) t_cache->flush();
}

PoolStats stats() noexcept {
  Global& g = global();
  PoolStats s;
  s.hits = g.hits.load(std::memory_order_relaxed);
  s.misses = g.misses.load(std::memory_order_relaxed);
  s.returns = g.returns.load(std::memory_order_relaxed);
  s.mapped_bytes = g.mapped_bytes.load(std::memory_order_relaxed);
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    std::lock_guard<std::mutex> lock(g.shelves[cls].m);
    s.shelved_bytes += g.shelves[cls].count * class_bytes(cls);
  }
  return s;
}

}  // namespace onesa::tensor::pool
