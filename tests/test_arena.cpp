// The memory tier under the zero-allocation serve path: MemoryStack bump
// arenas (alignment, stride-padded views, reset/reuse, boundary-guard
// corruption detection) and the recycling buffer pool (size-class rounding,
// cross-thread recycling — the TSan job runs this binary to pin the
// handoff; oversize blocks as counted, poisoned mappings), plus the
// operator-new counting hook the allocation bench measures with.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/error.hpp"
#include "tensor/arena.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/matrix.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>

#include "tensor/kernels/pack.hpp"
#endif

namespace onesa::tensor {
namespace {

bool aligned64(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % MemoryStack::kAlignment == 0;
}

TEST(MemoryStack, EveryAllocationIs64ByteAligned) {
  MemoryStack arena;
  for (std::size_t bytes : {1u, 7u, 63u, 64u, 65u, 1000u, 4096u}) {
    void* p = arena.allocate(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned64(p)) << bytes << "-byte block misaligned";
  }
  double* span = arena.allocate_span<double>(17);
  EXPECT_TRUE(aligned64(span));
}

TEST(MemoryStack, PaddedMatrixViewAlignsEveryRowStart) {
  MemoryStack arena;
  // 5 doubles = 40 bytes per row; the padded stride must round up to the
  // 64-byte quantum (8 doubles) so every row start stays aligned.
  MatrixViewT<double> v = arena.allocate_matrix<double>(3, 5);
  EXPECT_EQ(v.rows(), 3u);
  EXPECT_EQ(v.cols(), 5u);
  EXPECT_EQ(v.stride(), 8u);
  EXPECT_FALSE(v.contiguous());
  for (std::size_t r = 0; r < v.rows(); ++r) EXPECT_TRUE(aligned64(v.row(r)));
  // Element access respects the stride: rows do not overlap.
  for (std::size_t r = 0; r < v.rows(); ++r)
    for (std::size_t c = 0; c < v.cols(); ++c) v(r, c) = static_cast<double>(r * 100 + c);
  for (std::size_t r = 0; r < v.rows(); ++r)
    for (std::size_t c = 0; c < v.cols(); ++c)
      EXPECT_EQ(v(r, c), static_cast<double>(r * 100 + c));
}

TEST(MemoryStack, UnpaddedMatrixViewIsContiguous) {
  MemoryStack arena;
  MatrixViewT<double> v = arena.allocate_matrix<double>(4, 5, /*pad_rows=*/false);
  EXPECT_EQ(v.stride(), 5u);
  EXPECT_TRUE(v.contiguous());
  EXPECT_TRUE(aligned64(v.data()));
}

TEST(MemoryStack, GrowthKeepsLiveBlocksValid) {
  MemoryStack arena(/*capacity_bytes=*/128);
  int* first = arena.allocate_span<int>(16);
  for (int i = 0; i < 16; ++i) first[i] = i * 3;
  // Force several growth chunks past the seed slab.
  for (int round = 0; round < 8; ++round) arena.allocate(96 * 1024);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(first[i], i * 3);
}

TEST(MemoryStack, ResetCoalescesAndWarmArenaReusesOneSlab) {
  MemoryStack arena;
  for (int i = 0; i < 5; ++i) arena.allocate(48 * 1024);  // multi-chunk growth
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.allocations(), 0u);
  const std::size_t warmed = arena.capacity();
  // A warmed arena serves the same working set from the same slab: identical
  // bump sequence, identical pointers, no capacity change.
  void* p1 = arena.allocate(48 * 1024);
  arena.reset();
  void* p2 = arena.allocate(48 * 1024);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(arena.capacity(), warmed);
  EXPECT_EQ(arena.allocations(), 1u);
}

TEST(MemoryStack, HighWaterTracksPeakAndShrinkToDropsCapacity) {
  MemoryStack arena;
  arena.allocate(1024);
  arena.reset();
  arena.allocate(4096);
  EXPECT_GE(arena.high_water(), 4096u);
  arena.reset();
  arena.shrink_to(1024);
  EXPECT_LE(arena.capacity(), 1024u);
  arena.shrink_to(0);
  EXPECT_EQ(arena.capacity(), 0u);
  // Still usable after a full shrink.
  EXPECT_NE(arena.allocate(64), nullptr);
}

TEST(MemoryStack, BoundaryGuardCatchesOverflowAndResetThrows) {
  MemoryStack arena(/*capacity_bytes=*/0, /*boundary_fill=*/true);
  unsigned char* block = arena.allocate_span<unsigned char>(64);
  EXPECT_EQ(arena.check(), 0u);
  // Write one byte past the block. The guard zone lives INSIDE the arena's
  // own slab (the next 64 bytes belong to this arena), so this is exactly
  // the overflow ASan cannot see — and the one the guards exist to catch.
  block[64] = 0x00;
  EXPECT_EQ(arena.check(), 1u);
  EXPECT_THROW(arena.reset(), onesa::Error);
  // Healing the guard clears the fault; reset succeeds again.
  block[64] = MemoryStack::kFillByte;
  EXPECT_EQ(arena.check(), 0u);
  EXPECT_NO_THROW(arena.reset());
}

TEST(MemoryStack, UnderflowIsCaughtToo) {
  MemoryStack arena(/*capacity_bytes=*/0, /*boundary_fill=*/true);
  unsigned char* block = arena.allocate_span<unsigned char>(64);
  *(block - 1) = 0x00;  // one byte before the block: the leading guard
  EXPECT_EQ(arena.check(), 1u);
  *(block - 1) = MemoryStack::kFillByte;
  EXPECT_NO_THROW(arena.reset());
}

TEST(MemoryStack, BoundaryFillOffMeansNothingToCheck) {
  MemoryStack arena(/*capacity_bytes=*/0, /*boundary_fill=*/false);
  arena.allocate(128);
  EXPECT_FALSE(arena.boundary_fill_enabled());
  EXPECT_EQ(arena.check(), 0u);
  EXPECT_NO_THROW(arena.reset());
}

TEST(BufferPool, RecyclesWithinAThread) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via ONESA_BUFFER_POOL=0";
  void* p = pool::allocate(1000);
  EXPECT_TRUE(aligned64(p));
  pool::deallocate(p, 1000);
  const std::uint64_t hits_before = pool::stats().hits;
  // Same size class (1000 and 1024 both round to 1 KiB): must be a cache hit
  // returning the very block just freed.
  void* q = pool::allocate(1024);
  EXPECT_EQ(p, q);
  EXPECT_GT(pool::stats().hits, hits_before);
  pool::deallocate(q, 1024);
}

TEST(BufferPool, PooledMatricesReuseCapacity) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via ONESA_BUFFER_POOL=0";
  const double* data_first = nullptr;
  {
    Matrix a(8, 8, 1.0);
    data_first = a.data().data();
  }  // freed into the thread cache
  Matrix b(8, 8, 2.0);  // same class: recycled storage
  EXPECT_EQ(b.data().data(), data_first);
  EXPECT_EQ(b(7, 7), 2.0);
}

// Cross-thread recycling under contention: every thread allocates pooled
// blocks and frees blocks allocated by OTHER threads (the serve tier's
// ownership handoff — workers allocate results, the client frees them).
// The TSan CI job runs this binary; a racy shelf would fail here.
TEST(BufferPool, ConcurrentCrossThreadRecycling) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kIters = 400;
  std::mutex m;
  std::vector<std::pair<void*, std::size_t>> shared;  // blocks in flight
  const std::uint64_t returns_before = pool::stats().returns;

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::size_t bytes = 64u << ((t + i) % 5);  // 64B..1KiB classes
        void* p = pool::allocate(bytes);
        static_cast<unsigned char*>(p)[0] = static_cast<unsigned char>(t);
        static_cast<unsigned char*>(p)[bytes - 1] = static_cast<unsigned char>(i);
        std::vector<std::pair<void*, std::size_t>> to_free;
        {
          std::lock_guard<std::mutex> lock(m);
          shared.emplace_back(p, bytes);
          // Free up to two blocks somebody (often another thread) parked.
          for (int k = 0; k < 2 && !shared.empty(); ++k) {
            to_free.push_back(shared.back());
            shared.pop_back();
          }
        }
        for (auto& [ptr, sz] : to_free) pool::deallocate(ptr, sz);
      }
      pool::flush_thread_cache();
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& [ptr, sz] : shared) pool::deallocate(ptr, sz);
  if (pool::enabled()) {
    EXPECT_GT(pool::stats().returns, returns_before);
  }
}

TEST(BufferPool, DisableTakesEffectAndRoundTripsSafely) {
  if (!pool::enabled()) GTEST_SKIP() << "pool disabled via ONESA_BUFFER_POOL=0";
  // A block allocated while ENABLED then freed while DISABLED (and the
  // reverse) must round-trip: class-size rounding is unconditional.
  void* pooled = pool::allocate(256);
  pool::set_enabled(false);
  pool::deallocate(pooled, 256);
  void* heaped = pool::allocate(256);
  pool::set_enabled(true);
  pool::deallocate(heaped, 256);
}

TEST(BufferPool, OversizeMatrixIsOneCountedMappingReturnedOnFree) {
  constexpr std::size_t kRows = 640, kCols = 1024;  // 5 MiB of doubles
  static_assert(kRows * kCols * sizeof(double) > pool::kMaxBlockBytes);
  const std::size_t mapped_before = pool::stats().mapped_bytes;
  const std::uint64_t allocs_before = alloccount::thread_allocations();
  const std::uint64_t frees_before = alloccount::thread_deallocations();
  {
    Matrix big(kRows, kCols, 1.0);
    // Exactly one allocation, as when the block came from the heap: the
    // gates that count operator new keep seeing oversize buffers.
    EXPECT_EQ(alloccount::thread_allocations() - allocs_before, 1u);
    EXPECT_TRUE(aligned64(big.data().data()));
    EXPECT_EQ(pool::stats().mapped_bytes - mapped_before, kRows * kCols * sizeof(double));
    EXPECT_EQ(big(kRows - 1, kCols - 1), 1.0);
  }
  EXPECT_EQ(alloccount::thread_deallocations() - frees_before, 1u);
  EXPECT_EQ(pool::stats().mapped_bytes, mapped_before);
}

// A model weight or its panels is streamed whole by every forward, so its
// mapping starts on a 2 MiB boundary where a transparent huge page can back
// it; the counted length stays the page-rounded request. Whether the kernel
// actually hands out huge pages depends on the host's THP setting and free
// memory, so AnonHugePages is reported, not asserted.
TEST(BufferPool, OversizeMappingStartsOnAHugePageBoundary) {
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  constexpr std::size_t kRows = 641, kCols = 1000;  // 5128000 B: not whole pages
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t bytes = kRows * kCols * sizeof(double);
  static_assert(kRows * kCols * sizeof(double) > pool::kMaxBlockBytes);
  const std::size_t mapped_before = pool::stats().mapped_bytes;
  {
    Matrix big(kRows, kCols, 1.0);
    const auto start = reinterpret_cast<std::uintptr_t>(big.data().data());
    EXPECT_EQ(start % kHugePage, 0u);
    EXPECT_EQ(pool::stats().mapped_bytes - mapped_before, (bytes + page - 1) / page * page);
    EXPECT_EQ(big(kRows - 1, kCols - 1), 1.0);

    std::ifstream smaps("/proc/self/smaps");
    std::string line;
    bool in_block = false;
    while (std::getline(smaps, line)) {
      std::uintptr_t lo = 0, hi = 0;
      if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " ", &lo, &hi) == 2) {
        in_block = lo <= start && start < hi;
      } else if (in_block && line.rfind("AnonHugePages:", 0) == 0) {
        std::printf("[ info ] the 5 MiB block's mapping: %s\n", line.c_str());
        RecordProperty("AnonHugePages", line.substr(14));
      }
    }
  }
  EXPECT_EQ(pool::stats().mapped_bytes, mapped_before);
}

#if defined(__SANITIZE_ADDRESS__)
// A mapping is page-rounded and has no heap redzone: the pool poisons the
// tail past the requested size, so an over-read (a SIMD tail past a weight
// or its panels) still trips ASan.
TEST(BufferPool, OversizeMappingPoisonsItsTailUnderAsan) {
  const Matrix w(641, 1000, 0.5);  // neither it nor its panels fill whole pages
  const auto* end = reinterpret_cast<const char*>(w.data().data() + w.size());
  EXPECT_FALSE(__asan_address_is_poisoned(end - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(end));

  const kernels::PackedB panels = kernels::PackedB::pack(w.data().data(), w.rows(), w.cols());
  ASSERT_GT(panels.packed_bytes(), pool::kMaxBlockBytes);
  const auto* base = reinterpret_cast<const char*>(panels.panel(0, 0));
  EXPECT_FALSE(__asan_address_is_poisoned(base + panels.packed_bytes() - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(base + panels.packed_bytes()));
}
#endif

TEST(AllocCount, ThreadLocalCountersTrackOperatorNew) {
  const std::uint64_t allocs_before = alloccount::thread_allocations();
  const std::uint64_t frees_before = alloccount::thread_deallocations();
  auto* p = new int(42);
  EXPECT_GT(alloccount::thread_allocations(), allocs_before);
  delete p;
  EXPECT_GT(alloccount::thread_deallocations(), frees_before);
  // Another thread's traffic never lands on this thread's counters. (The
  // std::thread object itself allocates its shared state on THIS thread —
  // a handful of allocations — but the child's 100 must not appear here.)
  const std::uint64_t mine = alloccount::thread_allocations();
  std::thread([] {
    for (int i = 0; i < 100; ++i) delete new int(i);
  }).join();
  EXPECT_LT(alloccount::thread_allocations() - mine, 100u);
}

}  // namespace
}  // namespace onesa::tensor
