// Kernel-vs-reference equivalence: the blocked/threaded tensor kernels and
// the batched CPWL evaluators must reproduce the seed's scalar loops —
// bit-exactly where the contract says exact (deterministic mode, elementwise,
// transpose, INT16 batch eval), and within 1e-12 relative where the blocked
// GEMM reassociates the k-sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/error.hpp"

#include "common/rng.hpp"
#include "cpwl/segment_table.hpp"
#include "nn/activations.hpp"
#include "nn/quantized.hpp"
#include "tensor/kernels/elementwise.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "tensor/kernels/lane.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "tensor/kernels/transpose.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace onesa {
namespace {

using tensor::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  return tensor::random_uniform(rows, cols, rng, -2.0, 2.0);
}

/// max |a-b| scaled by max |b| (0-safe).
double relative_max_error(const Matrix& a, const Matrix& b) {
  double scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) scale = std::max(scale, std::abs(b.at_flat(i)));
  if (scale == 0.0) scale = 1.0;
  return tensor::max_abs_distance(a, b) / scale;
}

// Shapes chosen to hit every packing edge: empty, single row/col/inner,
// exact multiples of the micro-tile, one-off-from-block sizes, and shapes
// larger than one MC x KC x NC block.
struct Shape {
  std::size_t m, k, n;
};
const Shape kGemmShapes[] = {
    {0, 5, 3},  {5, 0, 3},   {5, 3, 0},   {1, 1, 1},   {1, 7, 9},    {7, 13, 1},
    {4, 8, 8},  {8, 8, 8},   {7, 13, 9},  {16, 16, 16}, {33, 17, 65}, {65, 64, 63},
    {70, 300, 40}, {128, 64, 96}, {3, 257, 5}};

TEST(GemmKernel, BlockedMatchesReferenceAcrossShapes) {
  Rng rng(7);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix ref(s.m, s.n);
    Matrix fast(s.m, s.n);
    tensor::kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(),
                                    s.m, s.k, s.n);
    tensor::kernels::gemm_blocked(a.data().data(), b.data().data(), fast.data().data(),
                                  s.m, s.k, s.n);
    EXPECT_LE(relative_max_error(fast, ref), 1e-12)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernel, DispatcherMatchesReferenceAcrossShapes) {
  Rng rng(8);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix ref(s.m, s.n);
    tensor::kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(),
                                    s.m, s.k, s.n);
    const Matrix fast = tensor::matmul(a, b);
    EXPECT_LE(relative_max_error(fast, ref), 1e-12)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmKernel, DeterministicModeIsBitExactWithReference) {
  const bool prev = tensor::kernels::deterministic();  // keep env-driven mode
  tensor::kernels::set_deterministic(true);
  Rng rng(9);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix ref(s.m, s.n);
    tensor::kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(),
                                    s.m, s.k, s.n);
    const Matrix fast = tensor::matmul(a, b);
    EXPECT_EQ(fast, ref) << s.m << "x" << s.k << "x" << s.n;  // bit-exact
  }
  tensor::kernels::set_deterministic(prev);
}

TEST(GemmKernel, MultiThreadMatchesSingleThreadBitExactly) {
  // Row-sliced threading never reassociates any output element's sum, so the
  // threaded path must equal the single-thread blocked path exactly.
  Rng rng(10);
  const std::size_t m = 97, k = 129, n = 65;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix st(m, n);
  tensor::kernels::gemm_blocked(a.data().data(), b.data().data(), st.data().data(), m, k,
                                n);

  tensor::kernels::ThreadPool pool(4);
  const std::size_t per = 28;  // ceil(97 rows / 4 slices), rounded up to MR=4
  Matrix mt(m, n);
  pool.run(4, [&](std::size_t part) {
    const std::size_t lo = std::min(m, part * per);
    const std::size_t hi = std::min(m, lo + per);
    if (lo < hi)
      tensor::kernels::gemm_blocked(a.data().data() + lo * k, b.data().data(),
                                    mt.data().data() + lo * n, hi - lo, k, n);
  });
  EXPECT_EQ(mt, st);
}

TEST(GemmKernel, EveryTierMatchesTheDispatchedTiles) {
  // The avx2 and avx512f tiles both fuse multiply+add in the same
  // per-element k order, so wherever both run they agree bit for bit: each
  // FMA tier this host can run must reproduce the dispatched tiles
  // (gemm_blocked) exactly — the AVX2 tile included on AVX-512 hosts. The
  // portable tile rounds each product separately and stays inside the
  // 1e-12 envelope around the reference.
  using tensor::kernels::detail::GemmTier;
  const bool fma_dispatched = std::string(tensor::kernels::gemm_kernel_name()) != "portable";
  Rng rng(31);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix ref(s.m, s.n), blocked(s.m, s.n);
    tensor::kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(),
                                    s.m, s.k, s.n);
    tensor::kernels::gemm_blocked(a.data().data(), b.data().data(), blocked.data().data(),
                                  s.m, s.k, s.n);
    for (GemmTier tier : {GemmTier::kPortable, GemmTier::kAvx2, GemmTier::kAvx512}) {
      if (!tensor::kernels::detail::gemm_tier_supported(tier)) continue;
      Matrix got(s.m, s.n);
      std::fill(got.data().begin(), got.data().end(), -7.0);  // a skipped store shows
      tensor::kernels::detail::gemm_on_tier(tier, a.data().data(), b.data().data(),
                                            got.data().data(), s.m, s.k, s.n);
      if (tier == GemmTier::kPortable) {
        EXPECT_LE(relative_max_error(got, ref), 1e-12)
            << "portable " << s.m << "x" << s.k << "x" << s.n;
      } else if (fma_dispatched) {
        EXPECT_EQ(got, blocked) << "tier " << static_cast<int>(tier) << " " << s.m << "x"
                                << s.k << "x" << s.n;
      }
    }
  }
}

TEST(GemmKernel, SelectedTierIsTheFastestRunnable) {
  using tensor::kernels::detail::GemmTier;
  using tensor::kernels::detail::gemm_tier_supported;
  const char* want = gemm_tier_supported(GemmTier::kAvx512) ? "avx512f"
                     : gemm_tier_supported(GemmTier::kAvx2) ? "avx2"
                                                            : "portable";
  EXPECT_STREQ(tensor::kernels::gemm_kernel_name(), want);
  EXPECT_EQ(tensor::kernels::sliver_width(),
            gemm_tier_supported(GemmTier::kAvx512) ? 16u : 8u);
}

TEST(GemmKernel, LaneCountAllowsOneLanePerShortTileHeight) {
  // Row slices are whole short tiles (8 rows on the AVX-512 tile sets, 4 on
  // the AVX2 and portable ones), so m = 16 may fan out to 16 / height lanes.
  namespace kernels = tensor::kernels;
  const std::size_t lanes = kernels::ThreadPool::instance().effective_threads();
  const auto expect = [&](std::size_t height) {
    return kernels::deterministic() ? std::size_t{1} : std::min(lanes, 16 / height);
  };
  // The AMX tier's row slices are whole 16-row tile blocks.
  using kernels::detail::Int16Tier;
  const Int16Tier int16 = kernels::detail::selected_int16_tier();
  EXPECT_EQ(kernels::gemm_threads(16, 4096, 4096),
            expect(kernels::sliver_width() == 16 ? 8 : 4));
  EXPECT_EQ(kernels::gemm_threads(16, 4096, 4096, sizeof(std::int16_t)),
            expect(int16 == Int16Tier::kAmx ? 16 : int16 >= Int16Tier::kAvx512bw ? 8 : 4));
}

TEST(GemmKernel, PackScratchTrimsToTheRetentionCapWhenTheOutermostScopeCloses) {
  using tensor::kernels::detail::PackScratch;
  constexpr std::size_t kCap = PackScratch::kScratchRetainBytes;
  const tensor::MemoryStack& arena = PackScratch::arena();
  {
    PackScratch outer;
    outer.take<double>(2 * kCap / sizeof(double));
    { PackScratch inner; }  // a nested scope never frees live panels
    EXPECT_GT(arena.capacity(), kCap);
  }
  // A pack that outgrew the cap is gone as soon as the call returns...
  EXPECT_LE(arena.capacity(), kCap);
  EXPECT_EQ(arena.bytes_used(), 0u);
  // ...while an arena within the cap keeps its one slab for the next call.
  double* first = nullptr;
  {
    PackScratch s;
    first = s.take<double>(1024);
  }
  PackScratch s;
  EXPECT_EQ(s.take<double>(1024), first);
}

// ------------------------------------------------------------ packed GEMM

TEST(PackedB, RoundTripsEveryElementAcrossShapes) {
  // Packing must be loss-free and the at() accessor must invert the sliver
  // layout exactly — the reference-order fallbacks depend on it.
  Rng rng(21);
  for (const Shape& s : kGemmShapes) {
    const Matrix b = random_matrix(s.k, s.n, rng);
    const auto packed = tensor::kernels::PackedB::pack(b.data().data(), s.k, s.n);
    ASSERT_EQ(packed.k(), s.k);
    ASSERT_EQ(packed.n(), s.n);
    for (std::size_t kk = 0; kk < s.k; ++kk)
      for (std::size_t j = 0; j < s.n; ++j)
        ASSERT_EQ(packed.at(kk, j), b(kk, j)) << s.k << "x" << s.n;
  }
}

TEST(GemmPacked, MatchesDispatcherBitExactlyAcrossShapes) {
  // gemm_packed shares the dispatch criterion and loop orders with gemm(),
  // so on every shape — tiny/reference, blocked, threaded — the packed path
  // must reproduce the unpacked dispatcher bit for bit.
  Rng rng(22);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix want = tensor::matmul(a, b);
    const auto packed = tensor::kernels::PackedB::pack(b.data().data(), s.k, s.n);
    Matrix got(s.m, s.n);
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m);
    EXPECT_EQ(got, want) << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmPacked, DeterministicModeBitExactWithReference) {
  const bool prev = tensor::kernels::deterministic();
  tensor::kernels::set_deterministic(true);
  Rng rng(23);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    Matrix ref(s.m, s.n);
    tensor::kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(),
                                    s.m, s.k, s.n);
    const auto packed = tensor::kernels::PackedB::pack(b.data().data(), s.k, s.n);
    Matrix got(s.m, s.n);
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m);
    EXPECT_EQ(got, ref) << s.m << "x" << s.k << "x" << s.n;
  }
  tensor::kernels::set_deterministic(prev);
}

TEST(GemmPacked, FusedEpilogueMatchesUnfusedAcrossShapes) {
  // The fused store applies bias (and activation) once per element after
  // its complete k-sum, in the unfused order — so fused results must equal
  // matmul + add_row_broadcast (+ activation) BIT FOR BIT on every shape,
  // whichever kernel path dispatch picks.
  using Epilogue = tensor::kernels::Epilogue;
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  Rng rng(24);
  for (const Shape& s : kGemmShapes) {
    const Matrix a = random_matrix(s.m, s.k, rng);
    const Matrix b = random_matrix(s.k, s.n, rng);
    const Matrix bias = random_matrix(1, s.n, rng);
    const auto packed = tensor::kernels::PackedB::pack(b.data().data(), s.k, s.n);
    const Matrix biased = tensor::add_row_broadcast(tensor::matmul(a, b), bias);

    Epilogue epi;
    epi.bias = bias.data().data();
    Matrix got(s.m, s.n);

    epi.kind = Epilogue::Kind::kBias;
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m, epi);
    EXPECT_EQ(got, biased) << "kBias " << s.m << "x" << s.k << "x" << s.n;

    epi.kind = Epilogue::Kind::kBiasRelu;
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m, epi);
    const Matrix relued =
        biased.map([](double v) { return cpwl::eval_reference(cpwl::FunctionKind::kRelu, v); });
    EXPECT_EQ(got, relued) << "kBiasRelu " << s.m << "x" << s.k << "x" << s.n;

    // The table runs through its batch evaluator (vectorized where the CPU
    // allows) and must equal the scalar eval() element for element. A
    // second, wide bias pushes outputs past both clamp segments of the
    // GELU table's [-8, 8] domain.
    epi.kind = Epilogue::Kind::kBiasTable;
    epi.table = &table;
    epi.table_eval = [](const void* t, const double* x, double* y, std::size_t len) {
      static_cast<const cpwl::SegmentTable*>(t)->eval_batch({x, len}, {y, len});
    };
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m, epi);
    const Matrix tabled = biased.map([&](double v) { return table.eval(v); });
    EXPECT_EQ(got, tabled) << "kBiasTable " << s.m << "x" << s.k << "x" << s.n;

    const Matrix wide_bias = tensor::random_uniform(1, s.n, rng, -40.0, 40.0);
    epi.bias = wide_bias.data().data();
    tensor::kernels::gemm_packed(a.data().data(), packed, got.data().data(), s.m, epi);
    const Matrix wide = tensor::add_row_broadcast(tensor::matmul(a, b), wide_bias);
    EXPECT_EQ(got, wide.map([&](double v) { return table.eval(v); }))
        << "kBiasTable, wide bias " << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmPacked, OneSharedPackServesManyThreadsBitExactly) {
  // The pack-once contract under real concurrency: four threads row-slice
  // one GEMM against the SAME PackedB (each calling gemm_packed on its
  // slice), and the stitched result must equal the one-call result exactly
  // — no thread ever needs a private packed copy.
  Rng rng(25);
  const std::size_t m = 97, k = 129, n = 65;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const auto packed = tensor::kernels::PackedB::pack(b.data().data(), k, n);

  Matrix whole(m, n);
  tensor::kernels::gemm_packed(a.data().data(), packed, whole.data().data(), m);

  tensor::kernels::ThreadPool pool(4);
  const std::size_t per = 28;  // ceil(97 / 4) rounded up to MR=4
  Matrix sliced(m, n);
  pool.run(4, [&](std::size_t part) {
    const std::size_t lo = std::min(m, part * per);
    const std::size_t hi = std::min(m, lo + per);
    if (lo < hi)
      tensor::kernels::gemm_packed(a.data().data() + lo * k, packed,
                                   sliced.data().data() + lo * n, hi - lo);
  });
  EXPECT_EQ(sliced, whole);
}

TEST(GemmPacked, ThreadedPathPacksEachPanelExactlyOnce) {
  // The old multi-thread gemm() re-packed B once PER THREAD; the pack-once
  // refactor packs each (kc, jc) panel exactly once per call — and the
  // pre-packed path packs nothing at all. The debug pack counter observes
  // every panel pack in the kernel layer.
  if (!tensor::kernels::pack_counter_enabled()) {
    GTEST_SKIP() << "pack counter compiled out (NDEBUG)";
  }
  const bool prev = tensor::kernels::deterministic();
  tensor::kernels::set_deterministic(false);  // reference path packs nothing
  Rng rng(26);
  // Tall m and >1 panel along each of k and n; big enough that the threaded
  // path engages whenever the pool has more than one lane.
  const std::size_t m = 512, k = 300, n = 600;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  Matrix c(m, n);

  tensor::kernels::reset_pack_panel_count();
  const auto packed = tensor::kernels::PackedB::pack(b.data().data(), k, n);
  const std::uint64_t panels = packed.kc_panels() * packed.nc_panels();
  EXPECT_EQ(packed.kc_panels(), 2u);
  EXPECT_EQ(packed.nc_panels(), 2u);
  EXPECT_EQ(tensor::kernels::pack_panel_count(), panels);

  // Pre-packed GEMMs perform ZERO packs, at any thread count.
  tensor::kernels::reset_pack_panel_count();
  tensor::kernels::gemm_packed(a.data().data(), packed, c.data().data(), m);
  tensor::kernels::gemm_packed(a.data().data(), packed, c.data().data(), m);
  EXPECT_EQ(tensor::kernels::pack_panel_count(), 0u);

  // The dispatcher (threaded or not) packs each panel exactly once per call
  // — never once per thread.
  tensor::kernels::reset_pack_panel_count();
  tensor::kernels::gemm(a.data().data(), b.data().data(), c.data().data(), m, k, n);
  EXPECT_EQ(tensor::kernels::pack_panel_count(), panels)
      << "threads=" << tensor::kernels::gemm_threads(m, k, n);
  tensor::kernels::set_deterministic(prev);
}

TEST(GemmKernel, ResultsAreRowStableUnderStacking) {
  // The serving batcher stacks request rows into one tall GEMM and slices
  // the results back out; that is only exact if a row's result never depends
  // on how many other rows ride along. Dispatch is per-row-shape (k * n), and
  // the blocked kernel computes each row position-independently, so the
  // sliced rows must be bit-identical to a solo matmul — across sizes that
  // take the reference, blocked, and threaded paths.
  Rng rng(9);
  // Shapes chosen to cross dispatch boundaries: tiny (reference path),
  // mid-size (blocked single-thread), and a stack big enough that
  // gemm_threads exceeds one on multi-core hosts (256*128*128 MACs > 4x the
  // per-thread minimum) while the solo slice stays single-thread.
  for (auto [solo_rows, extra_rows, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{2, 3, 8, 8},
        {2, 32, 32, 64},
        {3, 253, 128, 128}}) {
    const Matrix solo = random_matrix(solo_rows, k, rng);
    const Matrix extra = random_matrix(extra_rows, k, rng);
    const Matrix b = random_matrix(k, n, rng);

    Matrix stacked(solo_rows + extra_rows, k, tensor::kUninitialized);
    std::copy(solo.data().begin(), solo.data().end(), stacked.data().begin());
    std::copy(extra.data().begin(), extra.data().end(),
              stacked.data().begin() + static_cast<std::ptrdiff_t>(solo.size()));

    const Matrix want = tensor::matmul(solo, b);
    const Matrix full = tensor::matmul(stacked, b);
    for (std::size_t i = 0; i < solo_rows; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(full(i, j), want(i, j)) << solo_rows << "+" << extra_rows << " k=" << k
                                          << " n=" << n << " at (" << i << "," << j << ")";

    // The packed path keeps the identical per-row (k * n) dispatch
    // criterion, so it must be row-stable the same way — including with a
    // fused epilogue (bias+relu are per-element, so they cannot couple rows).
    const Matrix bias = random_matrix(1, n, rng);
    tensor::kernels::Epilogue epi;
    epi.kind = tensor::kernels::Epilogue::Kind::kBiasRelu;
    epi.bias = bias.data().data();
    const auto packed = tensor::kernels::PackedB::pack(b.data().data(), k, n);
    Matrix solo_packed(solo_rows, n), full_packed(solo_rows + extra_rows, n);
    tensor::kernels::gemm_packed(solo.data().data(), packed, solo_packed.data().data(),
                                 solo_rows, epi);
    tensor::kernels::gemm_packed(stacked.data().data(), packed,
                                 full_packed.data().data(), solo_rows + extra_rows, epi);
    for (std::size_t i = 0; i < solo_rows; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_EQ(full_packed(i, j), solo_packed(i, j))
            << "packed " << solo_rows << "+" << extra_rows << " k=" << k << " n=" << n
            << " at (" << i << "," << j << ")";
  }
}

TEST(GemmKernel, ZeroInnerDimYieldsZeroMatrix) {
  const Matrix a(4, 0);
  const Matrix b(0, 6);
  const Matrix c = tensor::matmul(a, b);
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 6u);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.at_flat(i), 0.0);
}

TEST(ElementwiseKernels, MatchNaiveLoopsBitExactly) {
  Rng rng(11);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{257}, std::size_t{70000}}) {
    const Matrix a = random_matrix(1, n, rng);
    const Matrix b = random_matrix(1, n, rng);
    std::vector<double> y(n), want(n);

    tensor::kernels::add(a.data().data(), b.data().data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = a.at_flat(i) + b.at_flat(i);
    EXPECT_EQ(y, want);

    tensor::kernels::sub(a.data().data(), b.data().data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = a.at_flat(i) - b.at_flat(i);
    EXPECT_EQ(y, want);

    tensor::kernels::hadamard(a.data().data(), b.data().data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = a.at_flat(i) * b.at_flat(i);
    EXPECT_EQ(y, want);

    tensor::kernels::scale(a.data().data(), 1.75, y.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = 1.75 * a.at_flat(i);
    EXPECT_EQ(y, want);

    std::fill(y.begin(), y.end(), 0.5);
    std::fill(want.begin(), want.end(), 0.5);
    tensor::kernels::axpy(-0.25, a.data().data(), y.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] += -0.25 * a.at_flat(i);
    EXPECT_EQ(y, want);
  }
}

TEST(TransposeKernel, MatchesNaiveAcrossShapes) {
  Rng rng(12);
  for (const auto& [rows, cols] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {1, 1}, {1, 17}, {17, 1}, {31, 33}, {64, 64}, {100, 37}}) {
    const Matrix a = random_matrix(rows, cols, rng);
    const Matrix t = tensor::transpose(a);
    ASSERT_EQ(t.rows(), cols);
    ASSERT_EQ(t.cols(), rows);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) EXPECT_EQ(t(j, i), a(i, j));
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  tensor::kernels::ThreadPool pool(4);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(0, hits.size(), 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  tensor::kernels::ThreadPool pool(3);
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t part) {
                          if (part == 5) throw Error("boom");
                        }),
               Error);
  // Pool must stay usable after a failed job.
  std::atomic<int> ran{0};
  pool.run(4, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, ReservationShrinksEffectiveLanes) {
  // reserve(n) models n long-lived external compute threads (serve-pool
  // workers): fan-out must shrink so reserved + helpers never exceeds the
  // lane budget, and release() must restore it (clamped at zero).
  tensor::kernels::ThreadPool pool(4);
  EXPECT_EQ(pool.effective_threads(), 4u);
  pool.reserve(2);
  EXPECT_EQ(pool.reserved(), 2u);
  EXPECT_EQ(pool.effective_threads(), 2u);
  pool.reserve(10);  // over-reserve: floor at one inline lane
  EXPECT_EQ(pool.effective_threads(), 1u);
  pool.release(12);
  EXPECT_EQ(pool.reserved(), 0u);
  EXPECT_EQ(pool.effective_threads(), 4u);
  pool.release(5);  // over-release clamps instead of wrapping
  EXPECT_EQ(pool.reserved(), 0u);
  EXPECT_EQ(pool.effective_threads(), 4u);
}

TEST(ThreadPool, ReservationCapsParallelForFanOut) {
  tensor::kernels::ThreadPool pool(4);
  pool.reserve(3);  // one helper lane left
  std::mutex mutex;
  std::set<std::thread::id> threads_used;
  pool.parallel_for(0, 10000, 1, [&](std::size_t, std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    threads_used.insert(std::this_thread::get_id());
  });
  // With 3 of 4 lanes reserved the sweep must collapse to one chunk on the
  // calling thread (no helper fan-out).
  EXPECT_EQ(threads_used.size(), 1u);
  pool.release(3);
}

// ------------------------------------------------------------------- CPWL

TEST(CpwlBatch, EvalBatchMatchesScalarEvalBitExactly) {
  for (double g : {0.25, 0.125, 0.1}) {  // power-of-two fast index + divide path
    cpwl::SegmentTableConfig cfg;
    cfg.granularity = g;
    const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu, cfg);
    Rng rng(13);
    std::vector<double> x(4096), y(4096);
    for (auto& v : x) v = rng.uniform(-12.0, 12.0);  // includes capped range
    table.eval_batch(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y[i], table.eval(x[i])) << "g=" << g << " x=" << x[i];
    }
  }
}

TEST(CpwlBatch, EvalFixedBatchMatchesScalarBitExactly) {
  for (double g : {0.25, 0.1}) {
    cpwl::SegmentTableConfig cfg;
    cfg.granularity = g;
    const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kTanh, cfg);
    // Every raw INT16 value: the full input space of the hardware indexer.
    std::vector<fixed::Fix16> x, y;
    for (int raw = -32768; raw <= 32767; ++raw)
      x.push_back(fixed::Fix16::from_raw(static_cast<std::int16_t>(raw)));
    y.resize(x.size());
    table.eval_fixed_batch(x, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(y[i].raw(), table.eval_fixed(x[i]).raw()) << "g=" << g;
    }
  }
}

TEST(CpwlBatch, LookupFixedBatchMatchesScalarIndexingAndCapCounts) {
  // 0.25 exercises the shift indexer, 0.1 the divide fallback.
  for (double g : {0.25, 0.1}) {
    cpwl::SegmentTableConfig cfg;
    cfg.granularity = g;
    const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kExp, cfg);
    std::vector<fixed::Fix16> x;
    Rng rng(14);
    for (int i = 0; i < 2000; ++i)
      x.push_back(fixed::Fix16::from_double(rng.uniform(-50.0, 50.0)));
    std::vector<fixed::Fix16> seg(x.size()), k(x.size()), b(x.size());
    const auto caps = table.lookup_fixed_batch(x, seg, k, b);

    std::uint64_t low = 0, high = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const int want_seg = table.segment_index_raw(x[i].raw());
      EXPECT_EQ(static_cast<int>(seg[i].raw()), want_seg) << "g=" << g;
      EXPECT_EQ(k[i].raw(), table.k_fixed(want_seg).raw()) << "g=" << g;
      EXPECT_EQ(b[i].raw(), table.b_fixed(want_seg).raw()) << "g=" << g;
      const int uncapped =
          table.shift_indexable()
              ? (static_cast<int>(x[i].raw()) >> table.shift_amount())
              : table.raw_segment(static_cast<double>(x[i].raw()) /
                                  static_cast<double>(1 << table.frac_bits()));
      if (uncapped < table.min_segment()) ++low;
      if (uncapped > table.max_segment()) ++high;
    }
    EXPECT_EQ(caps.low, low) << "g=" << g;
    EXPECT_EQ(caps.high, high) << "g=" << g;
  }
}

TEST(CpwlBatch, ActivationTableModeMatchesScalarTableEval) {
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  nn::Activation act(cpwl::FunctionKind::kGelu);
  act.use_table(&table);
  Rng rng(15);
  const Matrix x = tensor::random_uniform(9, 13, rng, -8.0, 8.0);
  const Matrix y = act.forward(x);
  ASSERT_EQ(y.rows(), x.rows());
  ASSERT_EQ(y.cols(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(y.at_flat(i), table.eval(x.at_flat(i)));

  // nullptr restores the exact reference path.
  act.use_table(nullptr);
  const Matrix exact = act.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(exact.at_flat(i), cpwl::eval_reference(cpwl::FunctionKind::kGelu, x.at_flat(i)));
}

// ------------------------------------------------------------- int16 GEMM
//
// The INT16 lane's contract (tensor/kernels/gemm_int16.hpp): every kernel
// tier — portable, AVX2, AVX-512BW, AVX-512 VNNI — produces BIT-IDENTICAL
// wrap-mod-2^32 accumulators; the requantizing epilogue (scalar or vector
// store) matches the unfused bias -> Accumulator::result()-style shift ->
// activation composition exactly; saturation behaves like
// fixed::saturate_i16 at both rails.

using tensor::kernels::EpilogueInt16;
using tensor::kernels::detail::Int16Tier;

/// The tiers this host can run, slowest first; portable is always there.
std::vector<Int16Tier> runnable_int16_tiers() {
  std::vector<Int16Tier> tiers;
  for (Int16Tier t : {Int16Tier::kPortable, Int16Tier::kAvx2, Int16Tier::kAvx512bw,
                      Int16Tier::kAvx512Vnni, Int16Tier::kAmx})
    if (tensor::kernels::detail::int16_tier_supported(t)) tiers.push_back(t);
  return tiers;
}

/// Whether the OS reports the AMX tile unit with int8 products to this
/// host's processes (/proc/cpuinfo lists a flag only once the kernel has
/// enabled its state).
bool host_reports_amx_int8() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream flags(line);
    bool tile = false, int8 = false;
    for (std::string flag; flags >> flag;) {
      tile = tile || flag == "amx_tile";
      int8 = int8 || flag == "amx_int8";
    }
    return tile && int8;
  }
  return false;
}

/// The epilogue's scalar rule on one accumulator: bias add at int64 width,
/// round-half-up shift, saturate, then the activation.
std::int16_t epilogue_rule(std::int32_t acc, std::size_t col, const EpilogueInt16& e,
                           const cpwl::SegmentTable& table) {
  std::int64_t v = acc;
  if (e.kind != EpilogueInt16::Kind::kNone) v += e.bias[col];
  if (e.shift > 0) v = (v + (std::int64_t{1} << (e.shift - 1))) >> e.shift;
  std::int16_t q = fixed::saturate_i16(v);
  if (e.kind == EpilogueInt16::Kind::kBiasRelu && q < 0) q = 0;
  if (e.kind == EpilogueInt16::Kind::kBiasTable)
    q = table.eval_fixed(fixed::Fix16::from_raw(q)).raw();
  return q;
}

std::vector<std::int16_t> random_i16(std::size_t count, Rng& rng, int lo = -2048,
                                     int hi = 2048) {
  std::vector<std::int16_t> v(count);
  for (auto& e : v)
    e = static_cast<std::int16_t>(std::lround(rng.uniform(lo, hi)));
  return v;
}

// Every row count around the 8- and 16-row tiles (a remainder of at most 8
// rows takes the short tile, anything taller the tall tile), most with odd k
// so the last panel ends in a zero-padded pair and n off the 16-column
// sliver grid, and k / n crossing the kc / jc panel edges.
const std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> kInt16Shapes = {
    {1, 1, 1},     {1, 5, 3},     {3, 257, 5},   {4, 64, 16},    {7, 513, 300},
    {8, 768, 96},  {9, 37, 45},   {13, 2, 130},  {15, 129, 70},  {16, 255, 100},
    {17, 513, 87}, {24, 31, 530}, {31, 257, 47}, {32, 300, 521}, {33, 99, 150},
    {48, 65, 200}, {64, 301, 38},
};

TEST(PackedBInt16, RoundTripsEveryElementAcrossShapes) {
  // The selected tier's layout, and the AMX tier's byte-split layout on
  // every host (packing it needs no AMX instruction).
  using tensor::kernels::detail::PanelPacker;
  Rng rng(77);
  for (const auto& [m, k, n] : kInt16Shapes) {
    (void)m;
    const auto b = random_i16(k * n, rng, -32768, 32767);
    for (const auto& packed :
         {tensor::kernels::PackedBInt16::pack(b.data(), k, n),
          PanelPacker::owned(b.data(), k, n, 16, tensor::kernels::kByteSplitGroup)}) {
      ASSERT_EQ(packed.k(), k);
      ASSERT_EQ(packed.n(), n);
      for (std::size_t kk = 0; kk < k; ++kk)
        for (std::size_t j = 0; j < n; ++j)
          ASSERT_EQ(packed.at(kk, j), b[kk * n + j])
              << "group=" << packed.group() << " k=" << kk << " j=" << j;
    }
  }
}

TEST(PackedBInt16, ByteSplitPanelsHoldTheTileOperandLayout) {
  // tdpb*d's B operand: per 64-step k block of a 16-column sliver a hi tile,
  // then a lo tile, 16 rows x 64 bytes; byte (r, c, e) of block kb in
  // sliver j is the high (low) byte of B[64 kb + 4 r + e][16 j + c].
  constexpr std::size_t k = 200, n = 40;
  Rng rng(86);
  const auto b = random_i16(k * n, rng, -32768, 32767);
  const auto packed = tensor::kernels::detail::PanelPacker::owned(
      b.data(), k, n, 16, tensor::kernels::kByteSplitGroup);
  ASSERT_LE(k, tensor::kernels::kKC);  // one kc panel: a sliver's blocks are contiguous
  const auto* bytes = reinterpret_cast<const unsigned char*>(packed.panel(0, 0));
  const std::size_t kcp = 256;  // k rounded up to whole 64-step blocks
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t kb = 0; kb < kcp / 64; ++kb)
      for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 16; ++c)
          for (std::size_t e = 0; e < 4; ++e) {
            const std::size_t kk = 64 * kb + 4 * r + e, col = 16 * j + c;
            const auto v = kk < k && col < n ? static_cast<std::uint16_t>(b[kk * n + col]) : 0;
            const unsigned char* hi = bytes + j * kcp * 16 * 2 + kb * 2048 + r * 64 + c * 4 + e;
            ASSERT_EQ(hi[0], v >> 8) << "kk=" << kk << " col=" << col;
            ASSERT_EQ(hi[1024], v & 0xFF) << "kk=" << kk << " col=" << col;
          }
}

TEST(GemmInt16, PackedAccumulatorsMatchReferenceAcrossShapes) {
  Rng rng(78);
  for (const auto& [m, k, n] : kInt16Shapes) {
    const auto a = random_i16(m * k, rng);
    const auto b = random_i16(k * n, rng);
    std::vector<std::int32_t> ref(m * n), acc(m * n);
    tensor::kernels::gemm_int16_reference(a.data(), b.data(), ref.data(), m, k, n);
    const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
    tensor::kernels::gemm_packed_int16_acc(a.data(), packed, acc.data(), m);
    ASSERT_EQ(acc, ref) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmInt16, EveryTierMatchesTheReferenceRawForRaw) {
  // The bit-exactness half of the contract: each tile this host can run —
  // not only the one CPUID selected — must reproduce the reference's wrapped
  // accumulators raw for raw. Full-range operands so wrap actually occurs
  // on the big shapes.
  Rng rng(79);
  const auto tiers = runnable_int16_tiers();
  for (const auto& [m, k, n] : kInt16Shapes) {
    const auto a = random_i16(m * k, rng, -32768, 32767);
    const auto b = random_i16(k * n, rng, -32768, 32767);
    std::vector<std::int32_t> ref(m * n);
    tensor::kernels::gemm_int16_reference(a.data(), b.data(), ref.data(), m, k, n);
    for (Int16Tier tier : tiers) {
      std::vector<std::int32_t> acc(m * n, -1);
      tensor::kernels::detail::gemm_int16_acc_on_tier(tier, a.data(), b.data(), acc.data(),
                                                      m, k, n);
      ASSERT_EQ(acc, ref) << "tier=" << tensor::kernels::detail::int16_tier_name(tier)
                          << " m=" << m << " k=" << k << " n=" << n;
    }
  }
}

TEST(GemmInt16, SelectedTierIsTheFastestRunnable) {
  // CPUID picks the fastest runnable tier; its name is what
  // int16_kernel_name() reports and what the bench artifacts record.
  const auto tiers = runnable_int16_tiers();
  EXPECT_STREQ(tensor::kernels::int16_kernel_name(),
               tensor::kernels::detail::int16_tier_name(tiers.back()));
  EXPECT_EQ(tensor::kernels::detail::selected_int16_tier(), tiers.back());
  EXPECT_EQ(tensor::kernels::sliver_width_int16(),
            tiers.back() >= Int16Tier::kAvx512bw ? 16u : 8u);
  EXPECT_EQ(tensor::kernels::k_group_int16(),
            tiers.back() == Int16Tier::kAmx ? tensor::kernels::kByteSplitGroup : 2u);
  EXPECT_EQ(tensor::kernels::PackedBInt16::pack(nullptr, 0, 0).group(),
            tensor::kernels::k_group_int16());
  // A host whose kernel exposes AMX-INT8 grants the tile state on request,
  // so the tier must be there to test.
  if (host_reports_amx_int8()) {
    EXPECT_EQ(tiers.back(), Int16Tier::kAmx) << "AMX host, AMX tier not runnable";
  }
}

/// The AMX tier's arithmetic on scalars: each int16 operand split as
/// 256 * hi + lo (hi = x >> 8 signed, lo = x & 0xFF unsigned), three
/// wrapping uint32 accumulators for hi*hi, hi*lo + lo*hi and lo*lo, then
/// (hh << 16) + (cross << 8) + ll. Runs on every host, so the rule the tile
/// unit executes is checked where the tile unit is missing.
std::vector<std::int32_t> byte_split_gemm(const std::vector<std::int16_t>& a,
                                          const std::vector<std::int16_t>& b, std::size_t m,
                                          std::size_t k, std::size_t n) {
  const auto hi = [](std::int16_t x) { return static_cast<std::int32_t>(x >> 8); };
  const auto lo = [](std::int16_t x) { return static_cast<std::int32_t>(x & 0xFF); };
  std::vector<std::int32_t> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::uint32_t hh = 0, cross = 0, ll = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const std::int16_t x = a[i * k + kk];
        const std::int16_t y = b[kk * n + j];
        hh += static_cast<std::uint32_t>(hi(x) * hi(y));
        cross += static_cast<std::uint32_t>(hi(x) * lo(y));
        cross += static_cast<std::uint32_t>(lo(x) * hi(y));
        ll += static_cast<std::uint32_t>(lo(x) * lo(y));
      }
      c[i * n + j] = static_cast<std::int32_t>((hh << 16) + (cross << 8) + ll);
    }
  }
  return c;
}

TEST(GemmInt16, ByteSplitRuleMatchesTheReferenceOnEveryHost) {
  Rng rng(84);
  for (const auto& [m, k, n] : kInt16Shapes) {
    const auto a = random_i16(m * k, rng, -32768, 32767);
    const auto b = random_i16(k * n, rng, -32768, 32767);
    std::vector<std::int32_t> ref(m * n);
    tensor::kernels::gemm_int16_reference(a.data(), b.data(), ref.data(), m, k, n);
    ASSERT_EQ(byte_split_gemm(a, b, m, k, n), ref) << "m=" << m << " k=" << k << " n=" << n;
  }
  // Every pairing of the byte edges: the rails, -1 (hi -1, lo 255), 255 and
  // 256 (a carry into hi), summed over k = 2 so (-32768)^2 * 2 = 2^31 wraps.
  const std::vector<std::int16_t> edges = {-32768, -32767, -257, -256, -1, 0,
                                           1,      127,    128,  255,  256, 32767};
  const std::size_t e = edges.size();
  std::vector<std::int16_t> a(e * 2), b(2 * e);
  for (std::size_t i = 0; i < e; ++i) a[2 * i] = a[2 * i + 1] = edges[i];
  for (std::size_t j = 0; j < e; ++j) b[j] = b[e + j] = edges[j];
  std::vector<std::int32_t> ref(e * e);
  tensor::kernels::gemm_int16_reference(a.data(), b.data(), ref.data(), e, 2, e);
  EXPECT_EQ(ref[0], std::numeric_limits<std::int32_t>::min());  // the 2^31 pair
  EXPECT_EQ(byte_split_gemm(a, b, e, 2, e), ref);
}

TEST(GemmInt16, AccumulatorWrapsMod32AtTheBoundary) {
  // Worst-case pair product: (-32768)*(-32768) + (-32768)*(-32768) = 2^31,
  // which wraps to INT32_MIN in one pmaddwd, and in one vpdpwssd (the
  // non-saturating VNNI form) — the documented wrap-not-saturate behaviour
  // of the accumulation domain. The reference and every tier must agree on
  // the wrapped bits.
  const std::size_t k = 2, n = 1;
  const std::int16_t lowest = std::numeric_limits<std::int16_t>::lowest();
  const std::vector<std::int16_t> a = {lowest, lowest};
  const std::vector<std::int16_t> b = {lowest, lowest};
  std::vector<std::int32_t> ref(1), acc(1);
  tensor::kernels::gemm_int16_reference(a.data(), b.data(), ref.data(), 1, k, n);
  EXPECT_EQ(ref[0], std::numeric_limits<std::int32_t>::min());
  const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
  tensor::kernels::gemm_packed_int16_acc(a.data(), packed, acc.data(), 1);
  EXPECT_EQ(acc[0], ref[0]);
  for (Int16Tier tier : runnable_int16_tiers()) {
    acc[0] = 0;
    tensor::kernels::detail::gemm_int16_acc_on_tier(tier, a.data(), b.data(), acc.data(), 1,
                                                    k, n);
    EXPECT_EQ(acc[0], ref[0]) << tensor::kernels::detail::int16_tier_name(tier);
  }
}

TEST(GemmInt16, StoreMatchesTheScalarRuleAtTheEdges) {
  // Drive the tile store with accumulators placed at the int32 rails and at
  // the rounding / saturation boundaries, against biases at the int32
  // rails, for every epilogue kind and shifts 0, 9 and 14, on every tier
  // (the AVX-512 tiers run the int64-lane vector store, the others the
  // scalar one). With A rows +-[32767, 32767, 32767, 1], column j's
  // accumulator is +-(32767 * (b0 + b1 + b2) + b3): any int32 value on the
  // even rows, its wrapped negation on the odd ones.
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  const std::vector<std::int32_t> targets = {
      kMax,        kMax - 1,   kMin,     kMin + 1,   0,          1,
      -1,          255,        256,      257,        -256,       -257,
      8191,        8192,       -8192,    -8193,      16383,      16384,
      -16385,      32767 << 9, (32767 << 9) + 256,   -(32768 << 9),
      -(32768 << 9) - 257,     1 << 30,  -(1 << 30), (32767 << 14) + 8191,
      -(32767 << 14) - 8193,   1 << 28,  123456789,  -987654321};
  const std::size_t k = 4;
  const std::size_t n = targets.size();
  std::vector<std::int16_t> b(k * n);
  for (std::size_t j = 0; j < n; ++j) {
    // target = 32767 * q + r with |r| <= 16383; q is split over b0..b2.
    const std::int64_t t = targets[j];
    std::int64_t q = (t + (t >= 0 ? 16383 : -16383)) / 32767;
    const std::int64_t r = t - 32767 * q;
    ASSERT_LE(std::abs(r), 32767);
    for (std::size_t kk = 0; kk < 3; ++kk) {
      const std::int64_t part = std::clamp<std::int64_t>(q, -32768, 32767);
      b[kk * n + j] = static_cast<std::int16_t>(part);
      q -= part;
    }
    ASSERT_EQ(q, 0);
    b[3 * n + j] = static_cast<std::int16_t>(r);
  }
  const std::size_t m = 18;  // a 16-row tile plus a 2-row remainder
  std::vector<std::int16_t> a(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    const int sign = i % 2 == 0 ? 1 : -1;
    a[i * k + 0] = a[i * k + 1] = a[i * k + 2] = static_cast<std::int16_t>(32767 * sign);
    a[i * k + 3] = static_cast<std::int16_t>(sign);
  }
  std::vector<std::int32_t> acc(m * n);
  tensor::kernels::gemm_int16_reference(a.data(), b.data(), acc.data(), m, k, n);
  for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(acc[j], targets[j]) << "column " << j;

  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  const std::vector<std::int32_t> bias_cycle = {0, kMax, kMin, -1, 1, 1 << 29, -(1 << 29)};
  const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
  const auto tiers = runnable_int16_tiers();
  for (std::size_t rot = 0; rot < bias_cycle.size(); ++rot) {
    std::vector<std::int32_t> bias(n);
    for (std::size_t j = 0; j < n; ++j) bias[j] = bias_cycle[(j + rot) % bias_cycle.size()];
    for (const int shift : {0, 9, 14}) {
      for (const auto kind : {EpilogueInt16::Kind::kNone, EpilogueInt16::Kind::kBias,
                              EpilogueInt16::Kind::kBiasRelu,
                              EpilogueInt16::Kind::kBiasTable}) {
        EpilogueInt16 epi;
        epi.kind = kind;
        epi.bias = bias.data();
        epi.shift = shift;
        epi.table_eval = &nn::segment_table_batch_eval;
        epi.table = &table;
        std::vector<std::int16_t> expect(m * n);
        for (std::size_t i = 0; i < m * n; ++i)
          expect[i] = epilogue_rule(acc[i], i % n, epi, table);
        std::vector<std::int16_t> got(m * n);
        tensor::kernels::gemm_packed_int16(a.data(), packed, got.data(), m, epi);
        ASSERT_EQ(got, expect) << "dispatched kind=" << static_cast<int>(kind)
                               << " shift=" << shift << " rot=" << rot;
        for (Int16Tier tier : tiers) {
          std::fill(got.begin(), got.end(), std::int16_t{-7});
          tensor::kernels::detail::gemm_int16_on_tier(tier, a.data(), b.data(), got.data(), m,
                                                      k, n, epi);
          ASSERT_EQ(got, expect) << tensor::kernels::detail::int16_tier_name(tier)
                                 << " kind=" << static_cast<int>(kind) << " shift=" << shift
                                 << " rot=" << rot;
        }
      }
    }
  }
}

TEST(GemmInt16, RequantizeSaturatesLikeSaturateI16) {
  using tensor::kernels::requantize_i32;
  // Pure saturation at shift 0: the int32 rails clamp to the int16 rails.
  EXPECT_EQ(requantize_i32(std::numeric_limits<std::int32_t>::max(), 0), 32767);
  EXPECT_EQ(requantize_i32(std::numeric_limits<std::int32_t>::min(), 0), -32768);
  EXPECT_EQ(requantize_i32(32767, 0), 32767);
  EXPECT_EQ(requantize_i32(32768, 0), 32767);
  EXPECT_EQ(requantize_i32(-32768, 0), -32768);
  EXPECT_EQ(requantize_i32(-32769, 0), -32768);
  // saturate_i16 round-trip at +/- max: already-saturated values are fixed
  // points.
  EXPECT_EQ(fixed::saturate_i16(fixed::saturate_i16(1 << 20)), 32767);
  EXPECT_EQ(fixed::saturate_i16(fixed::saturate_i16(-(1 << 20))), -32768);
  // Round-half-up at the shift boundary, matching Accumulator::result():
  // (v + 2^(s-1)) >> s in int64 (the rounding add cannot overflow int32
  // semantics because it happens at 64 bits).
  EXPECT_EQ(requantize_i32(511, 9), 1);   // 511 + 256 = 767 -> 1
  EXPECT_EQ(requantize_i32(255, 9), 0);   // 255 + 256 = 511 -> 0
  EXPECT_EQ(requantize_i32(256, 9), 1);   // exactly half rounds up
  EXPECT_EQ(requantize_i32(-256, 9), 0);  // -256 + 256 = 0
  EXPECT_EQ(requantize_i32(-257, 9), -1);
  // The rounding add on INT32_MAX would overflow int32; the int64 widening
  // makes it saturate cleanly instead of UB.
  EXPECT_EQ(requantize_i32(std::numeric_limits<std::int32_t>::max(), 1),
            32767);
  // Near-rail requantization: values that shift down to exactly the rails.
  EXPECT_EQ(requantize_i32(32767 << 9, 9), 32767);
  EXPECT_EQ(requantize_i32(-(32768 << 9), 9), -32768);
  EXPECT_EQ(requantize_i32((32767 << 9) + 300, 9), 32767);  // saturates, not wraps
  // Sweep agreement with Accumulator::result()'s write-back formula.
  Rng rng(80);
  for (int i = 0; i < 1000; ++i) {
    const auto v = static_cast<std::int32_t>(std::lround(rng.uniform(-6e6, 6e6)));
    const std::int64_t rounded = (std::int64_t{v} + 256) >> 9;
    EXPECT_EQ(requantize_i32(v, 9), fixed::saturate_i16(rounded));
  }
}

TEST(GemmInt16, FusedEpilogueMatchesUnfusedComposition) {
  // bias -> requantize -> activation fused in the micro-tile store must equal
  // the same steps applied to the raw accumulators afterwards — including
  // the CPWL table evaluated through its INT16 path — on the dispatched
  // path and on every tier this host can run.
  Rng rng(81);
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  const auto tiers = runnable_int16_tiers();
  for (const auto& [m, k, n] : kInt16Shapes) {
    const auto a = random_i16(m * k, rng, -512, 512);
    const auto b = random_i16(k * n, rng, -512, 512);
    const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
    std::vector<std::int32_t> bias(n);
    for (auto& e : bias) e = static_cast<std::int32_t>(std::lround(rng.uniform(-5e4, 5e4)));
    std::vector<std::int32_t> acc(m * n);
    tensor::kernels::gemm_int16_reference(a.data(), b.data(), acc.data(), m, k, n);

    for (const auto kind : {EpilogueInt16::Kind::kBias, EpilogueInt16::Kind::kBiasRelu,
                            EpilogueInt16::Kind::kBiasTable}) {
      EpilogueInt16 epi;
      epi.kind = kind;
      epi.bias = bias.data();
      epi.shift = 9;
      if (kind == EpilogueInt16::Kind::kBiasTable) {
        epi.table_eval = &nn::segment_table_batch_eval;
        epi.table = &table;
      }
      std::vector<std::int16_t> unfused(m * n);
      for (std::size_t i = 0; i < unfused.size(); ++i)
        unfused[i] = epilogue_rule(acc[i], i % n, epi, table);
      // Poisoned before every run so a store that skips an element shows.
      std::vector<std::int16_t> fused(m * n, std::int16_t{-7});
      tensor::kernels::gemm_packed_int16(a.data(), packed, fused.data(), m, epi);
      ASSERT_EQ(fused, unfused) << "kind=" << static_cast<int>(kind) << " m=" << m
                                << " k=" << k << " n=" << n;
      for (Int16Tier tier : tiers) {
        std::fill(fused.begin(), fused.end(), std::int16_t{-7});
        tensor::kernels::detail::gemm_int16_on_tier(tier, a.data(), b.data(), fused.data(), m,
                                                    k, n, epi);
        ASSERT_EQ(fused, unfused) << tensor::kernels::detail::int16_tier_name(tier)
                                  << " kind=" << static_cast<int>(kind) << " m=" << m
                                  << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(GemmInt16, RowSlicedAcrossThreadsMatchesTheReference) {
  // Large enough to fan out over the kernel pool on a multi-core host: the
  // row slices (whole 8-row blocks, each running its own tall/short tile
  // split) must reproduce the single reference bit for bit.
  Rng rng(83);
  const std::size_t m = 45, k = 517, n = 1100;
  const auto a = random_i16(m * k, rng);
  const auto b = random_i16(k * n, rng);
  std::vector<std::int32_t> acc(m * n);
  tensor::kernels::gemm_int16_reference(a.data(), b.data(), acc.data(), m, k, n);
  std::vector<std::int32_t> bias(n);
  for (auto& e : bias) e = static_cast<std::int32_t>(std::lround(rng.uniform(-5e5, 5e5)));
  EpilogueInt16 epi;
  epi.kind = EpilogueInt16::Kind::kBiasRelu;
  epi.bias = bias.data();
  epi.shift = 11;
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  std::vector<std::int16_t> expect(m * n);
  for (std::size_t i = 0; i < expect.size(); ++i)
    expect[i] = epilogue_rule(acc[i], i % n, epi, table);
  const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
  std::vector<std::int16_t> got(m * n);
  tensor::kernels::gemm_packed_int16(a.data(), packed, got.data(), m, epi);
  EXPECT_EQ(got, expect) << "threads=" << tensor::kernels::gemm_threads(m, k, n, sizeof(std::int16_t));
}

TEST(ThreadPool, FanningOutGemmsAllocateNothingOnTheCaller) {
  // A GEMM that fans out hands the shared pool slice_rows' lambda, which
  // captures three references — past std::function's inline buffer. The
  // pool references the callable instead of owning it, so after warm-up
  // neither lane's GEMM allocates on the calling thread, at any lane count
  // (CI runs this suite with ONESA_KERNEL_THREADS=4).
  namespace kernels = tensor::kernels;
  constexpr std::size_t m = 64, k = 768, n = 768;
  if (kernels::ThreadPool::instance().effective_threads() > 1 && !kernels::deterministic()) {
    ASSERT_GT(kernels::gemm_threads(m, k, n), 1u);
    ASSERT_GT(kernels::gemm_threads(m, k, n, sizeof(std::int16_t)), 1u);
  }
  Rng rng(85);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  const auto packed = kernels::PackedB::pack(b.data().data(), k, n);
  Matrix c(m, n);
  const auto a16 = random_i16(m * k, rng);
  const auto b16 = random_i16(k * n, rng);
  const auto packed16 = kernels::PackedBInt16::pack(b16.data(), k, n);
  std::vector<std::int16_t> c16(m * n);
  const auto calls = [&] {
    kernels::gemm_packed(a.data().data(), packed, c.data().data(), m);
    kernels::gemm_packed_int16(a16.data(), packed16, c16.data(), m);
  };
  {
    // Warm this thread's pack scratch for a whole call: which row slices the
    // caller ends up running varies from call to call, and any of them fits.
    auto& pool = kernels::ThreadPool::instance();
    const kernels::ThreadPool::ScopedReserve one_lane(pool, pool.threads() - 1);
    calls();
  }
  calls();
  const std::uint64_t before = alloccount::thread_allocations();
  for (int i = 0; i < 10; ++i) calls();
  EXPECT_EQ(alloccount::thread_allocations() - before, 0u);
}

TEST(GemmInt16, ResultsAreRowStableUnderStacking) {
  // Integer accumulation cannot reassociate, so a row's outputs are
  // identical whether inferred alone or stacked into a batch — the int16
  // analogue of the double lane's row-stability guarantee, and the property
  // the serve tier's batcher relies on.
  Rng rng(82);
  const std::size_t m = 11, k = 300, n = 47;
  const auto a = random_i16(m * k, rng);
  const auto b = random_i16(k * n, rng);
  const auto packed = tensor::kernels::PackedBInt16::pack(b.data(), k, n);
  tensor::kernels::EpilogueInt16 epi;
  epi.kind = tensor::kernels::EpilogueInt16::Kind::kNone;
  epi.shift = 9;
  std::vector<std::int16_t> stacked(m * n);
  tensor::kernels::gemm_packed_int16(a.data(), packed, stacked.data(), m, epi);
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<std::int16_t> solo(n);
    tensor::kernels::gemm_packed_int16(a.data() + r * k, packed, solo.data(), 1, epi);
    for (std::size_t j = 0; j < n; ++j) ASSERT_EQ(solo[j], stacked[r * n + j]);
  }
}

TEST(GemmInt16, ZeroInnerDimSaturatesBiasOnly) {
  // k = 0: accumulators are all zero, so the output is exactly the
  // requantized bias — and an empty PackedBInt16 stays well-formed.
  const auto packed = tensor::kernels::PackedBInt16::pack(nullptr, 0, 3);
  EXPECT_TRUE(packed.empty());
  std::vector<std::int32_t> bias = {512, -1024, 1 << 28};
  tensor::kernels::EpilogueInt16 epi;
  epi.kind = tensor::kernels::EpilogueInt16::Kind::kBias;
  epi.bias = bias.data();
  epi.shift = 9;
  std::vector<std::int16_t> c(2 * 3, -1);
  tensor::kernels::gemm_packed_int16(nullptr, packed, c.data(), 2, epi);
  const std::vector<std::int16_t> expect = {1, -2, 32767, 1, -2, 32767};
  EXPECT_EQ(c, expect);
}

}  // namespace
}  // namespace onesa
