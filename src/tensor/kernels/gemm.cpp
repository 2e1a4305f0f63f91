#include "tensor/kernels/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ONESA_GEMM_X86_KERNELS 1
#endif

#include "common/error.hpp"
#include "tensor/kernels/lane.hpp"

namespace onesa::tensor::kernels {

namespace {

using detail::round_up;

/// Problems whose PER-ROW work (k * n MACs) is below this take the
/// reference-order loop (row-sliced over the pool when m alone makes the
/// problem big): packing overhead dominates before the blocked path can
/// win on such skinny rows. The criterion is deliberately independent of m
/// so that stacking extra rows onto a GEMM never changes which kernel path
/// — and therefore which bit pattern — a given row's result takes. The
/// serving tier's dynamic batcher relies on this: a request served inside a
/// tall batched matmul must be bit-identical to the same request served
/// alone (blocked results are per-row position-independent, see
/// gemm_blocked; this keeps the reference/blocked dispatch row-stable too).
/// Kept small (8x8) so real workload shapes — e.g. conv im2col GEMMs with
/// k*n in the hundreds — stay on the blocked SIMD path at any m.
/// gemm_packed() uses the identical criterion, so the packed path is
/// row-stable by the same argument.
constexpr std::size_t kTinyRowMacs = 8 * 8;

/// Minimum double MACs per lane before a GEMM fans out (gemm_threads).
constexpr std::size_t kMacsPerThread = 1u << 20;

/// Row-block heights: the pack-as-you-go path keeps its A block (64 x kKC,
/// 128 KB) next to the B panel it is packing; with B already packed there is
/// no such locality to protect, so a taller block (128 x kKC = 256 KB,
/// still L2-resident) halves how often each packed B panel is re-streamed
/// from L3 for short serving batches. Pure traversal parameters — bits are
/// unaffected.
constexpr std::size_t kMC = 64;
constexpr std::size_t kMCPacked = 128;

// ---------------------------------------------------------- micro-kernels
//
// A micro-kernel computes acc[mr x nr] = sum_p ap[p][:] (outer) bp[p][:]
// over mr-tall A slivers and nr-wide B slivers, accumulators held in
// registers across the whole k-panel — this is where the speedup over the
// reference loop comes from (the reference re-reads and re-writes the C row
// every k step). Which tile runs is picked once at startup from CPUID, the
// same runtime-dispatch scheme BLAS libraries use, so no special build flags
// are needed and the portable tile remains the fallback.
//
// Numerics: every tile accumulates each output element in the same
// ascending-k order as the reference, so for finite inputs the only
// divergence is rounding — k-panel partial sums are added back
// panel-by-panel (reassociation) and the x86 tiles fuse the multiply+add
// (FMA). Both effects stay inside the documented 1e-12 relative envelope.
// (Non-finite operands are outside the contract: the reference's aik==0
// skip can hide 0*Inf/NaN products the blocked kernels would surface.)
// Deterministic mode bypasses the micro-kernels entirely.
//
// Prefetch: a model weight's panels are far larger than L2 and are read once
// per forward, so at serving row counts the GEMM is a stream of B from
// memory, limited by the TLB (the pool maps weights on 2 MiB pages, see
// buffer_pool.hpp) and by how far ahead B is fetched. blocked_compute hands
// the first tile row of each sliver the next sliver's base (null after a
// panel's last sliver, so nothing past the panel is touched), and the x86
// tiles pull it into L2 while they compute. Measured single lane on a
// 4-vCPU AVX-512 Xeon, the 768-3072-768 double FFN with four models in
// rotation (151 MB of panels, streamed from DRAM), 2 MiB pages, per-call
// interleaved medians against a tile that prefetched one line 8 steps ahead
// at T0: both lines at T0 gave 0.94x / 0.96x / 0.99x at 1 / 16 / 64 rows,
// both lines plus the next sliver 0.83x / 0.90x / 0.97x; on the AVX2 tile
// the next-sliver prefetch alone gave 0.77x / 0.88x / 0.97x. Bits are
// unchanged: prefetches only move lines between caches.

/// A tile: (ap, bp, bnext, kc, acc). `bnext` is the B sliver the caller
/// runs next (null when none), which a tile may prefetch while it computes.
using MicroKernelFn = void (*)(const double*, const double*, const double*, std::size_t,
                               double*);

/// Full-tile store hook of a tile set (nullptr = scalar store loops).
/// The enumerator values are load-bearing: implementations decode
/// accumulate with `mode & 1` and the epilogue tiers with ordered
/// comparisons, so keep the copy/accum pairs adjacent and in this order.
enum StoreMode : int {
  kStoreCopy = 0,
  kStoreAccum = 1,
  kStoreCopyBias = 2,
  kStoreAccumBias = 3,
  kStoreCopyBiasRelu = 4,
  kStoreAccumBiasRelu = 5,
};
using StoreTileFn = void (*)(double* c, std::size_t ldc, const double* acc, int mode,
                             const double* bias);

/// Portable 4x8 tile. The accumulator tile is a local array (not the
/// caller's buffer): the compiler then knows it cannot alias the packed
/// inputs and keeps the accumulators in vector registers.
void micro_kernel_generic(const double* __restrict ap, const double* __restrict bp,
                          const double* /*bnext*/, std::size_t kc,
                          double* __restrict acc_out) {
  constexpr std::size_t MR = 4;
  constexpr std::size_t nr = 8;
  double acc[MR * nr];
  for (std::size_t i = 0; i < MR * nr; ++i) acc[i] = 0.0;
  for (std::size_t p = 0; p < kc; ++p) {
    const double* __restrict av = ap + p * MR;
    const double* __restrict bv = bp + p * nr;
    for (std::size_t r = 0; r < MR; ++r) {
      const double ar = av[r];
      double* __restrict accr = acc + r * nr;
      for (std::size_t cc = 0; cc < nr; ++cc) accr[cc] += ar * bv[cc];
    }
  }
  for (std::size_t i = 0; i < MR * nr; ++i) acc_out[i] = acc[i];
}

#ifdef ONESA_GEMM_X86_KERNELS
/// Hand-scheduled 4x8 AVX2+FMA tile: 8 ymm accumulators (4 rows x 2
/// 4-double vectors), one broadcast per A element, two B vector loads per k
/// step — 13 live ymm registers, no spills. Each k step reads one cache line
/// of the sliver; the tile pulls the matching line of the next sliver into
/// L2 (the AVX-512 tile's T0 half measured no further gain here).
__attribute__((target("avx2,fma"))) void micro_kernel_avx2(const double* __restrict ap,
                                                           const double* __restrict bp,
                                                           const double* bnext,
                                                           std::size_t kc,
                                                           double* __restrict acc_out) {
  constexpr std::size_t nr = 8;
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    if (bnext != nullptr)
      _mm_prefetch(reinterpret_cast<const char*>(bnext + p * nr), _MM_HINT_T1);
    const __m256d b0 = _mm256_loadu_pd(bp + p * nr);
    const __m256d b1 = _mm256_loadu_pd(bp + p * nr + 4);
    __m256d a = _mm256_broadcast_sd(ap + p * 4 + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ap + p * 4 + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ap + p * 4 + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ap + p * 4 + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
  }
  _mm256_storeu_pd(acc_out + 0, c00);
  _mm256_storeu_pd(acc_out + 4, c01);
  _mm256_storeu_pd(acc_out + 8, c10);
  _mm256_storeu_pd(acc_out + 12, c11);
  _mm256_storeu_pd(acc_out + 16, c20);
  _mm256_storeu_pd(acc_out + 20, c21);
  _mm256_storeu_pd(acc_out + 24, c30);
  _mm256_storeu_pd(acc_out + 28, c31);
}

/// 8x16 AVX-512 tile: 16 zmm accumulators (8 rows x 2 8-double vectors),
/// 19 live zmm registers out of 32 — enough accumulators in flight to hide
/// the FMA latency fully, and one B sliver load per 8 rows. Per output
/// element the k-loop order is the AVX2 tile's, so the two agree bit for
/// bit; the tile height only groups rows.
__attribute__((target("avx512f"))) void micro_kernel_avx512_8x16(
    const double* __restrict ap, const double* __restrict bp, const double* bnext,
    std::size_t kc, double* __restrict acc_out) {
  constexpr std::size_t nr = 16;
  constexpr std::size_t mr = 8;
  __m512d c00 = _mm512_setzero_pd(), c01 = _mm512_setzero_pd();
  __m512d c10 = _mm512_setzero_pd(), c11 = _mm512_setzero_pd();
  __m512d c20 = _mm512_setzero_pd(), c21 = _mm512_setzero_pd();
  __m512d c30 = _mm512_setzero_pd(), c31 = _mm512_setzero_pd();
  __m512d c40 = _mm512_setzero_pd(), c41 = _mm512_setzero_pd();
  __m512d c50 = _mm512_setzero_pd(), c51 = _mm512_setzero_pd();
  __m512d c60 = _mm512_setzero_pd(), c61 = _mm512_setzero_pd();
  __m512d c70 = _mm512_setzero_pd(), c71 = _mm512_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    // Each k step reads two cache lines of the sliver. Stay 8 steps (1 KiB)
    // ahead of this sliver at T0, both lines, to hide the L2->L1 latency the
    // 16-FMA body cannot; and pull the next sliver into L2 at the same rate,
    // so it streams from memory while this one computes.
    _mm_prefetch(reinterpret_cast<const char*>(bp + (p + 8) * nr), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(bp + (p + 8) * nr + 8), _MM_HINT_T0);
    if (bnext != nullptr) {
      _mm_prefetch(reinterpret_cast<const char*>(bnext + p * nr), _MM_HINT_T1);
      _mm_prefetch(reinterpret_cast<const char*>(bnext + p * nr + 8), _MM_HINT_T1);
    }
    const __m512d b0 = _mm512_loadu_pd(bp + p * nr);
    const __m512d b1 = _mm512_loadu_pd(bp + p * nr + 8);
    __m512d a = _mm512_set1_pd(ap[p * mr + 0]);
    c00 = _mm512_fmadd_pd(a, b0, c00);
    c01 = _mm512_fmadd_pd(a, b1, c01);
    a = _mm512_set1_pd(ap[p * mr + 1]);
    c10 = _mm512_fmadd_pd(a, b0, c10);
    c11 = _mm512_fmadd_pd(a, b1, c11);
    a = _mm512_set1_pd(ap[p * mr + 2]);
    c20 = _mm512_fmadd_pd(a, b0, c20);
    c21 = _mm512_fmadd_pd(a, b1, c21);
    a = _mm512_set1_pd(ap[p * mr + 3]);
    c30 = _mm512_fmadd_pd(a, b0, c30);
    c31 = _mm512_fmadd_pd(a, b1, c31);
    a = _mm512_set1_pd(ap[p * mr + 4]);
    c40 = _mm512_fmadd_pd(a, b0, c40);
    c41 = _mm512_fmadd_pd(a, b1, c41);
    a = _mm512_set1_pd(ap[p * mr + 5]);
    c50 = _mm512_fmadd_pd(a, b0, c50);
    c51 = _mm512_fmadd_pd(a, b1, c51);
    a = _mm512_set1_pd(ap[p * mr + 6]);
    c60 = _mm512_fmadd_pd(a, b0, c60);
    c61 = _mm512_fmadd_pd(a, b1, c61);
    a = _mm512_set1_pd(ap[p * mr + 7]);
    c70 = _mm512_fmadd_pd(a, b0, c70);
    c71 = _mm512_fmadd_pd(a, b1, c71);
  }
  _mm512_storeu_pd(acc_out + 0, c00);
  _mm512_storeu_pd(acc_out + 8, c01);
  _mm512_storeu_pd(acc_out + 16, c10);
  _mm512_storeu_pd(acc_out + 24, c11);
  _mm512_storeu_pd(acc_out + 32, c20);
  _mm512_storeu_pd(acc_out + 40, c21);
  _mm512_storeu_pd(acc_out + 48, c30);
  _mm512_storeu_pd(acc_out + 56, c31);
  _mm512_storeu_pd(acc_out + 64, c40);
  _mm512_storeu_pd(acc_out + 72, c41);
  _mm512_storeu_pd(acc_out + 80, c50);
  _mm512_storeu_pd(acc_out + 88, c51);
  _mm512_storeu_pd(acc_out + 96, c60);
  _mm512_storeu_pd(acc_out + 104, c61);
  _mm512_storeu_pd(acc_out + 112, c70);
  _mm512_storeu_pd(acc_out + 120, c71);
}
/// Vectorized full-tile store of the 8x16 tile: moves the
/// accumulator tile into C (copy or accumulate) with the bias / bias+ReLU
/// epilogue folded in, 16 zmm stores instead of 128 scalar ones. Element
/// op order matches the scalar store loops exactly (v = [c +] acc, then
/// + bias, then max with +0.0 — vmaxpd(v, 0) returns +0.0 for -0.0 and NaN
/// like the scalar `v > 0 ? v : 0`), so bits are unchanged.
// gcc 12's avx512fintrin.h trips -Wmaybe-uninitialized inside the masked
// _mm512_max_pd builtin (header-internal `__Y`, a known false positive —
// same family as the -Wrestrict one sidestepped in bench/table3); scope the
// suppression to this one function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void store_tile_avx512_8x16(double* c, std::size_t ldc,
                                                               const double* acc,
                                                               int mode,
                                                               const double* bias) {
  constexpr std::size_t nr = 16;
  const bool accum = (mode & 1) != 0;
  const bool has_bias = mode >= kStoreCopyBias;
  const bool relu = mode >= kStoreCopyBiasRelu;
  const __m512d zero = _mm512_setzero_pd();
  __m512d bias0 = zero, bias1 = zero;
  if (has_bias) {
    bias0 = _mm512_loadu_pd(bias);
    bias1 = _mm512_loadu_pd(bias + 8);
  }
  for (std::size_t r = 0; r < 8; ++r) {
    __m512d v0 = _mm512_loadu_pd(acc + r * nr);
    __m512d v1 = _mm512_loadu_pd(acc + r * nr + 8);
    double* crow = c + r * ldc;
    if (accum) {
      v0 = _mm512_add_pd(_mm512_loadu_pd(crow), v0);
      v1 = _mm512_add_pd(_mm512_loadu_pd(crow + 8), v1);
    }
    if (has_bias) {
      v0 = _mm512_add_pd(v0, bias0);
      v1 = _mm512_add_pd(v1, bias1);
    }
    if (relu) {
      v0 = _mm512_max_pd(v0, zero);
      v1 = _mm512_max_pd(v1, zero);
    }
    _mm512_storeu_pd(crow, v0);
    _mm512_storeu_pd(crow + 8, v1);
  }
}
#pragma GCC diagnostic pop
#endif  // ONESA_GEMM_X86_KERNELS

/// Widest micro-row height any tile uses (sizes the stack accumulator).
constexpr std::size_t kMaxMr = 8;

/// A tile set: tile function, tile height, B sliver width, an optional
/// vectorized full-tile store (nullptr = scalar store loops) and its name.
struct MicroKernel {
  MicroKernelFn fn;
  std::size_t mr;
  std::size_t nr;
  StoreTileFn store;
  const char* name;
};

/// `tier`'s tile set, or nullopt when this CPU cannot run it.
std::optional<MicroKernel> gemm_tiles(detail::GemmTier tier) {
  using detail::GemmTier;
  switch (tier) {
#ifdef ONESA_GEMM_X86_KERNELS
    case GemmTier::kAvx512:
      if (!__builtin_cpu_supports("avx512f")) break;
      return MicroKernel{micro_kernel_avx512_8x16, 8, 16, store_tile_avx512_8x16, "avx512f"};
    case GemmTier::kAvx2:
      if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma")) break;
      return MicroKernel{micro_kernel_avx2, 4, 8, nullptr, "avx2"};
#endif
    case GemmTier::kPortable:
      return MicroKernel{micro_kernel_generic, 4, 8, nullptr, "portable"};
    default:
      break;
  }
  return std::nullopt;
}

/// The fastest tile set this CPU runs, picked once by CPUID.
const MicroKernel g_micro = [] {
  using detail::GemmTier;
  for (GemmTier tier : {GemmTier::kAvx512, GemmTier::kAvx2})
    if (const auto tiles = gemm_tiles(tier)) return *tiles;
  return *gemm_tiles(GemmTier::kPortable);
}();

static_assert(kNC % kMaxNr == 0, "B panel width must hold whole slivers");

std::atomic<int> g_deterministic_override{-1};  // -1 = follow the environment

bool deterministic_from_env() {
  const char* env = std::getenv("ONESA_DETERMINISTIC_KERNELS");
  if (env == nullptr) return false;
  return env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
}

/// Epilogue pass over a whole output block, used by the reference-order
/// fallbacks (where the GEMM itself ran unfused). Element order matches the
/// unfused add_row_broadcast + activation sweeps exactly: bias add first,
/// then the activation (ReLU as v > 0 ? v : 0, which equals
/// cpwl::eval_reference(kRelu, v) bit for bit).
void apply_epilogue_block(double* c, std::size_t m, std::size_t n, const Epilogue& epi) {
  if (epi.kind == Epilogue::Kind::kNone) return;
  const bool relu = epi.kind == Epilogue::Kind::kBiasRelu;
  for (std::size_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double v = crow[j] + epi.bias[j];
      crow[j] = relu ? (v > 0.0 ? v : 0.0) : v;
    }
    if (epi.kind == Epilogue::Kind::kBiasTable) epi.table_eval(epi.table, crow, crow, n);
  }
}

/// The seed tensor::matmul loop nest (i-k-j, C zero-filled, ascending k)
/// over B element b_at(kk, j). gemm_reference reads B itself; gemm_packed's
/// fallbacks read it back out of the packed layout — the same doubles
/// (packing is loss-free), so the result is bit-identical either way.
template <typename BAt>
void reference_loop(const double* a, BAt&& b_at, double* c, std::size_t m, std::size_t k,
                    std::size_t n) {
  std::fill(c, c + m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = a[i * k + kk];
      if (aik == 0.0) continue;
      double* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * b_at(kk, j);
    }
  }
}

/// Pack A[ic:ic+mcb, kc:kc+kcb] into mr-tall slivers (column of the tile
/// contiguous per k step), zero-padded to whole micro-rows.
void pack_a_block(const double* a, std::size_t k, std::size_t ic, std::size_t kc,
                  std::size_t mcb, std::size_t kcb, std::size_t mr, double* dst_base) {
  for (std::size_t ir = 0; ir < mcb; ir += mr) {
    double* dst = dst_base + ir * kcb;
    const std::size_t h = std::min(mr, mcb - ir);
    for (std::size_t p = 0; p < kcb; ++p) {
      for (std::size_t r = 0; r < h; ++r) dst[p * mr + r] = a[(ic + ir + r) * k + kc + p];
      for (std::size_t r = h; r < mr; ++r) dst[p * mr + r] = 0.0;
    }
  }
}

/// The blocked loop nest, parameterized over where packed operands come
/// from:
///   b_panel_of(jc, kc, kcb, ncb) — base of that B panel's slivers (packed
///       as it goes by gemm_blocked, or a PackedB panel for the pack-once
///       path; both are the pack.hpp layout, so results are bit-identical
///       between the two);
///   a_block_of(ic, kc, mcb, kcb) — base of the packed A block (packed per
///       visit by gemm_blocked, or once per call for the pack-once path —
///       same layout, same bits, the traversal factor is the only
///       difference).
/// The epilogue, if any, is fused into the store of the LAST k-panel: each
/// output element receives bias+activation exactly once, after its full
/// k-sum is formed, in the same order the unfused composed ops would apply
/// them. A table activation is the one exception to per-tile fusion: the
/// tiles store v + bias, then the table's batch evaluator runs over each
/// row of the finished column block (still cache-hot), one call per row
/// instead of one indirect call per element.
template <typename BPanelFn, typename ABlockFn>
void blocked_compute(double* c, std::size_t m, std::size_t k, std::size_t n,
                     const Epilogue& epi, const MicroKernel& mk, std::size_t mc,
                     BPanelFn&& b_panel_of, ABlockFn&& a_block_of) {
  const MicroKernelFn micro = mk.fn;
  const std::size_t mr = mk.mr;
  const std::size_t nr = mk.nr;
  const bool table = epi.kind == Epilogue::Kind::kBiasTable;
  const Epilogue::Kind store_kind = table ? Epilogue::Kind::kBias : epi.kind;

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t ncb = std::min(kNC, n - jc);
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      const std::size_t kcb = std::min(kKC, k - kc);
      const bool first_panel = kc == 0;
      const bool last_panel = kc + kKC >= k;
      const double* bpack = b_panel_of(jc, kc, kcb, ncb);

      for (std::size_t ic = 0; ic < m; ic += mc) {
        const std::size_t mcb = std::min(mc, m - ic);
        const double* apack = a_block_of(ic, kc, mcb, kcb);

        for (std::size_t jr = 0; jr < ncb; jr += nr) {
          const double* bp = bpack + jr * kcb;
          // The sliver after this one, for the first tile row to prefetch;
          // null past the panel's last sliver, so nothing beyond it is read.
          const double* bnext = jr + nr < ncb ? bp + nr * kcb : nullptr;
          const std::size_t w = std::min(nr, ncb - jr);
          for (std::size_t ir = 0; ir < mcb; ir += mr) {
            const double* ap = apack + ir * kcb;
            const std::size_t h = std::min(mr, mcb - ir);
            double acc[kMaxMr * kMaxNr];
            micro(ap, bp, ir == 0 ? bnext : nullptr, kcb, acc);
            double* cdst = c + (ic + ir) * n + jc + jr;
            if (mk.store != nullptr && h == mr && w == nr) {
              // Full interior tile on a kernel with a vectorized store:
              // copy/accumulate (+ bias / + bias+ReLU) in 16 vector ops,
              // same element-wise op order as the scalar loops below.
              int mode;
              const double* brow = nullptr;
              if (last_panel && store_kind != Epilogue::Kind::kNone) {
                brow = epi.bias + jc + jr;
                mode = store_kind == Epilogue::Kind::kBiasRelu
                           ? (first_panel ? kStoreCopyBiasRelu : kStoreAccumBiasRelu)
                           : (first_panel ? kStoreCopyBias : kStoreAccumBias);
              } else {
                mode = first_panel ? kStoreCopy : kStoreAccum;
              }
              mk.store(cdst, n, acc, mode, brow);
            } else if (last_panel && store_kind != Epilogue::Kind::kNone) {
              // Specialized per-kind store loops: the switch is hoisted out
              // of the element sweep and the bias sliver is read through a
              // __restrict local, so the bias/ReLU epilogues stay
              // vectorizable instead of reloading epi per element.
              const double* __restrict bias = epi.bias + jc + jr;
              switch (store_kind) {
                case Epilogue::Kind::kBias:
                  for (std::size_t r = 0; r < h; ++r)
                    for (std::size_t cc = 0; cc < w; ++cc) {
                      const double v = first_panel
                                           ? acc[r * nr + cc]
                                           : cdst[r * n + cc] + acc[r * nr + cc];
                      cdst[r * n + cc] = v + bias[cc];
                    }
                  break;
                case Epilogue::Kind::kBiasRelu:
                  for (std::size_t r = 0; r < h; ++r)
                    for (std::size_t cc = 0; cc < w; ++cc) {
                      const double v = (first_panel
                                            ? acc[r * nr + cc]
                                            : cdst[r * n + cc] + acc[r * nr + cc]) +
                                       bias[cc];
                      cdst[r * n + cc] = v > 0.0 ? v : 0.0;
                    }
                  break;
                case Epilogue::Kind::kBiasTable:  // stored as kBias (store_kind)
                case Epilogue::Kind::kNone:
                  break;  // unreachable (outer if)
              }
            } else if (first_panel) {
              for (std::size_t r = 0; r < h; ++r)
                for (std::size_t cc = 0; cc < w; ++cc)
                  cdst[r * n + cc] = acc[r * nr + cc];
            } else {
              for (std::size_t r = 0; r < h; ++r)
                for (std::size_t cc = 0; cc < w; ++cc)
                  cdst[r * n + cc] += acc[r * nr + cc];
            }
          }
        }
        if (last_panel && table) {
          for (std::size_t r = ic; r < ic + mcb; ++r) {
            double* crow = c + r * n + jc;
            epi.table_eval(epi.table, crow, crow, ncb);
          }
        }
      }
    }
  }
}

/// Blocked compute against a pre-packed B: no B packing at all, and A is
/// packed exactly ONCE per call into the pack scratch (the pack-as-you-go
/// path re-packs each A block once per B column panel instead — with B
/// pre-packed the whole A fits the same L2 budget, and the repeated-B hot
/// path drops n/kNC - 1 redundant A sweeps). Same block layout, same bits.
void blocked_over_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                         const Epilogue& epi, const MicroKernel& mk) {
  const std::size_t k = b.k();
  // Row block ic, k panel kc: every earlier row block is full and every
  // earlier panel of this block is kKC deep, so the offset is closed-form.
  detail::PackScratch scratch;
  double* apack = scratch.take<double>(round_up(m, mk.mr) * k);
  const auto a_block = [&](std::size_t ic, std::size_t kc) {
    return apack + ic * k + round_up(std::min(kMCPacked, m - ic), mk.mr) * kc;
  };
  for (std::size_t ic = 0; ic < m; ic += kMCPacked) {
    for (std::size_t kc = 0; kc < k; kc += kKC) {
      pack_a_block(a, k, ic, kc, std::min(kMCPacked, m - ic), std::min(kKC, k - kc), mk.mr,
                   a_block(ic, kc));
    }
  }
  blocked_compute(
      c, m, k, b.n(), epi, mk, kMCPacked,
      [&b](std::size_t jc, std::size_t kc, std::size_t, std::size_t) {
        return b.panel(jc / kNC, kc / kKC);
      },
      [&](std::size_t ic, std::size_t kc, std::size_t, std::size_t) { return a_block(ic, kc); });
}

/// The tiles over `threads` row slices of one shared packed B.
void tile_slices(const double* a, const PackedB& b, double* c, std::size_t m,
                 const Epilogue& epi, std::size_t threads) {
  detail::slice_rows(m, threads, g_micro.mr, [&](std::size_t lo, std::size_t hi) {
    blocked_over_packed(a + lo * b.k(), b, c + lo * b.n(), hi - lo, epi, g_micro);
  });
}

/// Deterministic mode and skinny rows take the reference loop order.
bool reference_order(std::size_t k, std::size_t n) {
  return deterministic() || k * n <= kTinyRowMacs;
}

constexpr char kGemmSpan[] = "gemm";
constexpr char kGemmPackedSpan[] = "gemm_packed";

}  // namespace

std::size_t sliver_width() { return g_micro.nr; }

const char* gemm_kernel_name() { return g_micro.name; }

bool deterministic() {
  const int forced = g_deterministic_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = deterministic_from_env();
  return from_env;
}

void set_deterministic(bool on) {
  g_deterministic_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t gemm_threads(std::size_t m, std::size_t k, std::size_t n,
                         std::size_t elem_bytes) {
  if (deterministic()) return 1;
  const std::size_t macs_per_lane = kMacsPerThread * sizeof(double) / elem_bytes;
  std::size_t t = ThreadPool::instance().effective_threads();
  t = std::min(t, std::max<std::size_t>(1, m * k * n / macs_per_lane));
  const std::size_t step =
      elem_bytes == sizeof(double) ? g_micro.mr : detail::int16_slice_rows();
  return std::min(t, (m + step - 1) / step);  // at least one tile height each
}

void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n) {
  reference_loop(a, [b, n](std::size_t kk, std::size_t j) { return b[kk * n + j]; }, c, m, k,
                 n);
}

void gemm_blocked(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  // Pack-as-you-go: each B panel right before its compute (best locality
  // when B is used once), each A block per visit, both into the pack
  // scratch. The same panel layout as PackedB, so blocked results match the
  // pack-once path bit for bit.
  const std::size_t nr = g_micro.nr;
  detail::PackScratch scratch;
  double* bpack = scratch.take<double>(round_up(std::min(kNC, n), nr) * std::min(kKC, k));
  double* apack = scratch.take<double>(round_up(std::min(kMC, m), g_micro.mr) * std::min(kKC, k));
  blocked_compute(
      c, m, k, n, Epilogue{}, g_micro, kMC,
      [&](std::size_t jc, std::size_t kc, std::size_t kcb, std::size_t ncb) {
        detail::pack_panel(b + kc * n + jc, n, kcb, ncb, nr, PackedB::kGroup, bpack);
        return bpack;
      },
      [&](std::size_t ic, std::size_t kc, std::size_t mcb, std::size_t kcb) {
        pack_a_block(a, k, ic, kc, mcb, kcb, g_micro.mr, apack);
        return apack;
      });
}

void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n) {
  if (m == 0 || n == 0) return;
  detail::profiled<kGemmSpan>(sizeof(double), m, k, n, [&] {
    const std::size_t threads = gemm_threads(m, k, n);
    if (reference_order(k, n)) {
      detail::slice_rows(m, threads, g_micro.mr, [&](std::size_t lo, std::size_t hi) {
        gemm_reference(a + lo * k, b, c + lo * n, hi - lo, k, n);
      });
    } else if (threads <= 1) {
      gemm_blocked(a, b, c, m, k, n);
    } else {
      // B packed ONCE into this thread's pack scratch, shared read-only by
      // every row slice: each (kc, jc) panel is packed once per call, never
      // once per thread (asserted by the pack counter in tests).
      detail::PackScratch scratch;
      tile_slices(a, detail::PanelPacker::scratch(b, k, n, g_micro.nr, scratch), c, m, {},
                  threads);
    }
  });
}

void gemm_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                 const Epilogue& epi) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  if (m == 0 || n == 0) return;
  ONESA_CHECK(b.nr() == g_micro.nr, "gemm_packed: PackedB sliver width "
                                        << b.nr() << " does not match the selected tiles ("
                                        << g_micro.nr << ")");
  detail::profiled<kGemmPackedSpan>(sizeof(double), m, k, n, [&] {
    const std::size_t threads = gemm_threads(m, k, n);
    if (reference_order(k, n)) {
      detail::slice_rows(m, threads, g_micro.mr, [&](std::size_t lo, std::size_t hi) {
        reference_loop(
            a + lo * k, [&b](std::size_t kk, std::size_t j) { return b.at(kk, j); },
            c + lo * n, hi - lo, k, n);
        apply_epilogue_block(c + lo * n, hi - lo, n, epi);
      });
    } else {
      tile_slices(a, b, c, m, epi, threads);
    }
  });
}

void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView c, const Epilogue& epi) {
  ONESA_CHECK(a.contiguous() && c.contiguous(),
              "gemm_packed: views must be contiguous (stride == cols); got A stride "
                  << a.stride() << " for " << a.cols() << " cols, C stride "
                  << c.stride() << " for " << c.cols() << " cols");
  ONESA_CHECK_SHAPE(a.cols() == b.k(), "gemm_packed: A is " << a.rows() << "x" << a.cols()
                                                            << " but PackedB expects k="
                                                            << b.k());
  ONESA_CHECK_SHAPE(c.rows() == a.rows() && c.cols() == b.n(),
                    "gemm_packed: C is " << c.rows() << "x" << c.cols() << ", want "
                                         << a.rows() << "x" << b.n());
  gemm_packed(a.data(), b, c.data(), a.rows(), epi);
}

namespace detail {

bool gemm_tier_supported(GemmTier tier) { return gemm_tiles(tier).has_value(); }

void gemm_on_tier(GemmTier tier, const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n) {
  const auto tiles = gemm_tiles(tier);
  ONESA_CHECK(tiles.has_value(),
              "double tier " << static_cast<int>(tier) << " does not run on this CPU");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0);
    return;
  }
  blocked_over_packed(a, PanelPacker::owned(b, k, n, tiles->nr), c, m, Epilogue{}, *tiles);
}

}  // namespace detail

}  // namespace onesa::tensor::kernels
