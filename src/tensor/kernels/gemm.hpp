// Cache-blocked, multi-threaded double-precision GEMM over flat row-major
// buffers — the double lane of the packed-GEMM layer, behind tensor::matmul
// and every nn::Linear.
//
// Structure (BLIS-style, scaled down to readable C++):
//
//   for jc over N in kNC columns           (B column panel)
//     for kc over K in kKC rows            (packed B panel, pack.hpp format)
//       for ic over M in row blocks        (packed A block)
//         for each mr x nr micro-tile: k-panel inner loop on register
//           accumulators, then one store (first panel) or accumulate-store
//
// One tile set, picked once by CPUID (gemm_kernel_name() reports it):
// "avx512f" 8x16 FMA tile with a vectorized store, "avx2" 4x8 FMA tile,
// "portable" 4x8 scalar tile. gemm_blocked() packs each B panel right
// before it is used (pack-as-you-go, best locality when B is used once);
// gemm_packed() reads pre-packed panels and packs A once per call; the
// threaded gemm() packs B once per call into the thread's pack scratch and
// row-slices over it. All three run the same tiles in the same loop nest.
// The tiles, the vector store and this loop nest are all the double lane
// keeps for itself; panels, pack scratch, row slicing, the lane-count rule
// and profiling are shared with the INT16 lane (lane.hpp). Both per-lane
// choices were measured single thread on a 4-vCPU AVX-512 VNNI Xeon, all
// bit-exact: the INT16 lane's loop order cost this lane 0.96-0.97x on
// bert-ffn-down at m = 16-64, and routing gemm() through
// pack-everything-then-gemm_packed cost 0.72-0.75x at FFN m = 16 and
// 0.88-0.91x on bert-ffn-down — so gemm_blocked keeps packing as it goes.
//
// Per output element the k-panel sums are formed in registers and added back
// panel-by-panel in ascending k order. That reassociates the reference
// accumulation (c += a_ik * b_kj for k ascending), so results can differ
// from gemm_reference by rounding only — bounded well under 1e-12 relative
// for the library's workloads and asserted in tests/test_kernels.cpp. The
// avx512f and avx2 tiles both fuse multiply+add and keep the same per-element
// order, so they agree bit for bit; the portable tile rounds the product
// separately. When bit-exact reproduction of the seed numerics is required,
// set the ONESA_DETERMINISTIC_KERNELS environment variable (or call
// set_deterministic(true)): every matmul then takes the reference-order
// single-thread path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/kernels/pack.hpp"
#include "tensor/view.hpp"

namespace onesa::tensor::kernels {

/// Reference GEMM: exactly the seed tensor::matmul loop nest (i-k-j, c
/// zero-filled then accumulated in ascending k order). C is fully
/// overwritten; A is m x k, B is k x n, C is m x n, all row-major.
void gemm_reference(const double* a, const double* b, double* c, std::size_t m,
                    std::size_t k, std::size_t n);

/// Blocked single-thread GEMM, packing B as it goes. C is fully overwritten
/// (no zero-init needed).
void gemm_blocked(const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n);

/// Production entry point: reference order in deterministic mode and for
/// rows too skinny for the tiles, else the tiles — single-thread
/// gemm_blocked, or B packed ONCE per call and shared by every row slice
/// over the kernel ThreadPool (each (kc, jc) panel is packed exactly once
/// per call, never once per thread). C is fully overwritten.
void gemm(const double* a, const double* b, double* c, std::size_t m, std::size_t k,
          std::size_t n);

/// GEMM against a pre-packed B (see pack.hpp): the repeated-B hot path. No
/// packing happens here at all — single- and multi-thread paths both consume
/// the one shared packed copy — and the optional epilogue fuses the bias
/// broadcast + activation into the output store, removing the separate
/// add_row_broadcast/activation passes over C.
///
/// Numerics contract (all asserted in tests/test_kernels.cpp):
///  - bit-identical to gemm(a, B, c, ...) on the unpacked B for every shape
///    and thread count (same dispatch criterion, same tiles, same panels);
///  - with an epilogue, bit-identical to the unfused composition
///    matmul + add_row_broadcast + activation (bias and activation are
///    applied once per element, after its complete k-sum, in the same
///    order);
///  - deterministic mode falls back to the seed reference loop order
///    (reading B back out of the packed layout — loss-free), epilogue
///    applied as a separate pass, exactly like the unfused ops would;
///  - row-stable under stacking: same per-row k*n dispatch criterion as
///    gemm(), so batching requests never changes a row's bits.
void gemm_packed(const double* a, const PackedB& b, double* c, std::size_t m,
                 const Epilogue& epi = {});

/// View overload of gemm_packed: the serve tier's arena-staged buffers run
/// straight through the packed kernel without materializing an owning
/// Matrix, and — unlike the raw-pointer form — the shapes are CHECKED
/// against the packed weights (a.cols == B.k, c == a.rows x B.n). Both
/// views must be contiguous (stride == cols): the blocked kernel streams
/// flat row-major panels, so a stride-padded staging view is sub-viewed or
/// copied into contiguous form first (MemoryStack::allocate_matrix with
/// pad_rows=false gives contiguous directly). Numerics are bit-identical
/// to the pointer overload by construction.
void gemm_packed(ConstMatrixView a, const PackedB& b, MatrixView c,
                 const Epilogue& epi = {});

/// Lanes either GEMM lane fans an m x k x n problem out to (1 = serial), for
/// operands of `elem_bytes` (8: double, 2: INT16). One rule for both: at
/// least 2^20 double MACs per lane (4x as many int16 MACs, which retire ~4x
/// faster), at least one short-tile height of rows per lane (8 rows on the
/// AVX-512 tiles, 4 on the AVX2 and portable ones), 1 in deterministic mode.
/// Exposed for tests and the perf harness.
std::size_t gemm_threads(std::size_t m, std::size_t k, std::size_t n,
                         std::size_t elem_bytes = sizeof(double));

/// Name of the selected double tile set ("avx512f", "avx2", "portable").
const char* gemm_kernel_name();

/// Deterministic-kernel switch. Defaults to the ONESA_DETERMINISTIC_KERNELS
/// environment variable (any non-empty value but "0" enables it); the setter
/// overrides the environment for the rest of the process.
bool deterministic();
void set_deterministic(bool on);

namespace detail {
/// The double tile sets, slowest first. CPUID selects the fastest one the
/// host runs; gemm_on_tier replays any runnable one, so tests can pit every
/// tile against the others on any host that supports them.
enum class GemmTier : std::uint8_t { kPortable, kAvx2, kAvx512 };

/// Whether this CPU can execute `tier` (kPortable always can).
bool gemm_tier_supported(GemmTier tier);

/// Pack B (k x n row-major) at `tier`'s sliver width and run the pack-once
/// loop nest with that tier's tile and store: single thread, no epilogue.
/// C (m x n) is fully overwritten.
void gemm_on_tier(GemmTier tier, const double* a, const double* b, double* c, std::size_t m,
                  std::size_t k, std::size_t n);
}  // namespace detail

}  // namespace onesa::tensor::kernels
