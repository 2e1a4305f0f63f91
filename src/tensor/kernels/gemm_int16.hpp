// Vectorized INT16 fixed-point GEMM — the paper's own precision on the
// serving hot path.
//
// The modeled accelerator computes in Q6.9 INT16 with wide accumulators
// (src/fixed/fixed16.hpp); this module gives the serve tier the same
// arithmetic at SIMD speed: int16 operands, int32 accumulators, one
// requantizing store. The micro-kernels are built around the x86 word-pair
// multiply-add: each step multiplies adjacent int16 PAIRS and adds the two
// products into an int32 lane, so B is PackedBInt16 — the one panel format
// of pack.hpp with k-group 2 (pair-interleaved slivers) — and A is consumed
// as 32-bit broadcasts of (a[i][2p], a[i][2p+1]): one step retires two k
// steps across a full sliver of output columns.
//
// Kernel tiers, picked once by CPUID (int16_kernel_name() reports the name):
//  - "amx": the AMX tile unit, a systolic array of its own, which only
//    multiplies bytes. Each operand splits as 256 * hi + lo (hi signed, lo
//    unsigned); per 64 k steps tdpbssd, tdpbsud + tdpbusd and tdpbuud fill
//    three int32 tiles (hh, both cross terms, ll), recombined as
//    (hh << 16) + (cross << 8) + ll in wrapping int32 — raw for raw the
//    vpdpwssd sum. B is packed in the byte-split k-group (pack.hpp), A is
//    split per call; 16x16 output blocks through the AVX-512 store. Needs
//    AMX-TILE, AMX-INT8 and the kernel's grant of the tile state
//    (arch_prctl(ARCH_REQ_XCOMP_PERM), asked once, for this process only).
//  - "avx512vnni": one vpdpwssd per step (_mm512_dpwssd_epi32 semantics),
//    with the A pair broadcast straight from memory; 16x16 and 8x16 tiles.
//  - "avx512bw": vpmaddwd + vpaddd per step; the same 16x16 / 8x16 tiles
//    (one template over the step).
//  - "avx2": vpmaddwd + vpaddd on ymm, 4x8 tile.
//  - "portable": scalar 4x8 tile.
// Loop order (one loop nest for every vector tier): A is packed once per call into
// the tiles' pair-major row blocks; then per (jc panel, nr sliver, row
// block), the register accumulators cross every kc panel and one fused
// store ends the tile. Slivers are the outer loop, so each B sliver is read
// from memory once per call and reused by every row block from L1/L2. Row
// blocks take the tier's tall tile (16 rows on AVX-512) except a remainder
// of at most the short tile's height (8 rows), which takes the short tile.
// The tiles, the vector store and this loop nest are all the INT16 lane
// keeps for itself; panels, pack scratch, row slicing, the lane-count rule
// and profiling are shared with the double lane (lane.hpp). The loop orders
// stay apart because each is measurably faster on its own lane: the double
// lane's order cost this lane 0.94-0.97x at m = 16-64 and 0.89x at m = 128
// (this lane's order cost the double lane 0.96-0.97x). The amx tier keeps
// the same order (sliver, row block of 16, k) in a nest of its own.
//
// The amx tier against avx512vnni, single lane, best of 200 calls with a
// bias epilogue, 10 rounds alternating the two builds on one core of a
// 4-vCPU Xeon (AMX-INT8), operands in [-2048, 2047]; median GFLOP/s
// vnni -> amx, and the median [range] of the per-round ratios:
//                       m = 1          m = 16            m = 32            m = 64
//  up   768 x 3072    23 -> 20        236 -> 227        242 -> 342        243 -> 289
//                     0.91x           1.14x [0.76-2.4]  1.53x [0.99-2.1]  1.41x [1.13-1.9]
//  down 3072 x 768    21 -> 21        200 -> 245        210 -> 281        247 -> 393
//                     1.01x           1.29x [1.17-1.6]  1.42x [1.27-2.1]  1.68x [1.23-2.0]
// The spread is the host's: the tile unit's rate moves by up to 2x between
// rounds, and also with the operand values (A planes left unsplit, so
// mostly stale bytes, ran ~1.2x faster than real data — benchmark on real
// ranges). m = 1 streams B at memory speed and is a tie or a small loss; it
// keeps the amx nest rather than a short-m path of its own. Rejected, same
// protocol: no B prefetch, 0.72-0.77x at m = 1 and 0.92-1.10x at
// m = 16-64; prefetching 2 or 4 k blocks ahead instead of 1, 0.90-0.97x;
// four accumulator tiles (the two cross terms apart), ~0.82x.
//
// Numerics contract (asserted in tests/test_kernels.cpp):
//  - Integer addition is associative, so every tier produces BIT-IDENTICAL
//    accumulators for every input — there is no deterministic-mode
//    divergence to manage (deterministic mode only pins the thread count
//    to 1).
//  - Accumulation wraps mod 2^32, exactly like vpmaddwd + vpaddd.
//    vpdpwssd is the non-saturating form (not vpdpwssds) and wraps the same
//    way, including the (-32768)^2 + (-32768)^2 = 2^31 pair. The portable
//    kernel reproduces this by accumulating in uint32 (well-defined wrap)
//    and bit-casting back. Callers keep real workloads inside int32 range
//    via the quantizer's headroom bound (nn/quantized.hpp); the wrap
//    behaviour itself is tested at the boundary.
//  - The requantizing store matches fixed::Accumulator<FracBits>::result():
//    round-half-up at the shift boundary, then saturate_i16. Epilogue order
//    is bias add (accumulator domain) -> requantize -> activation, applied
//    exactly once per element after its full k-sum. The AVX-512 tiers run
//    the store in int64 vector lanes and narrow with vpmovsqw; the scalar
//    store is the rule it reproduces bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fixed/fixed16.hpp"
#include "tensor/kernels/pack.hpp"

namespace onesa::tensor::kernels {

/// Name of the selected int16 kernel tier ("amx", "avx512vnni", "avx512bw",
/// "avx2", "portable").
const char* int16_kernel_name();

/// Requantize an int32 accumulator down to int16: round-half-up at the
/// `shift` boundary (in int64, so the rounding add cannot overflow), then
/// saturate. shift == 0 is a pure saturation. Matches
/// fixed::Accumulator::result() when shift == FracBits.
inline std::int16_t requantize_i32(std::int32_t acc, int shift) {
  std::int64_t v = acc;
  if (shift > 0) v = (v + (std::int64_t{1} << (shift - 1))) >> shift;
  return fixed::saturate_i16(v);
}

/// Fused store of the int16 GEMM: bias add in the ACCUMULATOR domain
/// (int32, pre-shifted by the quantizer), requantize by `shift`, then an
/// optional activation evaluated entirely in INT16 — ReLU as max(0, x), or
/// a CPWL segment table through the opaque batch hook (the kernel layer
/// stays free of cpwl includes; nn/quantized.cpp provides the adapter over
/// SegmentTable::eval_fixed_batch). Applied exactly once per element after
/// its complete k-sum, mirroring the double Epilogue's ordering contract.
struct EpilogueInt16 {
  using Kind = Epilogue::Kind;
  /// y[i] = table(x[i]) on raw Q-format int16 bits, any length.
  using TableBatchFn = void (*)(const void* table, const std::int16_t* x,
                                std::int16_t* y, std::size_t len);

  Kind kind = Kind::kNone;
  const std::int32_t* bias = nullptr;  // n entries, accumulator domain
  int shift = 0;                       // requantize right-shift, >= 0
  TableBatchFn table_eval = nullptr;   // kBiasTable only
  const void* table = nullptr;         // kBiasTable only
};

/// Reference int16 GEMM on unpacked operands: C (int32, m x n) gets the
/// wrap-mod-2^32 accumulator sums, ascending k. The ground truth the packed
/// kernels are tested against (they match it bit for bit).
void gemm_int16_reference(const std::int16_t* a, const std::int16_t* b,
                          std::int32_t* c, std::size_t m, std::size_t k,
                          std::size_t n);

/// Raw-accumulator packed GEMM: C (int32, m x B.n) is fully overwritten
/// with the wrap-mod-2^32 sums. No packing, no requantization — the probe
/// path for tests and accuracy tooling.
void gemm_packed_int16_acc(const std::int16_t* a, const PackedBInt16& b,
                           std::int32_t* c, std::size_t m);

/// The serving entry point: int16 in, int16 out, epilogue fused into the
/// micro-tile store so activations never leave the INT16 domain. Row-sliced
/// over the kernel ThreadPool when gemm_threads(m, k, n, 2) says so (integer
/// math is associative, so threading never changes a bit). Profiled as
/// kernel_gemm_int16_* counters + _gflops/_ms histograms when obs is live.
void gemm_packed_int16(const std::int16_t* a, const PackedBInt16& b,
                       std::int16_t* c, std::size_t m,
                       const EpilogueInt16& epi = {});

namespace detail {
/// The int16 kernel tiers, slowest first. CPUID selects the fastest one the
/// host runs; the entries below replay any runnable tier so bit-exactness
/// tests can pit every tile against every other on identical inputs.
enum class Int16Tier : std::uint8_t { kPortable, kAvx2, kAvx512bw, kAvx512Vnni, kAmx };

/// The tier CPUID selected (the one int16_kernel_name() names).
Int16Tier selected_int16_tier();

/// Whether this CPU can execute `tier` (kPortable always can).
bool int16_tier_supported(Int16Tier tier);

/// The name int16_kernel_name() reports for `tier` ("unsupported" when this
/// CPU cannot run it).
const char* int16_tier_name(Int16Tier tier);

/// Pack B (k x n row-major) at `tier`'s sliver width and run the full loop
/// nest with that tier's tiles and store: raw accumulators into C (int32).
void gemm_int16_acc_on_tier(Int16Tier tier, const std::int16_t* a, const std::int16_t* b,
                            std::int32_t* c, std::size_t m, std::size_t k, std::size_t n);

/// As above, through the fused epilogue into C (int16).
void gemm_int16_on_tier(Int16Tier tier, const std::int16_t* a, const std::int16_t* b,
                        std::int16_t* c, std::size_t m, std::size_t k, std::size_t n,
                        const EpilogueInt16& epi);
}  // namespace detail

}  // namespace onesa::tensor::kernels
