#include "tensor/kernels/gemm_int16.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define ONESA_GEMM_INT16_X86 1
#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#define ONESA_GEMM_INT16_AMX 1
#endif
#endif

#include "common/error.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/lane.hpp"

namespace onesa::tensor::kernels {

namespace {

/// Adjacent (a[2p], a[2p+1]) as the 32-bit lane pmaddwd expects — a direct
/// unaligned load off the row-major A (little-endian: low half = even k).
inline std::int32_t load_pair(const std::int16_t* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Pair (lo, hi) composed explicitly — the odd-k tail builds (a_last, 0).
inline std::int32_t make_pair(std::int16_t lo, std::int16_t hi) {
  const std::uint32_t u =
      static_cast<std::uint16_t>(lo) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi)) << 16);
  std::int32_t v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

/// Round-half-up requantize + saturate of a widened accumulator. Matches
/// fixed::Accumulator::result() when shift == FracBits.
inline std::int16_t requantize_wide(std::int64_t v, int shift) {
  if (shift > 0) v = (v + (std::int64_t{1} << (shift - 1))) >> shift;
  return fixed::saturate_i16(v);
}

// ---------------------------------------------------------- micro-kernels
//
// A tile function accumulates one MR x nr micro-tile over one packed kc
// panel into a uint32 accumulator array (row stride kMaxNr). Accumulation is
// mod 2^32 — exactly pmaddwd + vpaddd — and mod-2^32 addition is associative
// and commutative, so every variant (and every panel/thread split) produces
// bit-identical accumulators. A arrives packed (pack_a_int16): per k-pair,
// the MR rows' (a[2p], a[2p+1]) words side by side, zero-padded past the
// last row and past an odd k, so every tile reads one pointer, never
// branches on height and has no odd-k tail.

using TileFnInt16 = void (*)(std::uint32_t* acc, const std::int32_t* ap,
                             const std::int16_t* sliver, std::size_t pairs,
                             std::size_t nr);

/// Tallest micro-tile any int16 kernel uses (sizes the stack accumulator).
constexpr std::size_t kMaxMrInt16 = 16;

/// Pack `rows` (<= mr) rows of A (row stride k) into the tile's pair-major
/// layout: dst[p * mr + r] = pair p of row r, for p < ceil(k / 2).
void pack_a_int16(const std::int16_t* a, std::size_t k, std::size_t rows, std::size_t mr,
                  std::int32_t* dst) {
  const std::size_t full = k / 2;
  for (std::size_t p = 0; p < full; ++p, dst += mr) {
    for (std::size_t r = 0; r < rows; ++r) dst[r] = load_pair(a + r * k + 2 * p);
    for (std::size_t r = rows; r < mr; ++r) dst[r] = 0;
  }
  if (k & 1) {
    for (std::size_t r = 0; r < rows; ++r) dst[r] = make_pair(a[r * k + k - 1], 0);
    for (std::size_t r = rows; r < mr; ++r) dst[r] = 0;
  }
}

/// Portable fallback, 4 x 8 (the portable tier packs 8-wide slivers). Per
/// pair the two products are formed in int64 (each fits int32, their sum
/// may not) and wrapped to uint32 — the scalar spelling of one pmaddwd lane.
void tile_int16_generic(std::uint32_t* acc, const std::int32_t* ap, const std::int16_t* sliver,
                        std::size_t pairs, std::size_t /*nr*/) {
  constexpr std::size_t MR = 4;
  constexpr std::size_t nr = 8;
  const std::int16_t* bp = sliver;
  for (std::size_t p = 0; p < pairs; ++p, bp += 2 * nr, ap += MR) {
    for (std::size_t r = 0; r < MR; ++r) {
      const auto word = static_cast<std::uint32_t>(ap[r]);
      const std::int64_t a0 = static_cast<std::int16_t>(word & 0xFFFF);
      const std::int64_t a1 = static_cast<std::int16_t>(word >> 16);
      std::uint32_t* accr = acc + r * kMaxNr;
      for (std::size_t j = 0; j < nr; ++j)
        accr[j] += static_cast<std::uint32_t>(a0 * bp[2 * j] + a1 * bp[2 * j + 1]);
    }
  }
}

#ifdef ONESA_GEMM_INT16_X86
/// AVX2 4x8 tile: 4 ymm accumulators (8 int32 lanes each), one B vector load
/// shared by 4 broadcast-madd-add chains — two k steps per madd.
__attribute__((target("avx2"))) void tile_int16_avx2(std::uint32_t* acc, const std::int32_t* ap,
                                                     const std::int16_t* sliver,
                                                     std::size_t pairs, std::size_t /*nr*/) {
  constexpr std::size_t nr = 8;
  __m256i c0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 0 * kMaxNr));
  __m256i c1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 1 * kMaxNr));
  __m256i c2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 2 * kMaxNr));
  __m256i c3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + 3 * kMaxNr));
  const std::int16_t* bp = sliver;
  for (std::size_t p = 0; p < pairs; ++p, bp += 2 * nr, ap += 4) {
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(_mm256_set1_epi32(ap[0]), b));
    c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(_mm256_set1_epi32(ap[1]), b));
    c2 = _mm256_add_epi32(c2, _mm256_madd_epi16(_mm256_set1_epi32(ap[2]), b));
    c3 = _mm256_add_epi32(c3, _mm256_madd_epi16(_mm256_set1_epi32(ap[3]), b));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0 * kMaxNr), c0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 1 * kMaxNr), c1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 2 * kMaxNr), c2);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 3 * kMaxNr), c3);
}

/// The AVX-512 tiles' MAC step, c += pmaddwd(broadcast(pair), b): the
/// AVX-512BW spelling is vpmaddwd + vpaddd; the VNNI spelling is one
/// vpdpwssd with the A pair broadcast straight from memory. Both wrap mod
/// 2^32 (vpdpwssd is the non-saturating form, and its pair sum wraps the
/// way vpmaddwd's does at (-32768)^2 * 2), so the accumulators are
/// bit-identical.
struct MaddAddStep {
  [[gnu::always_inline, gnu::target("avx512f,avx512bw")]] static inline __m512i
  mac(__m512i c, __m512i b, const std::int32_t* pair) {
    return _mm512_add_epi32(c, _mm512_madd_epi16(_mm512_set1_epi32(*pair), b));
  }
};

/// vpdpwssd is written as inline asm so the shared tile template can stay
/// compiled for avx512bw alone: enabling avx512vnni on the template would let
/// a compiler fuse the madd instantiation's vpmaddwd + vpaddd into vpdpwssd
/// too, which faults on AVX-512BW hosts without VNNI.
struct DpwssdStep {
  [[gnu::always_inline, gnu::target("avx512f")]] static inline __m512i
  mac(__m512i c, __m512i b, const std::int32_t* pair) {
    asm("vpdpwssd {%[a]%{1to16%}, %[b], %[c]|%[c], %[b], %[a]%{1to16%}}"
        : [c] "+v"(c)
        : [b] "v"(b), [a] "m"(*pair));
    return c;
  }
};

/// AVX-512 MR x 16 tile over one MAC step: MR zmm accumulators, one B vector
/// load (one packed k-pair across the full sliver) shared by MR broadcast
/// MACs, so each loop body retires MR rows x 16 cols x 2 k-steps. MR = 16
/// is the register ceiling: 16 accumulators + B + broadcast temporaries fit
/// the 32 zmm registers. avx512bw is required for the word-pair MACs.
template <class Step, std::size_t MR>
[[gnu::target("avx512f,avx512bw")]] void tile_int16_avx512(std::uint32_t* acc,
                                                           const std::int32_t* ap,
                                                           const std::int16_t* sliver,
                                                           std::size_t pairs,
                                                           std::size_t /*nr*/) {
  constexpr std::size_t nr = 16;
  __m512i c[MR];
#pragma GCC unroll 16
  for (std::size_t r = 0; r < MR; ++r) c[r] = _mm512_loadu_si512(acc + r * kMaxNr);
  const std::int16_t* bp = sliver;
  for (std::size_t p = 0; p < pairs; ++p, bp += 2 * nr, ap += MR) {
    _mm_prefetch(reinterpret_cast<const char*>(bp + 16 * 2 * nr), _MM_HINT_T0);
    const __m512i b = _mm512_loadu_si512(bp);
#pragma GCC unroll 16
    for (std::size_t r = 0; r < MR; ++r) c[r] = Step::mac(c[r], b, ap + r);
  }
#pragma GCC unroll 16
  for (std::size_t r = 0; r < MR; ++r) _mm512_storeu_si512(acc + r * kMaxNr, c[r]);
}
#endif  // ONESA_GEMM_INT16_X86

#ifdef ONESA_GEMM_INT16_AMX
// ---------------------------------------------------------------- AMX tier
//
// The INT16 lane on the host's own systolic array. AMX's tile unit only
// multiplies bytes, so every int16 operand splits as a = 256 * hi + lo, with
// hi = a >> 8 a signed byte and lo = a & 0xFF an unsigned one, and
//   a * b = 65536 * hh + 256 * (hl + lh) + ll.
// Three int32 accumulator tiles take the terms: tdpbssd (hh), tdpbsud and
// tdpbusd (both cross terms into one tile) and tdpbuud (ll). Each tile sum
// is exact mod 2^32, so (hh << 16) + (cross << 8) + ll in wrapping int32 is
// the vpdpwssd accumulator raw for raw — the way Ootomo, Ozaki & Yokota
// ("DGEMM on Integer Matrix Multiplication Unit", IJHPCA 2024) build wide
// products exactly from int8 matrix units. Tiles 0-2 hold the accumulators,
// 3-4 the A hi/lo bytes (rows x 64), 5-6 the B hi/lo tiles of one
// kByteSplitGroup block (16 x 64). The tile instructions are inline asm,
// like DpwssdStep, so no function needs an AMX target attribute.

/// Tile height, and k steps per tile block.
constexpr std::size_t kAmxRows = 16;
constexpr std::size_t kAmxK = kByteSplitGroup;
/// Bytes per row of every tile: 64 int8 values, or 16 int32 accumulators.
constexpr std::size_t kAmxRowBytes = 64;
/// Bytes of one B hi/lo tile pair, the unit the k loop steps over.
constexpr std::size_t kAmxBPairBytes = 2 * kAmxK * kMaxNr;

template <int T>
[[gnu::always_inline]] inline void tile_zero() {
  asm volatile("tilezero %%tmm%c[t]" ::[t] "i"(T));
}

template <int T>
[[gnu::always_inline]] inline void tile_load(const void* base, std::size_t stride) {
  asm volatile("{tileloadd (%[b],%[s],1), %%tmm%c[t]|tileloadd %%tmm%c[t], [%[b]+%[s]*1]}"
               ::[b] "r"(base), [s] "r"(stride), [t] "i"(T)
               : "memory");
}

template <int T>
[[gnu::always_inline]] inline void tile_store(void* base, std::size_t stride) {
  asm volatile("{tilestored %%tmm%c[t], (%[b],%[s],1)|tilestored [%[b]+%[s]*1], %%tmm%c[t]}"
               ::[b] "r"(base), [s] "r"(stride), [t] "i"(T)
               : "memory");
}

/// One 64-step k block: A's byte planes (row stride lda) and B's tile pair
/// into tiles 3-6, then the four byte products of the split rule.
[[gnu::always_inline]] inline void byte_split_step(const unsigned char* a_hi,
                                                   const unsigned char* a_lo, std::size_t lda,
                                                   const unsigned char* b_pair) {
  tile_load<3>(a_hi, lda);
  tile_load<5>(b_pair, kAmxRowBytes);
  tile_load<6>(b_pair + kAmxBPairBytes / 2, kAmxRowBytes);
  tile_load<4>(a_lo, lda);
  asm volatile(
      "{tdpbssd %%tmm5, %%tmm3, %%tmm0|tdpbssd %%tmm0, %%tmm3, %%tmm5}\n\t"
      "{tdpbsud %%tmm6, %%tmm3, %%tmm1|tdpbsud %%tmm1, %%tmm3, %%tmm6}\n\t"
      "{tdpbusd %%tmm5, %%tmm4, %%tmm1|tdpbusd %%tmm1, %%tmm4, %%tmm5}\n\t"
      "{tdpbuud %%tmm6, %%tmm4, %%tmm2|tdpbuud %%tmm2, %%tmm4, %%tmm6}" ::);
}

/// The ldtilecfg operand, palette 1.
struct alignas(64) AmxTileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(AmxTileConfig) == 64);

/// Tile state for one loop nest: ldtilecfg with the A and accumulator tiles
/// `rows` tall, tilerelease when the nest ends — so a thread holds tile
/// state only while it multiplies, and an idle worker's context switch
/// never saves 8 KB of it.
class AmxTileScope {
 public:
  explicit AmxTileScope(std::size_t rows) {
    AmxTileConfig cfg;
    for (std::size_t t = 0; t < 7; ++t) {
      cfg.colsb[t] = kAmxRowBytes;
      cfg.rows[t] = static_cast<std::uint8_t>(t < 5 ? rows : kAmxK / 4);
    }
    asm volatile("{ldtilecfg (%0)|ldtilecfg [%0]}" ::"r"(&cfg) : "memory");
  }
  ~AmxTileScope() { asm volatile("tilerelease" ::: "memory"); }
  AmxTileScope(const AmxTileScope&) = delete;
  AmxTileScope& operator=(const AmxTileScope&) = delete;
};

// The same gcc 12 -Wmaybe-uninitialized false positive as around the vector
// store below (vpmovwb and vpslld's header-internal `__Y`).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// A's byte planes for the tiles: rows [0, m) of A (row stride k) into
/// `rows` x kp byte planes (kp = k rounded up to kAmxK), zero past k and
/// past m. vpmovwb narrows x >> 8 (the signed high byte) and x (the low
/// byte) 32 words at a time.
[[gnu::target("avx512f,avx512bw")]] void split_a_bytes(const std::int16_t* a, std::size_t m,
                                                       std::size_t k, std::size_t rows,
                                                       std::size_t kp, unsigned char* hi,
                                                       unsigned char* lo) {
  for (std::size_t i = 0; i < rows; ++i, hi += kp, lo += kp) {
    if (i >= m) {
      std::memset(hi, 0, kp);
      std::memset(lo, 0, kp);
      continue;
    }
    const std::int16_t* row = a + i * k;
    for (std::size_t kk = 0; kk < kp; kk += 32) {
      const std::size_t left = kk < k ? k - kk : 0;
      const __mmask32 words = left >= 32 ? ~__mmask32{0} : (__mmask32{1} << left) - 1;
      const __m512i x = _mm512_maskz_loadu_epi16(words, row + kk);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(hi + kk),
                          _mm512_cvtepi16_epi8(_mm512_srai_epi16(x, 8)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(lo + kk), _mm512_cvtepi16_epi8(x));
    }
  }
}

/// acc = (hh << 16) + (cross << 8) + acc over `rows` rows, in wrapping int32
/// lanes; acc holds the ll tile on entry.
[[gnu::target("avx512f")]] void recombine_byte_split(std::uint32_t* acc, const std::int32_t* hh,
                                                     const std::int32_t* cross,
                                                     std::size_t rows) {
  for (std::size_t r = 0; r < rows; ++r) {
    const __m512i high = _mm512_slli_epi32(_mm512_loadu_si512(hh + r * kMaxNr), 16);
    const __m512i mid = _mm512_slli_epi32(_mm512_loadu_si512(cross + r * kMaxNr), 8);
    const __m512i low = _mm512_loadu_si512(acc + r * kMaxNr);
    _mm512_storeu_si512(acc + r * kMaxNr, _mm512_add_epi32(_mm512_add_epi32(high, mid), low));
  }
}
#pragma GCC diagnostic pop

/// Whether this process may run the AMX tier: AMX-TILE and AMX-INT8 (CPUID
/// leaf 7 EDX bits 24 and 25) plus AVX-512BW, and the kernel grants the tile
/// data state through one arch_prctl(ARCH_REQ_XCOMP_PERM,
/// XFEATURE_XTILEDATA). That request acts on this process alone; a refusal
/// (an older kernel, a hypervisor that hides the state) reads unsupported.
bool amx_usable() {
  static const bool usable = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    constexpr unsigned kAmxTile = 1u << 24;
    constexpr unsigned kAmxInt8 = 1u << 25;
    if ((edx & kAmxTile) == 0 || (edx & kAmxInt8) == 0) return false;
    if (!__builtin_cpu_supports("avx512bw")) return false;
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
  }();
  return usable;
}
#endif  // ONESA_GEMM_INT16_AMX

// ------------------------------------------------------------- tile store
//
// One store per micro-tile, after its complete k-sum. Raw mode bit-casts the
// wrapped accumulators into int32 C; epilogue mode widens to int64, adds the
// accumulator-domain bias, requantizes (round-half-up, saturate) and applies
// the INT16 activation in place — C never holds anything wider than int16.
// kBiasTable's activation is deferred to the driver, which applies it over
// whole jc-panel row segments: per-sliver calls would hand the vectorized
// table evaluator slivers too narrow to amortize its setup.

struct OutSink {
  std::int16_t* c16 = nullptr;   // epilogue mode
  std::int32_t* c32 = nullptr;   // raw accumulator mode
  std::size_t ldc = 0;
  const EpilogueInt16* epi = nullptr;
};

using StoreFnInt16 = void (*)(const OutSink& sink, const std::uint32_t* acc,
                              std::size_t row0, std::size_t rows, std::size_t col0,
                              std::size_t width);

/// The scalar store — the rule every vector store must reproduce bit for bit.
void store_tile_int16_scalar(const OutSink& sink, const std::uint32_t* acc,
                             std::size_t row0, std::size_t rows, std::size_t col0,
                             std::size_t width) {
  if (sink.c32 != nullptr) {
    for (std::size_t r = 0; r < rows; ++r) {
      std::int32_t* crow = sink.c32 + (row0 + r) * sink.ldc + col0;
      const std::uint32_t* accr = acc + r * kMaxNr;
      for (std::size_t j = 0; j < width; ++j)
        crow[j] = static_cast<std::int32_t>(accr[j]);
    }
    return;
  }
  const EpilogueInt16& e = *sink.epi;
  for (std::size_t r = 0; r < rows; ++r) {
    std::int16_t* crow = sink.c16 + (row0 + r) * sink.ldc + col0;
    const std::uint32_t* accr = acc + r * kMaxNr;
    for (std::size_t j = 0; j < width; ++j) {
      std::int64_t v = static_cast<std::int32_t>(accr[j]);
      if (e.kind != EpilogueInt16::Kind::kNone) v += e.bias[col0 + j];
      std::int16_t q = requantize_wide(v, e.shift);
      if (e.kind == EpilogueInt16::Kind::kBiasRelu && q < 0) q = 0;
      crow[j] = q;
    }
  }
}

#ifdef ONESA_GEMM_INT16_X86
// gcc 12's avx512fintrin.h trips -Wmaybe-uninitialized on the non-masked
// intrinsic forms (header-internal `__Y`, a known false positive — the same
// one suppressed around gemm.cpp's store_tile_avx512_8x16); scope the
// suppression to the store.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
/// Round-half-up shift and optional ReLU of 8 widened accumulators.
[[gnu::always_inline, gnu::target("avx512f")]] inline __m512i requantize_x8(
    __m512i v, __m512i round, __m128i count, bool relu) {
  v = _mm512_sra_epi64(_mm512_add_epi64(v, round), count);
  return relu ? _mm512_max_epi64(v, _mm512_setzero_si512()) : v;
}

/// AVX-512 store: the scalar rule in 8 int64 lanes at a time — sign-extend
/// the accumulators and the bias, add, round-half-up arithmetic shift, ReLU
/// as max(v, 0) (saturation is monotonic and keeps 0, so clamping before
/// narrowing equals clamping after), then vpmovsqw narrows with signed
/// saturation straight into C under a lane mask for partial slivers.
[[gnu::target("avx512f")]] void store_tile_int16_avx512(
    const OutSink& sink, const std::uint32_t* acc, std::size_t row0, std::size_t rows,
    std::size_t col0, std::size_t width) {
  const auto lanes16 = static_cast<__mmask16>((1u << width) - 1u);
  if (sink.c32 != nullptr) {
    for (std::size_t r = 0; r < rows; ++r)
      _mm512_mask_storeu_epi32(sink.c32 + (row0 + r) * sink.ldc + col0, lanes16,
                               _mm512_loadu_si512(acc + r * kMaxNr));
    return;
  }
  const EpilogueInt16& e = *sink.epi;
  const bool has_bias = e.kind != EpilogueInt16::Kind::kNone;
  const bool relu = e.kind == EpilogueInt16::Kind::kBiasRelu;
  const __m512i bias32 =
      has_bias ? _mm512_maskz_loadu_epi32(lanes16, e.bias + col0) : _mm512_setzero_si512();
  const __m512i bias_lo = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(bias32));
  const __m512i bias_hi = _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(bias32, 1));
  const __m512i round =
      _mm512_set1_epi64(e.shift > 0 ? std::int64_t{1} << (e.shift - 1) : 0);
  const __m128i count = _mm_cvtsi32_si128(e.shift);
  const auto lanes_lo = static_cast<__mmask8>(lanes16 & 0xFF);
  const auto lanes_hi = static_cast<__mmask8>(lanes16 >> 8);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int16_t* crow = sink.c16 + (row0 + r) * sink.ldc + col0;
    const __m512i a32 = _mm512_loadu_si512(acc + r * kMaxNr);
    const __m512i lo = _mm512_add_epi64(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(a32)), bias_lo);
    const __m512i hi =
        _mm512_add_epi64(_mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(a32, 1)), bias_hi);
    _mm512_mask_cvtsepi64_storeu_epi16(crow, lanes_lo, requantize_x8(lo, round, count, relu));
    _mm512_mask_cvtsepi64_storeu_epi16(crow + 8, lanes_hi, requantize_x8(hi, round, count, relu));
  }
}
#pragma GCC diagnostic pop
#endif  // ONESA_GEMM_INT16_X86

// ------------------------------------------------------------ kernel tiers

/// One micro-tile shape a kernel offers: its function and its row height.
struct Int16Tile {
  TileFnInt16 fn;
  std::size_t mr;
};

struct Int16Kernel;

/// A tier's loop nest over one row slice: C rows [0, m) from A and B.
using NestFnInt16 = void (*)(const std::int16_t* a, const PackedBInt16& b,
                             const OutSink& sink, std::size_t m, const Int16Kernel& kernel);

void blocked_int16(const std::int16_t* a, const PackedBInt16& b, const OutSink& sink,
                   std::size_t m, const Int16Kernel& kernel);
#ifdef ONESA_GEMM_INT16_AMX
void blocked_int16_amx(const std::int16_t* a, const PackedBInt16& b, const OutSink& sink,
                       std::size_t m, const Int16Kernel& kernel);
#endif

/// A kernel tier: the tiles it offers, the sliver width and k-group of the
/// B panels they read, its tile store and its loop nest. blocked_int16 runs
/// `tall` over full row blocks and `rest` over a remainder of at most
/// rest.mr rows, so a short m never pays for a tall tile's idle rows. The
/// AMX tier has no register tiles (its nest drives the tile unit itself);
/// its rest.mr is the tile height, which sets the row-slice step.
struct Int16Kernel {
  Int16Tile tall;
  Int16Tile rest;
  std::size_t nr;
  std::size_t group;
  StoreFnInt16 store;
  NestFnInt16 nest;
  const char* name;
};

/// `tier`'s kernel, or nullopt when this CPU cannot run it.
std::optional<Int16Kernel> int16_kernel(detail::Int16Tier tier) {
  using detail::Int16Tier;
  constexpr std::size_t kPairs = PackedBInt16::kGroup;
  switch (tier) {
#ifdef ONESA_GEMM_INT16_AMX
    case Int16Tier::kAmx:
      if (!amx_usable()) break;
      return Int16Kernel{{nullptr, kAmxRows}, {nullptr, kAmxRows}, kMaxNr, kByteSplitGroup,
                         store_tile_int16_avx512, blocked_int16_amx, "amx"};
#endif
#ifdef ONESA_GEMM_INT16_X86
    case Int16Tier::kAvx512Vnni:
      if (!__builtin_cpu_supports("avx512bw") || !__builtin_cpu_supports("avx512vnni")) break;
      return Int16Kernel{{tile_int16_avx512<DpwssdStep, 16>, 16},
                         {tile_int16_avx512<DpwssdStep, 8>, 8},
                         16, kPairs, store_tile_int16_avx512, blocked_int16, "avx512vnni"};
    case Int16Tier::kAvx512bw:
      if (!__builtin_cpu_supports("avx512bw")) break;
      return Int16Kernel{{tile_int16_avx512<MaddAddStep, 16>, 16},
                         {tile_int16_avx512<MaddAddStep, 8>, 8},
                         16, kPairs, store_tile_int16_avx512, blocked_int16, "avx512bw"};
    case Int16Tier::kAvx2:
      if (!__builtin_cpu_supports("avx2")) break;
      return Int16Kernel{{tile_int16_avx2, 4}, {tile_int16_avx2, 4}, 8, kPairs,
                         store_tile_int16_scalar, blocked_int16, "avx2"};
#endif
    case Int16Tier::kPortable:
      return Int16Kernel{{tile_int16_generic, 4}, {tile_int16_generic, 4}, 8, kPairs,
                         store_tile_int16_scalar, blocked_int16, "portable"};
    default:
      break;
  }
  return std::nullopt;
}

/// The fastest tier this CPU runs, picked once by CPUID.
detail::Int16Tier select_int16_tier() {
  using detail::Int16Tier;
  for (Int16Tier tier :
       {Int16Tier::kAmx, Int16Tier::kAvx512Vnni, Int16Tier::kAvx512bw, Int16Tier::kAvx2})
    if (int16_kernel(tier)) return tier;
  return Int16Tier::kPortable;
}

const detail::Int16Tier g_int16_tier = select_int16_tier();
const Int16Kernel g_int16 = *int16_kernel(g_int16_tier);

/// Pairs in a kc panel of height kcb (odd tails round up — the pack padded
/// them with zero).
std::size_t panel_pairs(std::size_t kcb) { return (kcb + 1) / 2; }

/// Deferred kBiasTable activation over one finished jc panel, one call per
/// row: the requantized row segments are complete here, and ncb-wide spans
/// keep the table evaluator on its vector path (identical values to
/// per-sliver application — the activation is elementwise).
void table_pass(const OutSink& sink, std::size_t m, std::size_t jc, std::size_t ncb) {
  if (sink.c16 == nullptr || sink.epi->kind != EpilogueInt16::Kind::kBiasTable) return;
  const EpilogueInt16& e = *sink.epi;
  for (std::size_t r = 0; r < m; ++r) {
    std::int16_t* crow = sink.c16 + r * sink.ldc + jc;
    e.table_eval(e.table, crow, crow, ncb);
  }
}

/// The blocked loop nest, sliver-major: per jc panel, per nr sliver, per row
/// block, register accumulators crossing every kc panel (no int32 C
/// scratch), one fused store. Each B sliver is read from memory once per
/// call and then reused by every row block out of L1/L2, while A (m x k)
/// stays cache resident across slivers. Row blocks take the kernel's tall
/// tile, or its short tile for a remainder that fits it.
void blocked_int16(const std::int16_t* a, const PackedBInt16& b, const OutSink& sink,
                   std::size_t m, const Int16Kernel& kernel) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  const std::size_t nr = b.nr();
  const std::size_t kc_panels = b.kc_panels();
  const std::size_t k_pairs = panel_pairs(k);
  const auto tile_at = [&](std::size_t i0) -> const Int16Tile& {
    return m - i0 <= kernel.rest.mr ? kernel.rest : kernel.tall;
  };

  // A packed once per call into the pack scratch. Every block before the
  // last is a full tall block, so the block starting at row i0 sits at
  // i0 * k_pairs.
  detail::PackScratch scratch;
  std::int32_t* apack = scratch.take<std::int32_t>((m + kMaxMrInt16) * k_pairs);
  for (std::size_t i0 = 0; i0 < m; i0 += tile_at(i0).mr) {
    const std::size_t mr = tile_at(i0).mr;
    pack_a_int16(a + i0 * k, k, std::min(mr, m - i0), mr, apack + i0 * k_pairs);
  }

  alignas(64) std::uint32_t acc[kMaxMrInt16 * kMaxNr];
  for (std::size_t jc_idx = 0, jc = 0; jc < n; ++jc_idx, jc += kNC) {
    const std::size_t ncb = std::min(kNC, n - jc);
    for (std::size_t jr = 0; jr < ncb; jr += nr) {
      const std::size_t width = std::min(nr, ncb - jr);
      const std::size_t sliver_off = (jr / nr) * 2 * nr;
      for (std::size_t i0 = 0; i0 < m; i0 += tile_at(i0).mr) {
        const Int16Tile& tile = tile_at(i0);
        std::fill(acc, acc + tile.mr * kMaxNr, 0u);
        for (std::size_t kc_idx = 0, kc = 0; kc_idx < kc_panels; ++kc_idx, kc += kKC) {
          const std::size_t pairs = panel_pairs(std::min(kKC, k - kc));
          tile.fn(acc, apack + i0 * k_pairs + (kc / 2) * tile.mr,
                  b.panel(jc_idx, kc_idx) + sliver_off * pairs, pairs, nr);
        }
        kernel.store(sink, acc, i0, std::min(tile.mr, m - i0), jc + jr, width);
      }
    }
    table_pass(sink, m, jc, ncb);
  }
}

#ifdef ONESA_GEMM_INT16_AMX
/// The AMX tier's loop nest: per jc panel, per 16-column sliver, per row
/// block of up to 16 rows, the three accumulator tiles cross every
/// kByteSplitGroup block of k; then the recombined 16 x 16 block goes
/// through the tier's store like any register tile's. A is split into its
/// byte planes once per call (per row slice) into the pack scratch. For
/// m > 16 every row block is 16 tall, a remainder zero-padded, so one tile
/// configuration serves the whole nest. The next k block's B tile pair is
/// prefetched while the tile unit runs on this one: without it, m = 1 ran
/// 0.72-0.77x as fast (gemm_int16.hpp).
[[gnu::target("avx512f,avx512bw")]] void blocked_int16_amx(const std::int16_t* a,
                                                           const PackedBInt16& b,
                                                           const OutSink& sink, std::size_t m,
                                                           const Int16Kernel& kernel) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  const std::size_t nr = b.nr();
  const std::size_t kc_panels = b.kc_panels();
  const std::size_t kp = detail::round_up(k, kAmxK);
  const std::size_t rows = std::min(m, kAmxRows);
  const std::size_t padded_m = detail::round_up(m, rows);

  detail::PackScratch scratch;
  auto* a_hi = scratch.take<unsigned char>(2 * padded_m * kp);
  unsigned char* a_lo = a_hi + padded_m * kp;
  split_a_bytes(a, m, k, padded_m, kp, a_hi, a_lo);

  const AmxTileScope tiles(rows);
  alignas(64) std::uint32_t acc[kMaxMrInt16 * kMaxNr];
  alignas(64) std::int32_t hh[kAmxRows * kMaxNr];
  alignas(64) std::int32_t cross[kAmxRows * kMaxNr];
  for (std::size_t jc_idx = 0, jc = 0; jc < n; ++jc_idx, jc += kNC) {
    const std::size_t ncb = std::min(kNC, n - jc);
    for (std::size_t jr = 0; jr < ncb; jr += nr) {
      const std::size_t width = std::min(nr, ncb - jr);
      for (std::size_t i0 = 0; i0 < m; i0 += rows) {
        tile_zero<0>();
        tile_zero<1>();
        tile_zero<2>();
        const unsigned char* ah = a_hi + i0 * kp;
        const unsigned char* al = a_lo + i0 * kp;
        for (std::size_t kc_idx = 0, kc = 0; kc_idx < kc_panels; ++kc_idx, kc += kKC) {
          const std::size_t kcp = detail::round_up(std::min(kKC, k - kc), kAmxK);
          const auto* bp =
              reinterpret_cast<const unsigned char*>(b.panel(jc_idx, kc_idx) + jr * kcp);
          for (std::size_t kk = kc; kk < kc + kcp; kk += kAmxK, bp += kAmxBPairBytes) {
#pragma GCC unroll 32
            for (std::size_t line = 0; line < kAmxBPairBytes; line += 64)
              _mm_prefetch(reinterpret_cast<const char*>(bp + kAmxBPairBytes + line),
                           _MM_HINT_T0);
            byte_split_step(ah + kk, al + kk, kp, bp);
          }
        }
        tile_store<0>(hh, kAmxRowBytes);
        tile_store<1>(cross, kAmxRowBytes);
        tile_store<2>(acc, kAmxRowBytes);
        const std::size_t live = std::min(rows, m - i0);
        recombine_byte_split(acc, hh, cross, live);
        kernel.store(sink, acc, i0, live, jc + jr, width);
      }
    }
    table_pass(sink, m, jc, ncb);
  }
}
#endif  // ONESA_GEMM_INT16_AMX

/// `b`'s sliver width and k-group must be the selected tier's.
void check_layout(const PackedBInt16& b, const char* entry) {
  ONESA_CHECK(b.nr() == g_int16.nr && b.group() == g_int16.group,
              entry << ": PackedBInt16 sliver width " << b.nr() << ", k-group " << b.group()
                    << " does not match the selected micro-kernel (" << g_int16.nr << ", "
                    << g_int16.group << ")");
}

constexpr char kGemmInt16Span[] = "gemm_int16";

}  // namespace

std::size_t sliver_width_int16() { return g_int16.nr; }

std::size_t k_group_int16() { return g_int16.group; }

const char* int16_kernel_name() { return g_int16.name; }

void gemm_int16_reference(const std::int16_t* a, const std::int16_t* b,
                          std::int32_t* c, std::size_t m, std::size_t k,
                          std::size_t n) {
  thread_local std::vector<std::uint32_t> row;
  for (std::size_t i = 0; i < m; ++i) {
    row.assign(n, 0u);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::int64_t aik = a[i * k + kk];
      if (aik == 0) continue;
      const std::int16_t* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j)
        row[j] += static_cast<std::uint32_t>(aik * brow[j]);
    }
    for (std::size_t j = 0; j < n; ++j)
      c[i * n + j] = static_cast<std::int32_t>(row[j]);
  }
}

void gemm_packed_int16_acc(const std::int16_t* a, const PackedBInt16& b,
                           std::int32_t* c, std::size_t m) {
  if (m == 0 || b.n() == 0) return;
  check_layout(b, "gemm_packed_int16_acc");
  g_int16.nest(a, b, OutSink{nullptr, c, b.n(), nullptr}, m, g_int16);
}

void gemm_packed_int16(const std::int16_t* a, const PackedBInt16& b, std::int16_t* c,
                       std::size_t m, const EpilogueInt16& epi) {
  const std::size_t k = b.k();
  const std::size_t n = b.n();
  if (m == 0 || n == 0) return;
  check_layout(b, "gemm_packed_int16");
  detail::profiled<kGemmInt16Span>(sizeof(std::int16_t), m, k, n, [&] {
    detail::slice_rows(m, gemm_threads(m, k, n, sizeof(std::int16_t)), g_int16.rest.mr,
                       [&](std::size_t lo, std::size_t hi) {
                         g_int16.nest(a + lo * k, b, OutSink{c + lo * n, nullptr, n, &epi},
                                      hi - lo, g_int16);
                       });
  });
}

namespace detail {

std::size_t int16_slice_rows() { return g_int16.rest.mr; }

Int16Tier selected_int16_tier() { return g_int16_tier; }

bool int16_tier_supported(Int16Tier tier) { return int16_kernel(tier).has_value(); }

const char* int16_tier_name(Int16Tier tier) {
  const auto kernel = int16_kernel(tier);
  return kernel ? kernel->name : "unsupported";
}

/// Packs B at `tier`'s sliver width and runs that tier's loop nest.
void run_on_tier(Int16Tier tier, const std::int16_t* a, const std::int16_t* b,
                 const OutSink& sink, std::size_t m, std::size_t k, std::size_t n) {
  const auto kernel = int16_kernel(tier);
  ONESA_CHECK(kernel.has_value(),
              "int16 tier " << static_cast<int>(tier) << " does not run on this CPU");
  if (m == 0 || n == 0) return;
  kernel->nest(a, PanelPacker::owned(b, k, n, kernel->nr, kernel->group), sink, m, *kernel);
}

void gemm_int16_acc_on_tier(Int16Tier tier, const std::int16_t* a, const std::int16_t* b,
                            std::int32_t* c, std::size_t m, std::size_t k, std::size_t n) {
  run_on_tier(tier, a, b, OutSink{nullptr, c, n, nullptr}, m, k, n);
}

void gemm_int16_on_tier(Int16Tier tier, const std::int16_t* a, const std::int16_t* b,
                        std::int16_t* c, std::size_t m, std::size_t k, std::size_t n,
                        const EpilogueInt16& epi) {
  run_on_tier(tier, a, b, OutSink{c, nullptr, n, &epi}, m, k, n);
}

}  // namespace detail

}  // namespace onesa::tensor::kernels
