// Packed B panels: the one weight format both GEMM lanes (double and INT16)
// consume, plus the double lane's fused epilogue.
//
// Both lanes read B as nr-wide column slivers cut from (kKC x kNC) cache
// panels, so the B values one micro-tile step needs sit in one vector. On
// the serving hot path the same B — a model weight — is multiplied
// thousands of times, so PackedPanels captures the packed form once,
// cache-line aligned, and gemm_packed() / gemm_packed_int16() run any number
// of GEMMs on it, from any number of threads sharing the one copy, with zero
// packing per request (BLIS's pack-once contract; Van Zee & van de Geijn,
// TOMS 2015).
//
// One panel format for both lanes; the only difference is the k-group G,
// the number of consecutive k steps stored as one unit per sliver so that
// one load feeds one multiply step:
//  - double, G = 1: k-step-major slivers (one FMA row of nr columns);
//  - int16, G = 2: pair-interleaved slivers, (b[2q][j], b[2q+1][j]) per
//    column j — exactly what one vpmaddwd / vpdpwssd consumes. For G = 1
//    and 2, element (p, j) of a sliver sits at
//    (p / G) * G * nr + j * G + p % G;
//  - int16, G = 64 (kByteSplitGroup, the AMX tier; nr = 16): each 64-step
//    group of a sliver is a pair of 1 KB int8 tiles, 16 rows x 64 bytes,
//    hi first, then lo. Byte (r, c, e) of the hi tile is the signed high
//    byte b >> 8 of b[4r + e][c], of the lo tile its unsigned low byte
//    b & 0xFF: the B operand layout of tdpb[su][su]d. The two planes take
//    the bytes the pair layout takes, so the switch costs no memory.
// A panel's k extent is rounded up to whole groups and its width to whole
// slivers, zero-padded (a zero b adds nothing to any accumulator). Panels
// are stored jc-major, kc inner, each starting on a 64-byte boundary. The
// INT16 lane's G is its selected tier's, fixed when the panels are packed.
//
// The Epilogue rides along because the same hot path ends every Linear
// layer with a bias broadcast and (usually) an activation: fusing both into
// the micro-tile store removes two full read-modify-write passes over the
// output, ordered exactly like the unfused matmul + add_row_broadcast +
// activation sequence so results stay bit-identical (see gemm.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace onesa::tensor {
class MemoryStack;
}  // namespace onesa::tensor

namespace onesa::tensor::kernels {

// Cache blocking shared by the packer and both lanes' loop nests: a packed
// B panel is at most kKC k steps by kNC columns.
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 512;     // a multiple of every sliver width
inline constexpr std::size_t kMaxNr = 16;   // widest sliver of any tile set
inline constexpr std::size_t kByteSplitGroup = 64;  // k steps per AMX tile pair

/// B sliver width of each lane's tile set, picked once by CPUID: 16 on the
/// AVX-512 tiers, 8 on AVX2/portable. The lanes are independent — a CPU can
/// have avx512f (double) without avx512bw (int16).
std::size_t sliver_width();        // double lane, defined in gemm.cpp
std::size_t sliver_width_int16();  // INT16 lane, defined in gemm_int16.cpp
/// k-group of the INT16 lane's selected tier: 2, or kByteSplitGroup on AMX.
std::size_t k_group_int16();       // defined in gemm_int16.cpp

namespace detail {
struct PanelPacker;  // packs at an explicit width or into pack scratch (lane.hpp)
}  // namespace detail

/// B (k x n, row-major) packed into the panel format above. Immutable once
/// packed: copies share the one buffer, and every accessor is const, so a
/// packed weight can serve any number of threads.
template <typename T>
class PackedPanels {
 public:
  /// k steps stored side by side per column by the vector tiles (see the
  /// header comment); the INT16 lane's AMX tier packs kByteSplitGroup.
  static constexpr std::size_t kGroup = std::is_same_v<T, std::int16_t> ? 2 : 1;

  PackedPanels() = default;

  /// Pack `b` (k x n, row-major) at the sliver width and k-group of this
  /// lane's selected tile set.
  static PackedPanels pack(const T* b, std::size_t k, std::size_t n);

  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  std::size_t nr() const { return nr_; }
  std::size_t group() const { return group_; }
  bool empty() const { return k_ == 0 || n_ == 0; }
  std::size_t kc_panels() const { return (k_ + kKC - 1) / kKC; }
  std::size_t nc_panels() const { return (n_ + kNC - 1) / kNC; }

  /// Base of panel (jc_idx, kc_idx). In a panel of kcb k steps, sliver jr
  /// (a multiple of nr) starts at base + jr * round_up(kcb, group()).
  const T* panel(std::size_t jc_idx, std::size_t kc_idx) const {
    return data_ + jc_idx * column_ +
           kc_idx * (jc_idx + 1 < nc_panels() ? panel_ : last_panel_);
  }

  /// Element B[kk][j] read back out of the packed layout (loss-free: packing
  /// only copies). Powers the reference-order fallbacks, which must consume
  /// the exact values the original B held.
  T at(std::size_t kk, std::size_t j) const;

  /// Bytes of the packed buffer, padding included.
  std::size_t packed_bytes() const { return bytes_; }

 private:
  friend struct detail::PanelPacker;

  /// Pack at sliver width `nr` and k-group `group`, into `scratch` when
  /// given (the panels then live until the scratch is rewound) or into a
  /// buffer of its own.
  PackedPanels(const T* b, std::size_t k, std::size_t n, std::size_t nr, std::size_t group,
               MemoryStack* scratch);

  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::size_t nr_ = 0;
  std::size_t group_ = kGroup;
  std::size_t panel_ = 0;       // elements per kKC-tall panel, full-width column
  std::size_t last_panel_ = 0;  // the same in the last (narrower) column
  std::size_t column_ = 0;      // elements per full-width column of panels
  std::size_t bytes_ = 0;
  std::shared_ptr<const T> owner_;  // null when the panels live in scratch
  const T* data_ = nullptr;
};

using PackedB = PackedPanels<double>;
using PackedBInt16 = PackedPanels<std::int16_t>;

/// Post-GEMM epilogue fused into the micro-tile store (and into the final
/// output pass of the reference-order fallbacks): bias broadcast plus an
/// optional activation, applied exactly once per output element after its
/// full k-sum is formed. `bias` must point at n doubles for every kind but
/// kNone. kBiasTable evaluates an opaque scalar table (e.g.
/// cpwl::SegmentTable) through the function pointer so the kernel layer
/// stays free of upper-layer includes.
struct Epilogue {
  enum class Kind : std::uint8_t { kNone, kBias, kBiasRelu, kBiasTable };
  using TableEvalFn = double (*)(const void* table, double x);

  Kind kind = Kind::kNone;
  const double* bias = nullptr;
  TableEvalFn table_eval = nullptr;  // kBiasTable only
  const void* table = nullptr;       // kBiasTable only
};

/// y = epilogue(x) for output column j. Ordered exactly like the unfused
/// sequence (bias add first, then activation) so fused results are
/// bit-identical to matmul + add_row_broadcast + activation.
inline double epilogue_apply(const Epilogue& e, std::size_t j, double v) {
  switch (e.kind) {
    case Epilogue::Kind::kNone:
      return v;
    case Epilogue::Kind::kBias:
      return v + e.bias[j];
    case Epilogue::Kind::kBiasRelu: {
      const double b = v + e.bias[j];
      return b > 0.0 ? b : 0.0;  // == cpwl::eval_reference(kRelu, b), bit for bit
    }
    case Epilogue::Kind::kBiasTable:
      return e.table_eval(e.table, v + e.bias[j]);
  }
  return v;
}

// ------------------------------------------------------------ pack counter
//
// Debug-only instrumentation: every B panel packed anywhere in the kernel
// layer (PackedPanels and the pack-as-you-go gemm_blocked) bumps a
// process-wide counter, letting tests assert the pack-once contract — e.g.
// that a threaded gemm() packs each (kc, jc) panel exactly once instead of
// once per thread, and that gemm_packed() packs nothing at all. Compiled
// out under NDEBUG (pack_counter_enabled() says which build you got).

bool pack_counter_enabled();
std::uint64_t pack_panel_count();
void reset_pack_panel_count();

namespace detail {
#ifndef NDEBUG
void note_pack_panel();
#else
inline void note_pack_panel() {}
#endif
}  // namespace detail

}  // namespace onesa::tensor::kernels
