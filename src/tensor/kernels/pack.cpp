// The shared half of the packed-GEMM layer: the panel packer, the pack
// scratch, the pack counter and the profiling hook (pack.hpp, lane.hpp).
#include "tensor/kernels/pack.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "tensor/buffer_pool.hpp"
#include "tensor/kernels/lane.hpp"

namespace onesa::tensor::kernels {

namespace {

constexpr std::size_t kPanelAlign = MemoryStack::kAlignment;  // bytes per panel boundary
static_assert(kPanelAlign <= pool::kBlockAlignment);

thread_local std::size_t tl_scratch_depth = 0;

#ifndef NDEBUG
std::atomic<std::uint64_t> g_pack_panels{0};
#endif

}  // namespace

#ifndef NDEBUG
bool pack_counter_enabled() { return true; }
std::uint64_t pack_panel_count() { return g_pack_panels.load(std::memory_order_relaxed); }
void reset_pack_panel_count() { g_pack_panels.store(0, std::memory_order_relaxed); }
namespace detail {
void note_pack_panel() { g_pack_panels.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail
#else
bool pack_counter_enabled() { return false; }
std::uint64_t pack_panel_count() { return 0; }
void reset_pack_panel_count() {}
#endif

namespace detail {

namespace {

/// Byte offset of the hi byte of (p, cc) in a byte-split sliver at width nr
/// (pack.hpp); its lo byte sits kByteSplitGroup * nr bytes further on.
std::size_t byte_split_offset(std::size_t p, std::size_t cc, std::size_t nr) {
  constexpr std::size_t G = kByteSplitGroup;
  return p / G * 2 * G * nr + p % G / 4 * 4 * nr + cc * 4 + p % 4;
}

/// pack_panel's kByteSplitGroup layout, one tile row at a time: the 4 k
/// steps of row p / 4 across the sliver's columns, hi bytes into the hi
/// tile's 64-byte row and lo bytes into the lo tile's, zero past kcb and
/// past the sliver's last column.
void pack_byte_split(const std::int16_t* __restrict b, std::size_t ldb, std::size_t kcb,
                     std::size_t ncb, std::size_t nr, std::int16_t* __restrict dst) {
  static const std::int16_t zeros[kMaxNr] = {};
  const std::size_t kcp = round_up(kcb, kByteSplitGroup);
  for (std::size_t jr = 0; jr < ncb; jr += nr) {
    const std::size_t w = std::min(nr, ncb - jr);
    auto* d = reinterpret_cast<unsigned char*>(dst + jr * kcp);
    for (std::size_t p = 0; p < kcp; p += 4) {
      unsigned char* hi = d + byte_split_offset(p, 0, nr);
      unsigned char* lo = hi + kByteSplitGroup * nr;
      const std::int16_t* src[4];
      for (std::size_t e = 0; e < 4; ++e) src[e] = p + e < kcb ? b + (p + e) * ldb + jr : zeros;
      for (std::size_t cc = 0; cc < w; ++cc) {
        for (std::size_t e = 0; e < 4; ++e) {
          const auto u = static_cast<std::uint16_t>(src[e][cc]);
          hi[4 * cc + e] = static_cast<unsigned char>(u >> 8);
          lo[4 * cc + e] = static_cast<unsigned char>(u & 0xFF);
        }
      }
      std::fill(hi + 4 * w, hi + 4 * nr, 0);
      std::fill(lo + 4 * w, lo + 4 * nr, 0);
    }
  }
}

}  // namespace

template <typename T>
void pack_panel(const T* __restrict b, std::size_t ldb, std::size_t kcb, std::size_t ncb,
                std::size_t nr, std::size_t group, T* __restrict dst) {
  constexpr std::size_t G = PackedPanels<T>::kGroup;
  if constexpr (std::is_same_v<T, std::int16_t>) {
    if (group == kByteSplitGroup) {
      pack_byte_split(b, ldb, kcb, ncb, nr, dst);
      note_pack_panel();
      return;
    }
  }
  static const T zeros[kMaxNr] = {};  // source of the odd-k tail row's padding
  const std::size_t kcp = round_up(kcb, G);
  for (std::size_t jr = 0; jr < ncb; jr += nr) {
    const std::size_t w = std::min(nr, ncb - jr);
    T* d = dst + jr * kcp;
    for (std::size_t p = 0; p < kcp; p += G, d += G * nr) {
      const T* src[G];
      for (std::size_t g = 0; g < G; ++g) src[g] = p + g < kcb ? b + (p + g) * ldb + jr : zeros;
      for (std::size_t cc = 0; cc < w; ++cc)
        for (std::size_t g = 0; g < G; ++g) d[cc * G + g] = src[g][cc];
      std::fill(d + w * G, d + nr * G, T{0});  // columns past the sliver's last
    }
  }
  note_pack_panel();
}

template void pack_panel(const double*, std::size_t, std::size_t, std::size_t, std::size_t,
                         std::size_t, double*);
template void pack_panel(const std::int16_t*, std::size_t, std::size_t, std::size_t,
                         std::size_t, std::size_t, std::int16_t*);

MemoryStack& PackScratch::arena() {
  thread_local MemoryStack scratch;
  return scratch;
}

PackScratch::PackScratch() { ++tl_scratch_depth; }

PackScratch::~PackScratch() noexcept(false) {
  if (--tl_scratch_depth > 0) return;
  MemoryStack& scratch = arena();
  scratch.reset();
  scratch.shrink_to(kScratchRetainBytes);
}

KernelMetrics::KernelMetrics(const char* span_name)
    : span(span_name),
      calls(obs::MetricsRegistry::global().counter(std::string("kernel_") + span_name +
                                                   "_calls_total")),
      flops(obs::MetricsRegistry::global().counter(std::string("kernel_") + span_name +
                                                   "_flops_total")),
      bytes(obs::MetricsRegistry::global().counter(std::string("kernel_") + span_name +
                                                   "_bytes_total")),
      gflops(obs::MetricsRegistry::global().histogram(std::string("kernel_") + span_name +
                                                      "_gflops")),
      wall_ms(obs::MetricsRegistry::global().histogram(std::string("kernel_") + span_name +
                                                       "_ms")) {}

bool profiling_active() { return obs::metrics_enabled() || obs::tracing_enabled(); }

void record_kernel_profile(KernelMetrics& metrics, std::size_t elem_bytes, std::size_t m,
                           std::size_t k, std::size_t n,
                           std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  const std::uint64_t flops = 2ull * m * k * n;
  metrics.calls.add(1);
  metrics.flops.add(flops);
  metrics.bytes.add(elem_bytes * (m * k + k * n + m * n));
  metrics.wall_ms.record(ms);
  if (ms > 0.0) metrics.gflops.record(static_cast<double>(flops) / (ms * 1e6));
  if (obs::tracing_enabled()) {
    using std::chrono::microseconds;
    const auto ts = std::chrono::duration_cast<microseconds>(t0.time_since_epoch()).count();
    const auto dur = std::chrono::duration_cast<microseconds>(t1 - t0).count();
    obs::trace_complete(metrics.span, "kernel", ts, dur,
                        "\"m\":" + std::to_string(m) + ",\"k\":" + std::to_string(k) +
                            ",\"n\":" + std::to_string(n) +
                            ",\"flops\":" + std::to_string(flops));
  }
}

}  // namespace detail

template <typename T>
PackedPanels<T>::PackedPanels(const T* b, std::size_t k, std::size_t n, std::size_t nr,
                              std::size_t group, MemoryStack* scratch)
    : k_(k), n_(n), nr_(nr), group_(group) {
  ONESA_CHECK(nr > 0 && kNC % nr == 0 && nr <= kMaxNr,
              "PackedPanels: sliver width " << nr << " does not divide " << kNC);
  ONESA_CHECK(group == kGroup || (std::is_same_v<T, std::int16_t> &&
                                  group == kByteSplitGroup && nr == kMaxNr),
              "PackedPanels: k-group " << group << " at sliver width " << nr);
  if (empty()) return;
  using detail::round_up;
  const auto panel_elems = [nr, group](std::size_t kcb, std::size_t ncb) {
    return round_up(round_up(ncb, nr) * round_up(kcb, group), kPanelAlign / sizeof(T));
  };
  const std::size_t last_kcb = k - (kc_panels() - 1) * kKC;
  const std::size_t last_ncb = n - (nc_panels() - 1) * kNC;
  const auto column_elems = [&](std::size_t ncb) {
    return (kc_panels() - 1) * panel_elems(kKC, ncb) + panel_elems(last_kcb, ncb);
  };
  panel_ = panel_elems(kKC, kNC);
  last_panel_ = panel_elems(kKC, last_ncb);
  column_ = column_elems(kNC);
  const std::size_t total = (nc_panels() - 1) * column_ + column_elems(last_ncb);
  bytes_ = total * sizeof(T);

  T* buf;
  if (scratch != nullptr) {
    buf = scratch->allocate_span<T>(total);
  } else {
    buf = static_cast<T*>(pool::allocate(bytes_));
    owner_ = std::shared_ptr<const T>(
        buf, [bytes = bytes_](const T* p) { pool::deallocate(const_cast<T*>(p), bytes); });
  }
  data_ = buf;
  for (std::size_t jc_idx = 0; jc_idx < nc_panels(); ++jc_idx) {
    for (std::size_t kc_idx = 0; kc_idx < kc_panels(); ++kc_idx) {
      detail::pack_panel(b + kc_idx * kKC * n + jc_idx * kNC, n,
                         std::min(kKC, k - kc_idx * kKC), std::min(kNC, n - jc_idx * kNC), nr,
                         group, buf + (panel(jc_idx, kc_idx) - data_));
    }
  }
}

template <typename T>
PackedPanels<T> PackedPanels<T>::pack(const T* b, std::size_t k, std::size_t n) {
  if constexpr (std::is_same_v<T, double>)
    return PackedPanels(b, k, n, sliver_width(), kGroup, nullptr);
  else
    return PackedPanels(b, k, n, sliver_width_int16(), k_group_int16(), nullptr);
}

template <typename T>
T PackedPanels<T>::at(std::size_t kk, std::size_t j) const {
  ONESA_DCHECK(kk < k_ && j < n_, "PackedPanels::at(" << kk << "," << j << ") out of " << k_
                                                      << "x" << n_);
  const std::size_t p = kk % kKC;
  const std::size_t kcp = detail::round_up(std::min(kKC, k_ - kk / kKC * kKC), group_);
  const std::size_t jr = j % kNC / nr_ * nr_;
  const std::size_t cc = j % kNC - jr;
  const T* sliver = panel(j / kNC, kk / kKC) + jr * kcp;
  if constexpr (std::is_same_v<T, std::int16_t>) {
    if (group_ == kByteSplitGroup) {
      const auto* hi = reinterpret_cast<const unsigned char*>(sliver) +
                       detail::byte_split_offset(p, cc, nr_);
      return static_cast<T>(static_cast<std::uint16_t>(hi[0] << 8 | hi[kByteSplitGroup * nr_]));
    }
  }
  return sliver[p / kGroup * kGroup * nr_ + cc * kGroup + p % kGroup];
}

template class PackedPanels<double>;
template class PackedPanels<std::int16_t>;

}  // namespace onesa::tensor::kernels
