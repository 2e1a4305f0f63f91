#include "cpwl/segment_table.hpp"

#include <algorithm>
#include <cmath>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace onesa::cpwl {

namespace {

/// Exact power-of-two test returning the exponent e with g == 2^e, or
/// nullopt-like -1000 sentinel when g is not a power of two.
int power_of_two_exponent(double g) {
  int e = 0;
  const double mantissa = std::frexp(g, &e);  // g = mantissa * 2^e, mantissa in [0.5, 1)
  if (mantissa == 0.5) return e - 1;
  return -1000;
}

}  // namespace

SegmentTable SegmentTable::build(FunctionKind kind, const SegmentTableConfig& config) {
  SegmentTableConfig cfg = config;
  if (cfg.domain.lo == 0.0 && cfg.domain.hi == 0.0) {
    cfg.domain = default_domain(kind);
  }
  return build_custom(as_callable(kind), std::string(function_name(kind)), cfg);
}

SegmentTable SegmentTable::build_custom(const std::function<double(double)>& f,
                                        std::string name,
                                        const SegmentTableConfig& config) {
  ONESA_CHECK(config.granularity > 0.0, "granularity must be positive, got "
                                            << config.granularity);
  ONESA_CHECK(config.domain.hi > config.domain.lo,
              "empty CPWL domain [" << config.domain.lo << ", " << config.domain.hi << "]");
  ONESA_CHECK(config.frac_bits > 0 && config.frac_bits < 15,
              "invalid frac_bits " << config.frac_bits);

  SegmentTable t;
  t.name_ = std::move(name);
  t.granularity_ = config.granularity;
  t.domain_ = config.domain;
  t.frac_bits_ = config.frac_bits;

  const double g = config.granularity;
  t.min_segment_ = static_cast<int>(std::floor(config.domain.lo / g));
  t.max_segment_ = static_cast<int>(std::ceil(config.domain.hi / g)) - 1;
  t.max_segment_ = std::max(t.max_segment_, t.min_segment_);

  const int exp2 = power_of_two_exponent(g);
  t.pow2_granularity_ = exp2 != -1000;
  t.inv_granularity_ = 1.0 / g;  // exact when g is a power of two
  if (t.pow2_granularity_ && config.frac_bits + exp2 >= 0) {
    t.shift_amount_ = config.frac_bits + exp2;
  }

  const auto segments = static_cast<std::size_t>(t.max_segment_ - t.min_segment_ + 1);
  t.k_params_.reserve(segments);
  t.b_params_.reserve(segments);
  t.k_fixed_params_.reserve(segments);
  t.b_fixed_params_.reserve(segments);
  for (int s = t.min_segment_; s <= t.max_segment_; ++s) {
    // Endpoints of the segment, clipped to the domain so boundary segments
    // of functions with singular edges (e.g. 1/x near 0) stay finite.
    const double x0 = std::max(s * g, config.domain.lo);
    const double x1 = std::min((s + 1) * g, config.domain.hi);
    ONESA_CHECK(x1 > x0, "degenerate segment " << s << " for " << t.name_);
    const double y0 = f(x0);
    const double y1 = f(x1);
    const double k = (y1 - y0) / (x1 - x0);
    const double b = y0 - k * x0;
    t.k_params_.push_back(k);
    t.b_params_.push_back(b);
    t.k_fixed_params_.push_back(fixed::Fix16::from_double(k));
    t.b_fixed_params_.push_back(fixed::Fix16::from_double(b));
    t.kb_packed_.push_back(
        static_cast<std::int32_t>(
            static_cast<std::uint16_t>(t.k_fixed_params_.back().raw())) |
        (static_cast<std::int32_t>(t.b_fixed_params_.back().raw()) << 16));
  }
  return t;
}

int SegmentTable::raw_segment(double x) const {
  return static_cast<int>(std::floor(x / granularity_));
}

int SegmentTable::segment_index(double x) const {
  return std::clamp(raw_segment(x), min_segment_, max_segment_);
}

int SegmentTable::segment_index_raw(std::int16_t raw) const {
  int s;
  if (shift_indexable()) {
    // Arithmetic right shift == floor division by 2^shift (two's complement,
    // guaranteed by C++20) — the single-shift hardware path.
    s = static_cast<int>(raw) >> shift_amount_;
  } else {
    s = raw_segment(static_cast<double>(raw) /
                    static_cast<double>(std::int32_t{1} << frac_bits_));
  }
  return std::clamp(s, min_segment_, max_segment_);  // the "scale module" cap
}

std::size_t SegmentTable::relative_index(int segment) const {
  ONESA_DCHECK(segment >= min_segment_ && segment <= max_segment_,
               "segment " << segment << " outside [" << min_segment_ << ", "
                          << max_segment_ << "]");
  return static_cast<std::size_t>(segment - min_segment_);
}

double SegmentTable::k(int segment) const { return k_params_[relative_index(segment)]; }
double SegmentTable::b(int segment) const { return b_params_[relative_index(segment)]; }

fixed::Fix16 SegmentTable::k_fixed(int segment) const {
  return k_fixed_params_[relative_index(segment)];
}
fixed::Fix16 SegmentTable::b_fixed(int segment) const {
  return b_fixed_params_[relative_index(segment)];
}

int SegmentTable::grid_segment(double x) const {
  // Multiplying by the reciprocal is exact for power-of-two granularities
  // (both are pure exponent scalings), so this matches raw_segment()'s
  // divide bit-for-bit there; other granularities keep the divide.
  const double t = pow2_granularity_ ? x * inv_granularity_ : x / granularity_;
  // Branch-free floor-to-int (t is finite and well inside int range for any
  // in-domain input: the domain is bounded and g >= one INT16 ulp).
  int s = static_cast<int>(t);
  s -= static_cast<double>(s) > t;
  return s;
}

double SegmentTable::eval(double x) const {
  int s = grid_segment(x);
  s = s < min_segment_ ? min_segment_ : s;
  s = s > max_segment_ ? max_segment_ : s;
  const std::size_t i = static_cast<std::size_t>(s - min_segment_);
  return k_params_[i] * x + b_params_[i];
}

fixed::Fix16 SegmentTable::eval_fixed(fixed::Fix16 x) const {
  const std::size_t i = relative_index(segment_index_raw(x.raw()));
  fixed::Acc16 acc;
  acc.mac(k_fixed_params_[i], x);
  acc.mac(fixed::Fix16::from_double(1.0), b_fixed_params_[i]);
  return acc.result();
}

#if defined(__x86_64__)
/// Eight eval() lanes per iteration, bit-exact with the scalar path: the
/// same t (an exact multiply or the IEEE divide), truncation, floor
/// correction and clamp in wrapping int32 lanes, a gather of (k, b), then
/// k*x rounded and b added — the product is pinned in a register so the
/// compiler cannot contract the two into an FMA, which rounds once and
/// would differ from eval(). x == y (in place) is fine: each chunk is
/// loaded before it is stored.
// Same gcc 12 -Wmaybe-uninitialized false positive as below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) static std::size_t eval_double_avx512(
    const double* x, double* y, std::size_t len, bool multiply, double scale, int lo, int hi,
    const double* k, const double* b) {
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d one = _mm512_set1_pd(1.0);
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m512d xv = _mm512_loadu_pd(x + i);
    const __m512d t = multiply ? _mm512_mul_pd(xv, vscale) : _mm512_div_pd(xv, vscale);
    __m256i s = _mm512_cvttpd_epi32(t);  // static_cast<int>(t)
    const __mmask8 above = _mm512_cmp_pd_mask(_mm512_cvtepi32_pd(s), t, _CMP_GT_OQ);
    s = _mm256_sub_epi32(s, _mm512_cvttpd_epi32(_mm512_maskz_mov_pd(above, one)));
    s = _mm256_min_epi32(_mm256_max_epi32(s, vlo), vhi);
    const __m256i idx = _mm256_sub_epi32(s, vlo);
    __m512d prod = _mm512_mul_pd(_mm512_i32gather_pd(idx, k, 8), xv);
    __asm__("" : "+v"(prod));
    _mm512_storeu_pd(y + i, _mm512_add_pd(prod, _mm512_i32gather_pd(idx, b, 8)));
  }
  return i;
}
#pragma GCC diagnostic pop
#endif  // __x86_64__

void SegmentTable::eval_batch(std::span<const double> x, std::span<double> y) const {
  ONESA_CHECK(x.size() == y.size(),
              "eval_batch spans differ: " << x.size() << " vs " << y.size());
  const int lo = min_segment_;
  const int hi = max_segment_;
  std::size_t i = 0;
#if defined(__x86_64__)
  static const bool kVector = __builtin_cpu_supports("avx512f");
  if (kVector) {
    i = eval_double_avx512(x.data(), y.data(), x.size(), pow2_granularity_,
                           pow2_granularity_ ? inv_granularity_ : granularity_, lo, hi,
                           k_params_.data(), b_params_.data());
  }
#endif
  for (; i < x.size(); ++i) {
    int s = grid_segment(x[i]);
    s = s < lo ? lo : s;
    s = s > hi ? hi : s;
    const std::size_t idx = static_cast<std::size_t>(s - lo);
    y[i] = k_params_[idx] * x[i] + b_params_[idx];
  }
}

#if defined(__x86_64__)
/// Sixteen shift-indexed CPWL lanes per iteration, bit-exact with the scalar
/// path: every intermediate fits int32 (|k*x| <= 2^30, |b << frac_bits| <=
/// 2^29, rounding constant <= 2^13), so 32-bit lanes reproduce Acc16's
/// 64-bit accumulate exactly, and the saturating int32->int16 downconvert is
/// Acc16::result()'s saturate_i16. Needs only avx512f, but gated on
/// avx512bw to match the INT16 GEMM dispatch tier.
// gcc 12's avx512fintrin.h trips -Wmaybe-uninitialized on the non-masked
// intrinsic forms (header-internal `__Y`, a known false positive — same one
// suppressed around gemm.cpp's store_tile_avx512_8x16); scope the
// suppression to this one function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) static std::size_t eval_fixed_shift_avx512(
    const std::int16_t* x, std::int16_t* y, std::size_t len, int shift, int frac_bits,
    int lo, int hi, const std::int32_t* kb) {
  const __m512i vlo = _mm512_set1_epi32(lo);
  const __m512i vhi = _mm512_set1_epi32(hi);
  const __m512i vround = _mm512_set1_epi32(1 << (frac_bits - 1));
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  const __m128i vfrac = _mm_cvtsi32_si128(frac_bits);
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m256i raw = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m512i xw = _mm512_cvtepi16_epi32(raw);           // sign-extend
    __m512i s = _mm512_sra_epi32(xw, vshift);                // segment index
    s = _mm512_min_epi32(_mm512_max_epi32(s, vlo), vhi);     // scale-module cap
    const __m512i idx = _mm512_sub_epi32(s, vlo);
    const __m512i kb32 = _mm512_i32gather_epi32(idx, kb, 4);  // k lo16, b hi16
    const __m512i k = _mm512_srai_epi32(_mm512_slli_epi32(kb32, 16), 16);
    const __m512i b = _mm512_srai_epi32(kb32, 16);
    __m512i acc = _mm512_mullo_epi32(k, xw);                 // k*x
    acc = _mm512_add_epi32(acc, _mm512_sll_epi32(b, vfrac)); // + one.raw * b
    acc = _mm512_add_epi32(acc, vround);
    acc = _mm512_sra_epi32(acc, vfrac);                      // Acc16::result()
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + i),
                        _mm512_cvtsepi32_epi16(acc));        // saturate_i16
  }
  return i;
}
#pragma GCC diagnostic pop
#endif  // __x86_64__

void SegmentTable::eval_fixed_batch(std::span<const fixed::Fix16> x,
                                    std::span<fixed::Fix16> y) const {
  ONESA_CHECK(x.size() == y.size(),
              "eval_fixed_batch spans differ: " << x.size() << " vs " << y.size());
  const auto one = fixed::Fix16::from_double(1.0);
  const int lo = min_segment_;
  const int hi = max_segment_;
  if (shift_indexable()) {
    const int shift = shift_amount_;
    std::size_t i = 0;
#if defined(__x86_64__)
    // Fix16 is a standard-layout wrapper over one int16_t, so its array is
    // byte-compatible with an int16_t array (the raw view the hardware
    // datapath works on anyway).
    static_assert(sizeof(fixed::Fix16) == sizeof(std::int16_t));
    static const bool kVector = __builtin_cpu_supports("avx512bw");
    if (kVector) {
      // The accumulate/requantize stage always runs at Acc16's frac bits
      // (kDefaultFracBits), matching the scalar loop below; only the segment
      // shift depends on the table's own frac_bits.
      i = eval_fixed_shift_avx512(reinterpret_cast<const std::int16_t*>(x.data()),
                                  reinterpret_cast<std::int16_t*>(y.data()), x.size(),
                                  shift, fixed::kDefaultFracBits, lo, hi,
                                  kb_packed_.data());
    }
#endif
    for (; i < x.size(); ++i) {
      int s = static_cast<int>(x[i].raw()) >> shift;
      s = s < lo ? lo : s;
      s = s > hi ? hi : s;
      const std::size_t idx = static_cast<std::size_t>(s - lo);
      fixed::Acc16 acc;
      acc.mac(k_fixed_params_[idx], x[i]);
      acc.mac(one, b_fixed_params_[idx]);
      y[i] = acc.result();
    }
    return;
  }
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = eval_fixed(x[i]);
}

SegmentTable::CapCounts SegmentTable::lookup_fixed_batch(
    std::span<const fixed::Fix16> x, std::span<fixed::Fix16> segment,
    std::span<fixed::Fix16> k, std::span<fixed::Fix16> b) const {
  ONESA_CHECK(segment.size() == x.size() && k.size() == x.size() && b.size() == x.size(),
              "lookup_fixed_batch spans must match the input length " << x.size());
  CapCounts caps;
  const int lo = min_segment_;
  const int hi = max_segment_;
  const bool shifted = shift_indexable();
  const int shift = shift_amount_;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const int uncapped = shifted
                             ? static_cast<int>(x[i].raw()) >> shift
                             : raw_segment(static_cast<double>(x[i].raw()) /
                                           static_cast<double>(std::int32_t{1} << frac_bits_));
    int s = uncapped;
    if (s < lo) {
      s = lo;
      ++caps.low;
    } else if (s > hi) {
      s = hi;
      ++caps.high;
    }
    const std::size_t idx = static_cast<std::size_t>(s - lo);
    segment[i] = fixed::Fix16::from_raw(static_cast<std::int16_t>(s));
    k[i] = k_fixed_params_[idx];
    b[i] = b_fixed_params_[idx];
  }
  return caps;
}

TableSet::TableSet(double granularity, int frac_bits)
    : TableSet(granularity, {}, frac_bits) {}

TableSet::TableSet(double default_granularity,
                   const std::vector<std::pair<FunctionKind, double>>& overrides,
                   int frac_bits)
    : granularity_(default_granularity) {
  for (FunctionKind kind : all_functions()) {
    SegmentTableConfig cfg;
    cfg.granularity = default_granularity;
    for (const auto& [fn, g] : overrides) {
      if (fn == kind) cfg.granularity = g;
    }
    cfg.frac_bits = frac_bits;
    tables_.push_back(SegmentTable::build(kind, cfg));
  }
}

const SegmentTable& TableSet::get(FunctionKind kind) const {
  const auto idx = static_cast<std::size_t>(kind);
  ONESA_CHECK(idx < tables_.size(), "FunctionKind out of range");
  return tables_[idx];
}

std::size_t TableSet::total_table_bytes() const {
  std::size_t total = 0;
  for (const auto& t : tables_) total += t.table_bytes();
  return total;
}

}  // namespace onesa::cpwl
