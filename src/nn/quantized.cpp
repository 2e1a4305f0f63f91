#include "nn/quantized.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "cpwl/segment_table.hpp"
#include "fixed/fixed16.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"

namespace onesa::nn {

namespace {

using tensor::kernels::EpilogueInt16;

/// Raw magnitude of the activation-range contract |x| <= 8.0 in Q6.9.
constexpr double kActRawBound = 8.0 * static_cast<double>(fixed::Fix16::kOne);
/// Worst-case accumulator magnitude the quantizer provisions for — half of
/// int32 range, so the kernel's mod-2^32 accumulation never actually wraps
/// (and the int64 bias add in the epilogue has further slack on top).
constexpr double kAccBound = static_cast<double>(std::int64_t{1} << 30);

double round_half_away(double v) {
  return v >= 0.0 ? std::floor(v + 0.5) : std::ceil(v - 0.5);
}

/// Largest weight fractional-bit count in [0, 14] satisfying both the int16
/// representability bound and the accumulator headroom bound (see header).
int choose_weight_frac_bits(double max_w, std::size_t k_dim) {
  int fb = 14;
  if (max_w <= 0.0) return fb;  // all-zero weights: any scale is exact
  const auto max_raw = [&](int bits) {
    return round_half_away(max_w * std::ldexp(1.0, bits));
  };
  while (fb > 0 && max_raw(fb) > 32767.0) --fb;
  while (fb > 0 && static_cast<double>(k_dim) * max_raw(fb) * kActRawBound > kAccBound) --fb;
  if (max_raw(fb) > 32767.0 ||
      static_cast<double>(k_dim) * max_raw(fb) * kActRawBound > kAccBound) {
    throw Error("quantize: weights too large for the INT16 lane's accumulator "
                "headroom (max |w| = " + std::to_string(max_w) +
                ", k = " + std::to_string(k_dim) + ")");
  }
  return fb;
}

/// max |w| over `count` weights. Four running maxima break the compare
/// chain's latency; max is order-independent, so the result is exact.
double max_abs(const double* w, std::size_t count) {
  double m[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4)
    for (std::size_t l = 0; l < 4; ++l) m[l] = std::max(m[l], std::fabs(w[i + l]));
  for (; i < count; ++i) m[0] = std::max(m[0], std::fabs(w[i]));
  return std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
}

QuantizedLayer quantize_linear(const Linear& lin) {
  const tensor::Matrix& w = lin.weight().value;  // in x out
  const tensor::Matrix& b = lin.bias().value;    // 1 x out
  const double* wv = w.data().data();

  QuantizedLayer q;
  q.in = lin.in_features();
  q.out = lin.out_features();
  q.w_frac_bits = choose_weight_frac_bits(max_abs(wv, w.size()), q.in);

  // One branch-free pass. choose_weight_frac_bits bounds every |w * scale|
  // below 32767.5, so truncating v +- 0.5 toward zero is exactly
  // round_half_away(v) (v + 0.5 > 0 truncates to its floor; v - 0.5 < 0 to
  // its ceiling; -0.0 and +0.0 both land on 0) and always fits int32 —
  // without a floor/ceil call or a sign branch per weight.
  const double w_scale = std::ldexp(1.0, q.w_frac_bits);
  std::vector<std::int16_t> raw(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double v = wv[i] * w_scale;
    raw[i] = fixed::saturate_i16(static_cast<std::int32_t>(v + std::copysign(0.5, v)));
  }
  q.weight = tensor::kernels::PackedBInt16::pack(raw.data(), q.in, q.out);

  // Bias in the accumulator domain: scale 2^(frac_bits + w_fb), added as
  // int32 before the requantizing shift.
  const double b_scale = std::ldexp(1.0, fixed::kDefaultFracBits + q.w_frac_bits);
  q.bias.resize(q.out);
  for (std::size_t j = 0; j < q.out; ++j) {
    const double scaled = round_half_away(b(0, j) * b_scale);
    q.bias[j] = static_cast<std::int32_t>(std::clamp(
        scaled, static_cast<double>(std::numeric_limits<std::int32_t>::min()),
        static_cast<double>(std::numeric_limits<std::int32_t>::max())));
  }
  return q;
}

}  // namespace

void segment_table_batch_eval(const void* table, const std::int16_t* x,
                              std::int16_t* y, std::size_t len) {
  const auto& t = *static_cast<const cpwl::SegmentTable*>(table);
  // Fix16 is a standard-layout wrapper over one int16_t (the raw datapath
  // representation), so the row views go straight through without staging
  // copies — full-length spans keep eval_fixed_batch on its vector path.
  static_assert(sizeof(fixed::Fix16) == sizeof(std::int16_t));
  t.eval_fixed_batch(
      std::span<const fixed::Fix16>(reinterpret_cast<const fixed::Fix16*>(x), len),
      std::span<fixed::Fix16>(reinterpret_cast<fixed::Fix16*>(y), len));
}

QuantizedModel::QuantizedModel(const Sequential& model) {
  if (model.size() == 0) throw Error("quantize: cannot quantize an empty model");
  for (std::size_t i = 0; i < model.size(); ++i) {
    const auto* lin = dynamic_cast<const Linear*>(&model.at(i));
    if (lin == nullptr) {
      throw Error("quantize: layer '" + model.at(i).name() +
                  "' is not supported on the INT16 lane (supported: Linear, "
                  "optionally followed by ReLU or a CPWL-tabled activation)");
    }
    QuantizedLayer q = quantize_linear(*lin);
    q.kind = EpilogueInt16::Kind::kBias;
    if (i + 1 < model.size()) {
      if (const auto* act = dynamic_cast<const Activation*>(&model.at(i + 1))) {
        if (act->table() != nullptr) {
          if (act->table()->frac_bits() != fixed::kDefaultFracBits) {
            throw Error("quantize: activation '" + act->name() +
                        "' has a CPWL table built for " +
                        std::to_string(act->table()->frac_bits()) +
                        " fractional bits; the INT16 lane runs Q6.9");
          }
          q.kind = EpilogueInt16::Kind::kBiasTable;
          q.table = act->table();
        } else if (act->kind() == cpwl::FunctionKind::kRelu) {
          q.kind = EpilogueInt16::Kind::kBiasRelu;
        } else {
          throw Error("quantize: activation '" + act->name() +
                      "' has no CPWL table; the INT16 lane evaluates curved "
                      "activations through SegmentTable::eval_fixed_batch — "
                      "use_table() before registering with Precision::kInt16");
        }
        ++i;  // the activation rides in the epilogue
      }
    }
    if (!layers_.empty() && layers_.back().out != q.in) {
      throw Error("quantize: layer width mismatch (" +
                  std::to_string(layers_.back().out) + " -> " +
                  std::to_string(q.in) + ")");
    }
    layers_.push_back(std::move(q));
  }
  in_ = layers_.front().in;
  out_ = layers_.back().out;
}

tensor::Matrix QuantizedModel::infer(const tensor::Matrix& x) const {
  if (x.cols() != in_) {
    throw Error("quantized infer: input has " + std::to_string(x.cols()) +
                " columns, model expects " + std::to_string(in_));
  }
  const std::size_t rows = x.rows();

  // Pool-backed int16 activation buffers: the serve tier's zero-allocation
  // gate counts on these recycling like every Matrix buffer does.
  using QBuf = std::vector<std::int16_t, tensor::DefaultInitAllocator<std::int16_t>>;
  QBuf cur(rows * in_);
  for (std::size_t i = 0; i < x.size(); ++i)
    cur[i] = fixed::Fix16::from_double(x.at_flat(i)).raw();

  QBuf next;
  for (const QuantizedLayer& l : layers_) {
    next.resize(rows * l.out);
    EpilogueInt16 epi;
    epi.kind = l.kind;
    epi.bias = l.bias.data();
    epi.shift = l.w_frac_bits;
    if (l.kind == EpilogueInt16::Kind::kBiasTable) {
      epi.table_eval = &segment_table_batch_eval;
      epi.table = l.table;
    }
    tensor::kernels::gemm_packed_int16(cur.data(), l.weight, next.data(), rows, epi);
    cur.swap(next);
  }

  tensor::Matrix out(rows, out_, tensor::kUninitialized);
  constexpr double kInvOne = 1.0 / static_cast<double>(fixed::Fix16::kOne);
  for (std::size_t i = 0; i < out.size(); ++i)
    out.at_flat(i) = static_cast<double>(cur[i]) * kInvOne;
  return out;
}

std::size_t QuantizedModel::packed_bytes() const {
  std::size_t total = 0;
  for (const QuantizedLayer& l : layers_) {
    total += l.weight.packed_bytes() + l.bias.size() * sizeof(std::int32_t);
  }
  return total;
}

}  // namespace onesa::nn
