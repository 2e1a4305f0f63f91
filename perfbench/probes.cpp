// `perfbench probe`: in-process layer probes. Each probe times one public
// call on the workload's exact shapes and payloads, after a warm-up call so
// lazy set-up (packing caches, pool shelves, table builds) is excluded, and
// reports the median over several timed trials. The nn and serve probes pin
// the kernel pool to one lane, as the server runs; the kernel probes run at
// one lane and at every lane. Prints one JSON line of per-layer metrics,
// named as in BENCHMARK.json.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "cpwl/segment_table.hpp"
#include "net/protocol.hpp"
#include "nn/quantized.hpp"
#include "roles.hpp"
#include "serve/fleet.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace onesa;
namespace kernels = tensor::kernels;

namespace {

constexpr int kTrials = 7;
constexpr double kTrialMs = 4.0;

/// Median per-call microseconds of `fn` over kTrials trials, each running
/// enough calls to last about kTrialMs.
template <typename F>
double per_call_us(F&& fn) {
  fn();  // warm-up: lazy set-up is not part of the measured call
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    const double ms = ms_between(t0, Clock::now());
    if (ms >= kTrialMs || calls >= (std::size_t{1} << 20)) break;
    calls = ms <= 0.0 ? calls * 8 : std::max(calls + 1, static_cast<std::size_t>(calls * kTrialMs / ms));
  }
  std::vector<double> us;
  for (int t = 0; t < kTrials; ++t) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    us.push_back(ms_between(t0, Clock::now()) * 1000.0 / static_cast<double>(calls));
  }
  return percentile(us, 50.0);
}

/// Median milliseconds of a one-shot operation whose input `make` builds
/// untimed before each of `trials` runs.
template <typename Make, typename Op>
double one_shot_ms(int trials, Make&& make, Op&& op) {
  std::vector<double> ms;
  for (int t = 0; t < trials; ++t) {
    auto input = make();
    const auto t0 = Clock::now();
    op(std::move(input));
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return percentile(ms, 50.0);
}

std::vector<std::int16_t> random_i16(std::size_t n, Rng& rng, std::int16_t bound) {
  std::vector<std::int16_t> v(n);
  for (auto& x : v) x = static_cast<std::int16_t>(rng.integer(-bound, bound));
  return v;
}

void protocol_probes(const Workload& w, std::uint64_t seed, JsonLine& out) {
  double enc_req = 0.0, dec_req = 0.0, enc_rep = 0.0, dec_rep = 0.0;
  for (std::size_t i = 0; i < w.models.size(); ++i) {
    const ModelSpec& spec = w.models[i];
    net::InferRequest req;
    req.model = spec.name;
    req.input = build_inputs(spec, w.rows, 1, seed, i).front();
    net::InferReply reply;
    Rng rng(seed);
    reply.logits = tensor::random_uniform(w.rows, spec.out, rng);
    std::vector<unsigned char> buf;
    std::string why;
    enc_req += spec.share * per_call_us([&] {
      buf.clear();
      net::encode_infer(buf, 1, req);
    });
    net::InferRequest req_back;
    dec_req += spec.share * per_call_us([&] {
      net::decode_infer(buf.data() + net::kHeaderBytes, buf.size() - net::kHeaderBytes,
                        req_back, why);
    });
    enc_rep += spec.share * per_call_us([&] {
      buf.clear();
      net::encode_infer_reply(buf, 1, reply);
    });
    net::InferReply reply_back;
    dec_rep += spec.share * per_call_us([&] {
      net::decode_infer_reply(buf.data() + net::kHeaderBytes,
                              buf.size() - net::kHeaderBytes, reply_back, why);
    });
  }
  out.num("net.encode_req_us", enc_req)
      .num("net.decode_req_us", dec_req)
      .num("net.encode_reply_us", enc_rep)
      .num("net.decode_reply_us", dec_rep);
}

void nn_probes(const Workload& w, std::uint64_t seed, JsonLine& out) {
  double register_ms = 0.0, pack_ms = 0.0;
  double infer_us[3] = {0.0, 0.0, 0.0};
  double layer_us[3] = {0.0, 0.0, 0.0};
  double int16_layer_us[2] = {0.0, 0.0};
  serve::ModelRegistry registry;
  for (std::size_t i = 0; i < w.models.size(); ++i) {
    const ModelSpec& spec = w.models[i];
    int registrations = 0;
    register_ms += one_shot_ms(
        3, [&] { return build_model(spec, seed, i); },
        [&](std::unique_ptr<nn::Sequential> model) {
          registry.add(spec.name + std::string("#") + std::to_string(registrations++),
                       std::move(model), model_options(spec));
        });
    const serve::ModelHandle entry = registry.get(spec.name + std::string("#0"));

    const std::size_t rows[3] = {1, 16, 64};
    for (int r = 0; r < 3; ++r) {
      const tensor::Matrix x = build_inputs(spec, rows[r], 1, seed, i).front();
      infer_us[r] += spec.share * per_call_us([&] { (void)entry->infer(x); });
    }

    // Each layer's public infer on the workload's request rows.
    tensor::Matrix x = build_inputs(spec, w.rows, 1, seed, i).front();
    for (std::size_t l = 0; l < entry->model->size() && l < 3; ++l) {
      const nn::Layer& layer = entry->model->at(l);
      layer_us[l] += spec.share * per_call_us([&] { (void)layer.infer(x); });
      x = layer.infer(x);
    }

    // The INT16 lane's layers (Linear with its fused epilogue), int16 in and
    // out, through the kernel the lane calls.
    const nn::QuantizedModel quantized(*entry->model);
    Rng rng(seed + i);
    for (std::size_t l = 0; l < quantized.layer_count() && l < 2; ++l) {
      const nn::QuantizedLayer& q = quantized.layer(l);
      const auto a = random_i16(w.rows * q.in, rng, 512);
      std::vector<std::int16_t> c(w.rows * q.out);
      kernels::EpilogueInt16 epi;
      epi.kind = q.kind;
      epi.bias = q.bias.data();
      epi.shift = q.w_frac_bits;
      if (q.kind == kernels::EpilogueInt16::Kind::kBiasTable) {
        epi.table_eval = &nn::segment_table_batch_eval;
        epi.table = q.table;
      }
      int16_layer_us[l] += spec.share * per_call_us([&] {
        kernels::gemm_packed_int16(a.data(), q.weight, c.data(), w.rows, epi);
      });
    }

    // Packing every weight of the model on its lane.
    const std::size_t shapes[2][2] = {{spec.in, spec.hidden}, {spec.hidden, spec.out}};
    if (spec.precision == serve::Precision::kInt16) {
      std::vector<std::vector<std::int16_t>> b;
      for (const auto& s : shapes) b.push_back(random_i16(s[0] * s[1], rng, 4096));
      pack_ms += per_call_us([&] {
                   for (int s = 0; s < 2; ++s)
                     (void)kernels::PackedBInt16::pack(b[s].data(), shapes[s][0], shapes[s][1]);
                 }) /
                 1000.0;
    } else {
      std::vector<tensor::Matrix> b;
      for (const auto& s : shapes) b.push_back(tensor::random_uniform(s[0], s[1], rng));
      pack_ms += per_call_us([&] {
                   for (int s = 0; s < 2; ++s)
                     (void)kernels::PackedB::pack(b[s].data().data(), shapes[s][0], shapes[s][1]);
                 }) /
                 1000.0;
    }
  }
  out.num("nn.register_ms", register_ms)
      .num("nn.infer_us.r1", infer_us[0])
      .num("nn.infer_us.r16", infer_us[1])
      .num("nn.infer_us.r64", infer_us[2]);
  for (int l = 0; l < 3; ++l) out.num("nn.layer_us." + std::to_string(l), layer_us[l]);
  for (int l = 0; l < 2; ++l)
    out.num("nn.int16_layer_us." + std::to_string(l), int16_layer_us[l]);
  out.num("kernels.pack_ms", pack_ms);
}

void serve_probes(const Workload& w, std::uint64_t seed, JsonLine& out) {
  serve::Fleet fleet(fleet_config(w));
  for (std::size_t i = 0; i < w.models.size(); ++i) {
    const ModelSpec& spec = w.models[i];
    fleet.register_model(spec.name, build_model(spec, seed, i), model_options(spec));
  }
  double submit_us = 0.0;
  for (std::size_t i = 0; i < w.models.size(); ++i) {
    const ModelSpec& spec = w.models[i];
    const tensor::Matrix x = build_inputs(spec, w.rows, 1, seed, i).front();
    submit_us += spec.share * per_call_us([&] { (void)fleet.submit_model(spec.name, x).get(); });
  }
  const ModelSpec& first = w.models.front();
  const double swap_ms = one_shot_ms(
      3, [&] { return build_model(first, seed, 0); },
      [&](std::unique_ptr<nn::Sequential> model) { fleet.swap_model(first.name, std::move(model)); });
  fleet.shutdown();
  out.num("serve.submit_rtt_us", submit_us).num("serve.swap_ms", swap_ms);
}

void kernel_probes(std::uint64_t seed, JsonLine& out) {
  auto& pool = kernels::ThreadPool::instance();
  Rng rng(seed);
  struct Shape {
    const char* name;
    std::size_t k, n;
  };
  for (const Shape& s : {Shape{"up", 768, 3072}, Shape{"down", 3072, 768}}) {
    const tensor::Matrix b = tensor::random_uniform(s.k, s.n, rng);
    const kernels::PackedB packed = kernels::PackedB::pack(b.data().data(), s.k, s.n);
    const auto b16 = random_i16(s.k * s.n, rng, 64);
    const kernels::PackedBInt16 packed16 = kernels::PackedBInt16::pack(b16.data(), s.k, s.n);
    for (std::size_t m : {1, 16, 64}) {
      const tensor::Matrix a = tensor::random_uniform(m, s.k, rng);
      std::vector<double> c(m * s.n);
      const auto a16 = random_i16(m * s.k, rng, 512);
      std::vector<std::int16_t> c16(m * s.n);
      const double gflop = 2.0 * static_cast<double>(m * s.k * s.n) / 1e9;
      for (const char* lanes : {"1", "all"}) {
        const std::size_t reserve = std::string(lanes) == "1" ? pool.threads() - 1 : 0;
        kernels::ThreadPool::ScopedReserve pin(pool, reserve);
        const std::string base =
            "kernels.gemm_gflops." + std::string(s.name) + "." + std::to_string(m) + ".";
        const double us = per_call_us(
            [&] { kernels::gemm_packed(a.data().data(), packed, c.data(), m); });
        out.num(base + "double." + lanes, gflop / (us * 1e-6));
        const double us16 = per_call_us(
            [&] { kernels::gemm_packed_int16(a16.data(), packed16, c16.data(), m); });
        out.num(base + "int16." + lanes, gflop / (us16 * 1e-6));
      }
    }
  }
}

void cpwl_probes(std::uint64_t seed, JsonLine& out) {
  // One FFN hidden activation of a 16-row request.
  const auto table = cpwl::SegmentTable::build(cpwl::FunctionKind::kGelu);
  Rng rng(seed);
  std::vector<fixed::Fix16> x, y(16 * 3072);
  for (std::int16_t raw : random_i16(y.size(), rng, 4096)) x.push_back(fixed::Fix16::from_raw(raw));
  const double us = per_call_us([&] {
    table.eval_fixed_batch(std::span<const fixed::Fix16>(x), std::span<fixed::Fix16>(y));
  });
  out.num("cpwl.gelu_ns_per_elem", us * 1000.0 / static_cast<double>(x.size()));
}

}  // namespace

int run_probe(const Args& args) {
  const Workload& w = find_workload(args.workload);
  JsonLine out;
  {
    auto& pool = kernels::ThreadPool::instance();
    kernels::ThreadPool::ScopedReserve one_lane(pool, pool.threads() - 1);
    protocol_probes(w, args.seed, out);
    nn_probes(w, args.seed, out);
    serve_probes(w, args.seed, out);
    cpwl_probes(args.seed, out);
  }
  kernel_probes(args.seed, out);
  std::cout << out.done() << std::endl;
  return 0;
}

}  // namespace perfbench
