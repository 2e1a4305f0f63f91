// Kernel-layer performance harness: times the blocked/threaded GEMM against
// the seed reference loop on shapes taken from the BERT-base and ResNet-50
// traces (plus the 512^3 acceptance point), the pack-once GEMM against the
// per-call-packing blocked path on repeated-B inference shapes, the fused
// bias+activation epilogue against the unfused composition, the threaded
// path across lane counts, the batched CPWL evaluators against their scalar
// loops, and the blocked transpose — then writes BENCH_kernels.json so the
// bench trajectory has machine-readable data.
//
// Usage:
//   bench_perf_kernels [--smoke] [--json PATH] [--threads N]
//
// --smoke shrinks every problem so the whole run takes well under a second:
// CI uses it as a correctness gate (kernel-vs-reference and fused-vs-unfused
// equivalence on the bench shapes; nonzero exit on mismatch) and uploads the
// JSON artifact. --threads N sizes the kernel ThreadPool (like
// ONESA_KERNEL_THREADS=N) so the thread-scaling sweep can be recorded on any
// host. Timing numbers are reported in both modes but only asserted on
// locally.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "cpwl/segment_table.hpp"
#include "tensor/kernels/elementwise.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/gemm_int16.hpp"
#include "tensor/kernels/thread_pool.hpp"
#include "tensor/kernels/transpose.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"

namespace {

using onesa::Rng;
using onesa::tensor::Matrix;
namespace kernels = onesa::tensor::kernels;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Best-of-reps wall time of fn, in milliseconds.
template <typename F>
double time_best_ms(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, ms_since(t0));
  }
  return best;
}

struct GemmCase {
  std::string name;
  std::size_t m, k, n;
};

struct GemmResult {
  GemmCase shape;
  double ref_ms = 0.0;
  double blocked_ms = 0.0;
  double dispatch_ms = 0.0;
  std::size_t dispatch_threads = 1;
  double rel_error = 0.0;  // blocked vs reference
  double speedup_single() const { return ref_ms / blocked_ms; }
  double speedup_dispatch() const { return ref_ms / dispatch_ms; }
  double gflops(double ms) const {
    return 2.0 * static_cast<double>(m_macs()) / (ms * 1e6);
  }
  std::size_t m_macs() const { return shape.m * shape.k * shape.n; }
};

double relative_max_error(const Matrix& got, const Matrix& want) {
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i)
    scale = std::max(scale, std::abs(want.at_flat(i)));
  if (scale == 0.0) scale = 1.0;
  return onesa::tensor::max_abs_distance(got, want) / scale;
}

GemmResult run_gemm_case(const GemmCase& c, int reps, Rng& rng) {
  const Matrix a = onesa::tensor::random_uniform(c.m, c.k, rng);
  const Matrix b = onesa::tensor::random_uniform(c.k, c.n, rng);
  Matrix ref(c.m, c.n), blocked(c.m, c.n), dispatched(c.m, c.n);

  GemmResult r;
  r.shape = c;
  r.ref_ms = time_best_ms(reps, [&] {
    kernels::gemm_reference(a.data().data(), b.data().data(), ref.data().data(), c.m, c.k,
                            c.n);
  });
  r.blocked_ms = time_best_ms(reps, [&] {
    kernels::gemm_blocked(a.data().data(), b.data().data(), blocked.data().data(), c.m,
                          c.k, c.n);
  });
  r.dispatch_ms = time_best_ms(reps, [&] {
    kernels::gemm(a.data().data(), b.data().data(), dispatched.data().data(), c.m, c.k,
                  c.n);
  });
  r.dispatch_threads = kernels::gemm_threads(c.m, c.k, c.n);
  r.rel_error = std::max(relative_max_error(blocked, ref), relative_max_error(dispatched, ref));
  return r;
}

/// Pack-once GEMM vs the per-call-packing blocked path, single thread (the
/// repeated-B serving scenario: B is packed ahead of time, every GEMM after
/// that consumes the packed panels directly).
struct PackedResult {
  GemmCase shape;
  double pack_ms = 0.0;     // one-time PackedB build
  double blocked_ms = 0.0;  // packs every panel per call
  double packed_ms = 0.0;   // zero packing per call
  bool bit_exact = false;   // packed result == blocked result
  double speedup() const { return blocked_ms / packed_ms; }
  double gflops() const {
    return 2.0 * static_cast<double>(shape.m * shape.k * shape.n) / (packed_ms * 1e6);
  }
};

PackedResult run_packed_case(const GemmCase& c, int reps, Rng& rng) {
  const Matrix a = onesa::tensor::random_uniform(c.m, c.k, rng);
  const Matrix b = onesa::tensor::random_uniform(c.k, c.n, rng);
  Matrix blocked(c.m, c.n), packed_out(c.m, c.n);

  PackedResult r;
  r.shape = c;
  kernels::PackedB packed;
  r.pack_ms = time_best_ms(reps, [&] {
    packed = kernels::PackedB::pack(b.data().data(), c.k, c.n);
  });
  r.blocked_ms = time_best_ms(reps, [&] {
    kernels::gemm_blocked(a.data().data(), b.data().data(), blocked.data().data(), c.m,
                          c.k, c.n);
  });
  // Pin the packed path to one thread so the comparison isolates packing,
  // not parallelism (gemm_blocked is single-thread by construction).
  auto& pool = kernels::ThreadPool::instance();
  kernels::ThreadPool::ScopedReserve solo(pool, pool.threads() - 1);
  r.packed_ms = time_best_ms(reps, [&] {
    kernels::gemm_packed(a.data().data(), packed, packed_out.data().data(), c.m);
  });
  r.bit_exact = packed_out == blocked;
  return r;
}

/// Fused bias+activation epilogue vs the unfused composition the nn layer
/// used to run: matmul, then a bias-broadcast pass, then an activation pass
/// (each a full read+write sweep over the output with its own allocation).
struct FusedResult {
  GemmCase shape;
  double unfused_ms = 0.0;
  double fused_ms = 0.0;
  bool bit_exact = false;
  double speedup() const { return unfused_ms / fused_ms; }
};

FusedResult run_fused_case(const GemmCase& c, int reps, Rng& rng) {
  const Matrix a = onesa::tensor::random_uniform(c.m, c.k, rng);
  const Matrix b = onesa::tensor::random_uniform(c.k, c.n, rng);
  const Matrix bias = onesa::tensor::random_uniform(1, c.n, rng);
  const kernels::PackedB packed = kernels::PackedB::pack(b.data().data(), c.k, c.n);

  FusedResult r;
  r.shape = c;
  Matrix unfused;
  r.unfused_ms = time_best_ms(reps, [&] {
    Matrix y(c.m, c.n, onesa::tensor::kUninitialized);
    kernels::gemm_packed(a.data().data(), packed, y.data().data(), c.m);
    const Matrix biased = onesa::tensor::add_row_broadcast(y, bias);
    unfused = biased.map([](double v) { return v > 0.0 ? v : 0.0; });
  });
  kernels::Epilogue epi;
  epi.kind = kernels::Epilogue::Kind::kBiasRelu;
  epi.bias = bias.data().data();
  Matrix fused(c.m, c.n);
  r.fused_ms = time_best_ms(reps, [&] {
    kernels::gemm_packed(a.data().data(), packed, fused.data().data(), c.m, epi);
  });
  r.bit_exact = fused == unfused;
  return r;
}

/// One row of the thread-scaling sweep: the shared-packed-B GEMM at a capped
/// lane count (the cap is ThreadPool reservation, the same mechanism the
/// serving tier uses against oversubscription).
struct ThreadedResult {
  GemmCase shape;
  std::size_t lanes = 1;           // effective lanes offered
  std::size_t dispatch_threads = 1;  // what the dispatcher actually used
  double ms = 0.0;
  double speedup_vs_1t = 0.0;
};

std::vector<ThreadedResult> run_threaded_case(const GemmCase& c, int reps, Rng& rng) {
  const Matrix a = onesa::tensor::random_uniform(c.m, c.k, rng);
  const Matrix b = onesa::tensor::random_uniform(c.k, c.n, rng);
  const kernels::PackedB packed = kernels::PackedB::pack(b.data().data(), c.k, c.n);
  Matrix out(c.m, c.n);

  auto& pool = kernels::ThreadPool::instance();
  std::vector<ThreadedResult> rows;
  double base_ms = 0.0;
  for (std::size_t lanes = 1; lanes <= pool.threads(); lanes *= 2) {
    kernels::ThreadPool::ScopedReserve cap(pool, pool.threads() - lanes);
    ThreadedResult r;
    r.shape = c;
    r.lanes = lanes;
    r.dispatch_threads = kernels::gemm_threads(c.m, c.k, c.n);
    r.ms = time_best_ms(reps, [&] {
      kernels::gemm_packed(a.data().data(), packed, out.data().data(), c.m);
    });
    if (lanes == 1) base_ms = r.ms;
    r.speedup_vs_1t = base_ms / r.ms;
    rows.push_back(r);
  }
  return rows;
}

struct CpwlResult {
  std::string name;
  std::size_t evals = 0;
  double scalar_ms = 0.0;
  double batch_ms = 0.0;
  bool exact = false;
  double speedup() const { return scalar_ms / batch_ms; }
};

CpwlResult run_cpwl_double(std::size_t n, int reps, Rng& rng) {
  const auto table = onesa::cpwl::SegmentTable::build(onesa::cpwl::FunctionKind::kGelu);
  std::vector<double> x(n), scalar_y(n), batch_y(n);
  for (auto& v : x) v = rng.uniform(-10.0, 10.0);

  CpwlResult r;
  r.name = "gelu-double";
  r.evals = n;
  r.scalar_ms = time_best_ms(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) scalar_y[i] = table.eval(x[i]);
  });
  r.batch_ms = time_best_ms(reps, [&] { table.eval_batch(x, batch_y); });
  r.exact = scalar_y == batch_y;
  return r;
}

CpwlResult run_cpwl_fixed(std::size_t n, int reps, Rng& rng) {
  const auto table = onesa::cpwl::SegmentTable::build(onesa::cpwl::FunctionKind::kTanh);
  std::vector<onesa::fixed::Fix16> x(n), scalar_y(n), batch_y(n);
  for (auto& v : x) v = onesa::fixed::Fix16::from_double(rng.uniform(-8.0, 8.0));

  CpwlResult r;
  r.name = "tanh-int16";
  r.evals = n;
  r.scalar_ms = time_best_ms(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) scalar_y[i] = table.eval_fixed(x[i]);
  });
  r.batch_ms = time_best_ms(reps, [&] { table.eval_fixed_batch(x, batch_y); });
  r.exact = true;
  for (std::size_t i = 0; i < n; ++i)
    if (scalar_y[i].raw() != batch_y[i].raw()) r.exact = false;
  return r;
}

struct TransposeResult {
  std::size_t rows = 0, cols = 0;
  double naive_ms = 0.0;
  double blocked_ms = 0.0;
  double speedup() const { return naive_ms / blocked_ms; }
};

TransposeResult run_transpose(std::size_t rows, std::size_t cols, int reps, Rng& rng) {
  const Matrix a = onesa::tensor::random_uniform(rows, cols, rng);
  Matrix naive(cols, rows), blocked(cols, rows);
  TransposeResult r;
  r.rows = rows;
  r.cols = cols;
  r.naive_ms = time_best_ms(reps, [&] {
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) naive(j, i) = a(i, j);
  });
  r.blocked_ms = time_best_ms(reps, [&] {
    kernels::transpose_blocked(a.data().data(), blocked.data().data(), rows, cols);
  });
  return r;
}

void write_json(const std::string& path, const std::vector<GemmResult>& gemms,
                const std::vector<PackedResult>& packed,
                const std::vector<FusedResult>& fused,
                const std::vector<ThreadedResult>& threaded,
                const std::vector<CpwlResult>& cpwls, const TransposeResult& transpose,
                bool smoke, double accept_speedup, bool accept_pass,
                double packed_accept_speedup, bool packed_accept_pass) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"bench\": \"perf_kernels\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"threads\": " << kernels::ThreadPool::instance().threads() << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"deterministic\": " << (kernels::deterministic() ? "true" : "false") << ",\n";
  out << "  \"gemm_kernel\": \"" << kernels::gemm_kernel_name() << "\",\n";
  out << "  \"int16_kernel\": \"" << kernels::int16_kernel_name() << "\",\n";
  out << "  \"gemm\": [\n";
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const GemmResult& g = gemms[i];
    out << "    {\"name\": \"" << g.shape.name << "\", \"m\": " << g.shape.m
        << ", \"k\": " << g.shape.k << ", \"n\": " << g.shape.n
        << ", \"ref_ms\": " << g.ref_ms << ", \"blocked_ms\": " << g.blocked_ms
        << ", \"dispatch_ms\": " << g.dispatch_ms
        << ", \"dispatch_threads\": " << g.dispatch_threads
        << ", \"ref_gflops\": " << g.gflops(g.ref_ms)
        << ", \"blocked_gflops\": " << g.gflops(g.blocked_ms)
        << ", \"speedup_single_thread\": " << g.speedup_single()
        << ", \"speedup_dispatch\": " << g.speedup_dispatch()
        << ", \"rel_error_vs_reference\": " << g.rel_error << "}"
        << (i + 1 < gemms.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"packed\": [\n";
  for (std::size_t i = 0; i < packed.size(); ++i) {
    const PackedResult& p = packed[i];
    out << "    {\"name\": \"" << p.shape.name << "\", \"m\": " << p.shape.m
        << ", \"k\": " << p.shape.k << ", \"n\": " << p.shape.n
        << ", \"pack_ms\": " << p.pack_ms << ", \"blocked_ms\": " << p.blocked_ms
        << ", \"packed_ms\": " << p.packed_ms
        << ", \"packed_gflops\": " << p.gflops()
        << ", \"speedup_packed_vs_blocked\": " << p.speedup()
        << ", \"bit_exact_vs_blocked\": " << (p.bit_exact ? "true" : "false") << "}"
        << (i + 1 < packed.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"fused_epilogue\": [\n";
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const FusedResult& f = fused[i];
    out << "    {\"name\": \"" << f.shape.name << "\", \"unfused_ms\": " << f.unfused_ms
        << ", \"fused_ms\": " << f.fused_ms << ", \"speedup_fused\": " << f.speedup()
        << ", \"bit_exact_vs_unfused\": " << (f.bit_exact ? "true" : "false") << "}"
        << (i + 1 < fused.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"gemm_threaded\": [\n";
  for (std::size_t i = 0; i < threaded.size(); ++i) {
    const ThreadedResult& t = threaded[i];
    // Host topology rides along per row so a scaling curve stays
    // interpretable when the JSON is read away from the machine that
    // produced it: speedup_vs_1t at lanes=8 on a 4-core host is a
    // different claim than the same figure on a 32-core one.
    out << "    {\"name\": \"" << t.shape.name << "\", \"lanes\": " << t.lanes
        << ", \"dispatch_threads\": " << t.dispatch_threads
        << ", \"pool_threads\": " << kernels::ThreadPool::instance().threads()
        << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ", \"ms\": " << t.ms
        << ", \"speedup_vs_1t\": " << t.speedup_vs_1t << "}"
        << (i + 1 < threaded.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"cpwl\": [\n";
  for (std::size_t i = 0; i < cpwls.size(); ++i) {
    const CpwlResult& c = cpwls[i];
    out << "    {\"name\": \"" << c.name << "\", \"evals\": " << c.evals
        << ", \"scalar_ms\": " << c.scalar_ms << ", \"batch_ms\": " << c.batch_ms
        << ", \"evals_per_sec_batch\": " << static_cast<double>(c.evals) / (c.batch_ms * 1e-3)
        << ", \"speedup\": " << c.speedup()
        << ", \"exact\": " << (c.exact ? "true" : "false") << "}"
        << (i + 1 < cpwls.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"transpose\": {\"rows\": " << transpose.rows << ", \"cols\": " << transpose.cols
      << ", \"naive_ms\": " << transpose.naive_ms
      << ", \"blocked_ms\": " << transpose.blocked_ms
      << ", \"speedup\": " << transpose.speedup() << "},\n";
  // The measured shape is named explicitly: in --smoke mode the acceptance
  // numbers come from the first (small) smoke shape, not from 512^3.
  out << "  \"acceptance\": {\"shape\": \"" << gemms.front().shape.name
      << "\", \"speedup_single_thread\": " << accept_speedup
      << ", \"target\": 5.0, \"asserted\": " << (smoke ? "false" : "true")
      << ", \"pass\": " << (accept_pass ? "true" : "false") << "},\n";
  // Pack-once acceptance: single-thread gemm_packed over the per-call
  // packing blocked path on the repeated-B inference shapes (bert-ffn-up /
  // bert-ffn-down in the full run, the smoke shapes otherwise).
  out << "  \"acceptance_packed\": {\"min_speedup_packed\": " << packed_accept_speedup
      << ", \"target\": 1.3, \"asserted\": " << (smoke ? "false" : "true")
      << ", \"pass\": " << (packed_accept_pass ? "true" : "false") << "}\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Size the kernel pool before its first use (equivalent to exporting
      // ONESA_KERNEL_THREADS): lets the scaling sweep request more lanes
      // than this host would default to.
      setenv("ONESA_KERNEL_THREADS", argv[++i], /*overwrite=*/1);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH] [--threads N]\n", argv[0]);
      return 2;
    }
  }

  // GEMM shapes: the 512^3 acceptance point, BERT-base layer shapes at
  // seq=128 (QKV/output projections, the two FFN GEMMs, per-head attention
  // scores), and a ResNet-50 im2col shape (28x28 stage, 3x3 conv).
  std::vector<GemmCase> cases;
  if (smoke) {
    cases = {{"square-64", 64, 64, 64},
             {"tall-96x48x80", 96, 48, 80},
             {"ragged-33x65x17", 33, 65, 17}};
  } else {
    cases = {{"square-512", 512, 512, 512},
             {"bert-qkv-proj", 128, 768, 768},
             {"bert-ffn-up", 128, 768, 3072},
             {"bert-ffn-down", 128, 3072, 768},
             {"bert-attn-scores", 128, 64, 128},
             {"resnet-conv3x3-28x28", 784, 1152, 256}};
  }
  const int reps = smoke ? 1 : 3;
  const std::size_t cpwl_n = smoke ? (1u << 14) : (1u << 21);
  const std::size_t transpose_dim = smoke ? 128 : 1024;

  Rng rng(42);
  std::vector<GemmResult> gemms;
  bool correct = true;
  std::printf("%-22s %10s %10s %10s %8s %8s\n", "gemm", "ref_ms", "blocked", "dispatch",
              "speedup", "relerr");
  for (const GemmCase& c : cases) {
    gemms.push_back(run_gemm_case(c, reps, rng));
    const GemmResult& g = gemms.back();
    std::printf("%-22s %10.2f %10.2f %10.2f %7.2fx %8.1e\n", g.shape.name.c_str(),
                g.ref_ms, g.blocked_ms, g.dispatch_ms, g.speedup_single(), g.rel_error);
    if (!(g.rel_error <= 1e-12)) {
      std::fprintf(stderr, "FAIL: %s rel error %g exceeds 1e-12\n", g.shape.name.c_str(),
                   g.rel_error);
      correct = false;
    }
  }

  // Pack-once and fused-epilogue sections: the repeated-B inference shapes.
  // Extra reps (best-of) because the acceptance gate is a ratio of two
  // measurements — single-digit-ms timings on a shared host need them.
  const int packed_reps = smoke ? 1 : std::max(reps, 7);
  std::vector<PackedResult> packed_results;
  std::vector<FusedResult> fused_results;
  std::printf("\n%-22s %10s %10s %10s %8s %10s\n", "packed", "pack_ms", "blocked",
              "packed", "speedup", "exact");
  for (const GemmCase& c : cases) {
    packed_results.push_back(run_packed_case(c, packed_reps, rng));
    const PackedResult& p = packed_results.back();
    std::printf("%-22s %10.3f %10.2f %10.2f %7.2fx %10s\n", p.shape.name.c_str(),
                p.pack_ms, p.blocked_ms, p.packed_ms, p.speedup(),
                p.bit_exact ? "exact" : "MISMATCH");
    if (!p.bit_exact) {
      std::fprintf(stderr, "FAIL: %s packed GEMM diverged from the blocked kernel\n",
                   p.shape.name.c_str());
      correct = false;
    }
  }
  std::printf("\n%-22s %10s %10s %8s %10s\n", "fused-epilogue", "unfused", "fused",
              "speedup", "exact");
  for (const GemmCase& c : cases) {
    fused_results.push_back(run_fused_case(c, packed_reps, rng));
    const FusedResult& f = fused_results.back();
    std::printf("%-22s %10.2f %10.2f %7.2fx %10s\n", f.shape.name.c_str(), f.unfused_ms,
                f.fused_ms, f.speedup(), f.bit_exact ? "exact" : "MISMATCH");
    if (!f.bit_exact) {
      std::fprintf(stderr, "FAIL: %s fused epilogue diverged from the unfused ops\n",
                   f.shape.name.c_str());
      correct = false;
    }
  }

  // Thread-scaling sweep over the shared packed B (lanes capped through
  // pool reservation; use --threads N to offer more lanes than the host
  // defaults to). Scaling is only meaningful when real cores back the
  // lanes — hardware_threads rides along in the JSON for that reason.
  std::vector<ThreadedResult> threaded_results;
  const std::vector<GemmCase> threaded_cases =
      smoke ? std::vector<GemmCase>{cases.front()}
            : std::vector<GemmCase>{cases[0], cases[2]};  // square-512, bert-ffn-up
  std::printf("\n%-22s %6s %9s %10s %10s\n", "threaded (shared B)", "lanes", "used",
              "ms", "speedup");
  for (const GemmCase& c : threaded_cases) {
    for (const ThreadedResult& t : run_threaded_case(c, reps, rng)) {
      threaded_results.push_back(t);
      std::printf("%-22s %6zu %9zu %10.2f %9.2fx\n", t.shape.name.c_str(), t.lanes,
                  t.dispatch_threads, t.ms, t.speedup_vs_1t);
    }
  }

  std::vector<CpwlResult> cpwls = {run_cpwl_double(cpwl_n, reps, rng),
                                   run_cpwl_fixed(cpwl_n, reps, rng)};
  for (const CpwlResult& c : cpwls) {
    std::printf("%-22s %10.2f %10.2f %19.2fx %8s\n", c.name.c_str(), c.scalar_ms,
                c.batch_ms, c.speedup(), c.exact ? "exact" : "MISMATCH");
    if (!c.exact) {
      std::fprintf(stderr, "FAIL: %s batch evaluation diverged from scalar\n",
                   c.name.c_str());
      correct = false;
    }
  }

  const TransposeResult transpose = run_transpose(transpose_dim, transpose_dim, reps, rng);
  std::printf("%-22s %10.2f %10.2f %19.2fx\n", "transpose", transpose.naive_ms,
              transpose.blocked_ms, transpose.speedup());

  // Acceptance: >= 5x single-thread speedup over the seed loop at 512^3
  // (reported in smoke mode on the largest smoke shape, asserted only on
  // the real shape).
  const GemmResult& accept = gemms.front();
  const double accept_speedup = accept.speedup_single();
  const bool accept_pass = smoke || accept_speedup >= 5.0;
  if (!smoke) {
    std::printf("\n512^3 single-thread speedup: %.2fx (target 5x) — %s\n", accept_speedup,
                accept_pass ? "PASS" : "FAIL");
  }

  // Pack-once acceptance: >= 1.3x over the per-call-packing blocked path on
  // the repeated-B inference shapes (bert-ffn-up / bert-ffn-down), single
  // thread. Reported-but-unasserted in smoke mode (smoke shapes are too
  // small for packing to matter).
  double packed_accept_speedup = 1e300;
  for (const PackedResult& p : packed_results) {
    if (p.shape.name == "bert-ffn-up" || p.shape.name == "bert-ffn-down" || smoke) {
      packed_accept_speedup = std::min(packed_accept_speedup, p.speedup());
    }
  }
  const bool packed_accept_pass = smoke || packed_accept_speedup >= 1.3;
  if (!smoke) {
    std::printf("bert-ffn packed speedup (min): %.2fx (target 1.3x) — %s\n",
                packed_accept_speedup, packed_accept_pass ? "PASS" : "FAIL");
  }

  write_json(json_path, gemms, packed_results, fused_results, threaded_results, cpwls,
             transpose, smoke, accept_speedup, accept_pass, packed_accept_speedup,
             packed_accept_pass);
  std::printf("wrote %s\n", json_path.c_str());

  if (!correct) return 1;
  if (!accept_pass) return 3;
  if (!packed_accept_pass) return 4;
  return 0;
}
