// Validation of the closed-form TimingModel against the detailed simulator,
// plus the throughput properties behind Fig. 8.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/array.hpp"
#include "sim/timing.hpp"
#include "tensor/ops.hpp"

namespace onesa::sim {
namespace {

using tensor::to_fixed;

ArrayConfig config(std::size_t rows, std::size_t cols, std::size_t macs) {
  ArrayConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.macs_per_pe = macs;
  return cfg;
}

struct ValidationCase {
  std::size_t rows, cols, macs;
  std::size_t m, k, n;
};

class GemmCycleValidation : public ::testing::TestWithParam<ValidationCase> {};

// The load-bearing test: the analytic model used for the Fig. 8 / Fig. 10 /
// Table IV sweeps must agree cycle-for-cycle with the detailed simulator.
TEST_P(GemmCycleValidation, AnalyticEqualsDetailed) {
  const auto& p = GetParam();
  const ArrayConfig cfg = config(p.rows, p.cols, p.macs);
  SystolicArraySim sim(cfg);
  TimingModel model(cfg);
  Rng rng(p.m + p.k + p.n);
  const auto a = to_fixed(tensor::random_uniform(p.m, p.k, rng));
  const auto b = to_fixed(tensor::random_uniform(p.k, p.n, rng));
  const auto detailed = sim.gemm(a, b).cycles;
  const auto analytic = model.gemm_cycles({p.m, p.k, p.n});
  EXPECT_EQ(analytic.fill_cycles, detailed.fill_cycles);
  EXPECT_EQ(analytic.compute_cycles, detailed.compute_cycles);
  EXPECT_EQ(analytic.drain_cycles, detailed.drain_cycles);
  EXPECT_EQ(analytic.memory_cycles, detailed.memory_cycles);
  EXPECT_EQ(analytic.total(), detailed.total());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GemmCycleValidation,
    ::testing::Values(ValidationCase{2, 2, 2, 2, 2, 2},
                      ValidationCase{2, 2, 2, 8, 8, 8},
                      ValidationCase{4, 4, 4, 9, 7, 10},
                      ValidationCase{4, 4, 16, 16, 64, 16},
                      ValidationCase{2, 4, 2, 5, 6, 5},
                      ValidationCase{4, 2, 4, 6, 3, 7},
                      ValidationCase{8, 8, 16, 32, 32, 32},
                      ValidationCase{8, 8, 2, 3, 100, 3}));

class MhpCycleValidation : public ::testing::TestWithParam<ValidationCase> {};

TEST_P(MhpCycleValidation, AnalyticEqualsDetailed) {
  const auto& p = GetParam();  // m x k is the MHP matrix shape here
  const ArrayConfig cfg = config(p.rows, p.cols, p.macs);
  SystolicArraySim sim(cfg);
  TimingModel model(cfg);
  Rng rng(p.m * 13 + p.k);
  const auto x = to_fixed(tensor::random_uniform(p.m, p.k, rng));
  const auto k = to_fixed(tensor::random_uniform(p.m, p.k, rng));
  const auto b = to_fixed(tensor::random_uniform(p.m, p.k, rng));
  const auto detailed = sim.mhp(x, k, b).cycles;
  const auto analytic = model.mhp_cycles(p.m * p.k);
  EXPECT_EQ(analytic.total(), detailed.total());
  EXPECT_EQ(analytic.fill_cycles, detailed.fill_cycles);
  EXPECT_EQ(analytic.compute_cycles, detailed.compute_cycles);
  EXPECT_EQ(analytic.drain_cycles, detailed.drain_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MhpCycleValidation,
    ::testing::Values(ValidationCase{2, 2, 2, 4, 4, 0},
                      ValidationCase{4, 4, 4, 8, 8, 0},
                      ValidationCase{4, 4, 16, 3, 5, 0},
                      ValidationCase{8, 8, 16, 16, 16, 0},
                      ValidationCase{2, 4, 2, 7, 3, 0},
                      ValidationCase{3, 3, 4, 10, 10, 0}));

TEST(TimingModel, PeakGopsFormula) {
  // 8x8 PEs x 16 MACs at 200 MHz -> 1024 MACs/cycle -> 204.8 GOPS (MAC
  // convention).
  TimingModel model(config(8, 8, 16));
  EXPECT_NEAR(model.peak_gops(), 204.8, 1e-9);
}

TEST(TimingModel, ThroughputCliffForSmallMatrices) {
  // Fig. 8a: a small (32-dim) problem on a growing array stops scaling —
  // the achieved GOPS falls ever farther below peak.
  const GemmShape small{32, 32, 32};
  double prev_fraction = 1.0;
  for (std::size_t dim : {2, 4, 8, 16}) {
    TimingModel model(config(dim, dim, 16));
    const double fraction = model.gemm_gops(small) / model.peak_gops();
    EXPECT_LT(fraction, prev_fraction) << dim;
    prev_fraction = fraction;
  }
  // At 16x16 the utilization is tiny — the cliff.
  EXPECT_LT(prev_fraction, 0.15);
}

TEST(TimingModel, LargeMatricesApproachPeak) {
  TimingModel model(config(8, 8, 16));
  const double achieved = model.gemm_gops({512, 512, 512});
  EXPECT_GT(achieved / model.peak_gops(), 0.5);
}

TEST(TimingModel, MoreMacsMoreThroughput) {
  // Fig. 8: "the number of MACs exerts a more pronounced influence".
  double prev = 0.0;
  for (std::size_t macs : {2, 4, 8, 16, 32}) {
    TimingModel model(config(8, 8, macs));
    const double gops = model.gemm_gops({256, 256, 256});
    EXPECT_GT(gops, prev) << macs;
    prev = gops;
  }
}

TEST(TimingModel, NonlinearThroughputScalesWithDiagonalAndMacs) {
  const std::size_t elems = 128 * 128;
  double prev = 0.0;
  for (std::size_t dim : {2, 4, 8, 16}) {
    TimingModel model(config(dim, dim, 16));
    const double gnfs = model.nonlinear_gnfs(elems);
    EXPECT_GT(gnfs, prev) << dim;
    prev = gnfs;
  }
  prev = 0.0;
  for (std::size_t macs : {2, 4, 8, 16}) {
    TimingModel model(config(8, 8, macs));
    const double gnfs = model.nonlinear_gnfs(elems);
    EXPECT_GT(gnfs, prev) << macs;
    prev = gnfs;
  }
}

TEST(TimingModel, NonlinearSlowerThanPureMhp) {
  // IPF passes cost cycles on top of the MHP itself.
  TimingModel model(config(8, 8, 16));
  EXPECT_GT(model.nonlinear_cycles(1024).total(), model.mhp_cycles(1024).total());
}

TEST(TimingModel, IpfChargesTablePreloadWhenRequested) {
  TimingModel model(config(8, 8, 16));
  EXPECT_GT(model.ipf_cycles(1024, 256).ipf_cycles,
            model.ipf_cycles(1024, 0).ipf_cycles);
}

TEST(TimingModel, SecondsScalesInverselyWithClock) {
  ArrayConfig fast = config(4, 4, 4);
  fast.clock_mhz = 400.0;
  ArrayConfig slow = config(4, 4, 4);
  slow.clock_mhz = 100.0;
  const GemmShape shape{64, 64, 64};
  TimingModel fast_model(fast);
  TimingModel slow_model(slow);
  EXPECT_NEAR(slow_model.seconds(slow_model.gemm_cycles(shape)) /
                  fast_model.seconds(fast_model.gemm_cycles(shape)),
              4.0, 1e-9);
}

TEST(TimingModel, EmptyShapesRejected) {
  TimingModel model(config(4, 4, 4));
  EXPECT_THROW(model.gemm_cycles({0, 4, 4}), Error);
  EXPECT_THROW(model.mhp_cycles(0), Error);
}

TEST(TimingModel, PeakGnfsFormula) {
  // 8 diagonal PEs x 8 pairs/cycle at 200 MHz = 12.8 G results/s.
  TimingModel model(config(8, 8, 16));
  EXPECT_NEAR(model.peak_gnfs(), 12.8, 1e-9);
}

TEST(CycleStats, SumAddsEveryPhase) {
  CycleStats a;
  a.fill_cycles = 1;
  a.compute_cycles = 2;
  a.drain_cycles = 3;
  a.memory_cycles = 4;
  a.ipf_cycles = 5;
  CycleStats b;
  b.fill_cycles = 10;
  b.compute_cycles = 20;
  b.drain_cycles = 30;
  b.memory_cycles = 40;
  b.ipf_cycles = 50;

  const CycleStats sum = a + b;
  EXPECT_EQ(sum.fill_cycles, 11u);
  EXPECT_EQ(sum.compute_cycles, 22u);
  EXPECT_EQ(sum.drain_cycles, 33u);
  EXPECT_EQ(sum.memory_cycles, 44u);
  EXPECT_EQ(sum.ipf_cycles, 55u);
  EXPECT_EQ(sum.total(), a.total() + b.total());
}

}  // namespace
}  // namespace onesa::sim
