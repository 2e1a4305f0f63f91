// Serving statistics: throughput, latency percentiles, batch sizes, SLO
// counters (deadline misses, sheds, batching-window expiries) and
// simulated-cycle totals.
//
// Each pool worker owns one ServeStats and records into it under the
// worker's own lock; ServerPool::stats() merges the per-worker instances
// into one pool-wide snapshot, and Fleet::stats() sums the per-shard
// snapshots with operator+ (shard sums equal fleet totals by construction).
// ServeStats itself is NOT thread-safe — the synchronization lives in the
// pool.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "serve/request.hpp"
#include "sim/clock.hpp"
#include "tensor/matrix.hpp"

namespace onesa::serve {

/// Number of scheduling classes (Priority::kInteractive/kNormal/kBulk).
inline constexpr std::size_t kPriorityClasses = 3;

/// Latency samples ride the recycling tensor buffer pool: BatchRecord
/// vectors are rebuilt on every batch on the worker hot path, and ServeStats
/// growth reallocations happen mid-measurement — both must stay off the raw
/// heap for the serve tier's zero-allocation steady state.
using LatencySamples = std::vector<double, tensor::DefaultInitAllocator<double>>;
using LatencyClasses = std::vector<Priority, tensor::DefaultInitAllocator<Priority>>;

/// Per-batch accounting handed from the batch executor to the stats sink.
/// Cycle/MAC charges appear once per batch; latencies once per request.
struct BatchRecord {
  sim::CycleStats cycles;
  std::uint64_t mac_ops = 0;
  std::size_t requests = 0;
  std::size_t rows = 0;  // input rows of the batched pass
  std::size_t deadline_misses = 0;  // requests completed past their deadline
  std::size_t shard = 0;  // fleet shard that executed the batch (0 standalone)
  LatencySamples latency_ms;  // queue+service wall latency per request
  /// Scheduling class of each latency_ms entry (parallel vector). May be
  /// left empty by hand-built records; every entry then counts as kNormal.
  LatencyClasses latency_class;
};

class ServeStats {
 public:
  void record_batch(const BatchRecord& record);
  /// Count requests shed by admission control (merged from the queue by
  /// ServerPool::stats(), and from the fleet router by Fleet::stats()).
  void record_sheds(std::uint64_t count) { sheds_ += count; }
  /// Count batches launched because their batching window expired (merged
  /// from the queue by ServerPool::stats()).
  void record_window_expiries(std::uint64_t count) { window_expiries_ += count; }
  void merge(const ServeStats& o);
  /// Fleet-level aggregation: shard snapshots sum into the fleet snapshot.
  ServeStats& operator+=(const ServeStats& o) {
    merge(o);
    return *this;
  }
  friend ServeStats operator+(ServeStats a, const ServeStats& b) {
    a.merge(b);
    return a;
  }

  std::size_t completed() const { return completed_; }
  std::uint64_t batches() const { return batches_; }
  std::uint64_t rows() const { return rows_; }

  /// SLO counters: completions past their deadline, and requests shed by
  /// admission control (sheds never appear in completed()).
  std::uint64_t deadline_misses() const { return deadline_misses_; }
  std::uint64_t sheds() const { return sheds_; }
  /// Batches launched partially filled because their latency-aware batching
  /// window expired before the batch could fill.
  std::uint64_t window_expiries() const { return window_expiries_; }

  double mean_batch_requests() const;

  /// Wall-clock latency percentile in ms, p in [0, 100]. Nearest-rank on the
  /// sorted latencies, so the result is monotone in p. 0 when empty.
  double percentile_latency_ms(double p) const;
  double mean_latency_ms() const;

  /// Per-priority-class SLO accounting: completions and host-latency
  /// percentiles/means of one scheduling class only, so an interactive p95
  /// is never averaged away by bulk traffic (and the fused-GEMM latency win
  /// is visible per class in the bench JSON).
  std::uint64_t class_completed(Priority c) const;
  double class_percentile_latency_ms(Priority c, double p) const;
  double class_mean_latency_ms(Priority c) const;

  /// Simulated totals summed over every recorded batch.
  const sim::CycleStats& total_cycles() const { return cycles_; }
  std::uint64_t total_mac_ops() const { return mac_ops_; }

  /// Requests per simulated second at the given clock (aggregate hardware
  /// throughput of the recorded work if it ran back-to-back on one array).
  double requests_per_simulated_second(double clock_mhz) const;

 private:
  std::size_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t rows_ = 0;
  std::uint64_t deadline_misses_ = 0;
  std::uint64_t sheds_ = 0;
  std::uint64_t window_expiries_ = 0;
  sim::CycleStats cycles_;
  std::uint64_t mac_ops_ = 0;
  LatencySamples latency_ms_;
  std::array<LatencySamples, kPriorityClasses> class_latency_ms_;
};

}  // namespace onesa::serve
