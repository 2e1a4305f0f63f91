// Cycle accounting shared by all simulator components.
#pragma once

#include <cstdint>
#include <string>

namespace onesa::sim {

/// Cycle breakdown of one accelerator operation. The phases follow the
/// paper's description of where time goes: streaming data in, computing,
/// and "transmitting the results from the array" (the drain phase that
/// dominates for small matrices — the throughput cliff of §V-C).
struct CycleStats {
  std::uint64_t fill_cycles = 0;     // skew-in / transit through transmission PEs
  std::uint64_t compute_cycles = 0;  // MAC-active cycles
  std::uint64_t drain_cycles = 0;    // shifting results out of the array
  std::uint64_t memory_cycles = 0;   // DRAM/L3 streaming not hidden by compute
  std::uint64_t ipf_cycles = 0;      // intermediate parameter fetching (nonlinear only)

  std::uint64_t total() const {
    return fill_cycles + compute_cycles + drain_cycles + memory_cycles + ipf_cycles;
  }

  CycleStats& operator+=(const CycleStats& o) {
    fill_cycles += o.fill_cycles;
    compute_cycles += o.compute_cycles;
    drain_cycles += o.drain_cycles;
    memory_cycles += o.memory_cycles;
    ipf_cycles += o.ipf_cycles;
    return *this;
  }

  /// Merge helper for aggregating counters across passes or accelerator
  /// instances.
  friend CycleStats operator+(CycleStats a, const CycleStats& b) { return a += b; }

  bool operator==(const CycleStats& o) const = default;

  /// Seconds at the given clock.
  double seconds(double clock_mhz) const {
    return static_cast<double>(total()) / (clock_mhz * 1e6);
  }

  std::string to_string() const;
};

}  // namespace onesa::sim
