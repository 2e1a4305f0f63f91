#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace onesa::serve {

namespace {

/// Nearest-rank percentile (monotone in p) over an unsorted sample.
double nearest_rank_percentile(const LatencySamples& samples, double p) {
  ONESA_CHECK(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0, 100]");
  if (samples.empty()) return 0.0;
  LatencySamples sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: smallest value with at least p% of samples at or below it.
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank > 0) --rank;
  return sorted[std::min(rank, sorted.size() - 1)];
}

double mean_of(const LatencySamples& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

std::size_t class_index(Priority c) { return static_cast<std::size_t>(c); }

}  // namespace

void ServeStats::record_batch(const BatchRecord& record) {
  completed_ += record.requests;
  batches_ += 1;
  rows_ += record.rows;
  deadline_misses_ += record.deadline_misses;
  cycles_ += record.cycles;
  mac_ops_ += record.mac_ops;
  latency_ms_.insert(latency_ms_.end(), record.latency_ms.begin(), record.latency_ms.end());
  // Per-class attribution: the batcher fills latency_class in lockstep with
  // latency_ms; hand-built records without classes count as kNormal.
  for (std::size_t i = 0; i < record.latency_ms.size(); ++i) {
    const Priority c =
        i < record.latency_class.size() ? record.latency_class[i] : Priority::kNormal;
    class_latency_ms_[class_index(c)].push_back(record.latency_ms[i]);
  }
}

void ServeStats::merge(const ServeStats& o) {
  completed_ += o.completed_;
  batches_ += o.batches_;
  rows_ += o.rows_;
  deadline_misses_ += o.deadline_misses_;
  sheds_ += o.sheds_;
  window_expiries_ += o.window_expiries_;
  cycles_ += o.cycles_;
  mac_ops_ += o.mac_ops_;
  latency_ms_.insert(latency_ms_.end(), o.latency_ms_.begin(), o.latency_ms_.end());
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    class_latency_ms_[c].insert(class_latency_ms_[c].end(), o.class_latency_ms_[c].begin(),
                                o.class_latency_ms_[c].end());
  }
}

std::uint64_t ServeStats::class_completed(Priority c) const {
  return class_latency_ms_[class_index(c)].size();
}

double ServeStats::class_percentile_latency_ms(Priority c, double p) const {
  return nearest_rank_percentile(class_latency_ms_[class_index(c)], p);
}

double ServeStats::class_mean_latency_ms(Priority c) const {
  return mean_of(class_latency_ms_[class_index(c)]);
}

double ServeStats::mean_batch_requests() const {
  return batches_ == 0 ? 0.0
                       : static_cast<double>(completed_) / static_cast<double>(batches_);
}

double ServeStats::percentile_latency_ms(double p) const {
  return nearest_rank_percentile(latency_ms_, p);
}

double ServeStats::mean_latency_ms() const { return mean_of(latency_ms_); }

double ServeStats::requests_per_simulated_second(double clock_mhz) const {
  const double secs = cycles_.seconds(clock_mhz);
  return secs == 0.0 ? 0.0 : static_cast<double>(completed_) / secs;
}

}  // namespace onesa::serve
