// Tests of the observability layer (src/obs/): exact counter/histogram
// totals under concurrent writers, histogram percentile accuracy against an
// exact sorted reference across distributions, registry exposition formats,
// the trace collector's event model (sampling, ordering, Chrome export),
// and the end-to-end invariant the CI trace checker enforces — every
// sampled request's spans form a complete submit -> terminal chain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server_pool.hpp"
#include "tensor/ops.hpp"
#include "tiny_models.hpp"

namespace onesa::obs {
namespace {

// The registry is process-global and shared across tests; each test uses
// distinctly named metrics and resets the registry up front so a previous
// test's samples cannot bleed into its assertions.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    MetricsRegistry::global().reset();
    trace_stop();
    trace_clear();
  }
  void TearDown() override {
    set_metrics_enabled(true);
    trace_stop();
    trace_clear();
  }
};

TEST_F(ObsTest, CounterExactTotalUnderConcurrentWriters) {
  Counter& counter = MetricsRegistry::global().counter("test_counter_concurrent");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, GaugeAggregatesDeltasAcrossThreads) {
  Gauge& gauge = MetricsRegistry::global().gauge("test_gauge_concurrent");
  constexpr std::size_t kThreads = 6;
  constexpr std::int64_t kRounds = 5000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (std::int64_t i = 0; i < kRounds; ++i) {
        gauge.add(3);
        gauge.sub(2);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kThreads) * kRounds);
}

TEST_F(ObsTest, DisabledMetricsRecordNothing) {
  Counter& counter = MetricsRegistry::global().counter("test_counter_disabled");
  Histogram& histogram = MetricsRegistry::global().histogram("test_histogram_disabled");
  set_metrics_enabled(false);
  counter.add(17);
  histogram.record(3.5);
  set_metrics_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(histogram.count(), 0u);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST_F(ObsTest, HistogramBucketBoundsContainTheirValues) {
  for (const double v : {1e-9, 0.001, 0.5, 0.9999, 1.0, 1.5, 3.14159, 42.0, 1e6, 7.7e9}) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lo(idx), v) << "value " << v;
    EXPECT_GT(Histogram::bucket_hi(idx), v) << "value " << v;
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
}

/// Record `values` and compare histogram percentiles against the exact
/// sorted reference within the log-linear error bound (1/32 subbucket width
/// plus interpolation slack).
void check_percentiles(const std::vector<double>& values, const std::string& name) {
  Histogram& histogram = MetricsRegistry::global().histogram("test_histogram_" + name);
  for (const double v : values) histogram.record(v);
  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, values.size());

  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(snap.min, sorted.front());
  EXPECT_DOUBLE_EQ(snap.max, sorted.back());

  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(sorted.size()))));
    const double exact = sorted[rank - 1];
    const double approx = snap.percentile(p);
    // 1/32 bucket width => 3.125% bound; allow 5% for rank rounding at
    // distribution edges.
    EXPECT_NEAR(approx, exact, std::abs(exact) * 0.05 + 1e-12)
        << name << " p" << p << " exact " << exact << " approx " << approx;
  }
}

TEST_F(ObsTest, HistogramPercentilesMatchSortedReferenceAcrossDistributions) {
  std::mt19937 gen(1234);
  constexpr std::size_t kSamples = 20000;

  std::vector<double> uniform(kSamples);
  std::uniform_real_distribution<double> uni(0.5, 250.0);
  for (auto& v : uniform) v = uni(gen);
  check_percentiles(uniform, "uniform");

  std::vector<double> expo(kSamples);
  std::exponential_distribution<double> exp_dist(1.0 / 8.0);  // mean 8 ms
  for (auto& v : expo) v = exp_dist(gen) + 1e-6;
  check_percentiles(expo, "exponential");

  std::vector<double> lognormal(kSamples);
  std::lognormal_distribution<double> logn(1.0, 1.5);
  for (auto& v : lognormal) v = logn(gen);
  check_percentiles(lognormal, "lognormal");

  // Bimodal latency (fast path + slow tail), the shape serving latencies
  // actually take.
  std::vector<double> bimodal(kSamples);
  std::normal_distribution<double> fast(2.0, 0.2);
  std::normal_distribution<double> slow(80.0, 5.0);
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double v = i % 10 == 0 ? slow(gen) : fast(gen);
    bimodal[i] = std::max(v, 1e-3);
  }
  check_percentiles(bimodal, "bimodal");
}

TEST_F(ObsTest, HistogramExactCountAndSumUnderConcurrentWriters) {
  Histogram& histogram = MetricsRegistry::global().histogram("test_histogram_concurrent");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      // Small integer values: every partial sum is exact in double, so the
      // concurrent CAS-accumulated total must be exact too.
      for (std::size_t i = 0; i < kPerThread; ++i)
        histogram.record(static_cast<double>(1 + (t + i) % 7));
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);

  double expected_sum = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < kPerThread; ++i)
      expected_sum += static_cast<double>(1 + (t + i) % 7);
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
  std::uint64_t bucket_total = 0;
  for (const auto b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAndExposesBothFormats) {
  MetricsRegistry& registry = MetricsRegistry::global();
  Counter& c1 = registry.counter("test_expo_total");
  Counter& c2 = registry.counter("test_expo_total");
  EXPECT_EQ(&c1, &c2);  // same name, same metric

  registry.counter("test_expo_labeled_total{model=\"mlp\",version=\"2\"}").add(5);
  registry.gauge("test_expo_gauge").set(-3);
  Histogram& histogram = registry.histogram("test_expo_ms{class=\"bulk\"}");
  for (int i = 1; i <= 100; ++i) histogram.record(static_cast<double>(i));

  std::ostringstream prom;
  registry.write_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE test_expo_labeled_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_expo_labeled_total{model=\"mlp\",version=\"2\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("test_expo_gauge -3"), std::string::npos);
  // Summary exposition: quantile spliced into the existing label set, and
  // _count/_sum carry the label set after the suffixed name.
  EXPECT_NE(text.find("test_expo_ms{class=\"bulk\",quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("test_expo_ms_count{class=\"bulk\"} 100"), std::string::npos);

  std::ostringstream json;
  registry.write_json(json);
  const std::string jtext = json.str();
  EXPECT_NE(jtext.find("\"counters\""), std::string::npos);
  EXPECT_NE(jtext.find("\"test_expo_labeled_total{model=\\\"mlp\\\",version=\\\"2\\\"}\": 5"),
            std::string::npos);
  EXPECT_NE(jtext.find("\"p50\""), std::string::npos);
}

#ifndef ONESA_TRACING_DISABLED

TEST_F(ObsTest, TraceSamplingIsDeterministicAndRateShaped) {
  TraceCollector& collector = TraceCollector::global();
  collector.start(1.0);
  for (std::uint64_t id = 1; id <= 64; ++id) EXPECT_TRUE(collector.sample(id));
  collector.start(0.0);
  for (std::uint64_t id = 1; id <= 64; ++id) EXPECT_FALSE(collector.sample(id));
  collector.start(0.25);
  std::size_t sampled = 0;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    const bool first = collector.sample(id);
    EXPECT_EQ(first, collector.sample(id));  // deterministic per id
    if (first) ++sampled;
  }
  EXPECT_GT(sampled, 4000 * 0.25 / 2);
  EXPECT_LT(sampled, 4000 * 0.25 * 2);
  collector.stop();
}

TEST_F(ObsTest, TraceEventsSortAndExportAsChromeJson) {
  trace_start(1.0);
  const std::int64_t now = trace_now_us();
  trace_async_begin("request", "request", 7, now, "\"kind\":\"gemm\"");
  trace_complete("gemm", "kernel", now + 10, 25, "\"m\":4");
  trace_async_end("request", "request", 7, now + 50, "\"outcome\":\"ok\"");
  trace_stop();

  const auto events = TraceCollector::global().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.ts_us < b.ts_us;
                             }));

  std::ostringstream os;
  TraceCollector::global().write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 25"), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"7\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"outcome\":\"ok\"}"), std::string::npos);
}

TEST_F(ObsTest, ServedRequestsFormCompleteSpanChains) {
  trace_start(1.0);
  {
    serve::ServerPoolConfig cfg;
    cfg.workers = 2;
    cfg.accelerator.array.rows = 4;
    cfg.accelerator.array.cols = 4;
    serve::ServerPool pool(cfg);
    Rng rng(99);
    const serve::ModelHandle tiny = serve::test_models::register_tiny(pool, "tiny");
    std::vector<std::future<serve::ServeResult>> futures;
    for (int i = 0; i < 12; ++i)
      futures.push_back(pool.submit_model(tiny, serve::test_models::tiny_input(3, rng, 8)));
    for (auto& f : futures) f.get();
    pool.shutdown();
  }
  trace_stop();

  // Every "request" span that opened must close exactly once, and the
  // nested spans must stay inside the outer [begin, end] window — the same
  // invariants bench/check_trace.py enforces on the demo trace in CI.
  std::map<std::uint64_t, std::int64_t> begin_ts;
  std::map<std::uint64_t, std::int64_t> end_ts;
  const auto events = TraceCollector::global().snapshot();
  for (const auto& ev : events) {
    if (std::string(ev.cat) != "request" || std::string(ev.name) != "request") continue;
    if (ev.phase == TraceEvent::Phase::kAsyncBegin) {
      EXPECT_EQ(begin_ts.count(ev.id), 0u) << "request " << ev.id << " opened twice";
      begin_ts[ev.id] = ev.ts_us;
    } else if (ev.phase == TraceEvent::Phase::kAsyncEnd) {
      EXPECT_EQ(end_ts.count(ev.id), 0u) << "request " << ev.id << " closed twice";
      end_ts[ev.id] = ev.ts_us;
    }
  }
  EXPECT_EQ(begin_ts.size(), 12u);
  ASSERT_EQ(begin_ts.size(), end_ts.size());
  for (const auto& [id, ts] : begin_ts) {
    ASSERT_EQ(end_ts.count(id), 1u) << "request " << id << " never reached a terminal span";
    EXPECT_GE(end_ts[id], ts);
  }
  for (const auto& ev : events) {
    if (std::string(ev.cat) != "request") continue;
    ASSERT_EQ(begin_ts.count(ev.id), 1u);
    EXPECT_GE(ev.ts_us, begin_ts[ev.id]);
    EXPECT_LE(ev.ts_us, end_ts[ev.id]);
  }
}

#endif  // ONESA_TRACING_DISABLED

}  // namespace
}  // namespace onesa::obs
