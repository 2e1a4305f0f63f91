#include "serve/batcher.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/errors.hpp"

namespace onesa::serve {

namespace {

double ms_between(ServeClock::time_point a, ServeClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Registry handles for the batch-completion metrics, resolved once.
struct BatchMetrics {
  obs::Counter& completed =
      obs::MetricsRegistry::global().counter("serve_requests_completed_total");
  obs::Counter& batches = obs::MetricsRegistry::global().counter("serve_batches_total");
  obs::Counter& deadline_misses =
      obs::MetricsRegistry::global().counter("serve_deadline_misses_total");
  obs::Histogram& latency = obs::MetricsRegistry::global().histogram("serve_latency_ms");
  obs::Histogram& batch_requests =
      obs::MetricsRegistry::global().histogram("serve_batch_requests");
  std::array<obs::Histogram*, kPriorityClasses> latency_by_class{};

  BatchMetrics() {
    for (std::size_t c = 0; c < kPriorityClasses; ++c) {
      latency_by_class[c] = &obs::MetricsRegistry::global().histogram(
          "serve_latency_ms{class=\"" +
          std::string(priority_name(static_cast<Priority>(c))) + "\"}");
    }
  }
};

BatchMetrics& batch_metrics() {
  static BatchMetrics metrics;
  return metrics;
}

/// Feed a completed batch's accounting into the registry. Failed batches
/// (empty record — every promise already holds the error) record nothing,
/// mirroring ServeStats.
BatchRecord record_batch_metrics(BatchRecord record) {
  if (record.requests == 0 || !obs::metrics_enabled()) return record;
  BatchMetrics& m = batch_metrics();
  m.batches.add(1);
  m.completed.add(record.requests);
  if (record.deadline_misses > 0) m.deadline_misses.add(record.deadline_misses);
  m.batch_requests.record(static_cast<double>(record.requests));
  for (std::size_t i = 0; i < record.latency_ms.size(); ++i) {
    m.latency.record(record.latency_ms[i]);
    const auto cls = i < record.latency_class.size()
                         ? static_cast<std::size_t>(record.latency_class[i])
                         : static_cast<std::size_t>(Priority::kNormal);
    if (cls < kPriorityClasses) m.latency_by_class[cls]->record(record.latency_ms[i]);
  }
  return record;
}

std::int64_t to_us(ServeClock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(tp.time_since_epoch())
      .count();
}

/// The sampled request's completed lifecycle as nested async spans:
/// queue_wait (queue entry -> batch execution start), window_park (first
/// park -> execution start, only if the queue ever parked it), service
/// (execution start -> end), then the terminal "request" end. Emitted at
/// completion from the timestamps the serving layer already records, right
/// before the promise is fulfilled, so a ready future implies the spans are
/// in the collector.
void emit_request_spans(const ServeRequest& req, ServeClock::time_point start,
                        ServeClock::time_point end, std::size_t worker,
                        std::size_t shard, std::size_t batch_size) {
  if (!req.traced || !obs::tracing_enabled()) return;
  const std::int64_t t_enq = to_us(req.enqueued);
  const std::int64_t t_start = to_us(start);
  const std::int64_t t_end = to_us(end);
  obs::trace_async_begin("queue_wait", "request", req.id, t_enq);
  obs::trace_async_end("queue_wait", "request", req.id, t_start);
  if (req.was_parked) {
    obs::trace_async_begin("window_park", "request", req.id, to_us(req.parked_at));
    obs::trace_async_end("window_park", "request", req.id, t_start);
  }
  obs::trace_async_begin("service", "request", req.id, t_start);
  obs::trace_async_end("service", "request", req.id, t_end);
  obs::trace_async_end("request", "request", req.id, t_end,
                       "\"outcome\":\"ok\",\"worker\":" + std::to_string(worker) +
                           ",\"shard\":" + std::to_string(shard) +
                           ",\"batch_requests\":" + std::to_string(batch_size));
}

/// Terminal span for a request whose batch failed: the lifecycle ends in an
/// error outcome (the promise carries the exception).
void emit_error_span(const ServeRequest& req) {
  if (!req.traced || !obs::tracing_enabled()) return;
  obs::trace_async_end("request", "request", req.id, obs::trace_now_us(),
                       "\"outcome\":\"error\"");
}

/// Completed at `end` — did `req` blow its deadline? Stamps the result and
/// returns the miss for the batch counter.
bool stamp_slo(ServeResult& result, const ServeRequest& req, ServeClock::time_point end) {
  result.priority = req.priority;
  result.deadline_missed = req.has_deadline() && end > req.deadline;
  return result.deadline_missed;
}

/// The input rows of every request stacked on top of each other. Each
/// request's rows are one contiguous row-major block, so the stack is a flat
/// copy per request (the kernel-layer idiom) instead of an element loop.
tensor::Matrix pack_rows(const std::vector<ServeRequest>& batch, std::size_t total_rows) {
  tensor::Matrix packed(total_rows, batch.front().input.cols(), tensor::kUninitialized);
  auto* dst = packed.data().data();
  for (const auto& req : batch)
    dst = std::copy(req.input.data().begin(), req.input.data().end(), dst);
  return packed;
}

/// One request's output rows cut back out of the batched result.
tensor::Matrix slice_rows(const tensor::Matrix& packed, std::size_t row0, std::size_t rows) {
  tensor::Matrix out(rows, packed.cols(), tensor::kUninitialized);
  const auto* src = packed.data().data() + row0 * packed.cols();
  std::copy(src, src + rows * packed.cols(), out.data().data());
  return out;
}

}  // namespace

void BatcherConfig::validate() const {
  if (max_batch_rows == 0) throw ConfigError("BatcherConfig::max_batch_rows must be > 0");
  if (max_batch_requests == 0)
    throw ConfigError("BatcherConfig::max_batch_requests must be > 0");
}

DynamicBatcher::DynamicBatcher(BatcherConfig config) : config_(config) {
  config_.validate();
}

bool DynamicBatcher::compatible(const ServeRequest& head, const ServeRequest& req) {
  // Same registered model version (handle identity — one immutable entry
  // per name and version, so two versions never share a pass), marked
  // batchable by the registry, same input width.
  return head.model == req.model && head.model != nullptr && head.model->batchable &&
         head.input.cols() == req.input.cols();
}

void DynamicBatcher::take_batch(std::vector<ServeRequest>& pending,
                                std::vector<ServeRequest>& out) const {
  out.clear();
  if (pending.empty()) return;
  out.push_back(std::move(pending.front()));

  // Single pass with in-place compaction: survivors slide left over the
  // holes the taken requests leave, then one resize. Unlike erase-per-take
  // this is O(pending) total, and both vectors keep their capacity.
  std::size_t rows = out.front().rows();
  std::size_t keep = 0;  // write cursor; slot 0 held the taken head
  for (std::size_t i = 1; i < pending.size(); ++i) {
    ServeRequest& req = pending[i];
    if (out.size() < config_.max_batch_requests && compatible(out.front(), req) &&
        rows + req.rows() <= config_.max_batch_rows) {
      rows += req.rows();
      out.push_back(std::move(req));
    } else {
      pending[keep++] = std::move(req);
    }
  }
  pending.resize(keep);
}

/// Real-inference batch: ONE nn::Sequential::infer over the stacked rows
/// (kernel-layer GEMMs on this worker thread), logits sliced back per
/// request.
///
/// Model code is the one batch path that runs caller-registered layers, so
/// failures (shape mismatch against the registered model, a layer without an
/// infer path, a row-count-changing model registered as batchable) must fail
/// THIS batch's futures — never escape into worker_loop, where an uncaught
/// exception would std::terminate the whole pool.
BatchRecord DynamicBatcher::execute(std::vector<ServeRequest>& batch, std::size_t worker,
                                    std::size_t shard) const {
  ONESA_CHECK(!batch.empty(), "DynamicBatcher::execute on an empty batch");
  const auto start = ServeClock::now();
  const ModelEntry& entry = *batch.front().model;
  std::size_t total_rows = 0;
  for (const auto& req : batch) total_rows += req.rows();
  tensor::Matrix logits;
  try {
    // Solo batches (the only shape non-batchable models and
    // one-request-per-pass configs ever see) infer on the request's input
    // directly — no pack copy on the worker hot path.
    logits = batch.size() == 1
                 ? entry.infer(batch.front().input)
                 : entry.infer(pack_rows(batch, total_rows));
    // A multi-request batch is served by row slicing, so the model must
    // preserve the row count; otherwise the slices below would read out of
    // bounds. Single-request batches hand the whole output back, so
    // row-count-changing models (e.g. sequence pools) work there — register
    // them with batchable=false.
    ONESA_CHECK(batch.size() == 1 || logits.rows() == total_rows,
                "model '" << entry.name << "' returned " << logits.rows()
                          << " rows for a batched pass of " << total_rows
                          << " input rows — row-count-changing models must be "
                             "registered with batchable=false");
  } catch (const ServeError&) {
    // Already structured (e.g. an injected fault thrown through infer in a
    // test double) — pass through untouched.
    const std::exception_ptr error = std::current_exception();
    for (auto& req : batch) {
      emit_error_span(req);
      deliver_error(req, error);
    }
    return {};  // nothing completed
  } catch (const std::exception& cause) {
    // Wrap the raw failure in a ModelError carrying WHERE it happened
    // (shard/worker), WHAT was running (model name + version), and the
    // batch size at failure — so a caller or an operator reading a future
    // never has to parse a bare message.
    ErrorContext ctx;
    ctx.shard = shard;
    ctx.worker = worker;
    ctx.model = entry.name;
    ctx.model_version = entry.version;
    ctx.queue_depth = batch.size();
    for (const auto& req : batch) ctx.backlog_cost += req.cost;
    const auto error = std::make_exception_ptr(ModelError(
        std::string("model execution failed: ") + cause.what(), std::move(ctx)));
    for (auto& req : batch) {
      emit_error_span(req);
      deliver_error(req, error);
    }
    return {};
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (auto& req : batch) {
      emit_error_span(req);
      deliver_error(req, error);
    }
    return {};
  }
  const auto end = ServeClock::now();
  if (entry.requests_metric != nullptr) entry.requests_metric->add(batch.size());

  BatchRecord record;
  record.requests = batch.size();
  record.rows = total_rows;
  record.shard = shard;
  record.latency_ms.reserve(batch.size());

  std::size_t row = 0;
  for (auto& req : batch) {
    ServeResult result;
    result.id = req.id;
    // Solo pass: the whole output belongs to the one request (this is the
    // path row-count-changing models take). Batched pass: slice.
    result.logits = batch.size() == 1 ? std::move(logits)
                                      : slice_rows(logits, row, req.rows());
    row += req.rows();
    result.queue_ms = ms_between(req.enqueued, start);
    result.service_ms = ms_between(start, end);
    result.worker = worker;
    result.shard = shard;
    result.batch_requests = batch.size();
    result.batch_rows = total_rows;
    if (stamp_slo(result, req, end)) ++record.deadline_misses;
    record.latency_ms.push_back(result.queue_ms + result.service_ms);
    record.latency_class.push_back(req.priority);
    emit_request_spans(req, start, end, worker, shard, batch.size());
    deliver(req, std::move(result));
  }
  return record_batch_metrics(std::move(record));
}

}  // namespace onesa::serve
