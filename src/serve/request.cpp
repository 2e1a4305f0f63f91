#include "serve/request.hpp"

#include <atomic>
#include <string>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace onesa::serve {

namespace {

RequestId next_id() {
  static std::atomic<RequestId> counter{0};
  return ++counter;
}

TaggedRequest tag(ServeRequest req, const SubmitOptions& options) {
  req.id = next_id();
  req.enqueued = ServeClock::now();  // re-stamped on queue entry
  req.priority = options.priority;
  if (options.deadline_ms > 0.0) {
    req.deadline = req.enqueued + std::chrono::duration_cast<ServeClock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          options.deadline_ms));
  }
  req.cost = req.estimated_cost();
  // Sampling decision is made exactly once, here, so every layer that sees
  // the request afterwards (queue, batcher, shed paths) agrees on whether
  // it is traced — the CI trace checker relies on every sampled request
  // reaching a terminal span.
  if (obs::tracing_enabled() && obs::trace_sample(req.id)) {
    req.traced = true;
    obs::trace_async_begin(
        "request", "request", req.id, obs::trace_now_us(),
        "\"priority\":\"" + std::string(priority_name(req.priority)) + "\"");
  }
  TaggedRequest out{std::move(req), {}};
  out.result = out.request.promise.get_future();
  return out;
}

}  // namespace

void deliver(ServeRequest& req, ServeResult&& result) {
  if (req.hook != nullptr) {
    req.hook->on_complete(req, std::move(result));
    return;
  }
  req.promise.set_value(std::move(result));
}

void deliver_error(ServeRequest& req, std::exception_ptr error) {
  if (req.hook != nullptr) {
    req.hook->on_error(req, std::move(error));
    return;
  }
  req.promise.set_exception(std::move(error));
}

ErrorContext request_context(RequestId id, const ModelHandle& model) {
  ErrorContext ctx;
  ctx.request_id = id;
  if (model != nullptr) {
    ctx.model = model->name;
    ctx.model_version = model->version;
  }
  return ctx;
}

void shed_request(ServeRequest& req, const std::string& message, std::size_t queue_depth,
                  std::uint64_t backlog_cost) {
  if (req.traced && obs::tracing_enabled()) {
    obs::trace_async_end("request", "request", req.id, obs::trace_now_us(),
                         "\"outcome\":\"shed\"");
  }
  ErrorContext ctx = request_context(req.id, req.model);
  ctx.queue_depth = queue_depth;
  ctx.backlog_cost = backlog_cost;
  deliver_error(req, std::make_exception_ptr(OverloadError(message, std::move(ctx))));
}

std::uint64_t ServeRequest::estimated_cost() const {
  if (model == nullptr) return 0;
  return static_cast<std::uint64_t>(input.rows()) * model->mac_ops_per_row;
}

std::string_view priority_name(Priority priority) {
  switch (priority) {
    case Priority::kInteractive: return "interactive";
    case Priority::kNormal: return "normal";
    case Priority::kBulk: return "bulk";
  }
  return "?";
}

TaggedRequest make_model_request(ModelHandle model, tensor::Matrix input,
                                 SubmitOptions options) {
  ONESA_CHECK(model != nullptr, "model request without a model handle");
  ONESA_CHECK_SHAPE(!input.empty(), "model request with empty input");
  ServeRequest req;
  req.model = std::move(model);
  req.input = std::move(input);
  return tag(std::move(req), options);
}

}  // namespace onesa::serve
