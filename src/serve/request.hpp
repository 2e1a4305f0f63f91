// Request/response types of the serving runtime.
//
// A ServeRequest is one unit of client work — an nn::Sequential forward
// pass against a registered model — with future-based completion: the
// submitter holds a std::future<ServeResult> that becomes ready when a pool
// worker finishes the batch containing the request. Every request carries a
// priority class and an optional deadline; the queue schedules
// earliest-deadline-first within priority classes and the stats track
// per-request SLO outcomes. See server_pool.hpp for the runtime
// that consumes these.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "serve/errors.hpp"
#include "serve/registry.hpp"
#include "tensor/matrix.hpp"

namespace onesa::serve {

using RequestId = std::uint64_t;
using ServeClock = std::chrono::steady_clock;

/// Scheduling class. Lower value = served first; within a class the queue
/// orders by deadline (EDF), then arrival.
enum class Priority : std::uint8_t { kInteractive = 0, kNormal = 1, kBulk = 2 };

std::string_view priority_name(Priority priority);

/// Per-request scheduling options, shared by every submit path.
struct SubmitOptions {
  Priority priority = Priority::kNormal;
  /// Completion SLO relative to submission; <= 0 means no deadline. A
  /// request finishing after its deadline still completes but is counted as
  /// a deadline miss (ServeResult::deadline_missed, ServeStats).
  double deadline_ms = 0.0;
};

/// Completion record delivered through the request's future.
struct ServeResult {
  RequestId id = 0;

  /// Model output: this request's rows of the batched nn::Sequential::infer
  /// pass (batch-mate rows sliced away) — bit-identical to calling the
  /// model's forward directly on the request's input.
  tensor::Matrix logits;

  /// Host wall-clock accounting (queueing delay and service time, ms).
  double queue_ms = 0.0;
  double service_ms = 0.0;

  /// SLO outcome: the request's class, and whether it completed past its
  /// deadline (always false for requests submitted without one).
  Priority priority = Priority::kNormal;
  bool deadline_missed = false;

  std::size_t worker = 0;          // index of the worker that served it
  std::size_t shard = 0;           // fleet shard that served it (0 standalone)
  std::size_t batch_requests = 1;  // requests packed into the same pass
  std::size_t batch_rows = 0;      // input rows of the whole pass
};

struct ServeRequest;

/// Completion interception point. When a request carries a hook,
/// deliver()/deliver_error() route the outcome to the hook INSTEAD of the
/// request's promise. The network front door attaches one per request to
/// settle its wire reply exactly once (net/server.cpp); everything that
/// completes requests (queue, batcher, pool, fleet) stays hook-agnostic by
/// going through the two helpers.
class CompletionHook {
 public:
  virtual ~CompletionHook() = default;
  virtual void on_complete(ServeRequest& req, ServeResult&& result) = 0;
  virtual void on_error(ServeRequest& req, std::exception_ptr error) = 0;
};

/// One queued unit of work. Move-only (owns the completion promise).
struct ServeRequest {
  RequestId id = 0;

  ModelHandle model;     // the registered model version this request pins
  tensor::Matrix input;  // forward input (rows are samples)

  std::promise<ServeResult> promise;
  ServeClock::time_point enqueued{};

  /// Scheduling state: class, absolute deadline (time_point::max() = none)
  /// and the queue-entry sequence number used as the final FIFO tie-break.
  Priority priority = Priority::kNormal;
  ServeClock::time_point deadline = ServeClock::time_point::max();
  std::uint64_t seq = 0;

  bool has_deadline() const { return deadline != ServeClock::time_point::max(); }

  /// Observability state: whether this request was sampled into the trace
  /// (decided once at creation — see obs/trace.hpp), and the queue's
  /// window-park stamp for the "window_park" span (first time the request
  /// was parked behind an open batching window, if ever).
  bool traced = false;
  bool was_parked = false;
  ServeClock::time_point parked_at{};

  /// Work estimate in MAC operations (see estimated_cost()), stamped once
  /// by make_model_request so the dispatcher never reads the registry entry
  /// under the queue lock.
  std::uint64_t cost = 0;

  /// Completion hook (see CompletionHook); null delivers into `promise`.
  std::shared_ptr<CompletionHook> hook;

  std::size_t rows() const { return input.rows(); }

  /// Work estimate in MAC operations: rows x the entry's per-row MACs. The
  /// least-loaded dispatcher balances the sum of these across workers, and
  /// admission control bounds the backlog's sum, so heterogeneous request
  /// streams are managed by cost instead of request count.
  std::uint64_t estimated_cost() const;
};

/// A freshly-built request paired with its completion future.
struct TaggedRequest {
  ServeRequest request;
  std::future<ServeResult> result;
};

/// Fulfil `req` with `result`: through the completion hook when one is
/// attached, directly into the promise otherwise. Every layer that
/// completes requests (batcher, queue shed paths, fleet admission) goes
/// through these two, so attaching a hook re-routes EVERY outcome.
void deliver(ServeRequest& req, ServeResult&& result);
void deliver_error(ServeRequest& req, std::exception_ptr error);

/// The request part of an ErrorContext: its id, and the model name + version
/// it is bound to (none for a stub without a model). Every serve-layer error
/// built for one request starts here.
ErrorContext request_context(RequestId id, const ModelHandle& model);

/// Shed `req`: end its request span with outcome "shed", then deliver an
/// OverloadError carrying `message` and the shedding component's backlog.
/// The one shed path of the serve tier — queue admission and a closed
/// queue, fleet admission and fleet shutdown all fail through it.
void shed_request(ServeRequest& req, const std::string& message, std::size_t queue_depth,
                  std::uint64_t backlog_cost);

/// nn::Sequential forward pass through a registered model: the batched
/// input rows run model->infer() on the worker (kernel-layer GEMMs), and the
/// response carries the request's logits.
TaggedRequest make_model_request(ModelHandle model, tensor::Matrix input,
                                 SubmitOptions options = {});

}  // namespace onesa::serve
