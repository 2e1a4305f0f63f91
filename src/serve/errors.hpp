// Typed, structured errors of the serving stack.
//
// Every failure a future can carry is a subclass of onesa::Error with an
// ErrorContext attached: WHERE the request died (shard, worker), WHAT it was
// running against (model name + version), and HOW loaded the failing
// component was (queue depth / backlog cost at the moment of failure).
// Catch sites that only want a message keep working — what() embeds the
// context — while callers (the network front door's error codes) and
// operators branch on the type and read the fields instead of parsing
// strings.
//
//   OverloadError   — admission control (queue or fleet) or a shutdown shed
//                     the request (serve::shed_request builds every one).
//   ModelError      — a worker-side model execution failed (shape mismatch,
//                     layer without an infer path, ...). Deterministic;
//                     carries the underlying cause's message.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace onesa::serve {

/// Structured failure context. kNoShard/kNoWorker mean "not applicable"
/// (e.g. fleet-level admission failures happen before routing).
struct ErrorContext {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::uint64_t request_id = 0;
  std::size_t shard = kNone;
  std::size_t worker = kNone;
  /// Model the request was bound to, if any ("" for non-model requests).
  std::string model;
  std::uint64_t model_version = 0;
  /// Backlog of the rejecting/failing component at the moment of failure.
  std::size_t queue_depth = 0;
  std::uint64_t backlog_cost = 0;

  /// " [shard=1 worker=0 model=mlp v2 depth=37 backlog=123456]" — appended
  /// to every structured error's what().
  std::string describe() const;
};

/// Base of every serve-layer failure that carries structured context.
class ServeError : public Error {
 public:
  ServeError(const std::string& message, ErrorContext context)
      : Error(message + context.describe()), context_(std::move(context)) {}

  const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_{};
};

/// Raised through a shed request's future when admission control refuses it.
class OverloadError : public ServeError {
 public:
  using ServeError::ServeError;
};

/// Worker-side model execution failure (deterministic).
class ModelError : public ServeError {
 public:
  using ServeError::ServeError;
};

}  // namespace onesa::serve
