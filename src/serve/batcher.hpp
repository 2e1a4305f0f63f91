// Dynamic request batching.
//
// Requests for the same registered model version that the registry marked
// batchable (rows are independent samples) batch together: the input rows
// of every request stack into one matrix, ONE infer() call runs through the
// kernel-layer GEMMs, and each request gets its logit rows back —
// bit-identical to a direct forward because every batchable layer is
// row-independent (tests/test_serve.cpp asserts it). No rows are padded:
// the kernels need no tile alignment. Non-batchable models (per-sequence
// transformers, sequence pools) execute one request per pass.
#pragma once

#include <vector>

#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace onesa::serve {

struct BatcherConfig {
  /// Row budget of one batched pass (requests stop being added once the
  /// stack would exceed this).
  std::size_t max_batch_rows = 64;
  /// Cap on requests packed into one batch.
  std::size_t max_batch_requests = 16;

  void validate() const;
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatcherConfig config = {});

  const BatcherConfig& config() const { return config_; }

  /// Can `req` ride in the same infer() pass as `head`? Same model handle
  /// (so two versions of one name never mix), batchable, same width.
  static bool compatible(const ServeRequest& head, const ServeRequest& req);

  /// Pop the head request plus every later compatible request (within the
  /// config budgets) from `pending` into `out` (cleared first; both vectors
  /// keep their capacity, so a worker passing the same pair every iteration
  /// stages batches without allocating), preserving arrival order. The
  /// caller holds the queue lock. `out` is empty iff `pending` is empty.
  void take_batch(std::vector<ServeRequest>& pending,
                  std::vector<ServeRequest>& out) const;

  /// Convenience overload for tests and one-shot callers.
  std::vector<ServeRequest> take_batch(std::vector<ServeRequest>& pending) const {
    std::vector<ServeRequest> out;
    take_batch(pending, out);
    return out;
  }

  /// Run one batch through its model, fulfill every request's promise with
  /// its sliced logit rows, and return the batch's accounting. `shard` is
  /// stamped into every result and the record (fleet visibility; 0 for a
  /// standalone pool). The requests are consumed — on return the elements
  /// of `batch` are moved-from and only the vector's capacity is worth
  /// keeping (the worker loop reuses it for the next pop).
  BatchRecord execute(std::vector<ServeRequest>& batch, std::size_t worker,
                      std::size_t shard = 0) const;

 private:
  BatcherConfig config_;
};

}  // namespace onesa::serve
