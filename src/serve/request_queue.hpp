// Thread-safe request queue with priority/deadline scheduling, admission
// control, and batch-granular dispatch.
//
// SCHEDULING. Producers push tagged requests; the queue orders service
// earliest-deadline-first within priority classes:
//   1. strict priority — an interactive request is always scheduled before
//      a normal one, which beats bulk;
//   2. EDF inside the class — earliest absolute deadline first, requests
//      without a deadline after every dated one;
//   3. arrival sequence as the final FIFO tie-break.
// The chosen request becomes the batch head; the DynamicBatcher then packs
// later compatible requests around it (batch-mates keep their own deadlines,
// and misses are accounted per request at completion).
//
// LATENCY-AWARE BATCHING WINDOWS. A head whose batch is only partially
// filled may WAIT for more compatible riders instead of launching
// immediately: up to its registry entry's batch_window_ms (default 0 = the
// immediate-launch behaviour).
// The wait ends — and the batch launches — when any of these happens first:
//   - the window expires (counted in window_expiries(), exported to
//     ServeStats) — the partial batch launches instead of waiting for full;
//     a head with an SLO deadline earlier than its window end launches at
//     the deadline instead (holding a request past its own deadline to
//     improve fill would manufacture a miss);
//   - the batch fills (request or row budget reached);
//   - the head is (or becomes, via a new higher-priority arrival that takes
//     over as head) an INTERACTIVE-class request — interactive work always
//     forces immediate launch;
//   - the queue closes (drain fast on shutdown).
// A waiting head never head-of-line blocks the shard: it is PARKED (with
// the riders that would join its batch) and the scheduler keeps dispatching
// any pending work that could not ride with it; workers only sleep when
// every pending request is parked, and then only until the earliest window
// deadline. Trace requests and non-batchable models never wait: their
// batches cannot grow.
//
// ADMISSION CONTROL. The queue is bounded by AdmissionConfig: a cap on
// pending requests and/or on the backlog's estimated simulated cost (sum of
// ServeRequest::cost, MAC units). A push that would exceed a cap is refused:
// the newcomer's future fails with OverloadError and the queue is untouched.
// Shed counts are exported for ServeStats.
//
// WORKER DISPATCH. Pool workers block in pop_batch until a batch is
// available and it is their turn to take one: the worker whose cumulative
// *assigned simulated cost* (sum of ServeRequest::estimated_cost over every
// batch it has taken, ties broken by lowest index) is smallest takes the
// next batch. Given the *sequence of batches*, the pick is deterministic,
// never decided by which worker thread happens to be awake. Batch
// composition itself still depends on how many compatible requests are
// pending at pop time.
//
// SUBMIT PATH. One mutex guards the pending vector, the arrival counter and
// the dispatch state: push() checks the closed flag and admission, stamps
// the request and appends it under the lock, then wakes the workers after
// unlocking. Admission is therefore exact for any number of concurrent
// submitters. The pending count and backlog cost are mirrored in atomics
// (written under the lock) so the fleet's router and admission can read
// them without it. close() stops new submissions; workers keep draining
// until the queue is empty and only then observe the closed state, so
// every accepted request is served before shutdown completes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "serve/batcher.hpp"
#include "serve/errors.hpp"
#include "serve/request.hpp"

namespace onesa::serve {

// OverloadError lives in serve/errors.hpp now (it carries an ErrorContext);
// re-exported here so existing includers keep compiling.

/// Backlog bounds. Zero means "unlimited" for either cap; with both zero the
/// queue never sheds. Over a cap, the newcomer is refused.
struct AdmissionConfig {
  std::size_t max_pending_requests = 0;
  /// Cap on the backlog's summed estimated cost (MAC units).
  std::uint64_t max_backlog_cost = 0;

  /// Would a backlog of `pending_requests` + `extra_requests` requests and
  /// `backlog_cost` + `extra_cost` MACs exceed a cap? The ONE copy of the
  /// cap semantics, shared by the queue's per-pool admission and the
  /// fleet's summed-backlog admission.
  bool over(std::size_t pending_requests, std::size_t extra_requests,
            std::uint64_t backlog_cost, std::uint64_t extra_cost) const {
    if (max_pending_requests != 0 &&
        pending_requests + extra_requests > max_pending_requests)
      return true;
    if (max_backlog_cost != 0 && backlog_cost + extra_cost > max_backlog_cost)
      return true;
    return false;
  }
};

class RequestQueue {
 public:
  /// `workers` is the dispatch-set size; batcher decides what rides together.
  RequestQueue(std::size_t workers, DynamicBatcher batcher, AdmissionConfig admission = {});

  /// Enqueue a request (stamps its queue-entry time and arrival sequence).
  /// Returns true when admitted; when admission control sheds the request
  /// instead, its promise fails with OverloadError and push returns false.
  /// A push racing (or after) close() is shed the same way — the future
  /// settles with OverloadError("queue closed"), it never throws — so a
  /// submitter can lose the race against shutdown without special-casing.
  bool push(ServeRequest req);

  /// Block until it is `worker`'s turn and a batch is available, then pop
  /// the scheduled batch (EDF-within-priority head plus compatible riders)
  /// into `out` (cleared first; its capacity is reused — the worker loop
  /// passes the same vector every iteration so steady-state pops never
  /// allocate). `out` is empty when the queue is closed and drained — the
  /// worker's signal to exit.
  void pop_batch(std::size_t worker, std::vector<ServeRequest>& out);

  /// Convenience overload for tests and one-shot callers.
  std::vector<ServeRequest> pop_batch(std::size_t worker) {
    std::vector<ServeRequest> out;
    pop_batch(worker, out);
    return out;
  }

  /// Stop accepting pushes and wake every waiter. Idempotent.
  void close();

  std::size_t pending() const;
  /// Summed estimated cost (MACs) of the backlog right now.
  std::uint64_t backlog_cost() const;
  const AdmissionConfig& admission() const { return admission_; }

  /// Requests shed by admission control so far.
  std::uint64_t sheds() const;

  /// Batches launched partially filled because their batching window
  /// expired (merged into ServeStats by the pool).
  std::uint64_t window_expiries() const;

  /// Cumulative estimated simulated cost (MACs) assigned to each worker so
  /// far — the quantity dispatch levels.
  std::vector<std::uint64_t> assigned_cost() const;

 private:
  /// True when `worker` is the one that should take the next batch.
  /// Caller holds mutex_.
  bool is_turn(std::size_t worker) const;

  /// Index of the next request to serve (priority, then EDF, then arrival)
  /// among requests whose `parked` flag is 0; pending_.size() when every
  /// request is parked (all are window-waiting heads or their riders).
  /// Caller holds mutex_; pending_ must be non-empty. O(pending) per pop —
  /// deliberate: admission control bounds the backlog in production
  /// configurations, and a linear scan beats maintaining ordered per-class
  /// structures at realistic queue depths. Revisit with a per-class
  /// deadline-ordered index if unbounded queues ever need to scale past
  /// ~10^4 pending requests.
  std::size_t scheduled_head(const std::vector<char>& parked) const;

  /// Batching window of a head request (ms; 0 = launch immediately).
  /// Caller holds mutex_.
  double window_ms(const ServeRequest& head) const;

  /// True when the batch that would form around `head` already exhausts a
  /// batcher budget, so waiting longer cannot improve it. Caller holds
  /// mutex_.
  bool batch_is_full(std::size_t head) const;

  /// Refused on the submit path: count, trace, fail the future. Called
  /// without mutex_ — the completion hooks it runs take other locks.
  void shed_incoming(ServeRequest req, std::string_view reason);

  const std::size_t workers_;
  DynamicBatcher batcher_;
  const AdmissionConfig admission_;

  // Written under mutex_; read without it by pending(), backlog_cost() and
  // the fleet's router and admission.
  std::atomic<std::size_t> count_{0};             // pending_.size()
  std::atomic<std::uint64_t> backlog_cost_{0};    // summed cost of pending_
  std::atomic<std::uint64_t> sheds_{0};           // admission-control counter

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<ServeRequest> pending_;
  std::uint64_t next_seq_ = 0;                // arrival stamp
  bool closed_ = false;
  std::uint64_t window_expiries_ = 0;         // batching-window counter
  std::uint64_t sched_epoch_ = 0;             // bumped on push/pop/close
  std::vector<std::uint64_t> assigned_cost_;  // per-worker dispatch load
  // Pop-time park flags. push() keeps its capacity at
  // pending_'s, so a worker's pop never allocates when the backlog grows.
  std::vector<char> parked_scratch_;
};

}  // namespace onesa::serve
