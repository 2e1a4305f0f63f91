#include "serve/request_queue.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace onesa::serve {

namespace {

/// Registry handles resolved once; every RequestQueue instance feeds the
/// same named series (gauge deltas aggregate correctly across queues).
struct QueueMetrics {
  obs::Gauge& depth = obs::MetricsRegistry::global().gauge("serve_queue_depth");
  obs::Gauge& backlog = obs::MetricsRegistry::global().gauge("serve_queue_backlog_cost");
  obs::Counter& sheds = obs::MetricsRegistry::global().counter("serve_sheds_total");
  obs::Counter& window_parks =
      obs::MetricsRegistry::global().counter("serve_window_parks_total");
  obs::Counter& window_expiries =
      obs::MetricsRegistry::global().counter("serve_window_expiries_total");
};

QueueMetrics& queue_metrics() {
  static QueueMetrics metrics;
  return metrics;
}

}  // namespace

RequestQueue::RequestQueue(std::size_t workers, DynamicBatcher batcher,
                           AdmissionConfig admission)
    : workers_(workers),
      batcher_(std::move(batcher)),
      admission_(admission),
      assigned_cost_(workers, 0) {
  ONESA_CHECK(workers_ > 0, "RequestQueue needs at least one worker");
}

void RequestQueue::shed_incoming(ServeRequest req, std::string_view reason) {
  sheds_.fetch_add(1, std::memory_order_relaxed);
  queue_metrics().sheds.add(1);
  shed_request(req, "shed by admission control (" + std::string(reason) + ")",
               count_.load(std::memory_order_relaxed),
               backlog_cost_.load(std::memory_order_relaxed));
}

bool RequestQueue::push(ServeRequest req) {
  const char* refusal = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      refusal = "queue closed";
    } else if (admission_.over(pending_.size(), 1,
                               backlog_cost_.load(std::memory_order_relaxed), req.cost)) {
      refusal = "over budget";
    } else {
      req.enqueued = ServeClock::now();
      req.seq = next_seq_++;
      count_.fetch_add(1, std::memory_order_relaxed);
      backlog_cost_.fetch_add(req.cost, std::memory_order_relaxed);
      queue_metrics().depth.add(1);
      queue_metrics().backlog.add(static_cast<std::int64_t>(req.cost));
      pending_.push_back(std::move(req));
      parked_scratch_.reserve(pending_.capacity());
      ++sched_epoch_;
    }
  }
  if (refusal != nullptr) {
    // A submit racing shutdown settles its future with a typed OverloadError
    // instead of throwing into the submitter: the caller (fleet front door,
    // network server) treats "shut down" as one more shedding condition, and
    // every accepted future still settles exactly once.
    shed_incoming(std::move(req), refusal);
    return false;
  }
  cv_.notify_all();
  return true;
}

bool RequestQueue::is_turn(std::size_t worker) const {
  // Smallest cumulative assigned cost wins, lowest index on ties —
  // deterministic regardless of which worker threads are awake.
  const auto least =
      std::min_element(assigned_cost_.begin(), assigned_cost_.end());
  return static_cast<std::size_t>(least - assigned_cost_.begin()) == worker;
}

std::size_t RequestQueue::scheduled_head(const std::vector<char>& parked) const {
  std::size_t best = pending_.size();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (parked[i] != 0) continue;
    if (best == pending_.size()) {
      best = i;
      continue;
    }
    const ServeRequest& a = pending_[i];
    const ServeRequest& b = pending_[best];
    if (a.priority != b.priority) {
      if (a.priority < b.priority) best = i;
    } else if (a.deadline != b.deadline) {
      if (a.deadline < b.deadline) best = i;  // EDF; "no deadline" sorts last
    } else if (a.seq < b.seq) {
      best = i;
    }
  }
  return best;
}

double RequestQueue::window_ms(const ServeRequest& head) const {
  // Interactive work always launches immediately — the class exists so a
  // latency-sensitive request is never parked behind a fill optimization.
  // Non-batchable models cannot grow their batch, so waiting would be pure
  // added latency. Otherwise: the registry entry's per-model window.
  if (head.priority == Priority::kInteractive || head.model == nullptr ||
      !head.model->batchable)
    return 0.0;
  return head.model->batch_window_ms;
}

bool RequestQueue::batch_is_full(std::size_t head) const {
  const ServeRequest& h = pending_[head];
  const BatcherConfig& cfg = batcher_.config();
  std::size_t requests = 1;
  std::size_t rows = h.rows();
  if (requests >= cfg.max_batch_requests || rows >= cfg.max_batch_rows) return true;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (i == head || !DynamicBatcher::compatible(h, pending_[i])) continue;
    if (rows + pending_[i].rows() > cfg.max_batch_rows) continue;
    rows += pending_[i].rows();
    ++requests;
    if (requests >= cfg.max_batch_requests || rows >= cfg.max_batch_rows) return true;
  }
  return false;
}

void RequestQueue::pop_batch(std::size_t worker, std::vector<ServeRequest>& out) {
  ONESA_CHECK(worker < workers_, "worker index " << worker << " out of " << workers_);
  out.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t head = 0;
  for (;;) {
    cv_.wait(lock, [&] {
      return (closed_ && pending_.empty()) || (!pending_.empty() && is_turn(worker));
    });
    if (pending_.empty()) return;  // closed and drained; out stays empty

    // Find a launchable head in scheduler order, PARKING heads whose
    // batching window is still open instead of blocking behind them: a
    // parked head keeps collecting riders while unrelated pending work
    // (anything that could not ride in its batch) dispatches immediately —
    // an open window must never head-of-line block the shard. Only when
    // every pending request is parked (it is, or rides with, a
    // window-waiting head) does the worker sleep, until the earliest
    // window deadline or a new arrival.
    bool launch = false;
    bool expired = false;
    auto earliest = ServeClock::time_point::max();
    // Member scratch: assigned fresh each evaluation, never read across a
    // wait. push() already grew its capacity to pending_'s.
    parked_scratch_.assign(pending_.size(), 0);
    std::vector<char>& parked = parked_scratch_;
    // A request's FIRST park is an observable event: it stamps the
    // window_park span start and counts toward the park metric. Re-parks on
    // later wakeups of the same wait are the same logical park.
    const auto mark_parked = [](ServeRequest& req) {
      if (req.was_parked) return;
      req.was_parked = true;
      req.parked_at = ServeClock::now();
      queue_metrics().window_parks.add(1);
    };
    for (;;) {
      head = scheduled_head(parked);
      if (head == pending_.size()) break;  // everything is parked
      const double window = window_ms(pending_[head]);
      if (window <= 0.0 || closed_ || batch_is_full(head)) {
        launch = true;
        break;
      }
      // The hold ends at the window — or at the head's own SLO deadline if
      // that comes first: parking a request past its deadline to improve
      // fill would manufacture a miss the immediate-launch behaviour never
      // had.
      const auto deadline =
          std::min(pending_[head].deadline,
                   pending_[head].enqueued +
                       std::chrono::duration_cast<ServeClock::duration>(
                           std::chrono::duration<double, std::milli>(window)));
      if (ServeClock::now() >= deadline) {
        // Window expired: launch the partial batch instead of waiting for
        // a full one — the latency-aware tradeoff this window exists for.
        launch = true;
        expired = true;
        break;
      }
      // Park this head and everything that would ride with it, then look
      // for other launchable work.
      parked[head] = 1;
      mark_parked(pending_[head]);
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (parked[i] == 0 && DynamicBatcher::compatible(pending_[head], pending_[i])) {
          parked[i] = 1;
          mark_parked(pending_[i]);
        }
      }
      earliest = std::min(earliest, deadline);
    }
    if (launch) {
      if (expired) {
        ++window_expiries_;
        queue_metrics().window_expiries.add(1);
      }
      break;
    }
    // Sleep until the earliest window deadline — or until the scheduler
    // state moves underneath us (the epoch): a new arrival, a
    // pop by another worker (the turn may now be ours for work that was
    // previously someone else's), or close. A timeout re-enters the loop
    // and takes the expiry path.
    const std::uint64_t epoch0 = sched_epoch_;
    cv_.wait_until(lock, earliest, [&] { return sched_epoch_ != epoch0; });
  }

  // Rotate the scheduled head (priority -> EDF -> arrival) to the front;
  // the batcher packs arrival-ordered compatible riders behind it.
  if (head != 0) {
    const auto first = pending_.begin();
    std::rotate(first, first + static_cast<std::ptrdiff_t>(head),
                first + static_cast<std::ptrdiff_t>(head) + 1);
  }
  batcher_.take_batch(pending_, out);

  std::uint64_t cost = 0;
  for (const auto& req : out) cost += req.cost;  // stamped at submit time
  count_.fetch_sub(out.size(), std::memory_order_relaxed);
  backlog_cost_.fetch_sub(cost, std::memory_order_relaxed);
  queue_metrics().depth.add(-static_cast<std::int64_t>(out.size()));
  queue_metrics().backlog.sub(static_cast<std::int64_t>(cost));
  // Charge at least one unit so zero-cost batches still advance the tie
  // break instead of pinning every batch on one worker.
  assigned_cost_[worker] += std::max<std::uint64_t>(cost, 1);
  ++sched_epoch_;  // the turn and the backlog both changed
  lock.unlock();
  cv_.notify_all();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ++sched_epoch_;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::pending() const {
  return count_.load(std::memory_order_relaxed);
}

std::uint64_t RequestQueue::backlog_cost() const {
  return backlog_cost_.load(std::memory_order_relaxed);
}

std::uint64_t RequestQueue::sheds() const {
  return sheds_.load(std::memory_order_relaxed);
}

std::uint64_t RequestQueue::window_expiries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_expiries_;
}

std::vector<std::uint64_t> RequestQueue::assigned_cost() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return assigned_cost_;
}

}  // namespace onesa::serve
