#ifndef SENTINELPP_SERVICE_MAILBOX_H_
#define SENTINELPP_SERVICE_MAILBOX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace sentinel {

/// \brief Multi-producer single-consumer mailbox for one shard thread, in
/// two lanes under one mutex.
///
///  * `PushBounded` is the **decision lane**. When a capacity is configured
///    and the lane is at it, the producer either fails fast (`kFull`, the
///    shed policy) or waits for space — optionally up to a deadline
///    (`kExpired`).
///  * `Push` is the **exempt lane** — admin broadcasts, timer fan-outs and
///    inspections. It never sheds and never waits for space, because every
///    shard must observe every admin envelope for the epoch barrier to mean
///    anything.
///
/// The two lanes are drained together by `TryPopAll` (exempt backlog
/// first, then the decision lane), which never blocks; `Park` is the
/// consumer's wait for the next item. The service's shard thread holds
/// its shard's owner lock across each `TryPopAll` and the tasks it moved
/// out, and parks without it. Order is FIFO *within* each lane; the
/// lanes are not ordered against each other. That is sufficient for the
/// service: the epoch barrier is enforced by the broadcast latch (producers
/// wait for all shards to apply before returning), not by queue position,
/// and each decision producer has at most one envelope in flight.
///
/// Admission accounting is exact: `depth()` and `peak_depth()` are written
/// under the mutex with every enqueue and drain, and a bounded lane never
/// holds more than its capacity — the overload tests pin this. Both can be
/// read without the mutex.
///
/// Close() initiates shutdown: further pushes are refused (both lanes, and
/// waiting producers wake with `kClosed`), but everything already queued is
/// still handed to the consumer — mailboxes drain, they don't drop.
template <typename T>
class Mailbox {
 public:
  /// Producer-edge outcome of a bounded push.
  enum class PushResult {
    kOk,       ///< Enqueued.
    kClosed,   ///< Mailbox closed (shutdown); item dropped.
    kFull,     ///< At capacity and not blocking; item shed.
    kExpired,  ///< Blocked for space until the deadline passed; item shed.
  };

  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Caps the decision lane at `capacity` queued envelopes (0 = unbounded,
  /// the default).
  void set_capacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
  }

  /// Exempt-lane enqueue; returns false (item dropped) only when closed.
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      exempt_.push_back(std::move(item));
      Enqueued();
    }
    cv_.notify_one();
    return true;
  }

  /// Decision-lane enqueue against the configured capacity.
  ///
  /// At capacity: returns `kFull` when `block` is false; otherwise waits
  /// for the consumer to make space. `deadline_ns` bounds that wait in
  /// std::chrono::steady_clock nanoseconds-since-epoch (the NowNanos
  /// timebase); 0 means wait indefinitely. On success `*depth_after` (when
  /// non-null) receives the queue depth including the new item — the
  /// producer-side congestion signal.
  ///
  /// `max_depth` (when nonzero and below the configured capacity) tightens
  /// the admission bound for THIS push only — the weighted-shedding hook:
  /// an over-quota producer admits against the reduced bound, so the top
  /// of the lane stays reserved for conformant traffic. Ignored on the
  /// unbounded lane, which never sheds anyway.
  PushResult PushBounded(T item, bool block, int64_t deadline_ns,
                         size_t* depth_after = nullptr,
                         size_t max_depth = 0) {
    size_t after = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      size_t bound = capacity_;
      if (bound > 0 && max_depth > 0 && max_depth < bound) bound = max_depth;
      if (bound > 0 && decisions_.size() >= bound) {
        if (!block) return PushResult::kFull;
        const PushResult waited = WaitForSpace(lock, bound, deadline_ns);
        if (waited != PushResult::kOk) return waited;
      }
      decisions_.push_back(std::move(item));
      after = Enqueued();
    }
    if (depth_after != nullptr) *depth_after = after;
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Moves the entire backlog into `*out` (previous contents replaced)
  /// without blocking: the exempt backlog first, then the decision lane.
  /// Returns whether it moved anything. Consumer only.
  bool TryPopAll(std::deque<T>* out) {
    out->clear();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (exempt_.empty() && decisions_.empty()) return false;
      out->swap(exempt_);
      if (out->empty()) {
        out->swap(decisions_);
      } else {
        decisions_.swap(drained_);
      }
      depth_.store(0, std::memory_order_relaxed);
    }
    space_cv_.notify_all();
    // Both lanes held items: the decision lane follows the exempt backlog.
    for (T& item : drained_) out->push_back(std::move(item));
    drained_.clear();
    return true;
  }

  /// Blocks until an item is queued or the mailbox is closed. Returns false
  /// only when closed AND fully drained — the consumer's exit signal;
  /// otherwise the next TryPopAll moves at least one item. Consumer only.
  bool Park() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      return closed_ || !exempt_.empty() || !decisions_.empty();
    });
    return !exempt_.empty() || !decisions_.empty();
  }

  /// Refuses new pushes and wakes waiting producers; queued items remain
  /// poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Current queued-envelope count (both lanes).
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }

  /// High-water mark of the queued-envelope count (both lanes) since
  /// construction.
  size_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Records one enqueue in the depth counters and returns the new depth.
  /// Requires mu_.
  size_t Enqueued() {
    const size_t depth = exempt_.size() + decisions_.size();
    depth_.store(depth, std::memory_order_relaxed);
    if (depth > peak_depth_.load(std::memory_order_relaxed)) {
      peak_depth_.store(depth, std::memory_order_relaxed);
    }
    return depth;
  }

  /// Waits on the space condvar until the decision lane is below `bound`,
  /// the mailbox closes, or the deadline (0 = none) passes. Requires mu_,
  /// held by `lock`.
  PushResult WaitForSpace(std::unique_lock<std::mutex>& lock, size_t bound,
                          int64_t deadline_ns) {
    const auto ready = [this, bound] {
      return closed_ || decisions_.size() < bound;
    };
    bool in_time = true;
    if (deadline_ns > 0) {
      const std::chrono::steady_clock::time_point deadline{
          std::chrono::nanoseconds(deadline_ns)};
      // True also when space appeared exactly at the deadline.
      in_time = space_cv_.wait_until(lock, deadline, ready);
    } else {
      space_cv_.wait(lock, ready);
    }
    if (closed_) return PushResult::kClosed;
    return in_time ? PushResult::kOk : PushResult::kExpired;
  }

  std::mutex mu_;
  std::condition_variable cv_;        // Consumer wakeups.
  std::condition_variable space_cv_;  // Producers waiting for space.
  std::deque<T> exempt_;              // Guarded by mu_.
  std::deque<T> decisions_;           // Guarded by mu_.
  /// The decision lane taken out when both lanes held items. Consumer only.
  std::deque<T> drained_;
  size_t capacity_ = 0;  // Guarded by mu_.
  bool closed_ = false;  // Guarded by mu_.
  /// Written under mu_, read without it.
  std::atomic<size_t> depth_{0};
  std::atomic<size_t> peak_depth_{0};
};

}  // namespace sentinel

#endif  // SENTINELPP_SERVICE_MAILBOX_H_
