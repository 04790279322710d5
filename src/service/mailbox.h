#ifndef SENTINELPP_SERVICE_MAILBOX_H_
#define SENTINELPP_SERVICE_MAILBOX_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace sentinel {

/// \brief Multi-producer single-consumer mailbox for one shard thread, in
/// two independent lanes.
///
///  * `PushBounded` is the **decision lane**: a fixed-size MPSC ring with an
///    explicit admission counter. The happy path is lock-free — a CAS to
///    admit, a fetch_add to claim a slot, a release store to publish — so
///    decision producers never serialize on a mutex against each other or
///    against admin traffic. When a capacity is configured and the ring is
///    at it, the producer either fails fast (`kFull`, the shed policy) or
///    parks for space — optionally up to a deadline (`kExpired`).
///  * `Push` is the **exempt lane** — admin broadcasts, timer fan-outs and
///    inspections. It stays a mutex-protected deque: it never sheds and
///    never waits for space, because every shard must observe every admin
///    envelope for the epoch barrier to mean anything, and its condvar
///    handshake is what the service's latch-based barrier was proved
///    against. Exempt traffic is low-rate by construction.
///
/// The two lanes are drained together by `TryPopAll` (exempt backlog
/// first, then every published ring slot), which never blocks; `Park` is
/// the consumer's wait for the next item. The service's shard thread holds
/// its shard's owner lock across each `TryPopAll` and the tasks it moved
/// out, and parks without it. Order is FIFO *within* each lane; the
/// lanes are not ordered against each other. That is sufficient for the
/// service: the epoch barrier is enforced by the broadcast latch (producers
/// wait for all shards to apply before returning), not by queue position,
/// and each decision producer has at most one envelope in flight.
///
/// Admission accounting is exact, not approximate: `depth()` and
/// `peak_depth()` report real enqueued counts, and a bounded lane never
/// overshoots its capacity even transiently — the overload tests pin this.
///
/// Memory ordering contract (the proof sketch the orderings hang off):
///  * Admission CAS on `ring_size_`, the producer's post-admit re-check of
///    `closed_`, Close's store, and the consumer's exit-time load of
///    `ring_size_` are all seq_cst: in the single total order either the
///    producer sees the close (rolls back its admission), or the consumer
///    sees the admission (waits for the slot to publish). An envelope can
///    therefore never be admitted and silently dropped at shutdown.
///  * Each cell carries a lap sequence, as in Vyukov's bounded queue: `seq
///    == pos` means the cell is free for ring position `pos`, `pos + 1`
///    that `pos` is published. A slot publish is `seq.store(pos + 1,
///    release)`; the consumer reads it with acquire, so the item write
///    happens-before the consume. After moving the item out, the consumer
///    release-stores `seq = pos + slots`, freeing the cell for the next lap,
///    and a producer acquire-checks `seq == pos` before it writes. That
///    orders the consumer's move before the next lap's write even for a
///    producer admitted before the consumer's `ring_size_` decrement: its
///    admission read nothing the consumer wrote, and the claim of `tail_`
///    is relaxed. Admission keeps `tail_ - head_` within the slot count, so
///    the check passes at once or after the consumer's in-flight store.
///    Sequences only grow — no ABA across ring wraps.
///  * The consumer decrements `ring_size_` (acq_rel) only *after* moving
///    items out, so an admission that reads the decrement finds the freed
///    slots free.
///  * Sleep/wake uses a Dekker handshake on seq_cst accesses: the consumer
///    stores `consumer_waiting_` then loads the ring slot it waits on; the
///    producer stores the slot's sequence (the publish) then loads the
///    flag, and notifies under the mutex when it is set. All four are in
///    the single total order, so one side always sees the other's store.
///    (Plain accesses rather than fences: ThreadSanitizer models seq_cst
///    loads and stores, not `atomic_thread_fence`.)
///
/// Close() initiates shutdown: further pushes are refused (both lanes, and
/// parked producers wake with `kClosed`), but everything already queued is
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

  Mailbox() { AllocateRing(kDefaultRingSlots); }
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Caps the decision lane at `capacity` admitted envelopes (0 = unbounded,
  /// the default). Resizes the physical ring, so it must be called during
  /// construction wiring, before any producer or the consumer exists. The
  /// service validates capacities to powers of two; any other value is
  /// rounded up for the slot array while admission stays exact.
  void set_capacity(size_t capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_.store(capacity, std::memory_order_relaxed);
    size_t slots = kDefaultRingSlots;
    if (capacity > 0) {
      // At least two slots: with one, "published for pos" and "free for
      // pos + 1" would be the same sequence value.
      slots = 2;
      while (slots < capacity) slots <<= 1;
    }
    AllocateRing(slots);
  }

  size_t capacity() const { return capacity_.load(std::memory_order_relaxed); }

  /// Exempt-lane enqueue; returns false (item dropped) only when closed.
  bool Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_.load(std::memory_order_relaxed)) return false;
      exempt_.push_back(std::move(item));
      exempt_size_.store(exempt_.size(), std::memory_order_relaxed);
      UpdatePeak(total_size_.fetch_add(1, std::memory_order_relaxed) + 1);
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
  /// of the ring stays reserved for conformant traffic. Ignored on the
  /// unbounded lane, which never sheds anyway.
  PushResult PushBounded(T item, bool block, int64_t deadline_ns,
                         size_t* depth_after = nullptr,
                         size_t max_depth = 0) {
    if (closed_.load(std::memory_order_acquire)) return PushResult::kClosed;
    const size_t cap = capacity_.load(std::memory_order_relaxed);
    size_t bound = cap > 0 ? cap : slot_count_;
    if (cap > 0 && max_depth > 0 && max_depth < bound) bound = max_depth;
    size_t ring_after = 0;
    if (TryAdmit(bound, &ring_after)) {
      // Admitted lock-free: re-check closed (seq_cst, pairs with Close and
      // the consumer's exit check) so shutdown can't leak this admission.
      if (closed_.load(std::memory_order_seq_cst)) {
        ring_size_.fetch_sub(1, std::memory_order_acq_rel);
        return PushResult::kClosed;
      }
    } else if (cap == 0) {
      // Unbounded lane, physical ring full: spill into the exempt deque
      // rather than refuse. (Spilled items may drain ahead of ring items;
      // the service never has more than one envelope per producer in
      // flight, so no caller can observe its own reordering.)
      return SpillUnbounded(std::move(item), depth_after);
    } else {
      if (!block) return PushResult::kFull;
      const PushResult parked = ParkForSpace(bound, deadline_ns, &ring_after);
      if (parked != PushResult::kOk) return parked;
    }
    // The total-size increment happens after the admission won (so the
    // ring's contribution to the peak can never exceed the capacity, even
    // transiently) and before the publish (so the consumer's matching
    // decrement — which follows its read of the published slot — cannot
    // land first). The fetch_add result is therefore an exact queued-count
    // observation, which is what makes peak_depth() a measurement instead
    // of a racy two-counter approximation.
    const size_t after = total_size_.fetch_add(1, std::memory_order_relaxed)
                         + 1;
    UpdatePeak(after);
    Publish(std::move(item));
    if (depth_after != nullptr) *depth_after = after;
    WakeConsumer();
    return PushResult::kOk;
  }

  /// Moves the entire backlog into `*out` (previous contents replaced)
  /// without blocking: the exempt backlog first, then every published ring
  /// slot. Returns whether it moved anything. Consumer only.
  bool TryPopAll(std::deque<T>* out) {
    out->clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (!exempt_.empty()) {
      const size_t exempt_moved = exempt_.size();
      while (!exempt_.empty()) {
        out->push_back(std::move(exempt_.front()));
        exempt_.pop_front();
      }
      exempt_size_.store(0, std::memory_order_relaxed);
      total_size_.fetch_sub(exempt_moved, std::memory_order_relaxed);
    }
    size_t moved = 0;
    for (;;) {
      Cell& cell = cells_[head_ & mask_];
      if (cell.seq.load(std::memory_order_acquire) != head_ + 1) break;
      out->push_back(std::move(cell.item));
      cell.seq.store(head_ + slot_count_, std::memory_order_release);
      ++head_;
      ++moved;
    }
    if (moved > 0) {
      // Total before ring_size_: a producer's total increment follows its
      // admission, so keeping the decrements in the same order bounds the
      // ring's total-size contribution by ring_size_ (and hence by the
      // capacity) at every instant.
      total_size_.fetch_sub(moved, std::memory_order_relaxed);
      // After the moves: the RMW chain on ring_size_ hands the freed slots
      // to the next admitted producers.
      ring_size_.fetch_sub(moved, std::memory_order_acq_rel);
      if (space_waiters_ > 0) space_cv_.notify_all();
    }
    return !out->empty();
  }

  /// Blocks until an item is queued or the mailbox is closed. Returns false
  /// only when closed AND fully drained — the consumer's exit signal;
  /// otherwise the next TryPopAll moves at least one item. Consumer only.
  bool Park() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!exempt_.empty() ||
          cells_[head_ & mask_].seq.load(std::memory_order_acquire) ==
              head_ + 1) {
        return true;
      }
      if (closed_.load(std::memory_order_relaxed)) {
        if (ring_size_.load(std::memory_order_seq_cst) == 0) return false;
        // A producer admitted but hasn't published yet (or is about to
        // roll back against the close): give it the CPU and re-check.
        lock.unlock();
        std::this_thread::yield();
        lock.lock();
        continue;
      }
      consumer_waiting_.store(true, std::memory_order_seq_cst);
      const bool published =
          cells_[head_ & mask_].seq.load(std::memory_order_seq_cst) ==
          head_ + 1;
      if (!published) cv_.wait(lock);  // Else a publish raced our flag.
      consumer_waiting_.store(false, std::memory_order_relaxed);
    }
  }

  /// Refuses new pushes and wakes producers parked on capacity; queued
  /// items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_seq_cst);
    }
    cv_.notify_all();
    space_cv_.notify_all();
  }

  /// Current queued-envelope count (both lanes).
  size_t depth() const {
    return ring_size_.load(std::memory_order_relaxed) +
           exempt_size_.load(std::memory_order_relaxed);
  }

  /// High-water mark of the queued-envelope count since construction —
  /// exact, not approximate: every enqueue on either lane increments one
  /// shared total counter (post-admission for the ring, under the mutex
  /// for the exempt lane) and takes its peak observation from that
  /// fetch_add result, so concurrent ring and exempt traffic can never
  /// under-report the combined high-water mark the way summing two
  /// independently-read counters could. The ring contribution never
  /// exceeds the capacity, even transiently.
  size_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }

 private:
  /// Physical ring slots in unbounded mode (capacity 0): deep enough that
  /// spilling is rare, small enough to stay cache-resident per shard.
  static constexpr size_t kDefaultRingSlots = 2048;

  struct Cell {
    std::atomic<uint64_t> seq{0};
    T item;
  };

  void AllocateRing(size_t slots) {
    cells_ = std::make_unique<Cell[]>(slots);
    for (size_t i = 0; i < slots; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
    slot_count_ = slots;
    mask_ = slots - 1;
  }

  /// Claims one admission against `bound` (CAS on the exact counter). On
  /// success `*ring_after` is the admitted ring depth including this item.
  bool TryAdmit(size_t bound, size_t* ring_after) {
    size_t cur = ring_size_.load(std::memory_order_relaxed);
    while (cur < bound) {
      if (ring_size_.compare_exchange_weak(cur, cur + 1,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed)) {
        *ring_after = cur + 1;
        return true;
      }
    }
    return false;
  }

  /// Writes the item into its claimed slot and publishes it, once the
  /// consumer has freed the slot from its previous lap.
  void Publish(T item) {
    const uint64_t pos = tail_.fetch_add(1, std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    while (cell.seq.load(std::memory_order_acquire) != pos) {
      std::this_thread::yield();
    }
    cell.item = std::move(item);
    // seq_cst, not just release: the publish is the producer's store in
    // the park/wake handshake (WakeConsumer loads the flag next).
    cell.seq.store(pos + 1, std::memory_order_seq_cst);
  }

  /// Dekker wakeup: the seq_cst publish above, then a seq_cst flag load.
  /// Notifying under the mutex closes the check-then-sleep gap.
  void WakeConsumer() {
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_one();
    }
  }

  /// Unbounded overflow: enqueue on the exempt deque under the mutex.
  PushResult SpillUnbounded(T item, size_t* depth_after) {
    size_t after = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_.load(std::memory_order_relaxed)) return PushResult::kClosed;
      exempt_.push_back(std::move(item));
      exempt_size_.store(exempt_.size(), std::memory_order_relaxed);
      after = total_size_.fetch_add(1, std::memory_order_relaxed) + 1;
      UpdatePeak(after);
    }
    if (depth_after != nullptr) *depth_after = after;
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Blocked-producer path: parks on the space condvar, re-trying admission
  /// on every wake. Close wakes everyone; the consumer notifies per drained
  /// batch while anyone is registered.
  PushResult ParkForSpace(size_t bound, int64_t deadline_ns,
                          size_t* ring_after) {
    std::unique_lock<std::mutex> lock(mu_);
    ++space_waiters_;
    PushResult result = PushResult::kOk;
    bool admitted = false;
    for (;;) {
      if (closed_.load(std::memory_order_relaxed)) {
        result = PushResult::kClosed;
        break;
      }
      if (TryAdmit(bound, ring_after)) {
        admitted = true;
        break;
      }
      if (deadline_ns > 0) {
        const std::chrono::steady_clock::time_point deadline{
            std::chrono::nanoseconds(deadline_ns)};
        if (space_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
          if (closed_.load(std::memory_order_relaxed)) {
            result = PushResult::kClosed;
          } else if (TryAdmit(bound, ring_after)) {
            admitted = true;  // Space appeared exactly at the deadline.
          } else {
            result = PushResult::kExpired;
          }
          break;
        }
      } else {
        space_cv_.wait(lock);
      }
    }
    --space_waiters_;
    return admitted ? PushResult::kOk : result;
  }

  void UpdatePeak(size_t depth) {
    size_t seen = peak_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !peak_depth_.compare_exchange_weak(seen, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;        // Consumer wakeups.
  std::condition_variable space_cv_;  // Parked bounded producers.
  std::deque<T> exempt_;              // Exempt lane + unbounded spill.

  std::unique_ptr<Cell[]> cells_;  // Decision-lane ring.
  size_t slot_count_ = 0;
  size_t mask_ = 0;
  uint64_t head_ = 0;  // Consumer-only; next ring position to read.

  std::atomic<size_t> capacity_{0};
  std::atomic<size_t> ring_size_{0};  // Exact admitted-not-consumed count.
  std::atomic<uint64_t> tail_{0};     // Next ring position to claim.
  std::atomic<size_t> exempt_size_{0};
  /// Exact both-lane queued count: incremented once per enqueue (after ring
  /// admission / under the exempt mutex), decremented once per consumed
  /// item (before the matching ring_size_ release). Sole input to
  /// peak_depth_.
  std::atomic<size_t> total_size_{0};
  std::atomic<size_t> peak_depth_{0};
  std::atomic<bool> consumer_waiting_{false};
  std::atomic<bool> closed_{false};
  int space_waiters_ = 0;  // Guarded by mu_.
};

}  // namespace sentinel

#endif  // SENTINELPP_SERVICE_MAILBOX_H_
