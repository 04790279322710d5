#ifndef SENTINELPP_CORE_DECISION_LOG_H_
#define SENTINELPP_CORE_DECISION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/symbol.h"
#include "common/value.h"
#include "telemetry/metrics.h"

namespace sentinel {

/// One entry of the engine's decision audit trail.
///
/// Fixed-field: every name is a Symbol of the engine's SymbolTable, so
/// recording a decision copies no text. Only a reader that wants the words
/// resolves them, through SymbolTable::NameOf, which is safe from any
/// thread and whose names never move — the audit writer turns records into
/// text on its own thread that way. An invalid symbol reads as the empty
/// string: an absent attribution, an allow's reason, a default deny's rule.
struct DecisionRecord {
  Time when = 0;
  /// Per-log monotonic sequence number, assigned by DecisionLog::Push.
  /// Consumers order and dedupe by it; gaps mean records were lost.
  uint64_t seq = 0;
  /// Wall-clock capture time, microseconds since the Unix epoch (distinct
  /// from `when`, which is the engine's simulated clock).
  int64_t wall_us = 0;
  /// Sampled dispatch latency in microseconds; 0 when this dispatch was not
  /// one of the engine's latency samples (see set_telemetry_sampling).
  int64_t latency_us = 0;
  /// The request event's name, e.g. "rbac.addActiveRole".
  Symbol event{};
  /// Request attribution, invalid when the event does not carry the param.
  /// For rbac.contextChanged, `op` holds the context key and `object` the
  /// context value (the closest request-shaped slots a context move has).
  Symbol user{};
  Symbol session{};
  Symbol role{};
  Symbol op{};
  Symbol object{};
  Symbol purpose{};
  /// The verdict: Decision's fields, with the deciding rule, the denial
  /// reason and the failed WHEN condition as symbols.
  bool allowed = false;
  Symbol rule{};
  Symbol reason{};
  Symbol failed_condition{};
};
static_assert(std::is_trivially_copyable_v<DecisionRecord>);

/// \brief Fixed-size ring buffer over the most recent DecisionRecords.
///
/// Under sustained traffic the audit trail must stay O(capacity): the slots
/// are allocated when the capacity is set, and each Push stores one record
/// into the next slot, overwriting the oldest once full and bumping the
/// overflow counter so administrators can tell how much history was shed.
/// Indexing is oldest-first; capacity 0 disables recording entirely (every
/// Push counts as overflow).
class DecisionLog {
 public:
  explicit DecisionLog(size_t capacity = 256) : slots_(capacity) {}

  /// Appends a record, evicting the oldest when full, and returns the slot
  /// it stored, with its sequence number assigned. Capacity 0 disables
  /// recording: no sequence is consumed and the result is null.
  const DecisionRecord* Push(const DecisionRecord& record) {
    if (slots_.empty()) {
      BumpOverflow();
      return nullptr;
    }
    DecisionRecord& slot = slots_[next_];
    slot = record;
    slot.seq = next_seq_++;
    if (++next_ == slots_.size()) next_ = 0;
    if (size_ < slots_.size()) {
      ++size_;
    } else {
      BumpOverflow();
    }
    return &slot;
  }

  /// Resizes the trail; when shrinking, the oldest surplus records are
  /// dropped (counted as overflow).
  void set_capacity(size_t capacity) {
    const size_t keep = capacity < size() ? capacity : size();
    BumpOverflow(size() - keep);
    std::vector<DecisionRecord> kept(capacity);
    for (size_t i = 0; i < keep; ++i) kept[i] = (*this)[size() - keep + i];
    slots_ = std::move(kept);
    size_ = keep;
    next_ = keep == capacity ? 0 : keep;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }
  /// Number of records dropped (evicted or rejected) so far.
  uint64_t overflow() const { return overflow_; }

  /// Mirrors the overflow count into a registry counter so it shows up in
  /// RenderMetrics alongside the other per-shard series (the engine binds
  /// its `decision_log_overflow_total` here at construction). Single-writer,
  /// like the log itself. Not owned.
  void set_overflow_counter(telemetry::Counter* counter) {
    overflow_counter_ = counter;
    if (counter != nullptr && overflow_ > counter->value()) {
      counter->Inc(overflow_ - counter->value());
    }
  }

  /// Oldest-first access: [0] is the oldest retained record.
  const DecisionRecord& operator[](size_t i) const {
    return slots_[(next_ + slots_.size() - size_ + i) % slots_.size()];
  }
  const DecisionRecord& front() const { return (*this)[0]; }
  const DecisionRecord& back() const { return (*this)[size() - 1]; }

 private:
  void BumpOverflow(uint64_t n = 1) {
    overflow_ += n;
    if (overflow_counter_ != nullptr) overflow_counter_->Inc(n);
  }

  std::vector<DecisionRecord> slots_;
  size_t next_ = 0;  // Slot the next Push stores into.
  size_t size_ = 0;  // Retained records; the oldest is size_ slots back.
  uint64_t overflow_ = 0;
  uint64_t next_seq_ = 0;
  telemetry::Counter* overflow_counter_ = nullptr;  // Not owned.
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_DECISION_LOG_H_
