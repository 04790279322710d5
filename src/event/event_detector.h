#ifndef SENTINELPP_EVENT_EVENT_DETECTOR_H_
#define SENTINELPP_EVENT_EVENT_DETECTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/interner.h"
#include "common/status.h"
#include "event/consumption.h"
#include "event/event.h"
#include "event/event_registry.h"
#include "event/operator_node.h"
#include "event/timer_service.h"

namespace sentinel {

namespace telemetry {
class Counter;
class Gauge;
class Registry;
class TraceCollector;
}  // namespace telemetry

/// Handle returned by Subscribe, used to Unsubscribe.
using SubscriptionId = uint64_t;

/// \brief The composite event detector — the Sentinel+ analog.
///
/// Events are defined up front (primitive and composite, the Snoop(IB)
/// operator set), forming a detection DAG. At runtime the application
/// raises primitive events with parameters; detections propagate bottom-up
/// and subscribers (the rule manager) are notified in deterministic FIFO
/// order. Re-entrant raises from inside a subscriber (rule actions that
/// raise further events — the paper's cascaded rules) are queued and drained
/// before the outermost Raise returns, so a caller observes the full
/// cascade synchronously.
///
/// Single-threaded by design; all temporal behaviour flows through the
/// injected Clock and the internal TimerService.
class EventDetector final : public NodeContext {
 public:
  using Subscriber = std::function<void(const Occurrence&)>;

  /// `clock` must outlive the detector; not owned. `symbols` is the table
  /// event parameters are interned in — pass the engine's table so names are
  /// shared across layers; when null the detector owns a private one.
  /// `metrics`/`tracer` (both optional, not owned) attach the telemetry
  /// layer: the detector registers its own instruments on `metrics` and
  /// records occurrence steps on `tracer` while a span is active.
  explicit EventDetector(Clock* clock, SymbolTable* symbols = nullptr,
                         telemetry::Registry* metrics = nullptr,
                         telemetry::TraceCollector* tracer = nullptr);
  ~EventDetector() override;

  EventDetector(const EventDetector&) = delete;
  EventDetector& operator=(const EventDetector&) = delete;

  // ------------------------------------------------------ Definition API

  Result<EventId> DefinePrimitive(const std::string& name);
  /// Occurrences of `base` whose params contain every pair of `equals`.
  Result<EventId> DefineFilter(const std::string& name, EventId base,
                               FlatParamMap equals);
  Result<EventId> DefineAnd(const std::string& name, EventId a, EventId b,
                            ConsumptionMode mode = ConsumptionMode::kRecent);
  /// N-ary OR over `alternatives` (at least one).
  Result<EventId> DefineOr(const std::string& name,
                           std::vector<EventId> alternatives);
  Result<EventId> DefineSeq(const std::string& name, EventId first,
                            EventId second,
                            ConsumptionMode mode = ConsumptionMode::kRecent);
  Result<EventId> DefineNot(const std::string& name, EventId initiator,
                            EventId middle, EventId terminator,
                            ConsumptionMode mode = ConsumptionMode::kRecent);
  /// PLUS(base, delta). `cancel_key` names the parameter its pending
  /// expiries are cancelled by: a cancel that binds it to a name checks
  /// only the expiries carrying that name. Symbol() leaves every cancel a
  /// scan of all pending expiries.
  Result<EventId> DefinePlus(const std::string& name, EventId base,
                             Duration delta, Symbol cancel_key = Symbol());
  Result<EventId> DefineAperiodic(
      const std::string& name, EventId initiator, EventId middle,
      EventId terminator, ConsumptionMode mode = ConsumptionMode::kRecent);
  Result<EventId> DefineAperiodicStar(
      const std::string& name, EventId initiator, EventId middle,
      EventId terminator, ConsumptionMode mode = ConsumptionMode::kRecent);
  Result<EventId> DefinePeriodic(
      const std::string& name, EventId initiator, Duration tau,
      EventId terminator, ConsumptionMode mode = ConsumptionMode::kRecent);
  Result<EventId> DefinePeriodicStar(
      const std::string& name, EventId initiator, Duration tau,
      EventId terminator, ConsumptionMode mode = ConsumptionMode::kRecent);
  /// Temporal event firing at every instant matching `pattern`.
  Result<EventId> DefineAbsolute(const std::string& name,
                                 const TimePattern& pattern);

  const EventRegistry& registry() const { return registry_; }
  Result<EventId> Lookup(const std::string& name) const {
    return registry_.Lookup(name);
  }
  const std::string& name(EventId id) const { return registry_.name(id); }

  // ---------------------------------------------------- Subscription API

  /// Calls `subscriber` for every occurrence of `event`. Subscribers added
  /// or removed during a notification take effect from the next occurrence.
  SubscriptionId Subscribe(EventId event, Subscriber subscriber);
  void Unsubscribe(EventId event, SubscriptionId id);

  /// Invoked each time a top-level cascade finishes draining (the detector
  /// becomes quiescent). The engine uses this to reset the rule manager's
  /// per-trigger cascade budget so independent triggers — each request,
  /// each timer firing — get a fresh budget while genuine runaway loops
  /// within one cascade are still caught.
  void SetQuiescentCallback(std::function<void()> callback) {
    quiescent_callback_ = std::move(callback);
  }

  // --------------------------------------------------------- Runtime API

  /// Injects a primitive occurrence at Now() and drains the full cascade
  /// (unless called re-entrantly from a subscriber, in which case the
  /// occurrence joins the in-progress drain). Keys and name values are
  /// symbols of this detector's table.
  Status Raise(EventId event, FlatParamMap params);

  /// Advances the simulated clock to `t`, firing due timers in order at
  /// their exact fire times. Requires the detector's clock to be the given
  /// SimulatedClock (the engine owns both).
  void AdvanceTo(Time t, SimulatedClock* clock);

  /// Fires timers due at Now(); for wall-clock deployments, call
  /// periodically.
  void PollTimers();

  /// Cancels pending PLUS expiries of `plus_event` whose initiating params
  /// contain `match` (symbol keys/values). Returns count, or error if the
  /// event is not a PLUS.
  Result<int> CancelPendingPlus(EventId plus_event,
                                const FlatParamMap& match);

  /// Permanently deactivates an event: its node cancels timers/state, its
  /// occurrences stop propagating, and primitive raises are rejected. The
  /// registry keeps the (orphaned) definition — ids never shift. Used by
  /// policy regeneration when a temporal event is superseded.
  Status DeactivateEvent(EventId event);
  bool IsDeactivated(EventId event) const {
    return event >= 0 && static_cast<size_t>(event) < deactivated_.size() &&
           deactivated_[event];
  }

  /// Earliest pending timer fire time (for schedulers), if any.
  std::optional<Time> NextTimerTime() { return timers_.NextFireTime(); }

  // ------------------------------------------------------ Introspection

  /// Occurrences delivered (to parents/subscribers) per event id.
  /// Out-of-range ids count zero, mirroring IsDeactivated.
  uint64_t occurrence_count(EventId id) const {
    if (id < 0 || static_cast<size_t>(id) >= occ_counts_.size()) return 0;
    return occ_counts_[id];
  }
  uint64_t total_occurrences() const { return total_occurrences_; }
  size_t pending_timer_count() const { return timers_.pending_count(); }

  /// Number of attached consumers of `event`: external subscribers plus
  /// composite-operator parent links plus indexed filter nodes. The
  /// decision cache uses this to prove that suppressing a Raise (replaying
  /// a memoized verdict instead) is unobservable to everything except the
  /// one rule whose verdict is being replayed.
  size_t ConsumerCount(EventId event) const;

  // ------------------------------------------------- NodeContext (nodes)

  void EmitDetected(Occurrence occ) override;
  TimerId ScheduleTimer(Time when, TimerService::Callback cb) override;
  void CancelTimer(TimerId id) override;
  Time Now() const override { return clock_->Now(); }
  uint64_t NextSeq() override { return next_seq_++; }
  SymbolTable& symbols() override { return *symbols_; }
  const SymbolTable& symbols() const { return *symbols_; }

 private:
  struct SubscriberEntry {
    SubscriptionId id;
    Subscriber fn;
  };

  /// Registers the def, instantiates its node, wires parent links.
  Result<EventId> Install(EventDef def);

  /// Drains the occurrence queue, dispatching to parents and subscribers.
  void Drain();
  void Dispatch(const Occurrence& occ);

  /// One key's worth of the filter fast-path index: all single-key equality
  /// filters on a base event that test this key, bucketed by the (interned)
  /// value they require. Dispatch is one flat-map probe plus one integer
  /// hash lookup. `key_name` keeps bucket order deterministic (by key name,
  /// matching the seed's ordered-map iteration).
  struct FilterKeyBucket {
    Symbol key;
    std::string key_name;
    std::unordered_map<uint32_t, std::vector<int>> by_value;
  };

  /// Refreshes the pending-timer gauge after heap mutations (no-op when
  /// no registry is attached).
  void UpdateTimerGauge();

  Clock* clock_;          // Not owned.
  std::unique_ptr<SymbolTable> owned_symbols_;  // Set iff none was injected.
  SymbolTable* symbols_;  // Not owned (points at owned_symbols_ if set).
  telemetry::TraceCollector* tracer_ = nullptr;   // Not owned; may be null.
  telemetry::Counter* raises_counter_ = nullptr;  // Null iff no registry.
  telemetry::Counter* occurrences_counter_ = nullptr;
  telemetry::Gauge* pending_timers_gauge_ = nullptr;
  EventRegistry registry_;
  TimerService timers_;   // Declared before nodes_: nodes cancel in dtors.
  std::vector<std::unique_ptr<OperatorNode>> nodes_;
  /// parents_[child] = list of (parent node index, operand slot).
  std::vector<std::vector<std::pair<int, int>>> parents_;
  /// Fast path for the dominant generated shape: many single-key equality
  /// filters on one base event (one per role/user). Indexed filters are
  /// kept out of parents_ and dispatched by hash lookup on the occurrence's
  /// (interned) parameter value instead of a linear scan. Indexed by base
  /// event id, parallel to nodes_.
  std::vector<std::vector<FilterKeyBucket>> filter_index_;
  std::vector<std::vector<SubscriberEntry>> subscribers_;
  std::vector<uint64_t> occ_counts_;
  std::vector<bool> deactivated_;

  std::deque<Occurrence> queue_;
  std::function<void()> quiescent_callback_;
  bool draining_ = false;
  uint64_t next_seq_ = 1;
  SubscriptionId next_sub_id_ = 1;
  uint64_t total_occurrences_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_EVENT_EVENT_DETECTOR_H_
