#include "event/event_detector.h"

#include <algorithm>
#include <cassert>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sentinel {

EventDetector::EventDetector(Clock* clock, SymbolTable* symbols,
                             telemetry::Registry* metrics,
                             telemetry::TraceCollector* tracer)
    : clock_(clock),
      owned_symbols_(symbols == nullptr ? std::make_unique<SymbolTable>()
                                        : nullptr),
      symbols_(symbols == nullptr ? owned_symbols_.get() : symbols),
      tracer_(tracer) {
  assert(clock != nullptr);
  registry_.set_symbols(symbols_);
  if (metrics != nullptr) {
    raises_counter_ = metrics->AddCounter(
        "events_raised_total", "primitive event occurrences raised");
    occurrences_counter_ = metrics->AddCounter(
        "event_occurrences_total",
        "occurrences dispatched, primitive and composite");
    pending_timers_gauge_ = metrics->AddGauge(
        "pending_timers", "temporal-event timers waiting to fire");
  }
}

EventDetector::~EventDetector() = default;

Result<EventId> EventDetector::Install(EventDef def) {
  SENTINEL_ASSIGN_OR_RETURN(id, registry_.Register(std::move(def)));
  const EventDef* stored = &registry_.def(id);
  nodes_.push_back(MakeOperatorNode(id, stored));
  parents_.emplace_back();
  subscribers_.emplace_back();
  occ_counts_.push_back(0);
  deactivated_.push_back(false);
  filter_index_.emplace_back();
  // Single-key name-equality filters (values interned to symbols at
  // definition time) go into the hash index instead of the linear parent
  // list (see filter_index_).
  const bool indexable_filter =
      stored->kind == EventKind::kFilter && stored->filter.size() == 1 &&
      stored->filter.begin()->value.is_symbol();
  if (indexable_filter) {
    const Symbol key = stored->filter.begin()->key;
    const uint32_t value_id = stored->filter.begin()->value.AsSymbol().id();
    std::vector<FilterKeyBucket>& buckets = filter_index_[stored->children[0]];
    const std::string& key_name = symbols_->NameOf(key);
    auto bucket_it = std::find_if(
        buckets.begin(), buckets.end(),
        [&](const FilterKeyBucket& b) { return b.key == key; });
    if (bucket_it == buckets.end()) {
      // Keep buckets ordered by key name so dispatch order matches the
      // seed's ordered-map behaviour regardless of intern order.
      bucket_it = buckets.insert(
          std::upper_bound(buckets.begin(), buckets.end(), key_name,
                           [](const std::string& name,
                              const FilterKeyBucket& b) {
                             return name < b.key_name;
                           }),
          FilterKeyBucket{key, key_name, {}});
    }
    bucket_it->by_value[value_id].push_back(static_cast<int>(id));
  } else {
    for (size_t slot = 0; slot < stored->children.size(); ++slot) {
      parents_[stored->children[slot]].push_back(
          {static_cast<int>(id), static_cast<int>(slot)});
    }
  }
  nodes_.back()->Initialize(this);
  return id;
}

Result<EventId> EventDetector::DefinePrimitive(const std::string& name) {
  EventDef def;
  def.kind = EventKind::kPrimitive;
  def.name = name;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineFilter(const std::string& name,
                                            EventId base,
                                            FlatParamMap equals) {
  EventDef def;
  def.kind = EventKind::kFilter;
  def.name = name;
  def.children = {base};
  def.filter = std::move(equals);
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineAnd(const std::string& name, EventId a,
                                         EventId b, ConsumptionMode mode) {
  EventDef def;
  def.kind = EventKind::kAnd;
  def.name = name;
  def.children = {a, b};
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineOr(const std::string& name,
                                        std::vector<EventId> alternatives) {
  if (alternatives.empty()) {
    return Status::InvalidArgument("OR needs at least one alternative: " +
                                   name);
  }
  EventDef def;
  def.kind = EventKind::kOr;
  def.name = name;
  def.children = std::move(alternatives);
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineSeq(const std::string& name,
                                         EventId first, EventId second,
                                         ConsumptionMode mode) {
  EventDef def;
  def.kind = EventKind::kSeq;
  def.name = name;
  def.children = {first, second};
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineNot(const std::string& name,
                                         EventId initiator, EventId middle,
                                         EventId terminator,
                                         ConsumptionMode mode) {
  EventDef def;
  def.kind = EventKind::kNot;
  def.name = name;
  def.children = {initiator, middle, terminator};
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefinePlus(const std::string& name,
                                          EventId base, Duration delta,
                                          Symbol cancel_key) {
  if (delta <= 0) {
    return Status::InvalidArgument("PLUS duration must be positive: " + name);
  }
  EventDef def;
  def.kind = EventKind::kPlus;
  def.name = name;
  def.children = {base};
  def.duration = delta;
  def.cancel_key = cancel_key;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineAperiodic(const std::string& name,
                                               EventId initiator,
                                               EventId middle,
                                               EventId terminator,
                                               ConsumptionMode mode) {
  EventDef def;
  def.kind = EventKind::kAperiodic;
  def.name = name;
  def.children = {initiator, middle, terminator};
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineAperiodicStar(const std::string& name,
                                                   EventId initiator,
                                                   EventId middle,
                                                   EventId terminator,
                                                   ConsumptionMode mode) {
  EventDef def;
  def.kind = EventKind::kAperiodicStar;
  def.name = name;
  def.children = {initiator, middle, terminator};
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefinePeriodic(const std::string& name,
                                              EventId initiator, Duration tau,
                                              EventId terminator,
                                              ConsumptionMode mode) {
  if (tau <= 0) {
    return Status::InvalidArgument("PERIODIC tau must be positive: " + name);
  }
  EventDef def;
  def.kind = EventKind::kPeriodic;
  def.name = name;
  def.children = {initiator, terminator};
  def.duration = tau;
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefinePeriodicStar(const std::string& name,
                                                  EventId initiator,
                                                  Duration tau,
                                                  EventId terminator,
                                                  ConsumptionMode mode) {
  if (tau <= 0) {
    return Status::InvalidArgument("PERIODIC* tau must be positive: " + name);
  }
  EventDef def;
  def.kind = EventKind::kPeriodicStar;
  def.name = name;
  def.children = {initiator, terminator};
  def.duration = tau;
  def.mode = mode;
  return Install(std::move(def));
}

Result<EventId> EventDetector::DefineAbsolute(const std::string& name,
                                              const TimePattern& pattern) {
  EventDef def;
  def.kind = EventKind::kAbsolute;
  def.name = name;
  def.pattern = pattern;
  return Install(std::move(def));
}

SubscriptionId EventDetector::Subscribe(EventId event,
                                        Subscriber subscriber) {
  const SubscriptionId id = next_sub_id_++;
  subscribers_[event].push_back({id, std::move(subscriber)});
  return id;
}

size_t EventDetector::ConsumerCount(EventId event) const {
  if (event < 0) return 0;
  const size_t id = static_cast<size_t>(event);
  size_t count = 0;
  if (id < subscribers_.size()) count += subscribers_[id].size();
  if (id < parents_.size()) count += parents_[id].size();
  if (id < filter_index_.size()) {
    for (const FilterKeyBucket& bucket : filter_index_[id]) {
      for (const auto& [value, nodes] : bucket.by_value) {
        count += nodes.size();
      }
    }
  }
  return count;
}

void EventDetector::Unsubscribe(EventId event, SubscriptionId id) {
  auto& subs = subscribers_[event];
  for (auto it = subs.begin(); it != subs.end(); ++it) {
    if (it->id == id) {
      subs.erase(it);
      return;
    }
  }
}

Status EventDetector::Raise(EventId event, FlatParamMap params) {
  if (event < 0 || event >= registry_.size()) {
    return Status::InvalidArgument("unknown event id");
  }
  if (registry_.def(event).kind != EventKind::kPrimitive) {
    return Status::InvalidArgument("only primitive events can be raised: " +
                                   registry_.name(event));
  }
  if (deactivated_[event]) {
    return Status::FailedPrecondition("event is deactivated: " +
                                      registry_.name(event));
  }
  Occurrence occ;
  occ.event = event;
  occ.source = event;
  occ.start = occ.end = clock_->Now();
  occ.seq = NextSeq();
  occ.params = std::move(params);
  if (raises_counter_) raises_counter_->Inc();
  queue_.push_back(std::move(occ));
  Drain();
  return Status::OK();
}

void EventDetector::EmitDetected(Occurrence occ) {
  queue_.push_back(std::move(occ));
  Drain();
}

void EventDetector::Drain() {
  if (draining_) return;  // Re-entrant emit joins the in-progress drain.
  draining_ = true;
  while (!queue_.empty()) {
    const Occurrence occ = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(occ);
  }
  draining_ = false;
  if (quiescent_callback_) quiescent_callback_();
}

void EventDetector::Dispatch(const Occurrence& occ) {
  if (deactivated_[occ.event]) return;  // Orphaned by regeneration.
  ++occ_counts_[occ.event];
  ++total_occurrences_;
  if (occurrences_counter_) occurrences_counter_->Inc();
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->AddEventStep(registry_.name(occ.event));
  }
  // Parents first (detection propagates up the DAG), then subscribers.
  // Both iterate over index snapshots so that definitions/subscriptions
  // added mid-dispatch do not invalidate iteration.
  const auto parent_links = parents_[occ.event];
  for (const auto& [parent, slot] : parent_links) {
    if (deactivated_[parent]) continue;
    nodes_[parent]->OnChild(slot, occ);
  }
  // Indexed single-key filters: direct lookup by interned parameter value
  // instead of scanning every per-role/per-user filter node. Buckets are
  // re-fetched by index each iteration because a mid-dispatch definition
  // may reallocate the index vectors; the small match vector is snapshotted
  // before OnChild for the same reason.
  for (size_t bi = 0; bi < filter_index_[occ.event].size(); ++bi) {
    const FilterKeyBucket& bucket = filter_index_[occ.event][bi];
    const Value* param = occ.params.Find(bucket.key);
    if (param == nullptr || !param->is_symbol()) continue;
    auto match_it = bucket.by_value.find(param->AsSymbol().id());
    if (match_it == bucket.by_value.end()) continue;
    const std::vector<int> matches = match_it->second;
    for (int filter : matches) {
      if (deactivated_[filter]) continue;
      nodes_[filter]->OnChild(0, occ);
    }
  }
  // Copy subscriber list: rule actions may subscribe/unsubscribe.
  const auto subs = subscribers_[occ.event];
  for (const auto& entry : subs) {
    entry.fn(occ);
  }
}

void EventDetector::AdvanceTo(Time t, SimulatedClock* clock) {
  assert(clock == clock_ && "AdvanceTo requires the detector's own clock");
  for (;;) {
    const std::optional<Time> next = timers_.NextFireTime();
    if (!next.has_value() || *next > t) break;
    clock->SetTime(*next);
    timers_.FireDueOne(*next);  // Callbacks emit; Drain runs inside.
  }
  clock->SetTime(t);
  UpdateTimerGauge();
}

void EventDetector::PollTimers() {
  const Time now = clock_->Now();
  while (timers_.FireDueOne(now)) {
  }
  UpdateTimerGauge();
}

Result<int> EventDetector::CancelPendingPlus(EventId plus_event,
                                             const FlatParamMap& match) {
  if (plus_event < 0 || plus_event >= registry_.size()) {
    return Status::InvalidArgument("unknown event id");
  }
  if (registry_.def(plus_event).kind != EventKind::kPlus) {
    return Status::InvalidArgument("not a PLUS event: " +
                                   registry_.name(plus_event));
  }
  auto* node = static_cast<PlusNode*>(nodes_[plus_event].get());
  return node->CancelMatching(match);
}

Status EventDetector::DeactivateEvent(EventId event) {
  if (event < 0 || event >= registry_.size()) {
    return Status::InvalidArgument("unknown event id");
  }
  if (!deactivated_[event]) {
    deactivated_[event] = true;
    nodes_[event]->Deactivate();
  }
  return Status::OK();
}

TimerId EventDetector::ScheduleTimer(Time when, TimerService::Callback cb) {
  const TimerId id = timers_.Schedule(when, std::move(cb));
  UpdateTimerGauge();
  return id;
}

void EventDetector::CancelTimer(TimerId id) {
  timers_.Cancel(id);
  UpdateTimerGauge();
}

void EventDetector::UpdateTimerGauge() {
  if (pending_timers_gauge_) {
    pending_timers_gauge_->Set(static_cast<int64_t>(timers_.pending_count()));
  }
}

}  // namespace sentinel
