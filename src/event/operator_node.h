#ifndef SENTINELPP_EVENT_OPERATOR_NODE_H_
#define SENTINELPP_EVENT_OPERATOR_NODE_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "event/event.h"
#include "event/event_registry.h"
#include "event/timer_service.h"

namespace sentinel {

/// \brief Services the detector provides to operator nodes: emitting
/// detections into the propagation queue, timers, time, and sequence
/// numbers. Implemented by EventDetector.
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  /// Queues a composite detection for delivery to parents and subscribers.
  virtual void EmitDetected(Occurrence occ) = 0;

  virtual TimerId ScheduleTimer(Time when, TimerService::Callback cb) = 0;
  virtual void CancelTimer(TimerId id) = 0;
  virtual Time Now() const = 0;

  /// Next value of the detector-wide detection sequence counter.
  virtual uint64_t NextSeq() = 0;

  /// The detector-wide symbol table param keys/values are interned in.
  virtual SymbolTable& symbols() = 0;
};

/// \brief One node of the event-detection graph. Child occurrences are
/// pushed bottom-up: the detector calls OnChild for each parent of the
/// occurred event, identifying which operand slot the child fills.
class OperatorNode {
 public:
  OperatorNode(EventId id, const EventDef* def) : id_(id), def_(def) {}
  virtual ~OperatorNode() = default;

  OperatorNode(const OperatorNode&) = delete;
  OperatorNode& operator=(const OperatorNode&) = delete;

  /// Called once after construction with the owning detector. Nodes that
  /// need timers (PLUS/PERIODIC/ABSOLUTE) retain `ctx` (owned by the
  /// detector, which outlives all nodes).
  virtual void Initialize(NodeContext* ctx) { ctx_ = ctx; }

  /// A child occurrence arrived in operand slot `slot` (index into
  /// def().children).
  virtual void OnChild(int slot, const Occurrence& occ) = 0;

  /// Permanently deactivates the node: pending timers are cancelled and
  /// stored state dropped. Used when a policy regeneration replaces a
  /// temporal event (the registry is append-only; superseded nodes are
  /// orphaned but must stop firing).
  virtual void Deactivate() {}

  EventId id() const { return id_; }
  const EventDef& def() const { return *def_; }

 protected:
  /// True iff `a` is strictly before `b` in SnoopIB interval order;
  /// same-instant occurrences are ordered by detection sequence number.
  static bool StrictlyBefore(const Occurrence& a, const Occurrence& b) {
    if (a.end != b.start) return a.end < b.start;
    return a.seq < b.seq;
  }

  /// Merges `overlay` into `base` (overlay wins conflicts) and returns it.
  static FlatParamMap MergeParams(FlatParamMap base,
                                  const FlatParamMap& overlay);

  /// Builds a detection for this node and queues it.
  void Emit(Time start, Time end, FlatParamMap params, EventId source);

  EventId id_;
  const EventDef* def_;
  NodeContext* ctx_ = nullptr;
};

/// Leaf node; occurrences are injected by EventDetector::Raise.
class PrimitiveNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int, const Occurrence&) override {}  // No children.
};

/// Passes through child occurrences whose params contain every (key, value)
/// pair of the filter. Used to specialize generic engine events per
/// user/role/session (the paper's specialized and localized rules).
class FilterNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;
};

/// N-ary OR: any child occurrence is a detection. `source` records which
/// alternative fired (the paper's TSOD rule dispatches on it).
class OrNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;
};

/// Binary AND: both children occurred in any order. Pairing and consumption
/// follow the node's ConsumptionMode.
class AndNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;

 private:
  void Pair(const Occurrence& stored, const Occurrence& fresh);

  std::deque<Occurrence> side_[2];
};

/// Binary SEQUENCE: children[0] strictly before children[1].
class SeqNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;

 private:
  void Pair(const Occurrence& left, const Occurrence& right);

  std::deque<Occurrence> lefts_;
};

/// NOT(A, B, C): detected at C provided no B occurred since the initiating
/// A. A B occurrence invalidates every open window (any open window
/// contains it), in all consumption modes.
class NotNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;

 private:
  std::deque<Occurrence> windows_;
};

/// PLUS(A, delta): detected `delta` after each A, carrying A's parameters.
/// Outstanding expiries can be cancelled by parameter match (used when a
/// duration-bounded activation ends early).
class PlusNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;
  void OnChild(int slot, const Occurrence& occ) override;

  /// Cancels pending expiries whose stored params contain every pair of
  /// `match`; returns how many were cancelled. When `match` binds the
  /// def's cancel key to a symbol, only that symbol's bucket is checked:
  /// any expiry that can match carries the same symbol, so it is there.
  int CancelMatching(const FlatParamMap& match);

  void Deactivate() override { CancelMatching({}); }

  size_t pending_count() const { return pending_.size(); }

 private:
  /// Symbol id `params` binds the cancel key to, or kInvalidId when the def
  /// has no cancel key or `params` binds it to no symbol (such expiries sit
  /// in no bucket and are only reached by a scan).
  uint32_t BucketOf(const FlatParamMap& params) const;
  /// Removes `id` from the bucket of its initiating `params`.
  void Unfile(TimerId id, const FlatParamMap& params);

  std::unordered_map<TimerId, Occurrence> pending_;
  /// Ids of pending_ by BucketOf their params; holds exactly the pending
  /// ids with a bucket.
  std::unordered_map<uint32_t, std::vector<TimerId>> buckets_;
};

/// APERIODIC(A, B, C): B occurrences detected while a window opened by A
/// and not yet closed by C is in effect. The star variant accumulates B's
/// and emits once at C with a `_count` parameter.
class AperiodicNode final : public OperatorNode {
 public:
  AperiodicNode(EventId id, const EventDef* def)
      : OperatorNode(id, def),
        star_(def->kind == EventKind::kAperiodicStar) {}

  void OnChild(int slot, const Occurrence& occ) override;

  size_t open_window_count() const { return windows_.size(); }

 private:
  struct Window {
    Occurrence init;
    FlatParamMap accumulated;  // Star: merged middle params.
    int64_t count = 0;         // Star: number of middles.
  };

  void EmitMiddle(const Window& w, const Occurrence& middle);
  void EmitStarClose(const Window& w, const Occurrence& term);

  bool star_;
  std::deque<Window> windows_;
};

/// PERIODIC(A, tau, C): a detection every `tau` from A until C. The star
/// variant emits once at C with the tick count.
class PeriodicNode final : public OperatorNode {
 public:
  PeriodicNode(EventId id, const EventDef* def)
      : OperatorNode(id, def), star_(def->kind == EventKind::kPeriodicStar) {}
  ~PeriodicNode() override;

  void OnChild(int slot, const Occurrence& occ) override;
  void Deactivate() override;

  size_t open_window_count() const { return windows_.size(); }

 private:
  struct Window {
    Occurrence init;
    TimerId timer = 0;
    int64_t ticks = 0;
    uint64_t key = 0;  // Stable handle for the timer callback.
  };

  void OpenWindow(const Occurrence& init);
  void CloseWindow(size_t index, const Occurrence& term);
  void OnTick(uint64_t key, Time fire_time);

  bool star_;
  std::deque<Window> windows_;
  uint64_t next_key_ = 1;
};

/// ABSOLUTE(pattern): fires at every instant matching the calendar pattern.
class AbsoluteNode final : public OperatorNode {
 public:
  using OperatorNode::OperatorNode;

  void Initialize(NodeContext* ctx) override;
  void OnChild(int, const Occurrence&) override {}  // No children.
  void Deactivate() override { dead_ = true; }

 private:
  void ScheduleNext(Time after);

  bool dead_ = false;
};

/// Factory mapping an EventDef to its node implementation.
std::unique_ptr<OperatorNode> MakeOperatorNode(EventId id,
                                               const EventDef* def);

}  // namespace sentinel

#endif  // SENTINELPP_EVENT_OPERATOR_NODE_H_
