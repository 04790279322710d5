#ifndef SENTINELPP_EVENT_EVENT_REGISTRY_H_
#define SENTINELPP_EVENT_EVENT_REGISTRY_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "common/value.h"
#include "event/consumption.h"
#include "event/event.h"
#include "event/time_pattern.h"

namespace sentinel {

/// Structural kind of a registered event.
enum class EventKind : int {
  kPrimitive = 0,   // Raised explicitly by the application/engine.
  kFilter,          // Child occurrences passing a parameter-equality filter.
  kAnd,             // Both children occurred (any order).
  kOr,              // Any child occurred (n-ary).
  kSeq,             // children[0] strictly before children[1] (SnoopIB).
  kNot,             // children[1] did NOT occur between [0] and [2].
  kPlus,            // children[0] occurred, then `duration` elapsed.
  kAperiodic,       // children[1] occurred between [0] and [2].
  kAperiodicStar,   // All [1]s between [0] and [2], emitted at [2].
  kPeriodic,        // Every `duration` between children[0] and [1].
  kPeriodicStar,    // Tick count accumulated, emitted at children[1].
  kAbsolute,        // Calendar pattern instants (temporal event).
};

const char* EventKindToString(EventKind kind);

/// \brief Immutable description of one registered event.
struct EventDef {
  EventKind kind = EventKind::kPrimitive;
  std::string name;
  std::vector<EventId> children;
  Duration duration = 0;            // kPlus delta; kPeriodic(/Star) tau.
  Symbol cancel_key;                // kPlus: param expiries are cancelled by.
  FlatParamMap filter;              // kFilter equality constraints (interned).
  TimePattern pattern;              // kAbsolute calendar pattern.
  ConsumptionMode mode = ConsumptionMode::kRecent;
};

/// \brief Name <-> id table plus definitions, for introspection and for the
/// detector to build its operator graph. Ids are dense and stable.
class EventRegistry {
 public:
  EventRegistry() = default;

  EventRegistry(const EventRegistry&) = delete;
  EventRegistry& operator=(const EventRegistry&) = delete;

  /// The table filter symbols resolve against (for Describe); the owning
  /// detector sets it once at construction. Not owned.
  void set_symbols(const SymbolTable* symbols) { symbols_ = symbols; }

  /// Registers a definition. Fails on duplicate name or unknown child id.
  Result<EventId> Register(EventDef def);

  /// Removes is not supported: generated rule pools are rebuilt by creating
  /// a fresh engine/detector; ids stay valid for a registry's lifetime.

  bool Contains(const std::string& name) const {
    return by_name_.count(name) > 0;
  }
  Result<EventId> Lookup(const std::string& name) const;

  const EventDef& def(EventId id) const { return defs_[id]; }
  const std::string& name(EventId id) const { return defs_[id].name; }
  int size() const { return static_cast<int>(defs_.size()); }

  /// Renders the full definition, e.g. "SEQ(e1, e2) [chronicle]".
  std::string Describe(EventId id) const;

 private:
  // Deque: stable references — operator nodes hold pointers to their defs.
  std::deque<EventDef> defs_;
  std::unordered_map<std::string, EventId> by_name_;
  const SymbolTable* symbols_ = nullptr;
};

}  // namespace sentinel

#endif  // SENTINELPP_EVENT_EVENT_REGISTRY_H_
