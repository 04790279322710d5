#ifndef SENTINELPP_RULES_RULE_H_
#define SENTINELPP_RULES_RULE_H_

#include <functional>
#include <string>
#include <vector>

#include "event/event.h"
#include "rules/decision.h"

namespace sentinel {

class EventDetector;

/// Functional classification of generated rules (paper §4.3).
enum class RuleClass : int {
  kAdministrative = 0,  // Drive high-level policy operations (assignments).
  kActivityControl = 1,  // Gate what instances of U may do (activations).
  kActiveSecurity = 2,   // Monitor state changes, take preventive action.
};

/// Granularity of generated rules (paper §4.3): per-user, per-role, global.
enum class RuleGranularity : int {
  kSpecialized = 0,  // Specific to one instance of U (e.g. Bob).
  kLocalized = 1,    // Specific to one role, from its properties.
  kGlobalized = 2,   // Role-independent; parameterized by the event.
};

const char* RuleClassToString(RuleClass cls);
const char* RuleGranularityToString(RuleGranularity granularity);

/// \brief Everything a condition or action may touch while a rule fires.
///
/// `decision` is null for pure monitoring rules (nothing to adjudicate).
/// `engine` is an opaque backpointer to the AuthorizationEngine (rules
/// generated by the engine downcast it; hand-written rules may ignore it).
struct RuleContext {
  const Occurrence* occurrence = nullptr;
  EventDetector* detector = nullptr;
  Decision* decision = nullptr;
  void* engine = nullptr;
  /// While ELSE actions run: the label of the WHEN condition that failed
  /// (set by Rule::Fire). Null during THEN actions.
  const std::string* failed_condition = nullptr;

  /// Parameter accessors over the triggering occurrence (fallbacks when
  /// absent: empty string / invalid symbol / 0 / false). Generated rules
  /// capture their key symbols once at generation time. ParamString
  /// resolves a name-valued param through the detector's table.
  const std::string& ParamString(Symbol key) const;
  Symbol ParamSym(Symbol key) const;
  int64_t ParamInt(Symbol key) const;
  bool ParamBool(Symbol key) const;
  bool HasParam(Symbol key) const;
};

/// \brief One On-When-Then-Else authorization rule.
///
/// ON    — the (possibly composite) event whose occurrences trigger it;
/// WHEN  — named conditions, conjunctive, evaluated in order;
/// THEN  — actions run when every condition holds;
/// ELSE  — alternative actions run when any condition fails (the OWTE
///         extension over classic ECA).
///
/// Rules are built fluently:
///
///   Rule r("AAR.R1", activate_r1, {.cls = RuleClass::kActivityControl});
///   r.When("user known", [](RuleContext& c) { ... })
///    .Then("activate", [](RuleContext& c) { ... })
///    .Else("deny", [](RuleContext& c) { c.decision->Deny(...); });
class Rule {
 public:
  using Condition = std::function<bool(RuleContext&)>;
  using Action = std::function<void(RuleContext&)>;

  struct Options {
    int priority = 0;  // Higher fires first among rules on the same event.
    bool enabled = true;
    RuleClass cls = RuleClass::kActivityControl;
    RuleGranularity granularity = RuleGranularity::kLocalized;
  };

  Rule(std::string name, EventId event);
  Rule(std::string name, EventId event, Options options);

  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;
  Rule(Rule&&) = default;
  Rule& operator=(Rule&&) = default;

  Rule& When(std::string label, Condition condition);
  Rule& Then(std::string label, Action action);
  Rule& Else(std::string label, Action action);

  /// Evaluates conditions and runs Then or Else actions. Returns whether
  /// the conditions held. Updates fire statistics.
  bool Fire(RuleContext& ctx);

  const std::string& name() const { return name_; }
  EventId event() const { return event_; }
  int priority() const { return options_.priority; }
  bool enabled() const { return options_.enabled; }
  void set_enabled(bool on) { options_.enabled = on; }
  RuleClass rule_class() const { return options_.cls; }
  RuleGranularity granularity() const { return options_.granularity; }

  uint64_t fired_count() const { return fired_count_; }
  uint64_t condition_true_count() const { return condition_true_count_; }

  /// Human-readable OWTE listing (for the Figure-1 bench and debugging).
  std::string Describe(const std::string& event_name) const;

 private:
  struct NamedCondition {
    std::string label;
    Condition fn;
  };
  struct NamedAction {
    std::string label;
    Action fn;
  };

  std::string name_;
  EventId event_;
  Options options_;
  std::vector<NamedCondition> conditions_;
  std::vector<NamedAction> then_actions_;
  std::vector<NamedAction> else_actions_;
  uint64_t fired_count_ = 0;
  uint64_t condition_true_count_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_RULES_RULE_H_
