#ifndef SENTINELPP_CORE_RULE_GENERATOR_H_
#define SENTINELPP_CORE_RULE_GENERATOR_H_

#include <compare>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/policy.h"
#include "event/event.h"

namespace sentinel {

class AuthorizationEngine;

/// \brief Compiles a Policy into the engine's rule pool — the paper's
/// "synthesis of active authorization rules" (§4) and its automatic
/// (re)generation from high-level specifications (§5).
///
/// Generated artifacts follow the paper's catalog and naming:
///   AAR.<role>        activation rules (variants AAR1..AAR4 by property)
///   CC.<role>         cardinality rules (Rule 4)
///   UAC.<user>        per-user active-role caps (specialized, scenario 1)
///   DUR.<role>[...]   duration deactivation chains (Rule 7, PLUS)
///   CA.global         check-access rule (Rule 5)
///   ADM.*             administrative rules (assignment, sessions)
///   GLOB.*            role enable/disable/drop handling
///   TSOD.<name>       time-based SoD via OR + APERIODIC (Rule 6)
///   CFD.<pair>        control-flow dependencies (Rule 8)
///   ASEC.<name>       transaction-based activation via APERIODIC (Rule 9)
///   SEC.<name>        threshold monitoring (active security)
///   AUD.<name>        periodic audit reports (PERIODIC)
///
/// Every rule and temporal event is filed under the policy element it
/// compiles: a kind (global, role, user, time-SoD, CFD pair, transaction,
/// threshold, audit) and a name. An element that generates nothing has no
/// entry. A regeneration looks up the affected roles' and users' entries by
/// key, removes those and every constraint entry involving an affected role
/// (and the directive entries when directives changed), then generates
/// exactly those elements again through the pass a full load runs.
/// Structural events are reused across generations; superseded temporal
/// events (PLUS, ABSOLUTE, PERIODIC) are deactivated and replaced under a
/// name suffixed with the element's removal count, which outlives its
/// entry, so no temporal event name is ever reused.
class RuleGenerator {
 public:
  struct Stats {
    int rules_added = 0;
    int rules_removed = 0;
    int events_added = 0;
  };

  explicit RuleGenerator(AuthorizationEngine* engine) : engine_(engine) {}

  RuleGenerator(const RuleGenerator&) = delete;
  RuleGenerator& operator=(const RuleGenerator&) = delete;

  /// Full generation for a freshly loaded policy.
  Result<Stats> GenerateAll(const Policy& policy);

  /// Incremental regeneration: rebuilds rules for the given roles/users
  /// and every constraint element involving one of the roles; the
  /// directive elements when asked.
  Result<Stats> Regenerate(const Policy& policy,
                           const std::set<RoleName>& roles,
                           const std::set<UserName>& users,
                           bool directives_changed);

 private:
  /// Ordered as a generation pass visits the elements.
  enum class ElementKind : uint8_t {
    kGlobal, kRole, kUser, kTimeSod, kCfdPair, kTransaction, kThreshold, kAudit
  };
  struct ElementKey {
    ElementKind kind;
    std::string name;
    friend auto operator<=>(const ElementKey&, const ElementKey&) = default;
  };
  /// What one element generated.
  struct Entry {
    std::vector<std::string> rule_names;
    std::vector<EventId> temporal_events;  // Deactivated on removal.
    std::set<RoleName> touches;  // Roles a constraint element involves.
  };
  using Index = std::map<ElementKey, Entry>;

  // --- Helpers -----------------------------------------------------------

  /// Filter event reuse: returns the existing id when `name` is already
  /// registered, otherwise defines Filter(base, equals).
  Result<EventId> EnsureFilter(const std::string& name, EventId base,
                               FlatParamMap equals);
  /// Adds a rule to the pool and files it under `key`.
  Status AddRule(const ElementKey& key, class Rule rule);
  /// Files a temporal event under `key` for later deactivation.
  void TrackTemporal(const ElementKey& key, EventId event);
  /// Next generation-suffixed name for a temporal event of `key`.
  std::string TemporalName(const ElementKey& key,
                           const std::string& stem) const;
  /// Removes the entry's rules, deactivates its temporal events and counts
  /// the removal in its element's name suffix. Returns the next entry.
  Index::iterator RemoveEntry(Index::iterator it);

  // --- Per-section generation --------------------------------------------

  /// The one generation pass: every role of `roles` and user of `users`
  /// the policy holds (all of them when null), in name order; then every
  /// time-SoD, CFD pair and transaction that involves one of those roles
  /// and has no entry; then the directives when `directives` is set.
  Status GenerateElements(const Policy& policy,
                          const std::set<RoleName>* roles,
                          const std::set<UserName>* users, bool directives);
  Status GenerateGlobalRules(const Policy& policy);
  Status GenerateRoleRules(const Policy& policy, const RoleSpec& spec);
  Status GenerateUserRules(const Policy& policy, const UserSpec& spec);
  Status GenerateTimeSodRules(const Policy& policy, const TimeSod& tsod);
  Status GenerateCfdRules(const Policy& policy, const CfdPair& pair);
  Status GenerateTransactionRules(const Policy& policy,
                                  const TransactionActivation& tx);
  Status GenerateThresholdRules(const Policy& policy,
                                const ThresholdDirective& directive);
  Status GenerateAuditRules(const Policy& policy,
                            const AuditDirective& directive);

  AuthorizationEngine* engine_;  // Not owned.
  Index index_;
  /// Removals per element; kept after its entry goes.
  std::map<ElementKey, int> generations_;
  /// Counts of the pass in progress.
  Stats stats_;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_RULE_GENERATOR_H_
