#ifndef SENTINELPP_CORE_RULE_GENERATOR_H_
#define SENTINELPP_CORE_RULE_GENERATOR_H_

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
/// Every rule is indexed under a *tag* ("role:R", "user:U", "tsod:N",
/// "tx:N", "cfd:I", "sec:N", "aud:N", "global"); incremental regeneration
/// removes and re-creates exactly the tags the policy diff touches.
/// Structural events are reused across generations; superseded temporal
/// events (PLUS, ABSOLUTE, PERIODIC) are deactivated and replaced under a
/// generation-suffixed name.
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
  /// and every constraint tag touching them; directive tags when asked.
  Result<Stats> Regenerate(const Policy& policy,
                           const std::set<RoleName>& roles,
                           const std::set<UserName>& users,
                           bool directives_changed);

  /// Rules currently indexed under `tag` (introspection/tests).
  std::vector<std::string> RulesForTag(const std::string& tag) const;
  int tag_count() const { return static_cast<int>(tags_.size()); }

 private:
  struct TagInfo {
    std::vector<std::string> rule_names;
    std::vector<EventId> temporal_events;  // Deactivated on removal.
    std::set<RoleName> touches;            // Roles this tag involves.
  };

  // --- Helpers -----------------------------------------------------------

  /// Filter event reuse: returns the existing id when `name` is already
  /// registered, otherwise defines Filter(base, equals).
  Result<EventId> EnsureFilter(const std::string& name, EventId base,
                               FlatParamMap equals);
  /// Adds a rule to the pool and indexes it under `tag`.
  Status AddRule(const std::string& tag, class Rule rule);
  /// Registers a temporal event under `tag` for later deactivation.
  void TrackTemporal(const std::string& tag, EventId event);
  /// Next generation-suffixed name for a temporal event of `tag`.
  std::string TemporalName(const std::string& tag, const std::string& stem);
  /// Removes every rule of `tag` and deactivates its temporal events.
  int RemoveTag(const std::string& tag);

  // --- Per-section generation --------------------------------------------

  Status GenerateGlobalRules(const Policy& policy);
  Status GenerateRoleRules(const Policy& policy, const RoleSpec& spec);
  Status GenerateUserRules(const Policy& policy, const UserSpec& spec);
  Status GenerateTimeSodRules(const Policy& policy, const TimeSod& tsod);
  Status GenerateCfdRules(const Policy& policy, const CfdPair& pair,
                          int index);
  Status GenerateTransactionRules(const Policy& policy,
                                  const TransactionActivation& tx);
  Status GenerateThresholdRules(const Policy& policy,
                                const ThresholdDirective& directive);
  Status GenerateAuditRules(const Policy& policy,
                            const AuditDirective& directive);

  AuthorizationEngine* engine_;  // Not owned.
  std::map<std::string, TagInfo> tags_;
  std::map<std::string, int> generations_;
  std::string current_tag_;
  Stats* current_stats_ = nullptr;
};

}  // namespace sentinel

#endif  // SENTINELPP_CORE_RULE_GENERATOR_H_
