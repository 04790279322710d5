#include "core/rule_generator.h"

#include <algorithm>

#include "common/logging.h"
#include "core/engine.h"
#include "rules/rule.h"

namespace sentinel {

namespace {

// Decision writers tolerant of monitoring contexts (no decision in flight,
// e.g. timer-driven rule firings).
void AllowDecision(RuleContext& ctx, const std::string& rule) {
  if (ctx.decision != nullptr) ctx.decision->Allow(rule);
}

void DenyDecision(RuleContext& ctx, const std::string& rule,
                  const std::string& reason) {
  if (ctx.decision == nullptr) return;
  ctx.decision->Deny(rule, reason);
  // Explanation: surface which WHEN condition routed us into ELSE.
  if (ctx.failed_condition != nullptr) {
    ctx.decision->failed_condition = *ctx.failed_condition;
  }
}

// The GTRBAC role transitions. Raised from a rule action, the event queues
// until the drain resumes, after the action's decision is written.
void EnableRole(AuthorizationEngine* eng, Symbol role) {
  eng->role_state().Enable(role);
  (void)eng->detector().Raise(eng->events().role_enabled,
                              {{eng->keys().role, Value(role)}});
}

// The role's active instances fall away before rbac.roleDisabled.
void DisableRole(AuthorizationEngine* eng, Symbol role) {
  eng->role_state().Disable(role);
  eng->DeactivateAllInstances(role);
  (void)eng->detector().Raise(eng->events().role_disabled,
                              {{eng->keys().role, Value(role)}});
}

// Calls `generate` on the spec of each name in `names` that `specs` holds,
// in name order; on every spec when `names` is null.
template <typename Spec, typename Generate>
Status ForEachSpec(const std::map<std::string, Spec>& specs,
                   const std::set<std::string>* names, Generate generate) {
  if (names == nullptr) {
    for (const auto& [name, spec] : specs) {
      SENTINEL_RETURN_IF_ERROR(generate(spec));
    }
    return Status::OK();
  }
  for (const std::string& name : *names) {
    auto it = specs.find(name);
    if (it != specs.end()) SENTINEL_RETURN_IF_ERROR(generate(it->second));
  }
  return Status::OK();
}

}  // namespace

// ======================================================== Bookkeeping

Result<EventId> RuleGenerator::EnsureFilter(const std::string& name,
                                            EventId base,
                                            FlatParamMap equals) {
  EventDetector& detector = engine_->detector();
  if (detector.registry().Contains(name)) {
    return detector.Lookup(name);
  }
  auto id = detector.DefineFilter(name, base, std::move(equals));
  if (id.ok()) ++stats_.events_added;
  return id;
}

Status RuleGenerator::AddRule(const ElementKey& key, Rule rule) {
  const std::string name = rule.name();
  auto added = engine_->rule_manager().AddRule(std::move(rule));
  if (!added.ok()) return added.status();
  index_[key].rule_names.push_back(name);
  ++stats_.rules_added;
  return Status::OK();
}

void RuleGenerator::TrackTemporal(const ElementKey& key, EventId event) {
  index_[key].temporal_events.push_back(event);
  ++stats_.events_added;
}

std::string RuleGenerator::TemporalName(const ElementKey& key,
                                        const std::string& stem) const {
  auto it = generations_.find(key);
  if (it == generations_.end() || it->second == 0) return stem;
  return stem + "#" + std::to_string(it->second);
}

RuleGenerator::Index::iterator RuleGenerator::RemoveEntry(
    Index::iterator it) {
  for (const std::string& rule_name : it->second.rule_names) {
    if (engine_->rule_manager().RemoveRule(rule_name).ok()) {
      ++stats_.rules_removed;
    }
  }
  for (EventId event : it->second.temporal_events) {
    (void)engine_->detector().DeactivateEvent(event);
  }
  if (it->first.kind == ElementKind::kThreshold) {
    engine_->security().RemoveWindow(it->first.name);
  }
  ++generations_[it->first];
  return index_.erase(it);
}

// ==================================================== Top-level passes

Result<RuleGenerator::Stats> RuleGenerator::GenerateAll(
    const Policy& policy) {
  stats_ = Stats();
  SENTINEL_RETURN_IF_ERROR(GenerateGlobalRules(policy));
  SENTINEL_RETURN_IF_ERROR(GenerateElements(policy, nullptr, nullptr, true));
  return stats_;
}

Result<RuleGenerator::Stats> RuleGenerator::Regenerate(
    const Policy& policy, const std::set<RoleName>& roles,
    const std::set<UserName>& users, bool directives_changed) {
  stats_ = Stats();
  for (const RoleName& role : roles) {
    auto it = index_.find({ElementKind::kRole, role});
    if (it != index_.end()) RemoveEntry(it);
  }
  for (const UserName& user : users) {
    auto it = index_.find({ElementKind::kUser, user});
    if (it != index_.end()) RemoveEntry(it);
  }
  // The constraint entries, then the directive entries, sort last.
  for (auto it = index_.lower_bound({ElementKind::kTimeSod, ""});
       it != index_.end();) {
    const std::set<RoleName>& touches = it->second.touches;
    const bool doomed =
        it->first.kind >= ElementKind::kThreshold
            ? directives_changed
            : std::any_of(touches.begin(), touches.end(),
                          [&roles](const RoleName& role) {
                            return roles.count(role) > 0;
                          });
    it = doomed ? RemoveEntry(it) : std::next(it);
  }
  SENTINEL_RETURN_IF_ERROR(
      GenerateElements(policy, &roles, &users, directives_changed));
  return stats_;
}

Status RuleGenerator::GenerateElements(const Policy& policy,
                                       const std::set<RoleName>* roles,
                                       const std::set<UserName>* users,
                                       bool directives) {
  SENTINEL_RETURN_IF_ERROR(
      ForEachSpec(policy.roles(), roles, [&](const RoleSpec& spec) {
        return GenerateRoleRules(policy, spec);
      }));
  SENTINEL_RETURN_IF_ERROR(
      ForEachSpec(policy.users(), users, [&](const UserSpec& spec) {
        return GenerateUserRules(policy, spec);
      }));
  // A constraint is generated when it involves an affected role and has no
  // entry: Regenerate removed every entry that involves one.
  const auto affected = [roles](const RoleName& role) {
    return roles == nullptr || roles->count(role) > 0;
  };
  const auto absent = [this](ElementKind kind, const std::string& name) {
    return index_.count({kind, name}) == 0;
  };
  for (const TimeSod& tsod : policy.time_sods()) {
    // Enabling-time SoD is enforced by the GLOB.enable conditions, which
    // read the policy dynamically; no per-constraint rules required.
    if (tsod.kind == TimeSodKind::kDisabling &&
        std::any_of(tsod.roles.begin(), tsod.roles.end(), affected) &&
        absent(ElementKind::kTimeSod, tsod.name)) {
      SENTINEL_RETURN_IF_ERROR(GenerateTimeSodRules(policy, tsod));
    }
  }
  for (const CfdPair& pair : policy.cfd_pairs()) {
    if ((affected(pair.trigger) || affected(pair.companion)) &&
        absent(ElementKind::kCfdPair, pair.trigger)) {
      SENTINEL_RETURN_IF_ERROR(GenerateCfdRules(policy, pair));
    }
  }
  for (const TransactionActivation& tx : policy.transactions()) {
    if ((affected(tx.controller) || affected(tx.dependent)) &&
        absent(ElementKind::kTransaction, tx.name)) {
      SENTINEL_RETURN_IF_ERROR(GenerateTransactionRules(policy, tx));
    }
  }
  if (!directives) return Status::OK();
  for (const ThresholdDirective& directive : policy.thresholds()) {
    SENTINEL_RETURN_IF_ERROR(GenerateThresholdRules(policy, directive));
  }
  for (const AuditDirective& directive : policy.audits()) {
    SENTINEL_RETURN_IF_ERROR(GenerateAuditRules(policy, directive));
  }
  return Status::OK();
}

// ===================================================== Global rules

Status RuleGenerator::GenerateGlobalRules(const Policy& policy) {
  (void)policy;  // Global rule conditions read engine_->policy() live.
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  // Copied into the condition lambdas: parameter lookups and RBAC
  // predicates then run entirely on interned symbols.
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const ElementKey key{ElementKind::kGlobal, ""};

  using O = Rule::Options;

  // --- ADM.createSession (paper: administrative rule, globalized) -------
  {
    Rule rule("ADM.createSession", ev.create_session,
              O{0, true, RuleClass::kAdministrative,
                RuleGranularity::kGlobalized});
    rule.When("user IN userL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasUser(c.ParamSym(k.user));
              })
        .When("sessionId valid and NOT IN sessionL",
              [eng, k](RuleContext& c) {
                // Empty ids intern like any name; reject by spelling.
                return !c.ParamString(k.session).empty() &&
                       !eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .Then("createSession(user, sessionId)",
              [eng, k](RuleContext& c) {
                (void)eng->rbac().db().CreateSession(c.ParamSym(k.user),
                                                     c.ParamSym(k.session));
                AllowDecision(c, "ADM.createSession");
              })
        .Else("raise error \"Cannot Create Session\"", [](RuleContext& c) {
          DenyDecision(c, "ADM.createSession", "Cannot Create Session");
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- ADM.deleteSession -------------------------------------------------
  {
    Rule rule("ADM.deleteSession", ev.delete_session,
              O{0, true, RuleClass::kAdministrative,
                RuleGranularity::kGlobalized});
    rule.When("sessionId IN sessionL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .Then("deactivate roles; deleteSession(sessionId)",
              [eng, k](RuleContext& c) {
                const Symbol session = c.ParamSym(k.session);
                if (const RbacDatabase::SessionState* state =
                        eng->rbac().db().GetSessionState(session)) {
                  const Symbol user = state->user;
                  // Each drop raises an event: in role-name order.
                  for (Symbol role :
                       eng->symbols().ByName(state->active_roles)) {
                    (void)eng->ForceDeactivate(user, session, role);
                  }
                }
                (void)eng->rbac().db().DeleteSession(session);
                AllowDecision(c, "ADM.deleteSession");
              })
        .Else("raise error \"No Such Session\"", [](RuleContext& c) {
          DenyDecision(c, "ADM.deleteSession", "No Such Session");
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- ADM.assign (scenario 3: one globalized assignment rule) ----------
  {
    Rule rule("ADM.assign", ev.assign_user,
              O{0, true, RuleClass::kAdministrative,
                RuleGranularity::kGlobalized});
    rule.When("user IN userL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasUser(c.ParamSym(k.user));
              })
        .When("role IN roleL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasRole(c.ParamSym(k.role));
              })
        .When("user NOT assigned to role",
              [eng, k](RuleContext& c) {
                return !eng->rbac().db().IsAssigned(c.ParamSym(k.user),
                                                    c.ParamSym(k.role));
              })
        .When("checkStaticSoDSet(user, role)",
              [eng, k](RuleContext& c) {
                return eng->rbac().SsdSatisfiedWith(c.ParamString(k.user),
                                                    c.ParamString(k.role));
              })
        .Then("assignUser(user, role)",
              [eng, k](RuleContext& c) {
                (void)eng->rbac().db().Assign(c.ParamSym(k.user),
                                              c.ParamSym(k.role));
                AllowDecision(c, "ADM.assign");
              })
        .Else("raise error \"Cannot Assign\"", [](RuleContext& c) {
          DenyDecision(c, "ADM.assign", "Cannot Assign");
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- ADM.deassign ------------------------------------------------------
  {
    Rule rule("ADM.deassign", ev.deassign_user,
              O{0, true, RuleClass::kAdministrative,
                RuleGranularity::kGlobalized});
    rule.When("user IN userL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasUser(c.ParamSym(k.user));
              })
        .When("user assigned to role",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().IsAssigned(c.ParamSym(k.user),
                                                   c.ParamSym(k.role));
              })
        .Then("deassignUser(user, role); drop unauthorized active roles",
              [eng, k](RuleContext& c) {
                const Symbol user = c.ParamSym(k.user);
                RbacDatabase& db = eng->rbac().db();
                const SymbolTable& symbols = eng->symbols();
                (void)db.Deassign(user, c.ParamSym(k.role));
                // Active instances that lost their authorization fall away;
                // the drops raise events, so sessions and roles go in name
                // order.
                for (Symbol session : symbols.ByName(db.UserSessions(user))) {
                  const RbacDatabase::SessionState* state =
                      db.GetSessionState(session);
                  if (state == nullptr) continue;
                  for (Symbol r : symbols.ByName(state->active_roles)) {
                    if (!eng->rbac().IsAuthorized(user, r)) {
                      (void)eng->ForceDeactivate(user, session, r);
                    }
                  }
                }
                AllowDecision(c, "ADM.deassign");
              })
        .Else("raise error \"Cannot Deassign\"", [](RuleContext& c) {
          DenyDecision(c, "ADM.deassign", "Cannot Deassign");
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- GLOB.drop: deactivation requests ----------------------------------
  {
    Rule rule("GLOB.drop", ev.drop_active_role,
              O{0, true, RuleClass::kActivityControl,
                RuleGranularity::kGlobalized});
    rule.When("sessionId IN sessionL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .When("sessionId IN checkUserSessions(user)",
              [eng, k](RuleContext& c) {
                const auto* state =
                    eng->rbac().db().GetSessionState(c.ParamSym(k.session));
                return state != nullptr && state->user == c.ParamSym(k.user);
              })
        .When("role IN checkSessionRoles(sessionId)",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().IsSessionRoleActive(
                    c.ParamSym(k.session), c.ParamSym(k.role));
              })
        .Then("dropSessionRole(sessionId, role)",
              [eng, k](RuleContext& c) {
                (void)eng->ForceDeactivate(c.ParamSym(k.user),
                                           c.ParamSym(k.session),
                                           c.ParamSym(k.role));
                AllowDecision(c, "GLOB.drop");
              })
        .Else("raise error \"Cannot Deactivate\"", [](RuleContext& c) {
          DenyDecision(c, "GLOB.drop", "Cannot Deactivate");
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- CA.global: Rule 5 (check access) -----------------------------------
  {
    Rule rule("CA.global", ev.check_access,
              O{0, true, RuleClass::kActivityControl,
                RuleGranularity::kGlobalized});
    rule.When("sessionId IN sessionL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .When("operation IN opsL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasOperation(c.ParamSym(k.operation));
              })
        .When("object IN objL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasObject(c.ParamSym(k.object));
              })
        .When("ANY role IN getSessionRoles has checkPermissions",
              [eng, k](RuleContext& c) {
                auto verdict = eng->rbac().CheckAccess(c.ParamSym(k.session),
                                                       c.ParamSym(k.operation),
                                                       c.ParamSym(k.object));
                return verdict.ok() && *verdict;
              })
        .When("purpose permitted by object policy",
              [eng, k](RuleContext& c) {
                return eng->privacy().AccessPermitted(
                    c.ParamString(k.object), c.ParamString(k.purpose));
              })
        .Then("allow access",
              [](RuleContext& c) { AllowDecision(c, "CA.global"); })
        .Else("raise error \"Permission Denied\"", [eng, k](RuleContext& c) {
          DenyDecision(c, "CA.global", "Permission Denied");
          FlatParamMap params{{k.session, Value(c.ParamSym(k.session))},
                              {k.operation, Value(c.ParamSym(k.operation))},
                              {k.object, Value(c.ParamSym(k.object))}};
          // Attribute the denial to the session's user when the session
          // exists — per-principal threshold reactions (keyed windows,
          // throttling) need to know *who* is being denied, and the
          // request itself only names the session.
          if (const RbacDatabase::SessionState* state =
                  eng->rbac().db().GetSessionState(c.ParamSym(k.session))) {
            params.Set(k.user, Value(state->user));
          }
          (void)eng->detector().Raise(eng->events().access_denied,
                                      std::move(params));
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- GLOB.enable: role enabling (GTRBAC transitions) --------------------
  {
    Rule rule("GLOB.enable", ev.enable_role,
              O{0, true, RuleClass::kActivityControl,
                RuleGranularity::kGlobalized});
    rule.When("role IN roleL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasRole(c.ParamSym(k.role));
              })
        .When("role is not a CFD trigger",
              [eng, k](RuleContext& c) {
                return !eng->IsCfdTrigger(c.ParamString(k.role));
              })
        .When("enabling-time SoD satisfied",
              [eng, k](RuleContext& c) {
                return eng->EnableTsodOk(c.ParamString(k.role));
              })
        .Then("enableRole(role)",
              [eng, k](RuleContext& c) {
                EnableRole(eng, c.ParamSym(k.role));
                AllowDecision(c, "GLOB.enable");
              })
        .Else("deny or defer to CFD rule", [eng, k](RuleContext& c) {
          if (!eng->rbac().db().HasRole(c.ParamSym(k.role))) {
            DenyDecision(c, "GLOB.enable", "No Such Role");
          } else if (eng->IsCfdTrigger(c.ParamString(k.role))) {
            // The CFD rule on the filtered event adjudicates this request.
          } else {
            DenyDecision(c, "GLOB.enable",
                         "Denied by Enabling-Time SoD");
          }
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- GLOB.disable --------------------------------------------------------
  {
    Rule rule("GLOB.disable", ev.disable_role,
              O{0, true, RuleClass::kActivityControl,
                RuleGranularity::kGlobalized});
    rule.When("role IN roleL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasRole(c.ParamSym(k.role));
              })
        .When("no disabling-time SoD window in effect",
              [eng, k](RuleContext& c) {
                return !eng->TsodGuardedNow(c.ParamString(k.role),
                                            TimeSodKind::kDisabling);
              })
        .Then("disableRole(role)",
              [eng, k](RuleContext& c) {
                DisableRole(eng, c.ParamSym(k.role));
                AllowDecision(c, "GLOB.disable");
              })
        .Else("deny or defer to TSOD rule", [eng, k](RuleContext& c) {
          if (!eng->rbac().db().HasRole(c.ParamSym(k.role))) {
            DenyDecision(c, "GLOB.disable", "No Such Role");
          }
          // Guarded roles are adjudicated by the TSOD APERIODIC rule.
        });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  return Status::OK();
}

// ======================================================== Role rules

Status RuleGenerator::GenerateRoleRules(const Policy& policy,
                                        const RoleSpec& spec) {
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const RoleName role = spec.name;
  // Captured once here; the rule's per-firing checks never touch the name.
  const Symbol role_sym = eng->symbols().Intern(role);
  // Every role has an entry, even one that adds no rule (a transaction-
  // gated role): its structural events below are generated for it.
  const ElementKey key{ElementKind::kRole, role};
  index_[key];

  // Structural events, shared across generations.
  SENTINEL_ASSIGN_OR_RETURN(
      activate_ev, EnsureFilter("ev.act." + role, ev.add_active_role,
                                {{k.role, Value(role_sym)}}));
  SENTINEL_ASSIGN_OR_RETURN(
      added_ev, EnsureFilter("ev.added." + role, ev.session_role_added,
                             {{k.role, Value(role_sym)}}));
  SENTINEL_ASSIGN_OR_RETURN(
      dropped_ev, EnsureFilter("ev.dropped." + role, ev.session_role_dropped,
                               {{k.role, Value(role_sym)}}));
  (void)dropped_ev;

  const bool in_hierarchy = policy.RoleInHierarchy(role);
  const bool in_dsd = policy.RoleInDsd(role);
  const std::set<RoleName> prerequisites = spec.prerequisites;

  // --- AAR.<role>: the activation rule, variant by role properties -------
  // (paper §4.3.1, AAR1..AAR4). Roles whose activation is transaction-
  // gated get their checks inside the ASEC rule instead.
  if (!policy.RoleIsTransactionDependent(role)) {
    Rule rule("AAR." + role, activate_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kLocalized});
    rule.When("user IN userL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasUser(c.ParamSym(k.user));
              })
        .When("sessionId IN sessionL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .When("sessionId IN checkUserSessions(user)",
              [eng, k](RuleContext& c) {
                const auto* state =
                    eng->rbac().db().GetSessionState(c.ParamSym(k.session));
                return state != nullptr && state->user == c.ParamSym(k.user);
              })
        .When(role + " NOT IN checkSessionRoles(sessionId)",
              [eng, k, role_sym](RuleContext& c) {
                return !eng->rbac().db().IsSessionRoleActive(
                    c.ParamSym(k.session), role_sym);
              });
    if (in_hierarchy) {
      rule.When("checkAuthorization" + role + "(user) IS TRUE",
                [eng, k, role_sym](RuleContext& c) {
                  return eng->rbac().IsAuthorized(c.ParamSym(k.user),
                                                  role_sym);
                });
    } else {
      rule.When("checkAssigned" + role + "(user) IS TRUE",
                [eng, k, role_sym](RuleContext& c) {
                  return eng->rbac().db().IsAssigned(c.ParamSym(k.user),
                                                     role_sym);
                });
    }
    if (in_dsd) {
      rule.When("checkDynamicSoDSet(user, " + role + ") IS TRUE",
                [eng, k, role_sym](RuleContext& c) {
                  return eng->rbac().DsdSatisfiedWith(c.ParamSym(k.session),
                                                      role_sym);
                });
    }
    rule.When("checkRoleEnabled(" + role + ") IS TRUE",
              [eng, role_sym](RuleContext& c) {
                (void)c;
                return eng->role_state().IsEnabled(role_sym);
              });
    if (!prerequisites.empty()) {
      std::vector<Symbol> prereq_syms;
      prereq_syms.reserve(prerequisites.size());
      for (const RoleName& prereq : prerequisites) {
        prereq_syms.push_back(eng->symbols().Intern(prereq));
      }
      rule.When("checkPrerequisiteRoles(sessionId) IS TRUE",
                [eng, k, prereq_syms](RuleContext& c) {
                  for (Symbol prereq : prereq_syms) {
                    if (!eng->rbac().db().IsSessionRoleActive(
                            c.ParamSym(k.session), prereq)) {
                      return false;
                    }
                  }
                  return true;
                });
    }
    if (!spec.required_context.empty()) {
      const std::map<std::string, std::string> required =
          spec.required_context;
      rule.When("checkContext(" + role + ") IS TRUE",
                [eng, required](RuleContext& c) {
                  (void)c;
                  return eng->ContextSatisfied(required);
                });
    }
    rule.Then("addSessionRole" + role + "(sessionId)",
              [eng, k, role, role_sym](RuleContext& c) {
                (void)eng->rbac().db().AddSessionRole(c.ParamSym(k.session),
                                                      role_sym);
                AllowDecision(c, "AAR." + role);
                (void)eng->detector().Raise(
                    eng->events().session_role_added,
                    {{k.user, Value(c.ParamSym(k.user))},
                     {k.session, Value(c.ParamSym(k.session))},
                     {k.role, Value(role_sym)}});
              })
        .Else("raise error \"Access Denied Cannot Activate\"",
              [role](RuleContext& c) {
                DenyDecision(c, "AAR." + role,
                             "Access Denied Cannot Activate");
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- CTX.<role>: context-aware deactivation (§1: constraints must hold
  // until deactivation; a breaking context change deactivates the role) ---
  if (!spec.required_context.empty()) {
    const std::map<std::string, std::string> required =
        spec.required_context;
    Rule rule("CTX." + role, ev.context_changed,
              Rule::Options{0, true, RuleClass::kActiveSecurity,
                            RuleGranularity::kLocalized});
    rule.When("context constraint broken for " + role,
              [eng, required](RuleContext& c) {
                (void)c;
                return !eng->ContextSatisfied(required);
              })
        .Then("deactivate all instances of " + role,
              [eng, role_sym](RuleContext& c) {
                (void)c;
                eng->DeactivateAllInstances(role_sym);
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- CC.<role>: Rule 4 cardinality, compensating post-check ------------
  if (spec.activation_cardinality > 0) {
    const int limit = spec.activation_cardinality;
    Rule rule("CC." + role, added_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kLocalized});
    rule.When("Cardinality" + role + "(INCR) IS TRUE",
              [eng, role_sym, limit](RuleContext& c) {
                (void)c;
                return eng->rbac().db().ActiveSessionCount(role_sym) <= limit;
              })
        .Then("confirm activation", [](RuleContext&) {})
        .Else("undo activation; raise error \"Maximum Number of Roles "
              "Reached\"",
              [eng, k, role, role_sym](RuleContext& c) {
                (void)eng->ForceDeactivate(c.ParamSym(k.user),
                                           c.ParamSym(k.session), role_sym);
                DenyDecision(c, "CC." + role,
                             "Maximum Number of Roles Reached");
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- DUR.<role>: Rule 7 duration chain via PLUS -------------------------
  if (spec.max_activation > 0) {
    const std::string plus_name = TemporalName(key, "ev.durexp." + role);
    auto plus_ev = eng->detector().DefinePlus(
        plus_name, added_ev, spec.max_activation, k.session);
    if (!plus_ev.ok()) return plus_ev.status();
    TrackTemporal(key, *plus_ev);
    eng->RegisterDurationEvent(role_sym, *plus_ev);

    Rule rule("DUR." + role, *plus_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kLocalized});
    rule.When("role still active in session",
              [eng, k, role_sym](RuleContext& c) {
                return eng->rbac().db().IsSessionRoleActive(
                    c.ParamSym(k.session), role_sym);
              })
        .Then("deactivateRole" + role + "(sessionId)",
              [eng, k, role_sym](RuleContext& c) {
                (void)eng->ForceDeactivate(c.ParamSym(k.user),
                                           c.ParamSym(k.session), role_sym);
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- SH.<role>: GTRBAC enabling window (shift) boundaries ----------------
  if (spec.enabling_window.has_value()) {
    const PeriodicExpression& window = *spec.enabling_window;
    auto on_ev = eng->detector().DefineAbsolute(
        TemporalName(key, "ev.shift.on." + role), window.window_start());
    if (!on_ev.ok()) return on_ev.status();
    TrackTemporal(key, *on_ev);
    auto off_ev = eng->detector().DefineAbsolute(
        TemporalName(key, "ev.shift.off." + role), window.window_end());
    if (!off_ev.ok()) return off_ev.status();
    TrackTemporal(key, *off_ev);

    Rule on_rule("SH." + role + ".on", *on_ev,
                 Rule::Options{0, true, RuleClass::kActivityControl,
                               RuleGranularity::kLocalized});
    on_rule.Then("enableRole" + role, [eng, role_sym](RuleContext& c) {
      (void)c;
      EnableRole(eng, role_sym);
    });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(on_rule)));

    Rule off_rule("SH." + role + ".off", *off_ev,
                  Rule::Options{0, true, RuleClass::kActivityControl,
                                RuleGranularity::kLocalized});
    off_rule.Then("disableRole" + role + "; deactivate instances",
                  [eng, role_sym](RuleContext& c) {
                    (void)c;
                    DisableRole(eng, role_sym);
                  });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(off_rule)));
  }

  return Status::OK();
}

// ======================================================== User rules

Status RuleGenerator::GenerateUserRules(const Policy& policy,
                                        const UserSpec& spec) {
  (void)policy;
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const UserName user = spec.name;
  const ElementKey key{ElementKind::kUser, user};

  // --- UAC.<user>: scenario 1, specialized active-role cap ---------------
  if (spec.max_active_roles > 0) {
    const int cap = spec.max_active_roles;
    const Symbol user_sym = eng->symbols().Intern(user);
    SENTINEL_ASSIGN_OR_RETURN(
        added_ev, EnsureFilter("ev.added.u." + user, ev.session_role_added,
                               {{k.user, Value(user_sym)}}));
    Rule rule("UAC." + user, added_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kSpecialized});
    rule.When("active roles of " + user + " <= " + std::to_string(cap),
              [eng, user_sym, cap](RuleContext& c) {
                (void)c;
                return eng->CountUserActiveRoles(user_sym) <= cap;
              })
        .Then("confirm activation", [](RuleContext&) {})
        .Else("undo activation; raise error \"Maximum Number of Roles "
              "Reached\"",
              [eng, k, user, user_sym](RuleContext& c) {
                (void)eng->ForceDeactivate(user_sym, c.ParamSym(k.session),
                                           c.ParamSym(k.role));
                DenyDecision(c, "UAC." + user,
                             "Maximum Number of Roles Reached");
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // --- DUR.<user>.<role>: Rule 7, specialized duration bounds ------------
  for (const auto& [role, duration] : spec.role_durations) {
    const Symbol role_sym = eng->symbols().Intern(role);
    const Symbol user_sym = eng->symbols().Intern(user);
    SENTINEL_ASSIGN_OR_RETURN(
        added_ev,
        EnsureFilter("ev.added.u." + user + ".r." + role,
                     ev.session_role_added,
                     {{k.user, Value(user_sym)}, {k.role, Value(role_sym)}}));
    const std::string plus_name =
        TemporalName(key, "ev.durexp.u." + user + ".r." + role);
    auto plus_ev =
        eng->detector().DefinePlus(plus_name, added_ev, duration, k.session);
    if (!plus_ev.ok()) return plus_ev.status();
    TrackTemporal(key, *plus_ev);
    eng->RegisterDurationEvent(role_sym, *plus_ev);

    Rule rule("DUR." + user + "." + role, *plus_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kSpecialized});
    rule.When("role still active in session",
              [eng, k, role_sym](RuleContext& c) {
                return eng->rbac().db().IsSessionRoleActive(
                    c.ParamSym(k.session), role_sym);
              })
        .Then("deactivateRole" + role + "(sessionId)",
              [eng, k, user_sym, role_sym](RuleContext& c) {
                (void)eng->ForceDeactivate(user_sym, c.ParamSym(k.session),
                                           role_sym);
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  return Status::OK();
}

// ================================================= Time-based SoD rules

Status RuleGenerator::GenerateTimeSodRules(const Policy& policy,
                                           const TimeSod& tsod) {
  (void)policy;
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const ElementKey key{ElementKind::kTimeSod, tsod.name};
  index_[key].touches.insert(tsod.roles.begin(), tsod.roles.end());

  // OR over the member roles' disable requests (paper Rule 6: ET3).
  std::vector<EventId> alternatives;
  for (const RoleName& role : tsod.roles) {
    SENTINEL_ASSIGN_OR_RETURN(
        disable_ev,
        EnsureFilter("ev.disable." + role, ev.disable_role,
                     {{k.role, Value(eng->symbols().Intern(role))}}));
    alternatives.push_back(disable_ev);
  }
  auto or_ev = eng->detector().DefineOr(
      TemporalName(key, "ev.tsod.or." + tsod.name), alternatives);
  if (!or_ev.ok()) return or_ev.status();
  TrackTemporal(key, *or_ev);

  // Window machinery: absolute boundary events + a boot initiator so a
  // window already in progress at generation time is honoured.
  auto start_ev = eng->detector().DefineAbsolute(
      TemporalName(key, "ev.tsod.start." + tsod.name),
      tsod.period.window_start());
  if (!start_ev.ok()) return start_ev.status();
  TrackTemporal(key, *start_ev);
  auto end_ev = eng->detector().DefineAbsolute(
      TemporalName(key, "ev.tsod.end." + tsod.name),
      tsod.period.window_end());
  if (!end_ev.ok()) return end_ev.status();
  TrackTemporal(key, *end_ev);
  auto boot_ev = eng->detector().DefinePrimitive(
      TemporalName(key, "ev.tsod.boot." + tsod.name));
  if (!boot_ev.ok()) return boot_ev.status();
  TrackTemporal(key, *boot_ev);
  auto init_ev = eng->detector().DefineOr(
      TemporalName(key, "ev.tsod.init." + tsod.name), {*start_ev, *boot_ev});
  if (!init_ev.ok()) return init_ev.status();
  TrackTemporal(key, *init_ev);
  auto win_ev = eng->detector().DefineAperiodic(
      TemporalName(key, "ev.tsod.win." + tsod.name), *init_ev, *or_ev,
      *end_ev, ConsumptionMode::kRecent);
  if (!win_ev.ok()) return win_ev.status();
  TrackTemporal(key, *win_ev);

  const PeriodicExpression period = tsod.period;
  Rule rule("TSOD." + tsod.name, *win_ev,
            Rule::Options{0, true, RuleClass::kActivityControl,
                          RuleGranularity::kLocalized});
  rule.When("(I,P) in effect",
            [eng, period](RuleContext& c) {
              (void)c;
              return period.Contains(eng->Now());
            })
      .When("checkActive counter-role IS TRUE",
            [eng, k](RuleContext& c) {
              return eng->DisableTsodOk(c.ParamString(k.role));
            })
      .Then("disable requested role",
            [eng, k, rule_name = "TSOD." + tsod.name](RuleContext& c) {
              DisableRole(eng, c.ParamSym(k.role));
              AllowDecision(c, rule_name);
            })
      .Else("raise error \"Denied as Counter-Role Already Disabled\"",
            [eng, period, rule_name = "TSOD." + tsod.name](RuleContext& c) {
              // Outside (I,P) the window machinery can linger one cycle;
              // GLOB.disable already adjudicated, so stay silent.
              if (!period.Contains(eng->Now())) return;
              DenyDecision(c, rule_name,
                           "Denied as Counter-Role Already Disabled");
            });
  SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));

  // A window already open at generation time must be honoured.
  if (period.Contains(eng->Now())) {
    (void)eng->detector().Raise(*boot_ev, {});
  }
  return Status::OK();
}

// ============================================================ CFD rules

Status RuleGenerator::GenerateCfdRules(const Policy& policy,
                                       const CfdPair& pair) {
  (void)policy;
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  // Validate lets a role trigger one pair at most, so the trigger names it.
  const ElementKey key{ElementKind::kCfdPair, pair.trigger};
  index_[key].touches = {pair.trigger, pair.companion};
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const RoleName trigger = pair.trigger;
  const RoleName companion = pair.companion;
  const Symbol trigger_sym = eng->symbols().Intern(trigger);
  const Symbol companion_sym = eng->symbols().Intern(companion);

  SENTINEL_ASSIGN_OR_RETURN(
      enable_trigger_ev, EnsureFilter("ev.enable." + trigger, ev.enable_role,
                                      {{k.role, Value(trigger_sym)}}));
  SENTINEL_ASSIGN_OR_RETURN(
      disable_companion_ev,
      EnsureFilter("ev.disable." + companion, ev.disable_role,
                   {{k.role, Value(companion_sym)}}));

  // CFD1: enabling the trigger requires enabling the companion too
  // (paper Rule 8: enableRoleSysAdmin -> enableRoleSysAudit).
  {
    Rule rule("CFD." + trigger + "." + companion + ".enable",
              enable_trigger_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kLocalized});
    rule.When("enabling-time SoD satisfied for " + trigger,
              [eng, trigger](RuleContext& c) {
                (void)c;
                return eng->EnableTsodOk(trigger);
              })
        .When("companion " + companion + " enabled or enablable",
              [eng, companion, companion_sym](RuleContext& c) {
                (void)c;
                return eng->role_state().IsEnabled(companion_sym) ||
                       eng->EnableTsodOk(companion);
              })
        .Then("enableRole" + trigger + "(); enableRole" + companion + "()",
              [eng, trigger, trigger_sym, companion_sym](RuleContext& c) {
                EnableRole(eng, trigger_sym);
                if (!eng->role_state().IsEnabled(companion_sym)) {
                  EnableRole(eng, companion_sym);
                }
                AllowDecision(c, "CFD." + trigger + ".enable");
              })
        .Else("raise error \"Cannot Enable " + trigger + "\"",
              [trigger](RuleContext& c) {
                DenyDecision(c, "CFD." + trigger + ".enable",
                             "Cannot Enable " + trigger);
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // CFD2: disabling the companion disables the trigger (post-condition
  // invariant: trigger enabled implies companion enabled).
  {
    Rule rule("CFD." + trigger + "." + companion + ".disable",
              disable_companion_ev,
              Rule::Options{0, true, RuleClass::kActivityControl,
                            RuleGranularity::kLocalized});
    rule.When("companion " + companion + " is now disabled",
              [eng, companion_sym](RuleContext& c) {
                (void)c;
                return !eng->role_state().IsEnabled(companion_sym);
              })
        .When("trigger " + trigger + " still enabled",
              [eng, trigger_sym](RuleContext& c) {
                (void)c;
                return eng->role_state().IsEnabled(trigger_sym);
              })
        .Then("disableRole" + trigger + "()",
              [eng, trigger_sym](RuleContext& c) {
                (void)c;
                DisableRole(eng, trigger_sym);
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  return Status::OK();
}

// ================================================= Transaction rules

Status RuleGenerator::GenerateTransactionRules(
    const Policy& policy, const TransactionActivation& tx) {
  AuthorizationEngine* eng = engine_;
  const auto& ev = eng->events();
  const ElementKey key{ElementKind::kTransaction, tx.name};
  index_[key].touches = {tx.controller, tx.dependent};
  const AuthorizationEngine::ParamKeys k = eng->keys();
  const RoleName controller = tx.controller;
  const RoleName dependent = tx.dependent;
  const Symbol controller_sym = eng->symbols().Intern(controller);
  const Symbol dependent_sym = eng->symbols().Intern(dependent);

  SENTINEL_ASSIGN_OR_RETURN(
      ctrl_on_ev, EnsureFilter("ev.added." + controller,
                               ev.session_role_added,
                               {{k.role, Value(controller_sym)}}));
  SENTINEL_ASSIGN_OR_RETURN(
      ctrl_off_ev, EnsureFilter("ev.dropped." + controller,
                                ev.session_role_dropped,
                                {{k.role, Value(controller_sym)}}));
  SENTINEL_ASSIGN_OR_RETURN(
      dep_req_ev, EnsureFilter("ev.act." + dependent, ev.add_active_role,
                               {{k.role, Value(dependent_sym)}}));

  auto boot_ev = eng->detector().DefinePrimitive(
      TemporalName(key, "ev.tx.boot." + tx.name));
  if (!boot_ev.ok()) return boot_ev.status();
  TrackTemporal(key, *boot_ev);
  auto init_ev = eng->detector().DefineOr(
      TemporalName(key, "ev.tx.init." + tx.name), {ctrl_on_ev, *boot_ev});
  if (!init_ev.ok()) return init_ev.status();
  TrackTemporal(key, *init_ev);
  auto win_ev = eng->detector().DefineAperiodic(
      TemporalName(key, "ev.tx.win." + tx.name), *init_ev, dep_req_ev,
      ctrl_off_ev, ConsumptionMode::kRecent);
  if (!win_ev.ok()) return win_ev.status();
  TrackTemporal(key, *win_ev);

  const bool in_hierarchy = policy.RoleInHierarchy(dependent);
  const bool in_dsd = policy.RoleInDsd(dependent);

  // ASEC activation rule (paper Rule 9, ASEC3): the dependent role can be
  // activated only while the transaction window is open; all the usual
  // AAR checks still apply.
  {
    Rule rule("ASEC." + tx.name + ".activate", *win_ev,
              Rule::Options{0, true, RuleClass::kActiveSecurity,
                            RuleGranularity::kLocalized});
    rule.When("user IN userL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasUser(c.ParamSym(k.user));
              })
        .When("sessionId IN sessionL",
              [eng, k](RuleContext& c) {
                return eng->rbac().db().HasSession(c.ParamSym(k.session));
              })
        .When("sessionId IN checkUserSessions(user)",
              [eng, k](RuleContext& c) {
                const auto* state =
                    eng->rbac().db().GetSessionState(c.ParamSym(k.session));
                return state != nullptr && state->user == c.ParamSym(k.user);
              })
        .When(dependent + " NOT IN checkSessionRoles(sessionId)",
              [eng, k, dependent_sym](RuleContext& c) {
                return !eng->rbac().db().IsSessionRoleActive(
                    c.ParamSym(k.session), dependent_sym);
              })
        .When(in_hierarchy ? "checkAuthorization(user) IS TRUE"
                           : "checkAssigned(user) IS TRUE",
              [eng, k, dependent_sym, in_hierarchy](RuleContext& c) {
                return in_hierarchy
                           ? eng->rbac().IsAuthorized(c.ParamSym(k.user),
                                                      dependent_sym)
                           : eng->rbac().db().IsAssigned(c.ParamSym(k.user),
                                                         dependent_sym);
              });
    if (in_dsd) {
      rule.When("checkDynamicSoDSet(user, " + dependent + ") IS TRUE",
                [eng, k, dependent_sym](RuleContext& c) {
                  return eng->rbac().DsdSatisfiedWith(c.ParamSym(k.session),
                                                      dependent_sym);
                });
    }
    const std::map<std::string, std::string> dep_context =
        policy.roles().count(dependent) > 0
            ? policy.roles().at(dependent).required_context
            : std::map<std::string, std::string>{};
    if (!dep_context.empty()) {
      rule.When("checkContext(" + dependent + ") IS TRUE",
                [eng, dep_context](RuleContext& c) {
                  (void)c;
                  return eng->ContextSatisfied(dep_context);
                });
    }
    rule.When("checkRoleEnabled(" + dependent + ") IS TRUE",
              [eng, dependent_sym](RuleContext& c) {
                (void)c;
                return eng->role_state().IsEnabled(dependent_sym);
              })
        .When("controller " + controller + " still active",
              [eng, controller_sym](RuleContext& c) {
                (void)c;
                return eng->rbac().db().ActiveSessionCount(controller_sym) >
                       0;
              })
        .Then("activate" + dependent,
              [eng, k, dependent_sym, tx_name = tx.name](RuleContext& c) {
                (void)eng->rbac().db().AddSessionRole(c.ParamSym(k.session),
                                                      dependent_sym);
                AllowDecision(c, "ASEC." + tx_name + ".activate");
                (void)eng->detector().Raise(
                    eng->events().session_role_added,
                    {{k.user, Value(c.ParamSym(k.user))},
                     {k.session, Value(c.ParamSym(k.session))},
                     {k.role, Value(dependent_sym)}});
              })
        .Else("raise error \"Permission Denied\"",
              [tx_name = tx.name](RuleContext& c) {
                DenyDecision(c, "ASEC." + tx_name + ".activate",
                             "Permission Denied");
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // ASEC cascade (paper Rule 9, ASEC2 tail): when the last controller
  // instance deactivates, the dependent role falls away everywhere;
  // otherwise the window re-opens for the remaining controllers.
  {
    const EventId boot = *boot_ev;
    Rule rule("ASEC." + tx.name + ".cascade", ctrl_off_ev,
              Rule::Options{0, true, RuleClass::kActiveSecurity,
                            RuleGranularity::kLocalized});
    rule.Then("deactivate dependents or re-open window",
              [eng, controller_sym, dependent_sym, boot](RuleContext& c) {
                (void)c;
                if (eng->rbac().db().ActiveSessionCount(controller_sym) ==
                    0) {
                  eng->DeactivateAllInstances(dependent_sym);
                } else {
                  (void)eng->detector().Raise(boot, {});
                }
              });
    SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  }

  // Honour controllers already active at generation time.
  if (eng->rbac().db().ActiveSessionCount(controller_sym) > 0) {
    (void)eng->detector().Raise(*boot_ev, {});
  }
  return Status::OK();
}

// ================================================== Threshold directives

Status RuleGenerator::GenerateThresholdRules(
    const Policy& policy, const ThresholdDirective& directive) {
  (void)policy;
  AuthorizationEngine* eng = engine_;
  const ElementKey key{ElementKind::kThreshold, directive.name};

  eng->security().DefineWindow(directive.name, directive.window,
                               directive.threshold);

  const AuthorizationEngine::ParamKeys k = eng->keys();
  const std::string name = directive.name;
  const Symbol alert_key = eng->symbols().Intern("name");
  const Symbol alert_name = eng->symbols().Intern(name);
  const int threshold = directive.threshold;
  const std::vector<std::string> prefixes = directive.disable_rule_prefixes;
  const std::vector<RoleName> disable_roles = directive.disable_roles;
  const double throttle_rate = directive.throttle_rate_per_s;
  const int64_t throttle_burst =
      directive.throttle_burst < 1 ? 1 : directive.throttle_burst;

  Rule rule("SEC." + name, eng->events().access_denied,
            Rule::Options{0, true, RuleClass::kActiveSecurity,
                          RuleGranularity::kGlobalized});
  rule.Then(
      "record denial; alert administrators and disable critical rules on "
      "breach",
      [eng, k, name, alert_key, alert_name, threshold, prefixes,
       disable_roles, throttle_rate, throttle_burst](RuleContext& c) {
        const Time now = eng->Now();
        // Per-principal reaction first: the keyed window answers "which
        // user is bursting", independently of the aggregate alert below.
        // On breach the offender's admission quota is clamped through the
        // hosting service's policer; the keyed window is cleared so the
        // same burst cannot re-trip the penalty.
        if (throttle_rate > 0) {
          const std::string& user = c.ParamString(k.user);
          if (!user.empty() &&
              eng->security().RecordDenialKeyed(name, user, now) >=
                  threshold) {
            eng->security().ClearKeyedWindow(name, user);
            SENTINEL_LOG(kWarning)
                << "active security throttling user '" << user << "' to "
                << throttle_rate << " req/s after denial burst ["
                << name << "]";
            eng->NotifyThrottle(user, throttle_rate, throttle_burst);
          }
        }
        const int count = eng->security().RecordDenial(name, now);
        if (count < threshold) return;
        eng->security().RaiseAlert(
            name, now, count,
            "denied access burst: op=" + c.ParamString(k.operation) +
                " obj=" + c.ParamString(k.object));
        int disabled = 0;
        for (const std::string& prefix : prefixes) {
          disabled += eng->rule_manager().DisableIf(
              [&prefix](const Rule& r) {
                return r.name().rfind(prefix, 0) == 0;
              });
        }
        if (disabled > 0) {
          SENTINEL_LOG(kWarning)
              << "active security disabled " << disabled
              << " rule(s) after alert [" << name << "]";
        }
        // The paper's "deactivate a set of roles" alert action.
        for (const RoleName& role : disable_roles) {
          if (eng->role_state().IsEnabled(role)) {
            DisableRole(eng, eng->symbols().Intern(role));
          }
        }
        (void)eng->detector().Raise(eng->events().security_alert,
                                    {{alert_key, Value(alert_name)}});
      });
  SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));
  return Status::OK();
}

// ====================================================== Audit directives

Status RuleGenerator::GenerateAuditRules(const Policy& policy,
                                         const AuditDirective& directive) {
  (void)policy;
  AuthorizationEngine* eng = engine_;
  const ElementKey key{ElementKind::kAudit, directive.name};

  auto boot_ev = eng->detector().DefinePrimitive(
      TemporalName(key, "ev.audit.boot." + directive.name));
  if (!boot_ev.ok()) return boot_ev.status();
  TrackTemporal(key, *boot_ev);
  auto stop_ev = eng->detector().DefinePrimitive(
      TemporalName(key, "ev.audit.stop." + directive.name));
  if (!stop_ev.ok()) return stop_ev.status();
  TrackTemporal(key, *stop_ev);
  auto tick_ev = eng->detector().DefinePeriodic(
      TemporalName(key, "ev.audit." + directive.name), *boot_ev,
      directive.interval, *stop_ev);
  if (!tick_ev.ok()) return tick_ev.status();
  TrackTemporal(key, *tick_ev);

  const std::string name = directive.name;
  Rule rule("AUD." + name, *tick_ev,
            Rule::Options{0, true, RuleClass::kActiveSecurity,
                          RuleGranularity::kGlobalized});
  rule.Then("generate report", [eng, name](RuleContext& c) {
    (void)c;
    eng->security().RecordAuditReport(name, eng->Now());
    SENTINEL_LOG(kInfo) << "audit report [" << name << "]: decisions="
                        << eng->decisions_made()
                        << " denials=" << eng->denials() << " sessions="
                        << eng->rbac().db().session_count();
  });
  SENTINEL_RETURN_IF_ERROR(AddRule(key, std::move(rule)));

  // Start the periodic stream.
  (void)eng->detector().Raise(*boot_ev, {});
  return Status::OK();
}

}  // namespace sentinel
