#include "baseline/direct_enforcer.h"

#include <algorithm>

namespace sentinel {

Status DirectEnforcer::LoadPolicy(const Policy& policy) {
  if (policy_loaded_) {
    return Status::FailedPrecondition(
        "a policy is already loaded; use ApplyPolicyUpdate");
  }
  SENTINEL_RETURN_IF_ERROR(policy.Validate());
  SENTINEL_RETURN_IF_ERROR(Reconcile(Policy(), policy));
  policy_ = policy;
  policy_loaded_ = true;
  RebuildBoundaries();
  return Status::OK();
}

Status DirectEnforcer::ApplyPolicyUpdate(const Policy& updated) {
  if (!policy_loaded_) {
    return Status::FailedPrecondition("no policy loaded yet");
  }
  SENTINEL_RETURN_IF_ERROR(updated.Validate());
  // Mirror of the engine's regeneration side effects: pending duration
  // expiries of affected roles are dropped (superseded PLUS events are
  // deactivated over there).
  const std::set<RoleName> affected = Policy::AffectedRoles(policy_, updated);
  SENTINEL_RETURN_IF_ERROR(Reconcile(policy_, updated));
  policy_ = updated;
  for (const SessionId& session : rbac_.db().SessionIds()) {
    auto info = rbac_.db().GetSession(session);
    if (!info.ok()) continue;
    for (const RoleName& role : info->active_roles) {
      if (affected.count(role) > 0) CancelExpiries(session, role);
    }
  }
  RebuildBoundaries();
  return Status::OK();
}

Status DirectEnforcer::Reconcile(const Policy& from, const Policy& to) {
  // Same ordering as the engine's ApplyBaseDelta — removals first, then
  // adds, then constraints. The adds are best-effort exactly like the
  // engine's: an entry the live runtime state refuses is skipped (the
  // runtime constraint wins), so the oracle stays in lockstep with a
  // service whose commit can never fail on runtime conflicts.
  const auto best_effort = [](const Status&) {};
  for (const auto& [name, set] : from.ssd_sets()) {
    auto it = to.ssd_sets().find(name);
    if (it == to.ssd_sets().end() || !(it->second == set)) {
      (void)rbac_.DeleteSsdSet(name);
    }
  }
  for (const auto& [name, set] : from.dsd_sets()) {
    auto it = to.dsd_sets().find(name);
    if (it == to.dsd_sets().end() || !(it->second == set)) {
      (void)rbac_.DeleteDsdSet(name);
    }
  }
  for (const auto& [name, spec] : from.users()) {
    auto it = to.users().find(name);
    for (const RoleName& role : spec.assignments) {
      if (it == to.users().end() || it->second.assignments.count(role) == 0) {
        (void)rbac_.DeassignUser(name, role);
      }
    }
  }
  for (const auto& [name, spec] : from.roles()) {
    auto it = to.roles().find(name);
    for (const Permission& perm : spec.permissions) {
      if (it == to.roles().end() ||
          it->second.permissions.count(perm) == 0) {
        (void)rbac_.RevokePermission(perm.operation, perm.object, name);
      }
    }
    for (const RoleName& junior : spec.juniors) {
      if (it == to.roles().end() || it->second.juniors.count(junior) == 0) {
        (void)rbac_.DeleteInheritance(name, junior);
      }
    }
  }
  for (const auto& [name, spec] : from.roles()) {
    if (to.roles().count(name) == 0) {
      (void)rbac_.DeleteRole(name);
      state_.EraseRole(name);
    }
  }
  for (const auto& [name, spec] : from.users()) {
    if (to.users().count(name) == 0) (void)rbac_.DeleteUser(name);
  }
  for (const auto& [name, spec] : to.users()) {
    if (!rbac_.db().HasUser(name)) {
      best_effort(rbac_.AddUser(name));
    }
  }
  for (const auto& [name, spec] : to.roles()) {
    if (!rbac_.db().HasRole(name)) {
      best_effort(rbac_.AddRole(name));
    }
  }
  for (const auto& [name, spec] : to.roles()) {
    for (const RoleName& junior : spec.juniors) {
      if (!rbac_.hierarchy().ImmediateJuniors(name).count(junior)) {
        best_effort(rbac_.AddInheritance(name, junior));
      }
    }
    for (const Permission& perm : spec.permissions) {
      if (!rbac_.db().IsGranted(perm, name)) {
        best_effort(
            rbac_.GrantPermission(perm.operation, perm.object, name));
      }
    }
  }
  for (const auto& [name, spec] : to.users()) {
    for (const RoleName& role : spec.assignments) {
      if (!rbac_.db().IsAssigned(name, role)) {
        best_effort(rbac_.AssignUser(name, role));
      }
    }
  }
  for (const auto& [name, set] : to.ssd_sets()) {
    if (!rbac_.ssd().GetSet(name).ok()) {
      best_effort(rbac_.InstallSsdSet(name, set.roles, set.n));
    }
  }
  for (const auto& [name, set] : to.dsd_sets()) {
    if (!rbac_.dsd().GetSet(name).ok()) {
      best_effort(rbac_.InstallDsdSet(name, set.roles, set.n));
    }
  }
  privacy_ = PrivacyStore();
  for (const PurposeSpec& purpose : to.purposes()) {
    SENTINEL_RETURN_IF_ERROR(
        privacy_.AddPurpose(purpose.name, purpose.parent));
  }
  for (const ObjectPolicySpec& spec : to.object_policies()) {
    SENTINEL_RETURN_IF_ERROR(
        privacy_.SetObjectPolicy(spec.object, spec.purposes));
  }
  const Time now = Now();
  for (const auto& [name, spec] : to.roles()) {
    if (spec.enabling_window.has_value()) {
      if (spec.enabling_window->Contains(now)) {
        state_.Enable(name);
      } else {
        state_.Disable(name);
        DeactivateAllInstances(name);
      }
    } else {
      auto it = from.roles().find(name);
      const bool had_window =
          it != from.roles().end() && it->second.enabling_window.has_value();
      if (had_window) state_.Enable(name);
    }
  }
  return Status::OK();
}

void DirectEnforcer::RebuildBoundaries() {
  boundaries_ = {};
  const Time now = Now();
  for (const auto& [name, spec] : policy_.roles()) {
    if (!spec.enabling_window.has_value()) continue;
    const PeriodicExpression& window = *spec.enabling_window;
    if (auto start = window.NextWindowStart(now)) {
      boundaries_.push(Boundary{*start, next_seq_++, name, true});
    }
    if (auto end = window.NextWindowEnd(now)) {
      boundaries_.push(Boundary{*end, next_seq_++, name, false});
    }
  }
}

Decision DirectEnforcer::Finish(Decision decision) {
  ++decisions_made_;
  if (!decision.allowed) ++denials_;
  return decision;
}

Decision DirectEnforcer::CreateSession(const UserName& user,
                                       const SessionId& session) {
  Decision d;
  if (rbac_.db().HasUser(user) && !session.empty() &&
      !rbac_.db().HasSession(session)) {
    (void)rbac_.db().CreateSession(user, session);
    d.Allow("ADM.createSession");
  } else {
    d.Deny("ADM.createSession", "Cannot Create Session");
  }
  return Finish(d);
}

Decision DirectEnforcer::DeleteSession(const SessionId& session) {
  Decision d;
  auto info = rbac_.db().GetSession(session);
  if (!info.ok()) {
    d.Deny("ADM.deleteSession", "No Such Session");
    return Finish(d);
  }
  // GetSession returns a copy, so the drops cannot disturb this loop.
  for (const RoleName& role : info->active_roles) {
    DropWithCascades(info->user, session, role);
  }
  (void)rbac_.db().DeleteSession(session);
  d.Allow("ADM.deleteSession");
  return Finish(d);
}

Decision DirectEnforcer::AddActiveRole(const UserName& user,
                                       const SessionId& session,
                                       const RoleName& role) {
  Decision d;
  // Roles outside the policy have no activation rule: default deny.
  if (!policy_.HasRole(role)) {
    d.Deny("", "Permission Denied");
    return Finish(d);
  }
  const RoleSpec& spec = policy_.roles().at(role);
  const bool tx_dependent = policy_.RoleIsTransactionDependent(role);

  // The AAR/ASEC condition chain, in the generated rules' order.
  auto session_info = rbac_.db().GetSession(session);
  const bool base_ok =
      rbac_.db().HasUser(user) && session_info.ok() &&
      session_info->user == user &&
      !rbac_.db().IsSessionRoleActive(session, role) &&
      (policy_.RoleInHierarchy(role) ? rbac_.IsAuthorized(user, role)
                                     : rbac_.db().IsAssigned(user, role)) &&
      (!policy_.RoleInDsd(role) || rbac_.DsdSatisfiedWith(session, role)) &&
      ContextSatisfied(spec.required_context) && state_.IsEnabled(role);

  bool ok = base_ok;
  std::string deny_reason = "Access Denied Cannot Activate";
  if (tx_dependent) {
    deny_reason = "Permission Denied";
    // The transaction window is open iff the controller is active
    // somewhere (ASEC window invariant).
    for (const TransactionActivation& tx : policy_.transactions()) {
      if (tx.dependent != role) continue;
      if (rbac_.db().ActiveSessionCount(tx.controller) == 0) ok = false;
    }
  } else if (ok && !spec.prerequisites.empty()) {
    for (const RoleName& prereq : spec.prerequisites) {
      if (!rbac_.db().IsSessionRoleActive(session, prereq)) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    d.Deny(tx_dependent ? "ASEC" : "AAR." + role, deny_reason);
    return Finish(d);
  }

  (void)rbac_.db().AddSessionRole(session, role);

  // Post-activation compensating checks, in rule-firing order: CC first
  // (role-filter rules precede user-filter rules), then UAC.
  if (spec.activation_cardinality > 0 &&
      rbac_.db().ActiveSessionCount(role) > spec.activation_cardinality) {
    DropWithCascades(user, session, role);
    d.Deny("CC." + role, "Maximum Number of Roles Reached");
    return Finish(d);
  }
  auto user_it = policy_.users().find(user);
  if (user_it != policy_.users().end() &&
      user_it->second.max_active_roles > 0 &&
      CountUserActiveRoles(user) > user_it->second.max_active_roles) {
    DropWithCascades(user, session, role);
    d.Deny("UAC." + user, "Maximum Number of Roles Reached");
    return Finish(d);
  }

  // Duration bounds: one expiry per applicable constraint (role-level,
  // then user-level), the engine's PLUS-per-filter analog.
  const uint64_t generation = ++activation_gen_[{session, role}];
  if (spec.max_activation > 0) {
    expiries_.push(Expiry{Now() + spec.max_activation, next_seq_++, user,
                          session, role, generation});
  }
  if (user_it != policy_.users().end()) {
    auto dur = user_it->second.role_durations.find(role);
    if (dur != user_it->second.role_durations.end()) {
      expiries_.push(Expiry{Now() + dur->second, next_seq_++, user, session,
                            role, generation});
    }
  }

  d.Allow(tx_dependent ? "ASEC" : "AAR." + role);
  return Finish(d);
}

Decision DirectEnforcer::DropActiveRole(const UserName& user,
                                        const SessionId& session,
                                        const RoleName& role) {
  Decision d;
  auto info = rbac_.db().GetSession(session);
  if (info.ok() && info->user == user &&
      rbac_.db().IsSessionRoleActive(session, role)) {
    DropWithCascades(user, session, role);
    d.Allow("GLOB.drop");
  } else {
    d.Deny("GLOB.drop", "Cannot Deactivate");
  }
  return Finish(d);
}

Decision DirectEnforcer::CheckAccess(const SessionId& session,
                                     const OperationName& op,
                                     const ObjectName& obj,
                                     const PurposeName& purpose) {
  Decision d;
  auto has_perm = rbac_.CheckAccess(session, op, obj);
  const bool ok = rbac_.db().HasSession(session) &&
                  rbac_.db().HasOperation(op) && rbac_.db().HasObject(obj) &&
                  has_perm.ok() && *has_perm &&
                  privacy_.AccessPermitted(obj, purpose);
  if (ok) {
    d.Allow("CA.global");
  } else {
    d.Deny("CA.global", "Permission Denied");
  }
  return Finish(d);
}

Decision DirectEnforcer::AssignUser(const UserName& user,
                                    const RoleName& role) {
  Decision d;
  if (rbac_.db().HasUser(user) && rbac_.db().HasRole(role) &&
      !rbac_.db().IsAssigned(user, role) &&
      rbac_.SsdSatisfiedWith(user, role)) {
    (void)rbac_.db().Assign(user, role);
    d.Allow("ADM.assign");
  } else {
    d.Deny("ADM.assign", "Cannot Assign");
  }
  return Finish(d);
}

Decision DirectEnforcer::DeassignUser(const UserName& user,
                                      const RoleName& role) {
  Decision d;
  if (rbac_.db().HasUser(user) && rbac_.db().IsAssigned(user, role)) {
    (void)rbac_.db().Deassign(user, role);
    for (const SessionId& session : rbac_.db().UserSessions(user)) {
      auto info = rbac_.db().GetSession(session);
      if (!info.ok()) continue;
      for (const RoleName& r : info->active_roles) {
        if (!rbac_.IsAuthorized(user, r)) {
          DropWithCascades(user, session, r);
        }
      }
    }
    d.Allow("ADM.deassign");
  } else {
    d.Deny("ADM.deassign", "Cannot Deassign");
  }
  return Finish(d);
}

Decision DirectEnforcer::EnableRole(const RoleName& role) {
  Decision d;
  if (!rbac_.db().HasRole(role)) {
    d.Deny("GLOB.enable", "No Such Role");
    return Finish(d);
  }
  if (IsCfdTrigger(role)) {
    // CFD1: the companion must come along.
    const CfdPair* pair = nullptr;
    for (const CfdPair& p : policy_.cfd_pairs()) {
      if (p.trigger == role) {
        pair = &p;
        break;
      }
    }
    const bool companion_ok = state_.IsEnabled(pair->companion) ||
                              EnableTsodOk(pair->companion);
    if (EnableTsodOk(role) && companion_ok) {
      state_.Enable(role);
      if (!state_.IsEnabled(pair->companion)) {
        state_.Enable(pair->companion);
      }
      d.Allow("CFD." + role + ".enable");
    } else {
      d.Deny("CFD." + role + ".enable", "Cannot Enable " + role);
    }
    return Finish(d);
  }
  if (EnableTsodOk(role)) {
    state_.Enable(role);
    d.Allow("GLOB.enable");
  } else {
    d.Deny("GLOB.enable", "Denied by Enabling-Time SoD");
  }
  return Finish(d);
}

Decision DirectEnforcer::DisableRole(const RoleName& role) {
  Decision d;
  if (!rbac_.db().HasRole(role)) {
    d.Deny("GLOB.disable", "No Such Role");
    return Finish(d);
  }
  const bool guarded = TsodGuardedNow(role, TimeSodKind::kDisabling);
  if (guarded && !DisableTsodOk(role)) {
    d.Deny("TSOD", "Denied as Counter-Role Already Disabled");
    return Finish(d);
  }
  DisableRoleInternal(role);
  // CFD2: disabling a companion pulls its trigger down (single level,
  // mirroring the engine's filtered-event cascade).
  for (const CfdPair& pair : policy_.cfd_pairs()) {
    if (pair.companion == role && state_.IsEnabled(pair.trigger)) {
      DisableRoleInternal(pair.trigger);
    }
  }
  d.Allow(guarded ? "TSOD" : "GLOB.disable");
  return Finish(d);
}

void DirectEnforcer::DisableRoleInternal(const RoleName& role) {
  state_.Disable(role);
  DeactivateAllInstances(role);
}

void DirectEnforcer::AdvanceTo(Time t) {
  for (;;) {
    // Next due item across both temporal streams.
    const bool has_expiry = !expiries_.empty() && expiries_.top().when <= t;
    const bool has_boundary =
        !boundaries_.empty() && boundaries_.top().when <= t;
    if (!has_expiry && !has_boundary) break;
    bool take_boundary;
    if (has_expiry && has_boundary) {
      const Time et = expiries_.top().when;
      const Time bt = boundaries_.top().when;
      take_boundary =
          bt < et ||
          (bt == et && boundaries_.top().seq < expiries_.top().seq);
    } else {
      take_boundary = has_boundary;
    }
    if (take_boundary) {
      const Boundary boundary = boundaries_.top();
      boundaries_.pop();
      clock_->SetTime(boundary.when);
      auto spec_it = policy_.roles().find(boundary.role);
      if (spec_it != policy_.roles().end() &&
          spec_it->second.enabling_window.has_value()) {
        if (boundary.is_start) {
          state_.Enable(boundary.role);
        } else {
          state_.Disable(boundary.role);
          DeactivateAllInstances(boundary.role);
        }
        // Schedule the next same-kind boundary.
        const PeriodicExpression& window = *spec_it->second.enabling_window;
        const auto next = boundary.is_start
                              ? window.NextWindowStart(boundary.when)
                              : window.NextWindowEnd(boundary.when);
        if (next.has_value()) {
          boundaries_.push(Boundary{*next, next_seq_++, boundary.role,
                                    boundary.is_start});
        }
      }
    } else {
      const Expiry expiry = expiries_.top();
      expiries_.pop();
      clock_->SetTime(expiry.when);
      auto gen = activation_gen_.find({expiry.session, expiry.role});
      if (gen == activation_gen_.end() || gen->second != expiry.generation) {
        continue;  // Stale: dropped or re-activated since scheduling.
      }
      if (rbac_.db().IsSessionRoleActive(expiry.session, expiry.role)) {
        DropWithCascades(expiry.user, expiry.session, expiry.role);
      }
    }
  }
  clock_->SetTime(t);
}

void DirectEnforcer::SetContext(const std::string& key,
                                const std::string& value) {
  context_[key] = value;
  // Mirror of the generated CTX rules: roles whose constraints broke are
  // deactivated everywhere, in role order.
  for (const auto& [name, spec] : policy_.roles()) {
    if (spec.required_context.empty()) continue;
    if (!ContextSatisfied(spec.required_context)) {
      DeactivateAllInstances(name);
    }
  }
}

const std::string& DirectEnforcer::ContextValue(
    const std::string& key) const {
  static const std::string* kEmpty = new std::string();
  auto it = context_.find(key);
  return it == context_.end() ? *kEmpty : it->second;
}

bool DirectEnforcer::ContextSatisfied(
    const std::map<std::string, std::string>& required) const {
  for (const auto& [key, value] : required) {
    auto it = context_.find(key);
    if (it == context_.end() || it->second != value) return false;
  }
  return true;
}

void DirectEnforcer::DropWithCascades(const UserName& user,
                                      const SessionId& session,
                                      const RoleName& role) {
  if (!rbac_.db().DropSessionRole(session, role).ok()) return;
  CancelExpiries(session, role);
  // Transaction cascade: last controller instance gone -> dependents fall.
  for (const TransactionActivation& tx : policy_.transactions()) {
    if (tx.controller != role) continue;
    if (rbac_.db().ActiveSessionCount(tx.controller) == 0) {
      DeactivateAllInstances(tx.dependent);
    }
  }
  (void)user;
}

void DirectEnforcer::DeactivateAllInstances(const RoleName& role) {
  for (const SessionId& session : rbac_.db().SessionIds()) {
    auto info = rbac_.db().GetSession(session);
    if (!info.ok()) continue;
    if (info->active_roles.count(role) > 0) {
      DropWithCascades(info->user, session, role);
    }
  }
}

void DirectEnforcer::CancelExpiries(const SessionId& session,
                                    const RoleName& role) {
  auto it = activation_gen_.find({session, role});
  if (it != activation_gen_.end()) ++it->second;
}

int DirectEnforcer::CountUserActiveRoles(const UserName& user) const {
  int count = 0;
  for (const SessionId& session : rbac_.db().UserSessions(user)) {
    auto info = rbac_.db().GetSession(session);
    if (info.ok()) count += static_cast<int>(info->active_roles.size());
  }
  return count;
}

bool DirectEnforcer::TsodGuardedNow(const RoleName& role,
                                    TimeSodKind kind) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_.time_sods()) {
    if (constraint.kind != kind) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (constraint.period.Contains(now)) return true;
  }
  return false;
}

bool DirectEnforcer::DisableTsodOk(const RoleName& role) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_.time_sods()) {
    if (constraint.kind != TimeSodKind::kDisabling) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (!constraint.period.Contains(now)) continue;
    bool counter_enabled = false;
    for (const RoleName& other : constraint.roles) {
      if (other != role && state_.IsEnabled(other)) {
        counter_enabled = true;
        break;
      }
    }
    if (!counter_enabled) return false;
  }
  return true;
}

bool DirectEnforcer::EnableTsodOk(const RoleName& role) const {
  const Time now = Now();
  for (const TimeSod& constraint : policy_.time_sods()) {
    if (constraint.kind != TimeSodKind::kEnabling) continue;
    if (constraint.roles.count(role) == 0) continue;
    if (!constraint.period.Contains(now)) continue;
    bool counter_disabled = false;
    for (const RoleName& other : constraint.roles) {
      if (other != role && !state_.IsEnabled(other)) {
        counter_disabled = true;
        break;
      }
    }
    if (!counter_disabled) return false;
  }
  return true;
}

bool DirectEnforcer::IsCfdTrigger(const RoleName& role) const {
  for (const CfdPair& pair : policy_.cfd_pairs()) {
    if (pair.trigger == role) return true;
  }
  return false;
}

}  // namespace sentinel
