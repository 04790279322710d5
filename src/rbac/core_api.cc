#include "rbac/core_api.h"

namespace sentinel {

Status RbacSystem::DeleteRole(const RoleName& role) {
  SENTINEL_RETURN_IF_ERROR(db_.DeleteRole(role));
  hierarchy_.EraseRole(role);
  ssd_.EraseRole(role);
  dsd_.EraseRole(role);
  return Status::OK();
}

Status RbacSystem::AssignUser(const UserName& user, const RoleName& role) {
  if (!db_.HasUser(user)) return Status::NotFound("no such user: " + user);
  if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  if (db_.IsAssigned(user, role)) {
    return Status::AlreadyExists(user + " already assigned to " + role);
  }
  if (!SsdSatisfiedWith(user, role)) {
    return Status::ConstraintViolation(
        "assigning " + user + " to " + role +
        " violates a static separation-of-duty relation");
  }
  return db_.Assign(user, role);
}

Status RbacSystem::DeassignUser(const UserName& user, const RoleName& role) {
  SENTINEL_RETURN_IF_ERROR(db_.Deassign(user, role));
  // The standard drops an active role from the user's sessions when the
  // assignment that authorized it disappears — including juniors that
  // were only reachable through the removed assignment.
  DropUnauthorizedRoles(db_.UserSessions(symbols().Find(user)));
  return Status::OK();
}

Status RbacSystem::AddInheritance(const RoleName& senior,
                                  const RoleName& junior) {
  if (!db_.HasRole(senior)) {
    return Status::NotFound("no such role: " + senior);
  }
  if (!db_.HasRole(junior)) {
    return Status::NotFound("no such role: " + junior);
  }
  SENTINEL_RETURN_IF_ERROR(hierarchy_.AddInheritance(senior, junior));
  const std::string violation = FindSsdViolation();
  if (!violation.empty()) {
    // Roll back: the enlarged authorized sets broke an SSD relation.
    (void)hierarchy_.DeleteInheritance(senior, junior);
    return Status::ConstraintViolation("inheritance " + senior + " >>= " +
                                       junior + " rejected: " + violation);
  }
  return Status::OK();
}

Status RbacSystem::DeleteInheritance(const RoleName& senior,
                                     const RoleName& junior) {
  SENTINEL_RETURN_IF_ERROR(hierarchy_.DeleteInheritance(senior, junior));
  // Dropping inheritance can only shrink authorized sets; active roles
  // that lost their authorization are dropped from sessions.
  DropUnauthorizedRoles(db_.Sessions());
  return Status::OK();
}

void RbacSystem::DropUnauthorizedRoles(const std::vector<Symbol>& sessions) {
  for (Symbol session : sessions) {
    const RbacDatabase::SessionState* state = db_.GetSessionState(session);
    const std::vector<Symbol> active = state->active_roles;
    for (Symbol role : active) {
      if (!IsAuthorized(state->user, role)) {
        (void)db_.DropSessionRole(session, role);
      }
    }
  }
}

Status RbacSystem::CreateSsdSet(const std::string& name,
                                std::set<RoleName> roles, int n) {
  for (const RoleName& role : roles) {
    if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  }
  SENTINEL_RETURN_IF_ERROR(ssd_.CreateSet(name, std::move(roles), n));
  const std::string violation = FindSsdViolation();
  if (!violation.empty()) {
    (void)ssd_.DeleteSet(name);
    return Status::ConstraintViolation("SSD set " + name +
                                       " rejected: " + violation);
  }
  return Status::OK();
}

Status RbacSystem::AddSsdRoleMember(const std::string& name,
                                    const RoleName& role) {
  if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  SENTINEL_RETURN_IF_ERROR(ssd_.AddRoleMember(name, role));
  const std::string violation = FindSsdViolation();
  if (!violation.empty()) {
    (void)ssd_.DeleteRoleMember(name, role);
    return Status::ConstraintViolation("adding " + role + " to SSD set " +
                                       name + " rejected: " + violation);
  }
  return Status::OK();
}

Status RbacSystem::SetSsdCardinality(const std::string& name, int n) {
  SENTINEL_ASSIGN_OR_RETURN(set, ssd_.GetSet(name));
  const int old_n = set->n;
  SENTINEL_RETURN_IF_ERROR(ssd_.SetCardinality(name, n));
  const std::string violation = FindSsdViolation();
  if (!violation.empty()) {
    (void)ssd_.SetCardinality(name, old_n);
    return Status::ConstraintViolation("SSD cardinality change on " + name +
                                       " rejected: " + violation);
  }
  return Status::OK();
}

Status RbacSystem::CreateDsdSet(const std::string& name,
                                std::set<RoleName> roles, int n) {
  for (const RoleName& role : roles) {
    if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  }
  SENTINEL_RETURN_IF_ERROR(dsd_.CreateSet(name, std::move(roles), n));
  const std::string session = FindDsdViolation();
  if (!session.empty()) {
    (void)dsd_.DeleteSet(name);
    return Status::ConstraintViolation("DSD set " + name +
                                       " rejected: session " + session +
                                       " already violates it");
  }
  return Status::OK();
}

Status RbacSystem::InstallSsdSet(const std::string& name,
                                 std::set<RoleName> roles, int n) {
  for (const RoleName& role : roles) {
    if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  }
  return ssd_.CreateSet(name, std::move(roles), n);
}

Status RbacSystem::InstallDsdSet(const std::string& name,
                                 std::set<RoleName> roles, int n) {
  for (const RoleName& role : roles) {
    if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  }
  return dsd_.CreateSet(name, std::move(roles), n);
}

Status RbacSystem::AddDsdRoleMember(const std::string& name,
                                    const RoleName& role) {
  if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  SENTINEL_RETURN_IF_ERROR(dsd_.AddRoleMember(name, role));
  const std::string session = FindDsdViolation();
  if (!session.empty()) {
    (void)dsd_.DeleteRoleMember(name, role);
    return Status::ConstraintViolation(
        "adding " + role + " to DSD set " + name + " rejected: session " +
        session + " would violate it");
  }
  return Status::OK();
}

Status RbacSystem::SetDsdCardinality(const std::string& name, int n) {
  SENTINEL_ASSIGN_OR_RETURN(set, dsd_.GetSet(name));
  const int old_n = set->n;
  SENTINEL_RETURN_IF_ERROR(dsd_.SetCardinality(name, n));
  const std::string session = FindDsdViolation();
  if (!session.empty()) {
    (void)dsd_.SetCardinality(name, old_n);
    return Status::ConstraintViolation("DSD cardinality change on " + name +
                                       " rejected: session " + session +
                                       " would violate it");
  }
  return Status::OK();
}

Status RbacSystem::AddActiveRole(const UserName& user,
                                 const SessionId& session,
                                 const RoleName& role) {
  if (!db_.HasUser(user)) return Status::NotFound("no such user: " + user);
  SENTINEL_ASSIGN_OR_RETURN(info, db_.GetSession(session));
  if (info.user != user) {
    return Status::FailedPrecondition("session " + session +
                                      " is not owned by " + user);
  }
  if (!db_.HasRole(role)) return Status::NotFound("no such role: " + role);
  if (db_.IsSessionRoleActive(session, role)) {
    return Status::AlreadyExists(role + " already active in " + session);
  }
  if (!IsAuthorized(user, role)) {
    return Status::ConstraintViolation(user + " is not authorized for " +
                                       role);
  }
  if (!DsdSatisfiedWith(session, role)) {
    return Status::ConstraintViolation(
        "activating " + role + " in " + session +
        " violates a dynamic separation-of-duty relation");
  }
  return db_.AddSessionRole(session, role);
}

Status RbacSystem::DropActiveRole(const UserName& user,
                                  const SessionId& session,
                                  const RoleName& role) {
  SENTINEL_ASSIGN_OR_RETURN(info, db_.GetSession(session));
  if (info.user != user) {
    return Status::FailedPrecondition("session " + session +
                                      " is not owned by " + user);
  }
  return db_.DropSessionRole(session, role);
}

Result<bool> RbacSystem::CheckAccess(const SessionId& session,
                                     const OperationName& op,
                                     const ObjectName& obj) const {
  const Symbol session_sym = symbols().Find(session);
  if (!db_.HasSession(session_sym)) {
    return Status::NotFound("no such session: " + session);
  }
  return CheckAccess(session_sym, symbols().Find(op), symbols().Find(obj));
}

Result<bool> RbacSystem::CheckAccess(Symbol session, Symbol op,
                                     Symbol obj) const {
  const RbacDatabase::SessionState* state = db_.GetSessionState(session);
  if (state == nullptr) {
    return Status::NotFound("no such session: " +
                            db_.symbols().NameOf(session));
  }
  if (hierarchy_.empty()) {
    for (Symbol role : state->active_roles) {
      if (db_.IsGranted(op, obj, role)) return true;
    }
    return false;
  }
  // An active role conveys its own permissions and its juniors'.
  for (Symbol role : state->active_roles) {
    for (Symbol source : Closure(role, /*juniors=*/true)) {
      if (db_.IsGranted(op, obj, source)) return true;
    }
  }
  return false;
}

std::set<UserName> RbacSystem::AuthorizedUsers(const RoleName& role) const {
  std::set<UserName> out;
  for (const RoleName& senior : hierarchy_.SeniorsOf(role)) {
    const auto& assigned = db_.AssignedUsers(senior);
    out.insert(assigned.begin(), assigned.end());
  }
  return out;
}

std::set<RoleName> RbacSystem::AuthorizedRoles(const UserName& user) const {
  std::set<RoleName> out;
  for (const RoleName& assigned : db_.AssignedRoles(user)) {
    const std::set<RoleName> juniors = hierarchy_.JuniorsOf(assigned);
    out.insert(juniors.begin(), juniors.end());
  }
  return out;
}

std::set<Permission> RbacSystem::RolePermissions(const RoleName& role,
                                                 bool inherited) const {
  if (!inherited) return db_.RolePermissions(role);
  std::set<Permission> out;
  for (const RoleName& source : hierarchy_.JuniorsOf(role)) {
    const auto& perms = db_.RolePermissions(source);
    out.insert(perms.begin(), perms.end());
  }
  return out;
}

std::set<Permission> RbacSystem::UserPermissions(const UserName& user) const {
  std::set<Permission> out;
  for (const RoleName& role : AuthorizedRoles(user)) {
    const auto& perms = db_.RolePermissions(role);
    out.insert(perms.begin(), perms.end());
  }
  return out;
}

std::set<RoleName> RbacSystem::SessionRoles(const SessionId& session) const {
  auto info = db_.GetSession(session);
  if (!info.ok()) return {};
  return info->active_roles;
}

std::set<Permission> RbacSystem::SessionPermissions(
    const SessionId& session) const {
  std::set<Permission> out;
  auto info = db_.GetSession(session);
  if (!info.ok()) return out;
  for (const RoleName& role : info->active_roles) {
    const std::set<Permission> perms = RolePermissions(role, true);
    out.insert(perms.begin(), perms.end());
  }
  return out;
}

std::set<OperationName> RbacSystem::RoleOperationsOnObject(
    const RoleName& role, const ObjectName& obj) const {
  std::set<OperationName> out;
  for (const Permission& perm : RolePermissions(role, true)) {
    if (perm.object == obj) out.insert(perm.operation);
  }
  return out;
}

std::set<OperationName> RbacSystem::UserOperationsOnObject(
    const UserName& user, const ObjectName& obj) const {
  std::set<OperationName> out;
  for (const Permission& perm : UserPermissions(user)) {
    if (perm.object == obj) out.insert(perm.operation);
  }
  return out;
}

bool RbacSystem::IsAuthorized(Symbol user, Symbol role) const {
  if (db_.IsAssigned(user, role)) return true;
  if (hierarchy_.empty()) return false;
  for (Symbol senior : Closure(role, /*juniors=*/false)) {
    if (db_.IsAssigned(user, senior)) return true;
  }
  return false;
}

bool RbacSystem::DsdSatisfiedWith(Symbol session, Symbol role) const {
  const RbacDatabase::SessionState* state = db_.GetSessionState(session);
  if (state == nullptr) return false;
  return dsd_.size() == 0 || DsdHolds(*state, role);
}

bool RbacSystem::DsdHolds(const RbacDatabase::SessionState& state,
                          Symbol extra) const {
  // Fewer than n members of each set may be active, `extra` included.
  for (const SodSet* set : dsd_.AllSets()) {
    int active = 0;
    for (const RoleName& member : set->roles) {
      const Symbol role = symbols().Find(member);
      if ((extra.valid() && role == extra) || state.IsActive(role)) ++active;
    }
    if (active >= set->n) return false;
  }
  return true;
}

std::string RbacSystem::FindDsdViolation() const {
  std::vector<Symbol> offenders;
  for (Symbol session : db_.Sessions()) {
    if (!DsdHolds(*db_.GetSessionState(session), Symbol())) {
      offenders.push_back(session);
    }
  }
  if (offenders.empty()) return "";
  return symbols().NameOf(symbols().ByName(std::move(offenders)).front());
}

bool RbacSystem::SsdSatisfiedWith(const UserName& user,
                                  const RoleName& role) const {
  std::set<RoleName> hypothetical = AuthorizedRoles(user);
  const std::set<RoleName> juniors = hierarchy_.JuniorsOf(role);
  hypothetical.insert(juniors.begin(), juniors.end());
  return ssd_.Satisfies(hypothetical);
}

const std::vector<Symbol>& RbacSystem::Closure(Symbol role,
                                               bool juniors) const {
  if (cache_epoch_ != hierarchy_.epoch()) {
    juniors_cache_.clear();
    seniors_cache_.clear();
    cache_epoch_ = hierarchy_.epoch();
  }
  auto& cache = juniors ? juniors_cache_ : seniors_cache_;
  auto it = cache.find(role.id());
  if (it != cache.end()) return it->second;
  const SymbolTable& syms = db_.symbols();
  const RoleName& name = syms.NameOf(role);
  std::vector<Symbol> closure;
  for (const RoleName& reached : juniors ? hierarchy_.JuniorsOf(name)
                                         : hierarchy_.SeniorsOf(name)) {
    // Registered roles are interned at AddRole; Find never misses here.
    closure.push_back(syms.Find(reached));
  }
  return cache.emplace(role.id(), std::move(closure)).first->second;
}

std::string RbacSystem::FindSsdViolation() const {
  if (ssd_.size() == 0) return "";
  // A user without an assignment has no authorized role to violate a set
  // with, so only assigned users are visited, in name order.
  for (Symbol user : symbols().ByName(db_.UsersWithAssignments())) {
    const UserName& name = symbols().NameOf(user);
    const std::string set_name = ssd_.FirstViolated(AuthorizedRoles(name));
    if (!set_name.empty()) {
      return "user " + name + " would violate SSD set " + set_name;
    }
  }
  return "";
}

}  // namespace sentinel
