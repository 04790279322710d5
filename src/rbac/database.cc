#include "rbac/database.h"

#include <algorithm>

namespace sentinel {

namespace {

// Sorted-vector set operations for the small per-user / per-session role
// lists. Each reports whether it changed the list.
bool SortedInsert(std::vector<Symbol>& v, Symbol s) {
  auto it = std::lower_bound(v.begin(), v.end(), s);
  if (it != v.end() && *it == s) return false;
  v.insert(it, s);
  return true;
}

bool SortedErase(std::vector<Symbol>& v, Symbol s) {
  auto it = std::lower_bound(v.begin(), v.end(), s);
  if (it == v.end() || *it != s) return false;
  v.erase(it);
  return true;
}

}  // namespace

RbacDatabase::RbacDatabase(SymbolTable* symbols) {
  if (symbols == nullptr) {
    owned_symbols_ = std::make_unique<SymbolTable>();
    symbols_ = owned_symbols_.get();
  } else {
    symbols_ = symbols;
  }
}

Result<Symbol> RbacDatabase::InternName(const std::string& name) {
  const Symbol s = symbols_->Intern(name);
  if (!s.valid()) {
    return Status::ResourceExhausted("symbol table full, cannot register: " +
                                     name);
  }
  if (s.id() >= kind_bits_.size()) kind_bits_.resize(size_t{s.id()} + 1, 0);
  return s;
}

Status RbacDatabase::AddElement(const std::string& name, uint8_t bit,
                                const char* kind) {
  if (name.empty()) {
    return Status::InvalidArgument(std::string("empty ") + kind + " name");
  }
  if (HasKind(Find(name), bit)) {
    return Status::AlreadyExists(std::string(kind) + " exists: " + name);
  }
  SENTINEL_ASSIGN_OR_RETURN(s, InternName(name));
  kind_bits_[s.id()] |= bit;
  return Status::OK();
}

std::set<std::string> RbacDatabase::NamesOfKind(uint8_t bit) const {
  std::set<std::string> out;
  for (uint32_t id = 0; id < kind_bits_.size(); ++id) {
    if ((kind_bits_[id] & bit) != 0) out.insert(symbols_->NameOf(Symbol(id)));
  }
  return out;
}

Status RbacDatabase::AddUser(const UserName& user) {
  return AddElement(user, kUserBit, "user");
}

Status RbacDatabase::DeleteUser(const UserName& user) {
  const Symbol user_sym = Find(user);
  if (!HasUser(user_sym)) return Status::NotFound("no such user: " + user);
  ClearKind(user_sym, kUserBit);
  ++removals_;
  // Drop assignments.
  auto ua = ua_.find(user_sym.id());
  if (ua != ua_.end()) {
    for (Symbol role : ua->second) {
      auto holders = ua_inverse_.find(role.id());
      holders->second.erase(user_sym.id());
      if (holders->second.empty()) ua_inverse_.erase(holders);
    }
    ua_.erase(ua);
  }
  // NIST DeleteUser: the user's sessions are deleted as well.
  for (Symbol session : UserSessions(user_sym)) (void)DeleteSession(session);
  return Status::OK();
}

Status RbacDatabase::AddRole(const RoleName& role) {
  return AddElement(role, kRoleBit, "role");
}

Status RbacDatabase::DeleteRole(const RoleName& role) {
  const Symbol role_sym = Find(role);
  if (!HasRole(role_sym)) return Status::NotFound("no such role: " + role);
  ClearKind(role_sym, kRoleBit);
  ++removals_;
  auto holders = ua_inverse_.find(role_sym.id());
  if (holders != ua_inverse_.end()) {
    for (uint32_t user : holders->second) {
      auto ua = ua_.find(user);
      SortedErase(ua->second, role_sym);
      if (ua->second.empty()) ua_.erase(ua);
    }
    ua_inverse_.erase(holders);
  }
  pa_.erase(role_sym.id());
  for (auto& [id, state] : sessions_) {
    if (SortedErase(state.active_roles, role_sym)) {
      BumpSessionGeneration(Symbol(id));
    }
  }
  active_counts_.erase(role_sym.id());
  return Status::OK();
}

Status RbacDatabase::Assign(Symbol user, Symbol role,
                            const std::string& user_name,
                            const std::string& role_name) {
  if (!HasUser(user)) return Status::NotFound("no such user: " + user_name);
  if (!HasRole(role)) return Status::NotFound("no such role: " + role_name);
  if (!SortedInsert(ua_[user.id()], role)) {
    return Status::AlreadyExists(user_name + " already assigned to " +
                                 role_name);
  }
  ua_inverse_[role.id()].insert(user.id());
  return Status::OK();
}

Status RbacDatabase::Deassign(Symbol user, Symbol role,
                              const std::string& user_name,
                              const std::string& role_name) {
  auto ua = ua_.find(user.id());
  if (ua == ua_.end() || !SortedErase(ua->second, role)) {
    return Status::NotFound(user_name + " is not assigned to " + role_name);
  }
  if (ua->second.empty()) ua_.erase(ua);
  auto holders = ua_inverse_.find(role.id());
  holders->second.erase(user.id());
  if (holders->second.empty()) ua_inverse_.erase(holders);
  ++removals_;
  return Status::OK();
}

bool RbacDatabase::IsAssigned(Symbol user, Symbol role) const {
  auto it = ua_.find(user.id());
  return it != ua_.end() &&
         std::binary_search(it->second.begin(), it->second.end(), role);
}

std::set<RoleName> RbacDatabase::AssignedRoles(const UserName& user) const {
  std::set<RoleName> out;
  auto it = ua_.find(Find(user).id());
  if (it == ua_.end()) return out;
  for (Symbol role : it->second) out.insert(symbols_->NameOf(role));
  return out;
}

std::set<UserName> RbacDatabase::AssignedUsers(const RoleName& role) const {
  std::set<UserName> out;
  auto it = ua_inverse_.find(Find(role).id());
  if (it == ua_inverse_.end()) return out;
  for (uint32_t user : it->second) out.insert(symbols_->NameOf(Symbol(user)));
  return out;
}

Status RbacDatabase::Grant(const Permission& perm, const RoleName& role) {
  const Symbol role_sym = Find(role);
  if (!HasRole(role_sym)) return Status::NotFound("no such role: " + role);
  SENTINEL_ASSIGN_OR_RETURN(op, InternName(perm.operation));
  SENTINEL_ASSIGN_OR_RETURN(obj, InternName(perm.object));
  kind_bits_[op.id()] |= kOperationBit;
  kind_bits_[obj.id()] |= kObjectBit;
  if (!pa_[role_sym.id()].insert(PackPermission(op, obj)).second) {
    return Status::AlreadyExists(perm.ToString() + " already granted to " +
                                 role);
  }
  return Status::OK();
}

Status RbacDatabase::Revoke(const Permission& perm, const RoleName& role) {
  auto it = pa_.find(Find(role).id());
  if (it == pa_.end() ||
      it->second.erase(PackPermission(Find(perm.operation),
                                      Find(perm.object))) == 0) {
    return Status::NotFound(perm.ToString() + " not granted to " + role);
  }
  if (it->second.empty()) pa_.erase(it);
  ++removals_;
  return Status::OK();
}

bool RbacDatabase::IsGranted(Symbol op, Symbol obj, Symbol role) const {
  auto it = pa_.find(role.id());
  return it != pa_.end() && it->second.count(PackPermission(op, obj)) > 0;
}

std::set<Permission> RbacDatabase::RolePermissions(
    const RoleName& role) const {
  std::set<Permission> out;
  auto it = pa_.find(Find(role).id());
  if (it == pa_.end()) return out;
  for (uint64_t packed : it->second) {
    out.insert(Permission{
        symbols_->NameOf(Symbol(static_cast<uint32_t>(packed >> 32))),
        symbols_->NameOf(Symbol(static_cast<uint32_t>(packed)))});
  }
  return out;
}

Status RbacDatabase::CreateSession(const UserName& user,
                                   const SessionId& session) {
  if (!HasUser(user)) return Status::NotFound("no such user: " + user);
  if (session.empty()) return Status::InvalidArgument("empty session id");
  if (HasSession(session)) {
    return Status::AlreadyExists("session exists: " + session);
  }
  SENTINEL_ASSIGN_OR_RETURN(session_sym, InternName(session));
  return CreateSession(Find(user), session_sym);
}

Status RbacDatabase::CreateSession(Symbol user, Symbol session) {
  if (!HasUser(user)) return Status::NotFound("no such user");
  if (!session.valid()) return Status::InvalidArgument("invalid session id");
  if (!sessions_.emplace(session.id(), SessionState{user, {}}).second) {
    return Status::AlreadyExists("session exists");
  }
  user_sessions_[user.id()].push_back(session);
  BumpSessionGeneration(session);
  return Status::OK();
}

Status RbacDatabase::DeleteSession(Symbol session,
                                   const std::string& session_name) {
  auto it = sessions_.find(session.id());
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + session_name);
  }
  for (Symbol role : it->second.active_roles) ReleaseActive(role);
  auto owned = user_sessions_.find(it->second.user.id());
  std::erase(owned->second, session);
  if (owned->second.empty()) user_sessions_.erase(owned);
  sessions_.erase(it);
  BumpSessionGeneration(session);
  return Status::OK();
}

Result<Session> RbacDatabase::GetSession(const SessionId& session) const {
  const SessionState* state = GetSessionState(Find(session));
  if (state == nullptr) return Status::NotFound("no such session: " + session);
  Session out{session, symbols_->NameOf(state->user), {}};
  for (Symbol role : state->active_roles) {
    out.active_roles.insert(symbols_->NameOf(role));
  }
  return out;
}

const RbacDatabase::SessionState* RbacDatabase::GetSessionState(
    Symbol session) const {
  auto it = sessions_.find(session.id());
  return it == sessions_.end() ? nullptr : &it->second;
}

std::set<SessionId> RbacDatabase::UserSessions(const UserName& user) const {
  std::set<SessionId> out;
  for (Symbol session : UserSessions(Find(user))) {
    out.insert(symbols_->NameOf(session));
  }
  return out;
}

std::vector<Symbol> RbacDatabase::UserSessions(Symbol user) const {
  auto it = user_sessions_.find(user.id());
  return it == user_sessions_.end() ? std::vector<Symbol>() : it->second;
}

std::vector<Symbol> RbacDatabase::SessionsWithRole(Symbol role) const {
  std::vector<Symbol> out;
  for (const auto& [id, state] : sessions_) {
    if (state.IsActive(role)) out.push_back(Symbol(id));
  }
  return out;
}

Status RbacDatabase::AddSessionRole(Symbol session, Symbol role,
                                    const std::string& session_name,
                                    const std::string& role_name) {
  auto it = sessions_.find(session.id());
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + session_name);
  }
  if (!HasRole(role)) return Status::NotFound("no such role: " + role_name);
  if (!SortedInsert(it->second.active_roles, role)) {
    return Status::AlreadyExists(role_name + " already active in " +
                                 session_name);
  }
  ++active_counts_[role.id()];
  BumpSessionGeneration(session);
  return Status::OK();
}

Status RbacDatabase::DropSessionRole(Symbol session, Symbol role,
                                     const std::string& session_name,
                                     const std::string& role_name) {
  auto it = sessions_.find(session.id());
  if (it == sessions_.end()) {
    return Status::NotFound("no such session: " + session_name);
  }
  if (!SortedErase(it->second.active_roles, role)) {
    return Status::NotFound(role_name + " not active in " + session_name);
  }
  ReleaseActive(role);
  BumpSessionGeneration(session);
  return Status::OK();
}

bool RbacDatabase::IsSessionRoleActive(Symbol session, Symbol role) const {
  auto it = sessions_.find(session.id());
  return it != sessions_.end() && it->second.IsActive(role);
}

void RbacDatabase::ReleaseActive(Symbol role) {
  auto ac = active_counts_.find(role.id());
  if (ac != active_counts_.end() && --ac->second <= 0) active_counts_.erase(ac);
}

int RbacDatabase::ActiveSessionCount(Symbol role) const {
  auto it = active_counts_.find(role.id());
  return it == active_counts_.end() ? 0 : it->second;
}

std::vector<SessionId> RbacDatabase::SessionIds() const {
  std::vector<SessionId> out;
  out.reserve(sessions_.size());
  for (const auto& [id, state] : sessions_) {
    out.push_back(symbols_->NameOf(Symbol(id)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sentinel
