#ifndef SENTINELPP_RBAC_CORE_API_H_
#define SENTINELPP_RBAC_CORE_API_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rbac/database.h"
#include "rbac/hierarchy.h"
#include "rbac/sod.h"
#include "rbac/types.h"

namespace sentinel {

/// \brief The NIST RBAC reference model (ANSI INCITS 359-2004): core,
/// general role hierarchies, SSD and DSD relations, with the standard's
/// administrative commands, system functions and review functions.
///
/// This class enforces constraints with straight-line code. It serves two
/// purposes in the reproduction: (1) it is the mutable object base the
/// OWTE engine's generated rules read and update through fine-grained
/// predicates/mutators, and (2) wrapped by baseline::DirectEnforcer it is
/// the hand-coded comparator the paper argues rule generation replaces.
class RbacSystem {
 public:
  /// `symbols` is shared with the owning engine (see RbacDatabase); null
  /// gives the database a private table.
  explicit RbacSystem(SymbolTable* symbols = nullptr)
      : db_(symbols), ssd_("SSD"), dsd_("DSD") {}

  RbacSystem(const RbacSystem&) = delete;
  RbacSystem& operator=(const RbacSystem&) = delete;

  // ------------------------------------- Administrative commands (users)

  Status AddUser(const UserName& user) { return db_.AddUser(user); }
  Status DeleteUser(const UserName& user) { return db_.DeleteUser(user); }
  Status AddRole(const RoleName& role) { return db_.AddRole(role); }
  /// Removes the role everywhere: UA, PA, sessions, hierarchy, SoD sets.
  Status DeleteRole(const RoleName& role);

  /// Assigns `user` to `role`; rejected when the user's authorized role
  /// set would violate an SSD relation (hierarchy-aware, per the standard).
  Status AssignUser(const UserName& user, const RoleName& role);
  Status DeassignUser(const UserName& user, const RoleName& role);

  Status GrantPermission(const OperationName& op, const ObjectName& obj,
                         const RoleName& role) {
    return db_.Grant(Permission{op, obj}, role);
  }
  Status RevokePermission(const OperationName& op, const ObjectName& obj,
                          const RoleName& role) {
    return db_.Revoke(Permission{op, obj}, role);
  }

  // --------------------------------------------- Hierarchy administration

  /// Adds senior >>= junior; rejected on cycles and when any user's
  /// enlarged authorized role set would violate an SSD relation.
  Status AddInheritance(const RoleName& senior, const RoleName& junior);
  Status DeleteInheritance(const RoleName& senior, const RoleName& junior);

  // --------------------------------------------------- SoD administration

  /// Creates an SSD relation; rejected when an existing user's authorized
  /// roles already violate it.
  Status CreateSsdSet(const std::string& name, std::set<RoleName> roles,
                      int n);
  Status DeleteSsdSet(const std::string& name) { return ssd_.DeleteSet(name); }
  Status AddSsdRoleMember(const std::string& name, const RoleName& role);
  Status DeleteSsdRoleMember(const std::string& name, const RoleName& role) {
    return ssd_.DeleteRoleMember(name, role);
  }
  Status SetSsdCardinality(const std::string& name, int n);

  /// Creates a DSD relation; rejected when an existing session's active
  /// roles already violate it.
  Status CreateDsdSet(const std::string& name, std::set<RoleName> roles,
                      int n);

  /// Policy-reconcile installers: create an SoD set WITHOUT the runtime
  /// violation sweep the admin-facing Create*Set calls run. Reconciles
  /// install sets from a statically-validated policy, and pre-existing
  /// runtime state that violates a new set is grandfathered (the
  /// constraint binds future assignments/activations). The sweep would
  /// also make installation depend on whole-system runtime state, which
  /// in the sharded service legitimately differs per replica — a
  /// state-dependent refusal there would install the set on some shards
  /// and not others.
  Status InstallSsdSet(const std::string& name, std::set<RoleName> roles,
                       int n);
  Status InstallDsdSet(const std::string& name, std::set<RoleName> roles,
                       int n);
  Status DeleteDsdSet(const std::string& name) { return dsd_.DeleteSet(name); }
  Status AddDsdRoleMember(const std::string& name, const RoleName& role);
  Status DeleteDsdRoleMember(const std::string& name, const RoleName& role) {
    return dsd_.DeleteRoleMember(name, role);
  }
  Status SetDsdCardinality(const std::string& name, int n);

  // ------------------------------------------------------ System functions

  Status CreateSession(const UserName& user, const SessionId& session) {
    return db_.CreateSession(user, session);
  }
  Status DeleteSession(const SessionId& session) {
    return db_.DeleteSession(session);
  }

  /// Activates `role` in `session` for `user`. Checks, in the paper's AAR
  /// order: user known, session known and owned, role known and not yet
  /// active, user authorized (assignment + hierarchy), DSD satisfied.
  Status AddActiveRole(const UserName& user, const SessionId& session,
                       const RoleName& role);
  Status DropActiveRole(const UserName& user, const SessionId& session,
                        const RoleName& role);

  /// True iff some active role of the session is authorized (directly or
  /// via a junior) for operation `op` on object `obj`.
  Result<bool> CheckAccess(const SessionId& session, const OperationName& op,
                           const ObjectName& obj) const;
  /// Symbol hot path: session lookup, hierarchy closure and permission
  /// membership are all integer operations (closures cached per hierarchy
  /// epoch). Unknown session yields NotFound like the string overload.
  Result<bool> CheckAccess(Symbol session, Symbol op, Symbol obj) const;

  // ------------------------------------------------------ Review functions

  std::set<UserName> AssignedUsers(const RoleName& role) const {
    return db_.AssignedUsers(role);
  }
  std::set<RoleName> AssignedRoles(const UserName& user) const {
    return db_.AssignedRoles(user);
  }
  /// Users assigned to `role` or to any of its seniors.
  std::set<UserName> AuthorizedUsers(const RoleName& role) const;
  /// Roles the user is assigned to, plus all their juniors.
  std::set<RoleName> AuthorizedRoles(const UserName& user) const;
  /// Permissions granted to `role`; with `inherited`, includes juniors'.
  std::set<Permission> RolePermissions(const RoleName& role,
                                       bool inherited) const;
  /// Permissions the user can obtain through any authorized role.
  std::set<Permission> UserPermissions(const UserName& user) const;
  std::set<RoleName> SessionRoles(const SessionId& session) const;
  /// Permissions available in the session via active roles (inherited).
  std::set<Permission> SessionPermissions(const SessionId& session) const;
  std::set<OperationName> RoleOperationsOnObject(const RoleName& role,
                                                 const ObjectName& obj) const;
  std::set<OperationName> UserOperationsOnObject(const UserName& user,
                                                 const ObjectName& obj) const;

  // ----------------------------- Fine-grained predicates (rule conditions)

  /// True iff the user is assigned to `role` or to one of its seniors —
  /// the paper's checkAuthorizationR1 (reduces to checkAssignedR1 when the
  /// role takes part in no hierarchy).
  bool IsAuthorized(const UserName& user, const RoleName& role) const {
    return IsAuthorized(symbols().Find(user), symbols().Find(role));
  }
  bool IsAuthorized(Symbol user, Symbol role) const;

  /// True iff activating `role` in `session` keeps every DSD relation
  /// satisfied — the paper's checkDynamicSoDSet.
  bool DsdSatisfiedWith(const SessionId& session,
                        const RoleName& role) const {
    return DsdSatisfiedWith(symbols().Find(session), symbols().Find(role));
  }
  /// With no DSD relations defined (the common case) this is a single
  /// session lookup.
  bool DsdSatisfiedWith(Symbol session, Symbol role) const;

  /// True iff assigning `role` to `user` keeps every SSD relation
  /// satisfied over the user's authorized roles.
  bool SsdSatisfiedWith(const UserName& user, const RoleName& role) const;

  // ----------------------------------------------------- Component access

  RbacDatabase& db() { return db_; }
  const RbacDatabase& db() const { return db_; }
  RoleHierarchy& hierarchy() { return hierarchy_; }
  const RoleHierarchy& hierarchy() const { return hierarchy_; }
  SodStore& ssd() { return ssd_; }
  const SodStore& ssd() const { return ssd_; }
  SodStore& dsd() { return dsd_; }
  const SodStore& dsd() const { return dsd_; }

  const SymbolTable& symbols() const { return db_.symbols(); }
  SymbolTable& symbols() { return db_.symbols(); }

  /// Count of successful base-state REMOVALS (deassign, revoke, delete
  /// user/role/edge/SoD-set) since construction, summed across the
  /// component stores — counted at the store layer so generated rule
  /// actions that mutate through db()/hierarchy()/ssd()/dsd() directly are
  /// seen too. A policy-update commit compares this against the mark it
  /// captured at the last reconcile: if unchanged, the runtime DB still
  /// holds everything the previous policy installed, and the commit may
  /// replay the precomputed add delta instead of re-scanning the whole
  /// target policy (see BaseStateDelta).
  uint64_t base_removals() const {
    return db_.removals() + hierarchy_.removals() + ssd_.removals() +
           dsd_.removals();
  }

 private:
  /// Every user's authorized role set satisfies every SSD relation; used
  /// to validate hierarchy and SSD administration. Returns the offending
  /// (user, set) description for the first offender by name, or empty
  /// when fine.
  std::string FindSsdViolation() const;
  /// The DSD counterpart: the first session by name that violates a set.
  std::string FindDsdViolation() const;
  /// True iff the session's active roles plus `extra` satisfy every DSD set.
  bool DsdHolds(const RbacDatabase::SessionState& state, Symbol extra) const;
  /// Drops active roles the sessions' users are no longer authorized for.
  void DropUnauthorizedRoles(const std::vector<Symbol>& sessions);

  /// The role's juniors (or seniors) closure as symbols, itself included,
  /// memoized until the hierarchy's epoch moves (administration is rare;
  /// decisions are hot).
  const std::vector<Symbol>& Closure(Symbol role, bool juniors) const;

  RbacDatabase db_;
  RoleHierarchy hierarchy_;
  SodStore ssd_;
  SodStore dsd_;

  mutable std::unordered_map<uint32_t, std::vector<Symbol>> juniors_cache_;
  mutable std::unordered_map<uint32_t, std::vector<Symbol>> seniors_cache_;
  mutable uint64_t cache_epoch_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_RBAC_CORE_API_H_
