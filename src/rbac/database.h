#ifndef SENTINELPP_RBAC_DATABASE_H_
#define SENTINELPP_RBAC_DATABASE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "rbac/types.h"

namespace sentinel {

/// \brief Raw RBAC state: element sets (USERS, ROLES, OPS, OBS), the
/// user-assignment (UA) and permission-assignment (PA) relations, and
/// SESSIONS. Maintains referential integrity only; policy constraints
/// (hierarchy semantics, SoD, temporal) live in the layers above.
///
/// Every relation is kept once, keyed by interned symbol: names are
/// interned when an element is registered (Add*, Grant, CreateSession),
/// and each predicate and mutator is written on Symbol. The name-taking
/// methods are thin wrappers that Find the name (reads never intern) and
/// call the symbol method. A symbol mutator's optional `*_name` arguments
/// only label its error message; the name wrappers pass their arguments.
/// Methods that return names build them on each call, sorted by name.
class RbacDatabase {
 public:
  /// `symbols` is shared with the owning engine so rule-captured symbols
  /// align; when null the database owns a private table.
  explicit RbacDatabase(SymbolTable* symbols = nullptr);

  RbacDatabase(const RbacDatabase&) = delete;
  RbacDatabase& operator=(const RbacDatabase&) = delete;

  const SymbolTable& symbols() const { return *symbols_; }
  SymbolTable& symbols() { return *symbols_; }

  // -------------------------------------------------------- Element sets

  Status AddUser(const UserName& user);
  /// Also removes the user's assignments and sessions.
  Status DeleteUser(const UserName& user);
  bool HasUser(const UserName& user) const { return HasUser(Find(user)); }
  bool HasUser(Symbol user) const { return HasKind(user, kUserBit); }

  Status AddRole(const RoleName& role);
  /// Also removes the role's assignments, grants and active instances.
  Status DeleteRole(const RoleName& role);
  bool HasRole(const RoleName& role) const { return HasRole(Find(role)); }
  bool HasRole(Symbol role) const { return HasKind(role, kRoleBit); }

  /// Operations and objects are registered by their first Grant.
  bool HasOperation(const OperationName& op) const {
    return HasOperation(Find(op));
  }
  bool HasOperation(Symbol op) const { return HasKind(op, kOperationBit); }
  bool HasObject(const ObjectName& obj) const { return HasObject(Find(obj)); }
  bool HasObject(Symbol obj) const { return HasKind(obj, kObjectBit); }

  // ------------------------------------------------------------------ UA

  Status Assign(const UserName& user, const RoleName& role) {
    return Assign(Find(user), Find(role), user, role);
  }
  Status Assign(Symbol user, Symbol role, const std::string& user_name = {},
                const std::string& role_name = {});
  Status Deassign(const UserName& user, const RoleName& role) {
    return Deassign(Find(user), Find(role), user, role);
  }
  Status Deassign(Symbol user, Symbol role, const std::string& user_name = {},
                  const std::string& role_name = {});
  bool IsAssigned(const UserName& user, const RoleName& role) const {
    return IsAssigned(Find(user), Find(role));
  }
  bool IsAssigned(Symbol user, Symbol role) const;
  std::set<RoleName> AssignedRoles(const UserName& user) const;
  std::set<UserName> AssignedUsers(const RoleName& role) const;
  /// Users holding at least one assignment, in no particular order.
  std::vector<Symbol> UsersWithAssignments() const { return KeysOf(ua_); }

  // ------------------------------------------------------------------ PA

  Status Grant(const Permission& perm, const RoleName& role);
  Status Revoke(const Permission& perm, const RoleName& role);
  bool IsGranted(const Permission& perm, const RoleName& role) const {
    return IsGranted(Find(perm.operation), Find(perm.object), Find(role));
  }
  bool IsGranted(Symbol op, Symbol obj, Symbol role) const;
  std::set<Permission> RolePermissions(const RoleName& role) const;

  // ------------------------------------------------------------ Sessions

  /// One session: owner plus sorted active-role symbols.
  struct SessionState {
    Symbol user;
    std::vector<Symbol> active_roles;  // Sorted by symbol id.

    bool IsActive(Symbol role) const {
      return std::binary_search(active_roles.begin(), active_roles.end(),
                                role);
    }
  };

  /// Interns the session id.
  Status CreateSession(const UserName& user, const SessionId& session);
  /// Callers reject the empty id by spelling; an invalid symbol is refused.
  Status CreateSession(Symbol user, Symbol session);
  Status DeleteSession(const SessionId& session) {
    return DeleteSession(Find(session), session);
  }
  Status DeleteSession(Symbol session, const std::string& session_name = {});
  bool HasSession(const SessionId& session) const {
    return HasSession(Find(session));
  }
  bool HasSession(Symbol session) const {
    return sessions_.count(session.id()) > 0;
  }
  /// Owner and active roles by name; error when unknown.
  Result<Session> GetSession(const SessionId& session) const;
  /// nullptr when unknown. The pointer is valid until the session is
  /// deleted; its active roles change with every activation and drop.
  const SessionState* GetSessionState(Symbol session) const;
  std::set<SessionId> UserSessions(const UserName& user) const;
  /// The user's sessions, in no particular order.
  std::vector<Symbol> UserSessions(Symbol user) const;
  /// Every live session, in no particular order.
  std::vector<Symbol> Sessions() const { return KeysOf(sessions_); }
  /// Sessions in which `role` is active, in no particular order.
  std::vector<Symbol> SessionsWithRole(Symbol role) const;

  /// Monotonic mutation counter for the session bound to this symbol:
  /// bumped by create/delete and by every active-role change (including
  /// cascaded drops from DeleteUser / DeleteRole / deassignment). Never
  /// reset — a session id deleted and re-created under the same name keeps
  /// counting up, so a decision-cache stamp taken before the delete can
  /// never match again. Sessions share kSessionStripes counters by symbol
  /// id, so a bump also moves every session on the same stripe, which only
  /// costs their cached verdicts. Safe to call from any thread (the
  /// zero-hop read path does); only the owning engine's thread bumps. The
  /// invalid symbol reads 0.
  uint32_t SessionGeneration(Symbol session) const {
    return session.valid()
               ? session_gen_[StripeOf(session)].load(std::memory_order_acquire)
               : 0;
  }

  /// Adds/removes an active role in a session. Validity (assignment,
  /// authorization, DSD) is checked by the enforcement layer, not here —
  /// only existence of the session and role.
  Status AddSessionRole(const SessionId& session, const RoleName& role) {
    return AddSessionRole(Find(session), Find(role), session, role);
  }
  Status AddSessionRole(Symbol session, Symbol role,
                        const std::string& session_name = {},
                        const std::string& role_name = {});
  Status DropSessionRole(const SessionId& session, const RoleName& role) {
    return DropSessionRole(Find(session), Find(role), session, role);
  }
  Status DropSessionRole(Symbol session, Symbol role,
                         const std::string& session_name = {},
                         const std::string& role_name = {});
  bool IsSessionRoleActive(const SessionId& session,
                           const RoleName& role) const {
    return IsSessionRoleActive(Find(session), Find(role));
  }
  bool IsSessionRoleActive(Symbol session, Symbol role) const;

  /// Number of sessions in which `role` is currently active (counts each
  /// session once) — the quantity cardinality constraints bound.
  int ActiveSessionCount(const RoleName& role) const {
    return ActiveSessionCount(Find(role));
  }
  int ActiveSessionCount(Symbol role) const;

  // ------------------------------------------------------ Introspection

  /// Each walks the registered symbols; for admin paths and tests.
  std::set<UserName> users() const { return NamesOfKind(kUserBit); }
  std::set<RoleName> roles() const { return NamesOfKind(kRoleBit); }
  /// Sorted.
  std::vector<SessionId> SessionIds() const;
  size_t session_count() const { return sessions_.size(); }

  /// Successful base-relation removals (DeleteUser, DeleteRole, Deassign,
  /// Revoke) since construction. Counted here — not in the facade — so
  /// generated rule actions that mutate the database directly are seen.
  /// Policy-update commits use the aggregate (RbacSystem::base_removals)
  /// to decide between the O(diff) add replay and a full re-sync scan.
  uint64_t removals() const { return removals_; }

 private:
  Symbol Find(const std::string& name) const { return symbols_->Find(name); }
  template <typename Map>
  static std::vector<Symbol> KeysOf(const Map& map) {
    std::vector<Symbol> keys;
    for (const auto& entry : map) keys.push_back(Symbol(entry.first));
    return keys;
  }

  // What element kinds a symbol is registered as (a name may be reused
  // across kinds, e.g. an object named like a role).
  static constexpr uint8_t kUserBit = 1;
  static constexpr uint8_t kRoleBit = 2;
  static constexpr uint8_t kOperationBit = 4;
  static constexpr uint8_t kObjectBit = 8;

  bool HasKind(Symbol s, uint8_t bit) const {
    return s.valid() && s.id() < kind_bits_.size() &&
           (kind_bits_[s.id()] & bit) != 0;
  }
  /// Interns `name` and sizes kind_bits_ for it; ResourceExhausted once
  /// the symbol table is full, so no unregistrable name is ever stored.
  Result<Symbol> InternName(const std::string& name);
  /// The shared body of AddUser and AddRole.
  Status AddElement(const std::string& name, uint8_t bit, const char* kind);
  /// One session fewer holds `role` active.
  void ReleaseActive(Symbol role);
  void ClearKind(Symbol s, uint8_t bit) {
    if (HasKind(s, bit)) kind_bits_[s.id()] &= static_cast<uint8_t>(~bit);
  }
  std::set<std::string> NamesOfKind(uint8_t bit) const;
  static constexpr size_t kSessionStripes = 4096;  // A power of two.
  static size_t StripeOf(Symbol session) {
    return session.id() & (kSessionStripes - 1);
  }
  void BumpSessionGeneration(Symbol session) {
    if (!session.valid()) return;
    std::atomic<uint32_t>& stripe = session_gen_[StripeOf(session)];
    stripe.store(stripe.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }
  static uint64_t PackPermission(Symbol op, Symbol obj) {
    return (static_cast<uint64_t>(op.id()) << 32) | obj.id();
  }

  std::unique_ptr<SymbolTable> owned_symbols_;
  SymbolTable* symbols_;
  // Keys are dense symbol ids; role lists are sorted by symbol id.
  std::vector<uint8_t> kind_bits_;  // USERS, ROLES, OPS, OBS by symbol id.
  std::unordered_map<uint32_t, std::vector<Symbol>> ua_;  // user -> roles.
  /// role -> users: a set, since one role may hold every user.
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> ua_inverse_;
  /// role -> packed (operation, object) pairs.
  std::unordered_map<uint32_t, std::unordered_set<uint64_t>> pa_;
  std::unordered_map<uint32_t, SessionState> sessions_;
  /// user -> sessions, in creation order.
  std::unordered_map<uint32_t, std::vector<Symbol>> user_sessions_;
  std::unordered_map<uint32_t, int> active_counts_;  // role -> sessions.
  /// Session generations by stripe; see SessionGeneration.
  std::array<std::atomic<uint32_t>, kSessionStripes> session_gen_{};
  uint64_t removals_ = 0;  // Successful base-relation removals.
};

}  // namespace sentinel

#endif  // SENTINELPP_RBAC_DATABASE_H_
