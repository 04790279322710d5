#ifndef SENTINELPP_RBAC_DATABASE_H_
#define SENTINELPP_RBAC_DATABASE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
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
/// Names are interned at registration: every mutator keeps symbol-keyed
/// mirrors of the hot relations in step with the string containers, so the
/// per-request predicates (HasRole, IsAssigned, IsGranted, session lookups)
/// have Symbol overloads that never hash or compare a string. The string
/// API remains the public boundary and the source for ordered
/// introspection.
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
  bool HasUser(const UserName& user) const { return users_.count(user) > 0; }
  bool HasUser(Symbol user) const { return HasKind(user, kUserBit); }

  Status AddRole(const RoleName& role);
  /// Also removes the role's assignments, grants and active instances.
  Status DeleteRole(const RoleName& role);
  bool HasRole(const RoleName& role) const { return roles_.count(role) > 0; }
  bool HasRole(Symbol role) const { return HasKind(role, kRoleBit); }

  Status AddOperation(const OperationName& op);
  bool HasOperation(const OperationName& op) const {
    return operations_.count(op) > 0;
  }
  bool HasOperation(Symbol op) const { return HasKind(op, kOperationBit); }
  Status AddObject(const ObjectName& obj);
  bool HasObject(const ObjectName& obj) const {
    return objects_.count(obj) > 0;
  }
  bool HasObject(Symbol obj) const { return HasKind(obj, kObjectBit); }

  // ------------------------------------------------------------------ UA

  Status Assign(const UserName& user, const RoleName& role);
  Status Deassign(const UserName& user, const RoleName& role);
  bool IsAssigned(const UserName& user, const RoleName& role) const;
  bool IsAssigned(Symbol user, Symbol role) const;
  const std::set<RoleName>& AssignedRoles(const UserName& user) const;
  const std::set<UserName>& AssignedUsers(const RoleName& role) const;

  // ------------------------------------------------------------------ PA

  Status Grant(const Permission& perm, const RoleName& role);
  Status Revoke(const Permission& perm, const RoleName& role);
  bool IsGranted(const Permission& perm, const RoleName& role) const;
  bool IsGranted(Symbol op, Symbol obj, Symbol role) const;
  const std::set<Permission>& RolePermissions(const RoleName& role) const;

  // ------------------------------------------------------------ Sessions

  /// Symbol mirror of one session: owner plus sorted active-role symbols.
  struct SessionState {
    Symbol user;
    std::vector<Symbol> active_roles;  // Sorted by symbol id.

    bool IsActive(Symbol role) const {
      return std::binary_search(active_roles.begin(), active_roles.end(),
                                role);
    }
  };

  Status CreateSession(const UserName& user, const SessionId& session);
  Status DeleteSession(const SessionId& session);
  bool HasSession(const SessionId& session) const {
    return sessions_.count(session) > 0;
  }
  bool HasSession(Symbol session) const {
    return sessions_sym_.count(session.id()) > 0;
  }
  /// Owner and active-role set; error when unknown.
  Result<const Session*> GetSession(const SessionId& session) const;
  /// Symbol mirror lookup; nullptr when unknown. The pointer is valid until
  /// the next session mutation.
  const SessionState* GetSessionState(Symbol session) const;
  const std::set<SessionId>& UserSessions(const UserName& user) const;

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
  Status AddSessionRole(const SessionId& session, const RoleName& role);
  Status DropSessionRole(const SessionId& session, const RoleName& role);
  Status AddSessionRole(Symbol session, Symbol role);
  Status DropSessionRole(Symbol session, Symbol role);
  bool IsSessionRoleActive(const SessionId& session,
                           const RoleName& role) const;
  bool IsSessionRoleActive(Symbol session, Symbol role) const;

  /// Number of sessions in which `role` is currently active (counts each
  /// session once) — the quantity cardinality constraints bound.
  int ActiveSessionCount(const RoleName& role) const;
  int ActiveSessionCount(Symbol role) const;

  // ------------------------------------------------------ Introspection

  const std::set<UserName>& users() const { return users_; }
  const std::set<RoleName>& roles() const { return roles_; }
  const std::set<OperationName>& operations() const { return operations_; }
  const std::set<ObjectName>& objects() const { return objects_; }
  std::vector<SessionId> SessionIds() const;
  size_t session_count() const { return sessions_.size(); }

  /// Successful base-relation removals (DeleteUser, DeleteRole, Deassign,
  /// Revoke) since construction. Counted here — not in the facade — so
  /// generated rule actions that mutate the database directly are seen.
  /// Policy-update commits use the aggregate (RbacSystem::base_removals)
  /// to decide between the O(diff) add replay and a full re-sync scan.
  uint64_t removals() const { return removals_; }

 private:
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
  Symbol InternName(const std::string& name);
  void SetKind(Symbol s, uint8_t bit);
  void ClearKind(Symbol s, uint8_t bit);
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

  std::set<UserName> users_;
  std::set<RoleName> roles_;
  std::set<OperationName> operations_;
  std::set<ObjectName> objects_;

  std::map<UserName, std::set<RoleName>> ua_;
  std::map<RoleName, std::set<UserName>> ua_inverse_;
  std::map<RoleName, std::set<Permission>> pa_;
  std::map<SessionId, Session> sessions_;
  std::map<UserName, std::set<SessionId>> user_sessions_;
  std::map<RoleName, int> active_counts_;

  // Symbol mirrors of the relations above, maintained by the same mutators.
  // All keys are dense symbol ids; values holding role lists are sorted.
  std::unique_ptr<SymbolTable> owned_symbols_;
  SymbolTable* symbols_;
  std::vector<uint8_t> kind_bits_;  // Indexed by symbol id.
  std::unordered_map<uint32_t, std::vector<Symbol>> ua_sym_;
  std::unordered_map<uint32_t, std::unordered_set<uint64_t>> pa_sym_;
  std::unordered_map<uint32_t, SessionState> sessions_sym_;
  std::unordered_map<uint32_t, int> active_counts_sym_;
  /// Session generations by stripe; see SessionGeneration.
  std::array<std::atomic<uint32_t>, kSessionStripes> session_gen_{};
  uint64_t removals_ = 0;  // Successful base-relation removals.
};

}  // namespace sentinel

#endif  // SENTINELPP_RBAC_DATABASE_H_
