#ifndef SENTINELPP_GTRBAC_ROLE_STATE_H_
#define SENTINELPP_GTRBAC_ROLE_STATE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_set>

#include "common/interner.h"
#include "common/status.h"
#include "rbac/types.h"

namespace sentinel {

/// \brief GTRBAC role enablement state.
///
/// GTRBAC distinguishes a role being *enabled* (may be activated) from
/// being *active* (in some session). Periodic enabling constraints and
/// time-based SoD act on this table; activation rules consult it. Roles
/// without an entry are enabled by default.
///
/// State is keyed by symbol, so the per-activation IsEnabled check on the
/// rule path costs one integer-set probe (and nothing at all while no role
/// is disabled, the common case). Name reads resolve with Find and never
/// intern: a name never registered reads as enabled.
class RoleStateTable {
 public:
  /// `symbols` is shared with the owning engine; when null the table owns
  /// a private one.
  explicit RoleStateTable(SymbolTable* symbols = nullptr);

  /// Enables the role and counts the transition (roles_generation).
  void Enable(const RoleName& role) { Enable(symbols_->Intern(role)); }
  void Enable(Symbol role);
  /// Disables the role and counts the transition (roles_generation).
  void Disable(const RoleName& role) { Disable(symbols_->Intern(role)); }
  void Disable(Symbol role);

  bool IsEnabled(const RoleName& role) const {
    return IsEnabled(symbols_->Find(role));
  }
  bool IsEnabled(Symbol role) const {
    return disabled_.empty() || disabled_.count(role.id()) == 0;
  }

  /// Drops the role's entry (on role deletion).
  void EraseRole(const RoleName& role);

  /// Roles currently explicitly disabled, sorted by name.
  std::set<RoleName> DisabledRoles() const;

  /// Transition counter: bumped by every Enable / Disable / EraseRole —
  /// the GTRBAC firing sites. A word of the decision cache's validity
  /// stamp, so a periodic boundary, a cascade or an erase that moves any
  /// role retires every verdict memoized on this table's shard, lazily.
  uint32_t roles_generation() const { return roles_generation_; }

 private:
  std::unique_ptr<SymbolTable> owned_symbols_;
  SymbolTable* symbols_;
  std::unordered_set<uint32_t> disabled_;  // Symbol ids.
  uint32_t roles_generation_ = 0;
};

}  // namespace sentinel

#endif  // SENTINELPP_GTRBAC_ROLE_STATE_H_
