#include "gtrbac/role_state.h"

namespace sentinel {

RoleStateTable::RoleStateTable(SymbolTable* symbols) {
  if (symbols == nullptr) {
    owned_symbols_ = std::make_unique<SymbolTable>();
    symbols_ = owned_symbols_.get();
  } else {
    symbols_ = symbols;
  }
}

void RoleStateTable::Enable(const RoleName& role, Time when) {
  disabled_.erase(role);
  disabled_sym_.erase(symbols_->Intern(role).id());
  last_transition_[role] = when;
  ++roles_generation_;
}

void RoleStateTable::Disable(const RoleName& role, Time when) {
  disabled_.insert(role);
  disabled_sym_.insert(symbols_->Intern(role).id());
  last_transition_[role] = when;
  ++roles_generation_;
}

bool RoleStateTable::IsEnabled(const RoleName& role) const {
  return disabled_.count(role) == 0;
}

std::optional<Time> RoleStateTable::LastTransition(
    const RoleName& role) const {
  auto it = last_transition_.find(role);
  if (it == last_transition_.end()) return std::nullopt;
  return it->second;
}

void RoleStateTable::EraseRole(const RoleName& role) {
  disabled_.erase(role);
  disabled_sym_.erase(symbols_->Intern(role).id());
  last_transition_.erase(role);
  ++roles_generation_;
}

std::set<RoleName> RoleStateTable::DisabledRoles() const { return disabled_; }

}  // namespace sentinel
