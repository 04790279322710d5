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

void RoleStateTable::Enable(Symbol role, Time when) {
  ++roles_generation_;
  if (!role.valid()) return;  // A name the full table could not intern.
  disabled_.erase(role.id());
  last_transition_[role.id()] = when;
}

void RoleStateTable::Disable(Symbol role, Time when) {
  ++roles_generation_;
  if (!role.valid()) return;
  disabled_.insert(role.id());
  last_transition_[role.id()] = when;
}

std::optional<Time> RoleStateTable::LastTransition(
    const RoleName& role) const {
  auto it = last_transition_.find(symbols_->Find(role).id());
  if (it == last_transition_.end()) return std::nullopt;
  return it->second;
}

void RoleStateTable::EraseRole(const RoleName& role) {
  const Symbol role_sym = symbols_->Find(role);
  disabled_.erase(role_sym.id());
  last_transition_.erase(role_sym.id());
  ++roles_generation_;
}

std::set<RoleName> RoleStateTable::DisabledRoles() const {
  std::set<RoleName> out;
  for (uint32_t role : disabled_) out.insert(symbols_->NameOf(Symbol(role)));
  return out;
}

}  // namespace sentinel
