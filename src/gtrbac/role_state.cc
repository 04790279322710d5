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

void RoleStateTable::Enable(Symbol role) {
  ++roles_generation_;
  if (!role.valid()) return;  // A name the full table could not intern.
  disabled_.erase(role.id());
}

void RoleStateTable::Disable(Symbol role) {
  ++roles_generation_;
  if (!role.valid()) return;
  disabled_.insert(role.id());
}

void RoleStateTable::EraseRole(const RoleName& role) {
  disabled_.erase(symbols_->Find(role).id());
  ++roles_generation_;
}

std::set<RoleName> RoleStateTable::DisabledRoles() const {
  std::set<RoleName> out;
  for (uint32_t role : disabled_) out.insert(symbols_->NameOf(Symbol(role)));
  return out;
}

}  // namespace sentinel
