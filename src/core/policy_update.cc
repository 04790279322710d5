#include "core/policy_update.h"

namespace sentinel {

BaseStateDelta ComputeBaseStateDelta(const Policy& from, const Policy& to) {
  BaseStateDelta delta;
  // Each list is in name order: DiffUsers and DiffRoles visit names in
  // order, and only the names a linked pair's journal lists (see Policy).
  // ApplyBaseDelta in engine.cc replays the lists in reconcile order
  // (constraints, relations and entities out; then entities, relations and
  // constraints in).
  for (const auto& [name, set] : from.ssd_sets()) {
    auto it = to.ssd_sets().find(name);
    if (it == to.ssd_sets().end() || !(it->second == set)) {
      delta.drop_ssd.push_back(name);
    }
  }
  for (const auto& [name, set] : from.dsd_sets()) {
    auto it = to.dsd_sets().find(name);
    if (it == to.dsd_sets().end() || !(it->second == set)) {
      delta.drop_dsd.push_back(name);
    }
  }
  Policy::DiffUsers(from, to, [&delta](const UserName& name,
                                      const UserSpec* was,
                                      const UserSpec* now) {
    if (now == nullptr) delta.drop_users.push_back(name);
    if (was != nullptr) {
      for (const RoleName& role : was->assignments) {
        if (now == nullptr || now->assignments.count(role) == 0) {
          delta.deassign.emplace_back(name, role);
        }
      }
    }
    if (now == nullptr) return;
    if (was == nullptr) delta.add_users.push_back(name);
    for (const RoleName& role : now->assignments) {
      if (was == nullptr || was->assignments.count(role) == 0) {
        delta.add_assignments.emplace_back(name, role);
      }
    }
  });
  Policy::DiffRoles(from, to, [&delta](const RoleName& name,
                                      const RoleSpec* was,
                                      const RoleSpec* now) {
    if (now == nullptr) delta.drop_roles.push_back(name);
    if (was != nullptr) {
      for (const Permission& perm : was->permissions) {
        if (now == nullptr || now->permissions.count(perm) == 0) {
          delta.revoke.emplace_back(name, perm);
        }
      }
      for (const RoleName& junior : was->juniors) {
        if (now == nullptr || now->juniors.count(junior) == 0) {
          delta.drop_edges.emplace_back(name, junior);
        }
      }
    }
    if (now == nullptr) return;
    if (was == nullptr) delta.add_roles.push_back(name);
    for (const RoleName& junior : now->juniors) {
      if (was == nullptr || was->juniors.count(junior) == 0) {
        delta.add_edges.emplace_back(name, junior);
      }
    }
    for (const Permission& perm : now->permissions) {
      if (was == nullptr || was->permissions.count(perm) == 0) {
        delta.add_grants.emplace_back(name, perm);
      }
    }
    if (!now->enabling_window.has_value() && was != nullptr &&
        was->enabling_window.has_value()) {
      delta.window_removed.insert(name);
    }
  });
  // window_roles lists every windowed role of `to`, whatever the edit.
  for (const auto& [name, spec] : to.roles()) {
    if (spec.enabling_window.has_value()) delta.window_roles.push_back(name);
  }
  for (const auto& [name, set] : to.ssd_sets()) {
    auto it = from.ssd_sets().find(name);
    if (it == from.ssd_sets().end() || !(it->second == set)) {
      delta.add_ssd.push_back(name);
    }
  }
  for (const auto& [name, set] : to.dsd_sets()) {
    auto it = from.dsd_sets().find(name);
    if (it == from.dsd_sets().end() || !(it->second == set)) {
      delta.add_dsd.push_back(name);
    }
  }
  delta.privacy_changed = !(from.purposes() == to.purposes()) ||
                          !(from.object_policies() == to.object_policies());
  return delta;
}

}  // namespace sentinel
