#include "core/policy_update.h"

namespace sentinel {

BaseStateDelta ComputeBaseStateDelta(const Policy& from, const Policy& to) {
  BaseStateDelta delta;
  // Each list keeps the name order of the map it walks; ApplyBaseDelta in
  // engine.cc replays the lists in reconcile order (constraints, relations
  // and entities out; then entities, relations and constraints in). A
  // section both policies share holds no difference and is not walked.
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
  if (!from.SharesUsersWith(to)) {
    for (const auto& [name, spec] : from.users()) {
      auto it = to.users().find(name);
      if (it == to.users().end()) delta.drop_users.push_back(name);
      for (const RoleName& role : spec.assignments) {
        if (it == to.users().end() ||
            it->second.assignments.count(role) == 0) {
          delta.deassign.emplace_back(name, role);
        }
      }
    }
    for (const auto& [name, spec] : to.users()) {
      auto it = from.users().find(name);
      const bool fresh = it == from.users().end();
      if (fresh) delta.add_users.push_back(name);
      for (const RoleName& role : spec.assignments) {
        if (fresh || it->second.assignments.count(role) == 0) {
          delta.add_assignments.emplace_back(name, role);
        }
      }
    }
  }
  const bool roles_shared = from.SharesRolesWith(to);
  if (!roles_shared) {
    for (const auto& [name, spec] : from.roles()) {
      auto it = to.roles().find(name);
      if (it == to.roles().end()) delta.drop_roles.push_back(name);
      for (const Permission& perm : spec.permissions) {
        if (it == to.roles().end() ||
            it->second.permissions.count(perm) == 0) {
          delta.revoke.emplace_back(name, perm);
        }
      }
      for (const RoleName& junior : spec.juniors) {
        if (it == to.roles().end() || it->second.juniors.count(junior) == 0) {
          delta.drop_edges.emplace_back(name, junior);
        }
      }
    }
  }
  // window_roles lists every windowed role of `to`, shared section or not.
  for (const auto& [name, spec] : to.roles()) {
    if (spec.enabling_window.has_value()) delta.window_roles.push_back(name);
    if (roles_shared) continue;
    auto it = from.roles().find(name);
    const bool fresh = it == from.roles().end();
    if (fresh) delta.add_roles.push_back(name);
    for (const RoleName& junior : spec.juniors) {
      if (fresh || it->second.juniors.count(junior) == 0) {
        delta.add_edges.emplace_back(name, junior);
      }
    }
    for (const Permission& perm : spec.permissions) {
      if (fresh || it->second.permissions.count(perm) == 0) {
        delta.add_grants.emplace_back(name, perm);
      }
    }
    if (!spec.enabling_window.has_value() && !fresh &&
        it->second.enabling_window.has_value()) {
      delta.window_removed.insert(name);
    }
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
